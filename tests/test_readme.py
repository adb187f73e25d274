"""README drift guard: the names README lists for each module exist, its
Library snippet prints what README says, and every demo it lists runs."""

import contextlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import descent_lab

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(descent_lab.__path__)}


def _module_bullets() -> list[str]:
    """The bullets of README's ``Modules:`` list, each joined onto one line."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\nModules:\n", 1)[1].split("\n## ", 1)[0]
    return [" ".join(b.split()) for b in re.split(r"\n\* ", block) if b.strip()]


def _documented_names(bullet: str) -> list[tuple[str | None, str]]:
    """(module, name) for every backticked identifier inside parentheses of
    ``bullet``.  The module is the last one the bullet names outside
    parentheses before it, so a bullet that goes on to describe a second
    module (as the `cli` bullet does `errors`) lists that module's names."""
    pairs, module, depth = [], None, 0
    for i, part in enumerate(bullet.split("`")):
        if i % 2 == 0:  # prose; the backticked spans are the odd parts
            depth += part.count("(") - part.count(")")
        elif depth > 0:
            if part.isidentifier():
                pairs.append((module, part))
        elif part in MODULES:
            module = part
    return pairs


def test_every_module_bullet_lists_only_attributes_of_its_module():
    pairs = [pair for bullet in _module_bullets() for pair in _documented_names(bullet)]
    assert len(pairs) >= 20  # the parse still finds the lists
    missing = [f"{module}.{name}" for module, name in pairs
               if module is None
               or not hasattr(importlib.import_module(f"descent_lab.{module}"), name)]
    assert not missing


def test_the_library_snippet_prints_what_readme_says():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = section.split("\nprints\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == prints


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")), ids=lambda p: p.name)
def test_every_demo_runs(demo, tmp_path):
    # Demos write their plots into the working directory and read
    # data/diabetes.csv relative to it, so each runs in its own directory.
    (tmp_path / "data").symlink_to(REPO / "data")
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=120,
    )
    assert run.returncode == 0, run.stderr
