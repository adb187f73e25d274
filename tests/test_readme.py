"""README drift guard: the names README lists for each module exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import descent_lab

README = Path(__file__).resolve().parents[1] / "README.md"
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
