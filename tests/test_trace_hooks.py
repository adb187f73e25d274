"""The names the benchmark's outside tracer (``perfbench/spans.py``) and its
child process (``perfbench/child.py``) look up in descent_lab, and the
commands its workloads (``perfbench/workloads.py``) run.

The tracer patches functions by name, so renaming or deleting one of them
breaks ``perfbench/run.py --trace 1`` without failing any other test; a
changed CLI spelling would likewise break ``perfbench/run.py`` unseen.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from descent_lab import cli, experiments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, mp):
    """perfbench/NAME.py as a module, in sys.modules while ``mp`` lasts (its
    dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        return _load("spans", mp)


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling checks.py as a top-level module
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "checks", _load("checks", mp))
        return _load("workloads", mp)


def test_every_traced_layer_resolves(spans):
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"descent_lab.{module}"), attr))
    # what child.py calls or patches besides
    for ns, attr in ((experiments, "worker_count"), (cli, "fit_gradient_descent"),
                     (cli, "main")):
        assert callable(getattr(ns, attr))


def test_run_cells_takes_cells_and_the_cell_function():
    assert list(inspect.signature(experiments._run_cells).parameters) == ["cells", "one"]


def _traced_sweep(spans, tmp_path, *flags):
    """The spans of one traced ``sweep --d 8 --grid 2:24 --seeds 0``, 23
    cells, with ``flags`` added; the patched functions are put back."""
    original = experiments.apply_ablation
    tracer = spans.Tracer().install()
    try:
        code = cli.main(["sweep", "--d", "8", "--grid", "2:24", "--seeds", "0",
                         *flags, "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert experiments.apply_ablation is original
    return tracer.spans


def _cells_of(spans, name):
    return sorted(span[5] for span in spans if span[2] == name)


def test_tracer_sees_one_ablation_span_per_cell(spans, tmp_path):
    traced = _traced_sweep(spans, tmp_path, "--ablation", "sv-cutoff")
    cells = _cells_of(traced, "experiments.cell")
    assert len(cells) == 23  # n_train 2..24, one seed
    assert _cells_of(traced, "experiments.apply_ablation") == cells


def test_tracer_sees_the_ridge_fit_and_its_decomposition_in_every_cell(spans, tmp_path):
    # a ridge cell fits through the traced fit_ridge and decomposes through
    # the traced decompose_test_errors, so the benchmark's fit and decompose
    # layers see it
    traced = _traced_sweep(spans, tmp_path, "--estimator", "ridge:0.1")
    cells = _cells_of(traced, "experiments.cell")
    assert len(cells) == 23
    assert _cells_of(traced, "estimators.fit_ridge") == cells
    assert _cells_of(traced, "decomposition.decompose_test_errors") == cells
    assert _cells_of(traced, "estimators.fit_pinv") == []


def test_every_benchmark_command_parses(workloads, tmp_path):
    # each timed command as run.py runs it (a --seeds range and --out added),
    # and each untimed reference command (with --out)
    argvs = [argv + ["--out", str(tmp_path)]
             for w in workloads.WORKLOADS.values()
             for argv in [*w.invocations(0), *map(list, w.reference)]]
    assert argvs
    parser = cli.build_parser()
    for argv in argvs:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"descent-lab rejects the benchmark command {argv}")
        if args.command == "sweep":
            # the settings check _prepare runs first
            experiments._settings(args.ablation, args.estimator)
