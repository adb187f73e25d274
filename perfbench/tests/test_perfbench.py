"""Tests of the benchmark itself: the tracer, the layer metrics, the gates and
the harness contract.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import NOT_IN_BENCHMARK, WORKLOADS  # noqa: E402

import descent_lab  # noqa: E402
from descent_lab import cli, estimators, experiments, linalg  # noqa: E402

HEADLINE_ONE_SEED = ["sweep", "--d", "32", "--noise-sd", "0.25", "--grid", "2:96", "--seeds", "0:0"]


def traced(argv, out, workers, monkeypatch):
    """Run one CLI command under the tracer; return its spans and wall time."""
    monkeypatch.setenv("DESCENT_LAB_THREADS", str(workers))
    with spans.Tracer() as tracer:
        t0 = time.perf_counter()
        assert cli.main(argv + ["--out", str(out)]) == 0
        wall = time.perf_counter() - t0
    return tracer.spans, wall


@pytest.mark.parametrize("workers", [1, 2])
def test_headline_sweep_runs_four_svds_per_cell(tmp_path, monkeypatch, workers):
    got, _ = traced(HEADLINE_ONE_SEED, tmp_path, workers, monkeypatch)
    m = layers.summarize(got, cells=95)
    assert m["experiments.cell.count"] == 95
    assert m["linalg.svd.calls_per_cell"] == 4
    # Every factorization happens inside a cell, on whichever pool thread ran it.
    svd_cells = {s[5] for s in got if s[2] == "linalg.svd"}
    assert 0 not in svd_cells and len(svd_cells) == 95


def test_counts_repeat_exactly(tmp_path, monkeypatch):
    first = layers.summarize(traced(HEADLINE_ONE_SEED, tmp_path / "a", 2, monkeypatch)[0], 95)
    second = layers.summarize(traced(HEADLINE_ONE_SEED, tmp_path / "b", 2, monkeypatch)[0], 95)
    assert {k: first[k] for k in layers.COUNTS} == {k: second[k] for k in layers.COUNTS}


@pytest.mark.parametrize("workers", [1, 2])
def test_self_times_fit_inside_the_traced_wall_time(tmp_path, monkeypatch, workers):
    got, wall = traced(HEADLINE_ONE_SEED, tmp_path, workers, monkeypatch)
    own = layers.self_times(got)
    assert min(own) >= 0.0
    # Cells overlap on the pool, so self time can reach wall time per worker.
    assert sum(own) <= wall * workers


def test_self_time_subtracts_the_union_of_overlapping_children():
    got = [
        [1, 0, "root", 0.0, 10.0, 0, None, None],
        [2, 1, "cell", 1.0, 5.0, 1, None, None],
        [3, 1, "cell", 3.0, 7.0, 2, None, None],
        [4, 2, "leaf", 2.0, 3.0, 1, None, None],
    ]
    assert layers.self_times(got) == [4.0, 3.0, 4.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_it():
    original = linalg.svd
    with spans.Tracer():
        wrapped = linalg.svd
        assert wrapped is not original
        assert estimators.svd is wrapped and experiments.svd is wrapped
        assert descent_lab.svd is wrapped
    assert linalg.svd is original and estimators.svd is original
    assert experiments.svd is original and descent_lab.svd is original


def test_gradient_descent_steps_are_counted(tmp_path, monkeypatch):
    argv = ["gdcheck", "--n", "40", "--d", "20", "--steps", "300", "--eta", "auto",
            "--seeds", "0:1"]
    monkeypatch.setenv("DESCENT_LAB_THREADS", "1")
    with spans.Tracer() as tracer:
        cli.main(argv + ["--out", str(tmp_path)])
    m = layers.summarize(tracer.spans, cells=2)
    assert m["estimators.gd.steps"] == 600
    assert m["experiments.cell.count"] == 0


def test_reference_grid_reproduces_the_full_sweep_records(tmp_path):
    full = ["sweep", "--d", "32", "--noise-sd", "0.25", "--grid", "2:96", "--seeds", "0:1"]
    ref = ["sweep", "--d", "32", "--noise-sd", "0.25", "--grid", "8:96:8", "--seeds", "0:1"]
    assert cli.main(full + ["--out", str(tmp_path / "full")]) == 0
    assert cli.main(ref + ["--out", str(tmp_path / "ref")]) == 0
    full_rows = (tmp_path / "full" / "records.csv").read_text().splitlines()
    ref_rows = (tmp_path / "ref" / "records.csv").read_text().splitlines()
    wanted = {str(n) for n in range(8, 97, 8)}
    assert ref_rows == [full_rows[0]] + [r for r in full_rows[1:] if r.split(",")[0] in wanted]


def _rows(mse_by_n):
    return [{"n_train": n, "d": 32, "seed": s, "test_mse": v}
            for n, vals in mse_by_n.items() for s, v in enumerate(vals)]


def test_gates_pass_a_spike_and_fail_a_flat_curve():
    spiked = _rows({16: [0.6, 0.6], 32: [5.0, 6.0], 96: [0.09, 0.1]})
    flat = _rows({16: [0.6, 0.6], 32: [0.7, 0.8], 96: [0.09, 0.1]})
    assert checks.spike(spiked)[0] and not checks.spike(flat)[0]
    assert checks.peak_ratio(flat)[0] is False
    assert checks.peak_ratio(_rows({32: [0.1], 96: [0.09]}))[0] is True


def test_closed_form_risk_matches_the_documented_values():
    assert checks.min_norm_risk(8, 32, 0.0625) == pytest.approx(0.8342, abs=1e-4)
    assert checks.min_norm_risk(96, 32, 0.0625) == pytest.approx(0.09425, abs=1e-5)
    with pytest.raises(ValueError):
        checks.min_norm_risk(32, 32, 0.0625)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name not in NOT_IN_BENCHMARK]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gd-converge", "--seed", "0",
         "--seconds", "1", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_reports_every_metric(trace):
    done = _bench(REPO, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    names = run.END_TO_END if trace == "0" else layers.PER_LAYER
    assert list(result["metrics"]) == [name for name, _ in names]
    if trace == "1":
        seeds = WORKLOADS["gd-converge"].seeds_per_child
        assert result["metrics"]["estimators.gd.steps"]["value"] == 20000 * seeds


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
