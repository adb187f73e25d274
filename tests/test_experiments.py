import hashlib
import math
import re
import threading
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import descent_lab
from descent_lab import decomposition, estimators, experiments, linalg
from descent_lab.data import (
    _legendre_matrix,
    load_csv,
    make_polynomial_dataset,
    make_student_teacher,
    polynomial_target,
)
from descent_lab.decomposition import (
    GroundTruth,
    decompose_test_errors,
    factor_nested_ground_truth,
    make_ground_truth,
    make_nested_ground_truth,
)
from descent_lab.errors import ConfigError
from descent_lab.estimators import REGIME_INTERP, REGIME_OVER, REGIME_UNDER, fit_pinv
from descent_lab.experiments import (
    SweepConfig,
    SweepRecord,
    apply_ablation,
    default_synthetic_grid,
    median_series,
    peak_ratio,
    run_polynomial_sweep,
    run_sweep,
)
from descent_lab.linalg import svd

REPO = Path(__file__).resolve().parent.parent
SMALL = dict(d=8, noise_sd=0.25, grid=list(range(2, 25)), seeds=list(range(5)))


def small_config(**overrides):
    return SweepConfig(**{**SMALL, **overrides})


def record(n_train, test_mse, sv=1.0, d=8):
    return SweepRecord(
        n_train=n_train, d=d, seed=0, ablation="none", estimator="pinv",
        train_mse=0.0, test_mse=test_mse, smallest_nonzero_sv=sv,
        bias_term_mean=0.0, variance_term_mean=0.0, regime="interpolation",
    )


def test_sweep_covers_all_three_regimes():
    out = run_sweep(SweepConfig(d=32, noise_sd=0.25, grid=[16, 32, 64], seeds=[0]))
    assert not out.failures
    assert [r.regime for r in out.records] == [REGIME_OVER, REGIME_INTERP, REGIME_UNDER]
    assert [r.n_train for r in out.records] == [16, 32, 64]
    assert all(r.d == 32 for r in out.records)


def test_noiseless_threshold_cell_is_exact():
    out = run_sweep(SweepConfig(d=8, noise_sd=0.0, grid=[1, 8, 16], seeds=[0]))
    by_n = {r.n_train: r for r in out.records}
    # interpolation with clean linear targets recovers the teacher exactly
    assert by_n[8].test_mse <= 1e-8
    assert by_n[8].variance_term_mean <= 1e-8
    # a single training row is always interpolated
    assert by_n[1].train_mse <= 1e-12


def test_apply_ablation_none_is_identity():
    x, _, _ = make_student_teacher(10, 4, 0.1, seed=0)
    s, x_eval = svd(x[:6]), x[6:]
    # linearized-targets acts on the seed's targets, not on the cell
    for kind in ("none", "linearized-targets"):
        s2, x_eval2 = apply_ablation(kind, None, s, x_eval)
        assert s2 is s and x_eval2 is x_eval


def test_projection_onto_full_rowspace_changes_nothing_visible():
    # tau = 0 keeps every training mode, and the fitted coefficients live in
    # the training row space, so projected test rows predict identically.
    x_all, y_all, _ = make_student_teacher(8, 8, 0.3, seed=1)
    x, y, x_eval = x_all[:3], y_all[:3], x_all[3:]
    s = svd(x)
    s2, x_eval2 = apply_ablation("test-projection", 0.0, s, x_eval)
    assert s2 is s
    beta = fit_pinv(x, y).beta
    assert_allclose(x_eval2 @ beta, x_eval @ beta, atol=1e-10)
    # but the rows themselves did move (the orthogonal component is gone)
    assert not np.allclose(x_eval2, x_eval)


def test_linearized_targets_leave_no_residuals():
    plan = experiments._prepare(small_config(ablation="linearized-targets"))
    x_pool, y_pool, x_test, y_test, _ = experiments._seed_state(plan, 2)
    gt = make_ground_truth(
        np.vstack([x_pool, x_test]), np.concatenate([y_pool, y_test]), x_pool, y_pool
    )
    assert np.abs(gt.residuals).max() <= 1e-8


def test_sv_cutoff_floor_shows_up_in_records():
    out = run_sweep(small_config(ablation="sv-cutoff", seeds=[0, 1]))
    assert not out.failures
    tau = out.resolved["tau"]
    assert all(r.ablation == f"sv-cutoff:{tau:.12g}" for r in out.records)
    svs = [r.smallest_nonzero_sv for r in out.records if r.smallest_nonzero_sv is not None]
    assert svs and min(svs) >= tau


DIABETES = dict(
    source="csv:" + str(REPO / "data" / "diabetes.csv"), target_column="target", d=None
)
HEADLINE_GRID = list(range(2, 97))
TAU_CONFIGS = {
    # 23 cells a seed, so odd and even cell counts alternate with the seeds
    **{f"d8-{k}seeds": dict(SMALL, seeds=list(range(k))) for k in (1, 2, 3, 4)},
    "d8-24cells": dict(SMALL, grid=list(range(2, 26)), seeds=[0, 1, 2]),
    **{f"headline-{k}seeds": dict(d=32, noise_sd=0.25, grid=HEADLINE_GRID, seeds=list(range(k)))
       for k in (1, 2, 6, 7, 30)},
    "strided": dict(d=32, noise_sd=0.25, grid=list(range(8, 97, 8)), seeds=list(range(30))),
    "two-points": dict(d=32, noise_sd=0.25, grid=[16, 64], seeds=list(range(5))),
    "two-points-one-seed": dict(d=32, noise_sd=0.25, grid=[16, 64], seeds=[3]),
    "noiseless": dict(d=32, noise_sd=0.0, grid=HEADLINE_GRID, seeds=list(range(4))),
    "diabetes": dict(DIABETES, grid=None, seeds=list(range(5))),
    "diabetes-one-seed": dict(DIABETES, grid=None, seeds=[7]),
    "diabetes-raw": dict(DIABETES, grid=[5, 20, 100], seeds=list(range(6)), standardize=False),
    # grids that end on the 354-row pool's last row, odd and even cell counts
    "diabetes-end-odd": dict(DIABETES, grid=[*range(2, 354, 9), 354], seeds=[0, 1, 2]),
    "diabetes-end-even": dict(DIABETES, grid=[5, 200, 353, 354], seeds=[0, 1]),
}


def _every_sigma_max(config: SweepConfig) -> list[float]:
    """sigma_max of every (n_train, seed) cell, each from its own SVD."""
    if config.source == "student-teacher":
        rows = config.grid[-1]
        grid = config.grid
        pools = [
            make_student_teacher(rows + experiments.N_TEST_SYNTHETIC, config.d,
                                 config.noise_sd, seed)[0][:rows]
            for seed in config.seeds
        ]
    else:
        x, _, _ = load_csv(config.source[4:], config.target_column, config.standardize)
        n_rows = x.shape[0]
        rows = n_rows - round(experiments.HOLDOUT_FRACTION * n_rows)
        grid = config.grid or experiments.default_real_grid(rows, x.shape[1])
        pools = [x[np.random.default_rng(seed).permutation(n_rows)[:rows]]
                 for seed in config.seeds]
    return [np.linalg.svd(x[:n], compute_uv=False)[0]
            for x in pools for n in grid]


def _default_tau(config: SweepConfig) -> float:
    """The cutoff a sweep resolves for ``config`` under ``sv-cutoff``."""
    return experiments._prepare(replace(config, ablation="sv-cutoff")).tau


@pytest.mark.parametrize("name", list(TAU_CONFIGS))
def test_resolve_tau_matches_the_median_of_every_fitting_cell(name):
    config = SweepConfig(**TAU_CONFIGS[name])
    tau = _default_tau(config)
    assert tau == 0.9 * np.median(_every_sigma_max(config))
    assert tau > 0 and _default_tau(config) == tau


def test_resolve_tau_factors_about_half_the_cells(monkeypatch):
    # 6 seeds x 95 cells: the 286 smallest sigma_max, plus one look-ahead for
    # each of the 5 other seeds.  Every cell, 570 SVDs, is the full pass.
    calls = []
    numpy_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return numpy_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    _default_tau(SweepConfig(d=32, noise_sd=0.25, grid=HEADLINE_GRID, seeds=list(range(6))))
    assert 0 < len(calls) <= 291


def _csv_with_fewer_pool_rows_than_features(tmp_path) -> SweepConfig:
    # 10 rows leave an 8-row pool; the grid spans the 12 features from 9 up,
    # so no cell fits the pool.
    path = tmp_path / "wide.csv"
    rows = np.random.default_rng(0).standard_normal((10, 13))
    lines = [",".join(["y", *(f"x{j}" for j in range(12))])]
    lines += [",".join(f"{v:.6f}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return SweepConfig(source=f"csv:{path}", target_column="y", d=None, grid=[9, 20],
                       seeds=[0, 1])


@pytest.mark.parametrize("make_config, message", [
    (_csv_with_fewer_pool_rows_than_features,
     "grid ends at n_train=20, past the 8-row training pool"),
    (lambda tmp_path: SweepConfig(d=8, grid=list(range(2, 25)), seeds=[]),
     "no seeds to run"),
], ids=["grid-past-pool", "no-seeds"])
def test_resolve_tau_without_a_fitting_cell_is_a_config_error(
    tmp_path, monkeypatch, make_config, message
):
    # Neither config has a cell the tau pass could factor; _prepare refuses
    # both before that pass takes a single SVD.
    config = make_config(tmp_path)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the tau pass ran")

    monkeypatch.setattr(np.linalg, "svd", must_not_run)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_sweep(replace(config, ablation="sv-cutoff"))


def test_ridge_flattens_the_spike():
    pinv_ratio = peak_ratio(run_sweep(small_config()).records, 8)
    ridge_cfg = small_config(estimator="ridge:auto")
    ridge_ratio = peak_ratio(run_sweep(ridge_cfg).records, 8)
    assert pinv_ratio > 5.0
    assert ridge_ratio < 0.2 * pinv_ratio


def test_polynomial_sweep_basics():
    out = run_polynomial_sweep([3, 3, 10], n=10, seeds=[0, 1], noise_sd=0.2)
    assert not out.failures
    assert len(out.records) == 6  # duplicate grid entries stay duplicated
    at_threshold = [r for r in out.records if r.d == 10]
    assert all(r.train_mse <= 1e-8 for r in at_threshold)  # P >= n interpolates
    assert all(r.n_train == 10 and r.estimator == "pinv" for r in out.records)


def _poly_cell_reference(p, n, seed, noise_sd):
    # The per-cell path: a fresh P-column draw, its own evaluation matrix and
    # the ground truth refit on the explicit (n + 1000) x P stack.
    xs = np.linspace(-1.0, 1.0, 1000)
    ye = polynomial_target(xs)
    x, y = make_polynomial_dataset(n, p, noise_sd, seed)
    xe = _legendre_matrix(xs, p)
    s = svd(x)
    fit = fit_pinv(x, y, s=s)
    resid = xe @ fit.beta - ye
    gt = make_ground_truth(np.vstack([x, xe]), np.concatenate([y, ye]), x, y)
    bias, var, _ = decompose_test_errors(xe, x, y, s, gt)
    exact = (p, seed, fit.train_mse, float(resid @ resid / 1000),
             float(s.singular_values[-1]), fit.regime)
    return exact, (float(np.mean(np.abs(bias))), float(np.mean(np.abs(var))))


def test_polynomial_sweep_matches_the_per_cell_path():
    grid, seeds = [200, 5, 30, 30], [3, 4]  # unsorted, with a duplicate
    out = run_polynomial_sweep(grid, n=30, seeds=seeds, noise_sd=0.5)
    assert not out.failures
    want = sorted(
        (_poly_cell_reference(p, 30, seed, 0.5) for p in grid for seed in seeds),
        key=lambda w: (w[0][1], w[0][0]),
    )
    assert len(out.records) == len(want)
    for r, (exact, terms) in zip(out.records, want):
        assert (r.d, r.seed, r.train_mse, r.test_mse, r.smallest_nonzero_sv,
                r.regime) == exact
        assert_allclose((r.bias_term_mean, r.variance_term_mean), terms, rtol=1e-9)


def _assert_test_mse_is_the_decomposed_error(record, x_eval, y_eval, x, y, s, gt, lam=0.0):
    # predicted = x_eval (beta_hat - beta_star) for the crosschecked fit
    # beta_hat on s, X^+ y or ridge at lam, so the record's test error must
    # be its square.
    _, _, predicted = decompose_test_errors(x_eval, x, y, s, gt, lam=lam)
    err = predicted - (y_eval - x_eval @ gt.beta_star)
    assert record.test_mse == pytest.approx(float(err @ err / len(err)), rel=1e-9)


def test_polynomial_test_mse_is_the_decomposed_error():
    grid, n, p_max = list(range(25, 46)), 30, 45
    out = run_polynomial_sweep(grid, n=n, seeds=[0, 1], noise_sd=0.5)
    assert not out.failures and len(out.records) == 2 * len(grid)
    xs = np.linspace(-1.0, 1.0, 1000)
    ye, xe_max = polynomial_target(xs), _legendre_matrix(xs, p_max)
    for seed in (0, 1):
        x_max, y = make_polynomial_dataset(n, p_max, 0.5, seed)
        truth = factor_nested_ground_truth(
            np.column_stack([np.vstack([x_max, xe_max]), np.concatenate([y, ye])])
        )
        for r in (r for r in out.records if r.seed == seed):
            x = np.ascontiguousarray(x_max[:, :r.d])
            gt = make_nested_ground_truth(truth, x, y)
            _assert_test_mse_is_the_decomposed_error(
                r, xe_max[:, :r.d], ye, x, y, svd(x), gt
            )


def _record_stacks(monkeypatch):
    """Log every array the sweep factors its ground truth from."""
    stacks = []
    factor = experiments.factor_nested_ground_truth

    def recording(stack):
        stacks.append(stack)
        return factor(stack)

    monkeypatch.setattr(experiments, "factor_nested_ground_truth", recording)
    return stacks


def test_polynomial_cells_read_views_of_one_evaluation_block(monkeypatch):
    # The evaluation rows and their targets are the bottom of the run's one
    # augmented stack [X y; E ye], which the seeds' factorizations read.
    seen = []
    decompose = experiments.decompose_test_errors

    def recording(x_test_rows, *args, **kwargs):
        seen.append(x_test_rows)
        return decompose(x_test_rows, *args, **kwargs)

    monkeypatch.setattr(experiments, "decompose_test_errors", recording)
    mse, test_mse = [], experiments._mse

    def recording_mse(x, y, beta, what):
        mse.append((x, y))
        return test_mse(x, y, beta, what)

    monkeypatch.setattr(experiments, "_mse", recording_mse)
    stacks = _record_stacks(monkeypatch)
    out = run_polynomial_sweep([40, 3, 12, 12], n=10, seeds=[0, 1, 2], noise_sd=0.3)
    assert not out.failures and len(seen) == 12
    stack = stacks[0]
    assert stack.shape == (1010, 41) and stack.flags.c_contiguous
    assert all(x.base is stack for x in seen)
    assert len(mse) == 12 and all(x.base is stack and y.base is stack for x, y in mse)
    xs = np.linspace(-1.0, 1.0, 1000)
    assert np.array_equal(stack[10:, :40], _legendre_matrix(xs, 40))
    assert np.array_equal(stack[10:, 40], polynomial_target(xs))


@pytest.mark.parametrize("config", [
    small_config(seeds=[3]),
    SweepConfig(**DIABETES, seeds=[3]),
], ids=["synthetic", "csv"])
def test_linear_seed_state_reads_views_of_one_array(monkeypatch, config):
    # beta_star is fit on one array of the seed's rows, pool first; the pool
    # and test rows and targets the cells read are views of it, not copies.
    fits = []
    truth = experiments.make_ground_truth

    def recording(x_full, y_full, *args):
        fits.append((x_full, y_full))
        return truth(x_full, y_full, *args)

    monkeypatch.setattr(experiments, "make_ground_truth", recording)
    plan = experiments._prepare(config)
    x_pool, y_pool, x_test, y_test, _ = experiments._seed_state(plan, 3)
    [(x, y)] = fits
    for part, whole in ((x_pool, x), (x_test, x), (y_pool, y), (y_test, y)):
        assert np.shares_memory(part, whole)
    assert np.array_equal(np.vstack([x_pool, x_test]), x)
    assert np.array_equal(np.concatenate([y_pool, y_test]), y)
    if plan.csv is None:
        # the draw as drawn: the pool is its first grid[-1] rows
        drawn_x, drawn_y, _ = make_student_teacher(24 + experiments.N_TEST_SYNTHETIC, 8, 0.25, 3)
        assert x_pool.shape[0] == plan.pool_rows == 24
        assert np.array_equal(x, drawn_x) and np.array_equal(y, drawn_y)


def test_a_csv_seed_reads_the_file_rows_in_permutation_order():
    # The file's rows in default_rng(seed).permutation order, the last 20%
    # (88 of 442 rows) held out as the test set.
    plan = experiments._prepare(SweepConfig(**DIABETES, seeds=[5], standardize=False))
    x, y, _ = load_csv(DIABETES["source"][4:], "target", standardize=False)
    order = np.random.default_rng(5).permutation(442)
    x_pool, y_pool, x_test, y_test, _ = experiments._seed_state(plan, 5)
    assert plan.pool_rows == 354
    assert x_pool.shape == (354, 10) and x_test.shape == (88, 10)
    assert np.array_equal(x_pool, x[order[:354]]) and np.array_equal(y_pool, y[order[:354]])
    assert np.array_equal(x_test, x[order[354:]]) and np.array_equal(y_test, y[order[354:]])
    other = experiments._seed_state(plan, 6)[0]
    assert not np.array_equal(other, x_pool)


def test_a_csv_digest_is_of_the_bytes_the_cells_read(tmp_path, monkeypatch):
    # The file is edited after it is loaded and before any cell runs: the
    # digest must still be of the bytes the cells were computed from.
    path = tmp_path / "table.csv"
    original = (REPO / "data" / "diabetes.csv").read_bytes()
    path.write_bytes(original)
    run_cells = experiments._run_cells

    def editing(*args):
        path.write_bytes(original.replace(b"\n59,", b"\n60,", 1))
        return run_cells(*args)

    monkeypatch.setattr(experiments, "_run_cells", editing)
    out = run_sweep(SweepConfig(**{**DIABETES, "source": f"csv:{path}"}, seeds=[0]))
    assert not out.failures and path.read_bytes() != original
    assert out.resolved["data_sha256"] == hashlib.sha256(original).hexdigest()


def test_a_csv_too_small_to_hold_out_a_test_row_is_a_config_error(tmp_path):
    # 2 rows: 20% rounds to no test row, so no cell could measure a test error.
    path = tmp_path / "tiny.csv"
    path.write_text("a,b,t\n1,2,3\n4,7,5\n", encoding="utf-8")
    config = SweepConfig(source=f"csv:{path}", target_column="t", d=None, grid=[1, 3],
                         seeds=[0])
    with pytest.raises(ConfigError, match="2 rows leave no test row"):
        run_sweep(config)


def test_polynomial_sweep_factors_each_seed_once(monkeypatch):
    stacks = _record_stacks(monkeypatch)
    out = run_polynomial_sweep([12, 3, 7, 7, 1], n=6, seeds=[0, 1, 2, 3], noise_sd=0.3)
    assert not out.failures and len(out.records) == 20
    # one factorization per seed, all of the run's one (n + 1000) x (P_max + 1)
    # array, its training rows refilled by each seed
    assert len(stacks) == 4 and all(stack is stacks[0] for stack in stacks)
    assert stacks[0].shape == (1006, 13)
    x, y = make_polynomial_dataset(6, 12, 0.3, seed=3)
    assert np.array_equal(stacks[0][:6], np.column_stack([x, y]))


def test_polynomial_records_do_not_depend_on_seed_order():
    # The seeds overwrite one another's training rows in the shared stack.
    grid = [1, 5, 6, 7, 30]
    forward = run_polynomial_sweep(grid, n=6, seeds=[0, 1, 2], noise_sd=0.3)
    shuffled = run_polynomial_sweep(grid, n=6, seeds=[2, 0, 1], noise_sd=0.3)
    assert not forward.failures and len(forward.records) == 15
    assert shuffled.records == forward.records


@pytest.mark.parametrize("n", [1, 30, 300])
def test_polynomial_stacks_keep_every_mode_with_margin(n):
    # factor_nested_ground_truth has no rank-deficient route: the sweep's
    # stacks, n training rows over the dense evaluation grid at the largest P
    # it accepts, must keep every mode, with the rank tolerance
    # (linalg.rank_tolerance, max(N, P) sigma_max 1e-12) at most 1% of
    # sigma_min.  Fewer columns only widen the margin (interlacing).
    p_max = 200
    with pytest.raises(ConfigError):
        run_polynomial_sweep([p_max + 1], n=n, seeds=[0], noise_sd=0.5)
    xs = np.linspace(-1.0, 1.0, experiments.DENSE_EVAL_POINTS)
    xe = _legendre_matrix(xs, p_max)
    for seed in range(20):
        stack = np.vstack([make_polynomial_dataset(n, p_max, 0.5, seed)[0], xe])
        factor_nested_ground_truth(np.column_stack([stack, np.zeros(stack.shape[0])]))
        sv = np.linalg.svd(stack, compute_uv=False)
        tolerance = linalg.rank_tolerance(sv, stack.shape)
        assert tolerance <= 1e-2 * sv[-1], f"seed {seed}"


def _count_calls(monkeypatch, home, name):
    """Wrap ``home.name`` in every package module that binds it; returns the
    log of its first arguments' shapes."""
    calls = []
    original = getattr(home, name)

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    for module in (descent_lab, linalg, estimators, decomposition, experiments):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


VARIANTS = {
    "none": {},
    "sv-cutoff": dict(ablation="sv-cutoff"),
    "test-projection": dict(ablation="test-projection"),
    "linearized-targets": dict(ablation="linearized-targets"),
    "ridge:auto": dict(estimator="ridge:auto"),
    "ridge:0.1": dict(estimator="ridge:0.1"),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_sweep_fits_ground_truth_per_seed_and_factors_each_cell_once(monkeypatch, variant):
    cfg = small_config(seeds=[0, 1, 2], **VARIANTS[variant])
    svds = _count_calls(monkeypatch, linalg, "svd")
    truths = _count_calls(monkeypatch, decomposition, "make_ground_truth")
    ablations = _count_calls(monkeypatch, experiments, "apply_ablation")
    # the cutoff pre-pass reads sigma_max with np.linalg.svd, so none of the
    # calls counted here is its own
    out = run_sweep(cfg)
    assert not out.failures
    # one beta_star per seed, on its 24 pool rows and 256 test rows; one SVD
    # per cell, n = D included, plus the one inside each seed's ground truth
    assert truths == [(24 + 256, 8)] * 3
    cells = [(n, 8) for n in SMALL["grid"]] * 3
    assert sorted(svds) == sorted(cells + truths)
    # every cell, whatever its ablation, runs the one ablation step
    assert len(ablations) == len(cells)


@pytest.mark.parametrize("variant", VARIANTS)
def test_crosscheck_runs_gelsd_only_on_truncated_cells(lstsq_calls, variant):
    # Full-rank cells are crosschecked by QR.  The default sv-cutoff
    # truncates every cell, and gelsd then runs once per cell that keeps
    # a mode (a cell with none is checked against the zero fit).
    out = run_sweep(small_config(seeds=[0, 1], **VARIANTS[variant]))
    assert not out.failures
    if variant == "sv-cutoff":
        kept = [(r.n_train, 8) for r in out.records if r.smallest_nonzero_sv is not None]
        assert len(kept) > len(out.records) // 2
        assert sorted(lstsq_calls) == sorted(kept)
    else:
        assert lstsq_calls == []


def _ridge_strength(plan, s) -> float:
    """The lambda a cell factored as ``s`` fits with: 0 for pinv and for a
    rank-0 factorization, the fixed lambda, or 0.5 sigma_max^2 for auto."""
    if plan.config.estimator == "pinv" or s.rank == 0:
        return 0.0
    if plan.config.estimator == "ridge:auto":
        return 0.5 * float(s.singular_values[0]) ** 2
    return float(plan.config.estimator.removeprefix("ridge:"))


@pytest.mark.parametrize("variant", VARIANTS)
def test_headline_test_mse_is_the_decomposed_error(variant):
    cfg = SweepConfig(d=32, noise_sd=0.25, grid=list(range(2, 97)), seeds=[0, 1],
                      **VARIANTS[variant])
    plan = experiments._prepare(cfg)
    out = run_sweep(cfg)
    assert not out.failures and len(out.records) == 2 * 95
    states = {seed: experiments._seed_state(plan, seed) for seed in (0, 1)}
    for r in out.records:
        x_pool, y_pool, x_test, y_test, beta_star = states[r.seed]
        x, y = x_pool[:r.n_train], y_pool[:r.n_train]
        s, x_eval = apply_ablation(cfg.ablation, plan.tau, svd(x), x_test)
        gt = GroundTruth(beta_star=beta_star, residuals=y - x @ beta_star)
        _assert_test_mse_is_the_decomposed_error(r, x_eval, y_test, x, y, s, gt,
                                                 _ridge_strength(plan, s))


def test_a_seed_listed_twice_gives_its_records_twice(monkeypatch):
    # Seeds run one after another, one seed's state held at a time, so a
    # seed listed twice is built twice and gives the same records twice.
    truths = _count_calls(monkeypatch, decomposition, "make_ground_truth")
    out = run_sweep(small_config(seeds=[0, 1, 0, 2]))
    assert not out.failures and len(out.records) == 4 * len(SMALL["grid"])
    assert len(truths) == 4
    twice = [r for r in out.records if r.seed == 0]
    assert twice[0::2] == twice[1::2]


# Each sweep as (run it on some seeds, the name in ``experiments`` its
# per-seed build calls).  Both calls return the seed's x array first.
SEEDED_SWEEPS = {
    "linear": (lambda seeds: run_sweep(small_config(seeds=seeds)), "_seed_state"),
    "polyfit": (lambda seeds: run_polynomial_sweep([2, 6, 9, 14], n=8, seeds=seeds,
                                                   noise_sd=0.3),
                "make_polynomial_dataset"),
}


@pytest.mark.parametrize("sweep", SEEDED_SWEEPS)
def test_one_thread_holds_one_seed_at_a_time(monkeypatch, sweep):
    # A weak reference to the data each seed's build returns: seeds run one
    # after another, so the seed a cell runs for is the only one alive, and a
    # sweep that kept every seed's state would show here.
    run, name = SEEDED_SWEEPS[sweep]
    build, refs, alive = getattr(experiments, name), [], []

    def tracked(*args):
        state = build(*args)
        refs.append(weakref.ref(state[0]))
        return state

    cell = experiments._cell

    def counting(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return cell(*args)

    monkeypatch.setattr(experiments, name, tracked)
    monkeypatch.setattr(experiments, "_cell", counting)
    out = run([0, 1, 2, 3])
    assert not out.failures and len(refs) == 4
    assert alive == [1] * len(out.records)


@pytest.mark.parametrize("sweep", SEEDED_SWEEPS)
def test_a_failing_build_fails_only_its_own_seed(monkeypatch, sweep):
    run, name = SEEDED_SWEEPS[sweep]
    clean = run([0, 2])
    build, attempts = getattr(experiments, name), []

    def failing(*args):
        attempts.append(args[-1])  # the seed comes last in both builds
        if args[-1] == 1:
            raise RuntimeError("no data for seed 1")
        return build(*args)

    monkeypatch.setattr(experiments, name, failing)
    out = run([0, 1, 2])
    assert out.records == clean.records
    assert len(out.failures) == len(clean.records) // 2
    assert {(f.seed, f.error) for f in out.failures} == {
        (1, "RuntimeError: no data for seed 1")
    }
    # the failed build is not retried for every cell of its seed
    assert attempts == [0, 1, 2]


def _spy_cells(monkeypatch, before_cell):
    """Run ``before_cell(plan, n_train, seed)`` at the start of every linear
    sweep cell."""
    cell = experiments._linear_cell

    def spying(plan, state, n_train, seed):
        before_cell(plan, n_train, seed)
        return cell(plan, state, n_train, seed)

    monkeypatch.setattr(experiments, "_linear_cell", spying)


def test_cells_run_on_one_blas_thread(monkeypatch, blas_count):
    counts = []
    _spy_cells(monkeypatch, lambda plan, n_train, seed: counts.append(blas_count()))
    out = run_sweep(small_config(seeds=[0, 1]))
    assert not out.failures and out.resolved["blas_threads"] == 1
    assert counts == [1] * len(out.records)
    assert blas_count() == 2


def test_blas_count_comes_back_after_a_failing_cell(monkeypatch, blas_count):
    def fail_at_8(plan, n_train, seed):
        if n_train == 8:
            raise RuntimeError("cell failed on purpose")

    _spy_cells(monkeypatch, fail_at_8)
    out = run_sweep(small_config(seeds=[0]))
    assert [(f.n_train, f.seed) for f in out.failures] == [(8, 0)]
    assert blas_count() == 2
    with pytest.raises(RuntimeError):
        with linalg.one_blas_thread():
            raise RuntimeError("block failed on purpose")
    assert blas_count() == 2


def test_concurrent_sweeps_share_one_blas_limit(monkeypatch, blas_count):
    # Two sweeps on two threads: both are inside the limit at once (their
    # first cells meet at the barrier), and seed 1's last cell runs after
    # the seed 0 sweep has returned, so the first sweep out must not lift
    # the limit under the other.
    both_in, first_done = threading.Barrier(2, timeout=30), threading.Event()
    counts = []

    def meet(plan, n_train, seed):
        if n_train == plan.grid[0]:
            both_in.wait()
        if seed == 1 and n_train == plan.grid[-1]:
            assert first_done.wait(timeout=30)
        counts.append(blas_count())

    _spy_cells(monkeypatch, meet)
    outs = {}

    def sweep(seed):
        outs[seed] = run_sweep(small_config(seeds=[seed]))
        if seed == 0:
            first_done.set()

    threads = [threading.Thread(target=sweep, args=(seed,)) for seed in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert [out.failures for out in outs.values()] == [[], []]
    assert counts == [1] * (2 * len(SMALL["grid"]))
    assert blas_count() == 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_cell_matches_the_sweep_record(variant):
    # Given the resolved cutoff, a cell's record depends on its own seed only:
    # seed 3 alone, at the cutoff the sweep with seed 0 before it resolved,
    # gives the rows seed 3 has in that sweep.
    cfg = small_config(seeds=[0, 3], **VARIANTS[variant])
    both = run_sweep(cfg)
    plan = experiments._prepare(cfg)
    assert plan.tau == both.resolved["tau"]
    alone = experiments._run_seeded(plan.grid, [3], partial(experiments._seed_state, plan),
                                    partial(experiments._linear_cell, plan))
    assert not both.failures and not alone.failures
    assert len(alone.records) == len(SMALL["grid"])
    assert alone.records == [r for r in both.records if r.seed == 3]


def test_polynomial_sweep_validation():
    with pytest.raises(ConfigError):
        run_polynomial_sweep([], n=10, seeds=[0], noise_sd=0.1)
    with pytest.raises(ConfigError):
        run_polynomial_sweep([0, 5], n=10, seeds=[0], noise_sd=0.1)
    with pytest.raises(ConfigError):
        run_polynomial_sweep([5, 201], n=10, seeds=[0], noise_sd=0.1)
    with pytest.raises(ConfigError):
        run_polynomial_sweep([5], n=0, seeds=[0], noise_sd=0.1)


def test_grid_validation():
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(d=8, grid=[5, 4, 6], seeds=[0]))  # not increasing
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(d=8, grid=[], seeds=[0]))
    for narrow in ([40, 50], [2, 32], [32, 50]):  # each misses a side of D
        with pytest.raises(ConfigError, match="does not span both regimes"):
            run_sweep(SweepConfig(d=32, grid=narrow, seeds=[0]))


def test_default_synthetic_grid_spans_the_threshold():
    grid = default_synthetic_grid(32)
    assert grid[0] == 2 and grid[-1] == 96 and 32 in grid


def test_default_real_grid_starts_below_d():
    # diabetes: 40 log-spaced points from 2 to the 354-row pool, 36 distinct
    assert experiments.default_real_grid(354, 10) == [
        2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 22, 25, 28, 32, 37, 42, 48, 55,
        63, 72, 82, 94, 107, 122, 140, 160, 182, 208, 238, 271, 310, 354,
    ]
    assert experiments.default_real_grid(4, 2) == [1, 2, 3, 4]
    with pytest.raises(ConfigError, match="no grid point lies below D=1"):
        experiments.default_real_grid(354, 1)


@pytest.mark.parametrize("length", [1, 2, 7, 30, 31])
def test_median_matches_numpy_bit_for_bit(length):
    rng = np.random.default_rng(length)
    for values in (rng.standard_normal(length).tolist(),
                   (rng.lognormal(0, 20, length) * 1e-300).tolist(),
                   [0.1 * k for k in range(length)],
                   list(rng.integers(0, 3, length) * 1e300 / 3.0)):
        assert experiments._median(values) == float(np.median(values))


def test_median_of_nan_is_nan():
    for values in ([math.nan], [1.0, math.nan, 2.0], [math.nan, 3.0, 1.0, 2.0]):
        assert math.isnan(experiments._median(values))
    assert math.isnan(experiments._median([math.inf, -math.inf]))
    assert experiments._median([1.0, math.inf, math.inf]) == math.inf


def test_parse_ablation():
    for kind in experiments.ABLATION_KINDS:
        assert experiments._settings(kind, "pinv") == (0.0, "pinv")
    # the cutoff is set by the data: no spelling carries one
    for bad in ("flip-signs", "sv-cutoff:0.5", "sv-cutoff:auto", "test-projection:0",
                "test-projection:auto", "none:0.5", "linearized-targets:1", "sv-cutoff:"):
        with pytest.raises(ConfigError):
            experiments._settings(bad, "pinv")


def test_parse_estimator():
    assert experiments._settings("none", "pinv") == (0.0, "pinv")
    assert experiments._settings("none", "ridge:0.25") == (0.25, "ridge:0.25")
    assert experiments._settings("none", "ridge:1e-1") == (0.1, "ridge:0.1")
    assert experiments._settings("none", "ridge:auto") == (None, "ridge:auto:0.5")
    for bad in ("lasso", "ridge", "ridge:", "ridge:soft", "ridge:-1", "ridge:0", "pinv:0.1",
                "ridge:auto:0.1", "ridge:auto:junk", "ridge:auto:", "ridge:nan",
                "ridge:inf", "ridge:auto:inf"):
        with pytest.raises(ConfigError):
            experiments._settings("none", bad)


def test_ablation_kind_labels_and_validation():
    # the records' label is the kind, with the resolved cutoff to 12 digits
    # for the two kinds that cut
    for kind in experiments.ABLATION_KINDS:
        plan = experiments._prepare(small_config(ablation=kind, seeds=[0, 1]))
        if kind in ("sv-cutoff", "test-projection"):
            assert plan.tau > 0 and plan.ablation == f"{kind}:{plan.tau:.12g}"
        else:
            assert plan.tau is None and plan.ablation == kind
    with pytest.raises(ConfigError, match="unknown ablation 'flip-signs'"):
        run_sweep(small_config(ablation="flip-signs"))


def test_estimator_policy_validation(monkeypatch):
    # pinv fits at lambda 0, ridge:<lambda> at that lambda and ridge:auto at
    # RIDGE_AUTO_COEFF * sigma_max^2 of each cell's own factorization
    lams = []
    cell = experiments._cell

    def recording(*args):
        lams.append((args[4], args[6]))  # the cell's SVD and its lambda
        return cell(*args)

    monkeypatch.setattr(experiments, "_cell", recording)
    for estimator, label in (("pinv", "pinv"), ("ridge:0.1", "ridge:0.1"),
                             ("ridge:auto", "ridge:auto:0.5")):
        lams.clear()
        out = run_sweep(small_config(estimator=estimator, seeds=[0]))
        assert not out.failures and out.resolved["estimator"] == label
        assert {r.estimator for r in out.records} == {label}
        assert len(lams) == len(SMALL["grid"])
        for s, lam in lams:
            want = {"pinv": 0.0, "ridge:0.1": 0.1}.get(
                estimator, experiments.RIDGE_AUTO_COEFF * float(s.singular_values[0]) ** 2)
            assert lam == want
    with pytest.raises(ConfigError, match="unknown estimator 'lasso'"):
        run_sweep(small_config(estimator="lasso"))


def test_peak_ratio_needs_both_anchor_points():
    with pytest.raises(ConfigError):
        peak_ratio([record(8, 1.0)], 8)  # no n = 3D cells
    assert peak_ratio([record(8, 6.0), record(24, 2.0)], 8) == pytest.approx(3.0)


def test_sweep_is_deterministic():
    a = run_sweep(small_config(seeds=[0, 1]))
    b = run_sweep(small_config(seeds=[0, 1]))
    assert a.records == b.records


def test_median_series_groups_and_skips_missing():
    recs = [record(2, 1.0), record(2, 3.0), record(4, 5.0, sv=None)]
    ns, meds = median_series(recs, "test_mse")
    assert ns == [2, 4]
    assert meds == [2.0, 5.0]
    ns_sv, sv_meds = median_series(recs, "smallest_nonzero_sv")
    assert ns_sv == [2] and sv_meds == [1.0]
    # the polynomial sweep varies d at fixed n, so the key is swappable
    ds, _ = median_series([record(2, 1.0, d=5), record(2, 2.0, d=9)], "test_mse", key="d")
    assert ds == [5, 9]


def test_run_cell_rejects_oversized_n_train(monkeypatch):
    # 442 diabetes rows leave a 354-row training pool: a grid ending on the
    # pool's last row runs every cell, one row past it is refused whole.
    out = run_sweep(SweepConfig(**DIABETES, grid=[2, 20, 354], seeds=[0, 1]))
    assert [(r.n_train, r.seed) for r in out.records] == [
        (n, seed) for n in (2, 20, 354) for seed in (0, 1)
    ]
    assert out.failures == []

    def must_not_run(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "_run_cells", must_not_run)
    message = "grid ends at n_train=355, past the 354-row training pool"
    with pytest.raises(ConfigError, match=message):
        run_sweep(SweepConfig(**DIABETES, grid=[2, 20, 354, 355], seeds=[0, 1]))


# Each input a sweep refuses, over the small sv-cutoff sweep, and the
# refusal's message.
REFUSED = {
    "unknown-ablation": (dict(ablation="flip-signs"), "unknown ablation 'flip-signs'"),
    "sv-cutoff:0.5": (dict(ablation="sv-cutoff:0.5"), "ablations take no argument"),
    "test-projection:auto": (dict(ablation="test-projection:auto"),
                             "ablations take no argument"),
    "ridge:inf": (dict(estimator="ridge:inf"), "ridge needs a finite lambda > 0, got inf"),
    "ridge:": (dict(estimator="ridge:"), "ridge needs a lambda, e.g. ridge:0.1"),
    "ridge:auto:0.3": (dict(estimator="ridge:auto:0.3"),
                       "bad lambda in estimator 'ridge:auto:0.3'"),
    # 442 diabetes rows leave a 354-row training pool; the last entry passes it
    "grid-past-pool": (dict(DIABETES, grid=[2, 20, 354, 355]),
                       "grid ends at n_train=355, past the 354-row training pool"),
    "no-seeds": (dict(seeds=[]), "no seeds to run"),
    "negative-seed": (dict(seeds=[3, -1]), "seeds must be >= 0, got -1"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_prepare_refuses_before_the_tau_pass_or_a_cell(monkeypatch, name):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran past _prepare's checks")

    monkeypatch.setattr(np.linalg, "svd", must_not_run)
    monkeypatch.setattr(experiments, "_run_cells", must_not_run)
    overrides, message = REFUSED[name]
    config = SweepConfig(**{**SMALL, "ablation": "sv-cutoff", **overrides})
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_sweep(config)


def test_unknown_source_is_rejected():
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(source="parquet:foo", d=4, grid=[2, 4, 8], seeds=[0]))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(source="csv:/tmp/x.csv", grid=[2, 4, 8], seeds=[0]))
