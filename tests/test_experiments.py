import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import descent_lab
from descent_lab import decomposition, estimators, experiments, linalg
from descent_lab.data import (
    _legendre_matrix,
    make_polynomial_dataset,
    make_student_teacher,
    polynomial_target,
    take_rows,
)
from descent_lab.decomposition import decompose_test_errors, make_ground_truth
from descent_lab.errors import ConfigError
from descent_lab.estimators import REGIME_INTERP, REGIME_OVER, REGIME_UNDER, fit_pinv
from descent_lab.experiments import (
    AblationKind,
    EstimatorPolicy,
    SweepConfig,
    SweepRecord,
    _regime_fit,
    apply_ablation,
    default_synthetic_grid,
    median_series,
    parse_ablation,
    parse_estimator,
    peak_ratio,
    resolve_tau,
    run_cell,
    run_polynomial_sweep,
    run_sweep,
    worker_count,
)
from descent_lab.linalg import svd

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


def test_sweep_with_no_seeds_is_empty():
    out = run_sweep(SweepConfig(d=8, grid=[2, 8, 16], seeds=[]))
    assert out.records == [] and out.failures == []


def test_noiseless_threshold_cell_is_exact():
    out = run_sweep(SweepConfig(d=8, noise_sd=0.0, grid=[1, 8, 16], seeds=[0]))
    by_n = {r.n_train: r for r in out.records}
    # interpolation with clean linear targets recovers the teacher exactly
    assert by_n[8].test_mse <= 1e-8
    assert by_n[8].variance_term_mean <= 1e-8
    # a single training row is always interpolated
    assert by_n[1].train_mse <= 1e-12


def test_apply_ablation_none_is_identity():
    tr, _ = make_student_teacher(10, 4, 0.1, seed=0)
    train, test = take_rows(tr, slice(0, 6)), take_rows(tr, slice(6, 10))
    t2, e2, note = apply_ablation(AblationKind(), train, test)
    assert t2 is train and e2 is test
    assert note == "unchanged"


def test_projection_onto_full_rowspace_changes_nothing_visible():
    # tau = 0 keeps every training mode, and the fitted coefficients live in
    # the training row space, so projected test rows predict identically.
    ds, _ = make_student_teacher(8, 8, 0.3, seed=1)
    train, test = take_rows(ds, slice(0, 3)), take_rows(ds, slice(3, 8))
    _, test2, _ = apply_ablation(AblationKind("test-projection", 0.0), train, test)
    beta = fit_pinv(train.X, train.Y).beta
    assert_allclose(test2.X @ beta, test.X @ beta, atol=1e-10)
    # but the rows themselves did move (the orthogonal component is gone)
    assert not np.allclose(test2.X, test.X)


def test_linearized_targets_leave_no_residuals():
    from descent_lab.decomposition import make_ground_truth

    ds, _ = make_student_teacher(8, 3, 0.5, seed=2)
    train, test = take_rows(ds, slice(0, 5)), take_rows(ds, slice(5, 8))
    t2, e2, _ = apply_ablation(AblationKind("linearized-targets"), train, test)
    gt = make_ground_truth(
        np.vstack([t2.X, e2.X]), np.concatenate([t2.Y, e2.Y]), t2.X, t2.Y
    )
    assert np.abs(gt.residuals).max() <= 1e-8


def test_sv_cutoff_floor_shows_up_in_records():
    out = run_sweep(small_config(ablation=AblationKind("sv-cutoff", 0.5), seeds=[0, 1]))
    assert not out.failures
    assert all(r.ablation == "sv-cutoff:0.5" for r in out.records)
    svs = [r.smallest_nonzero_sv for r in out.records if r.smallest_nonzero_sv is not None]
    assert svs and min(svs) >= 0.5


def test_ablation_needs_resolved_tau():
    ds, _ = make_student_teacher(6, 3, 0.1, seed=0)
    train, test = take_rows(ds, slice(0, 3)), take_rows(ds, slice(3, 6))
    with pytest.raises(ConfigError):
        apply_ablation(AblationKind("sv-cutoff"), train, test)


def test_resolve_tau_is_positive_and_deterministic():
    cfg = small_config(seeds=[0, 1, 2])
    a, b = resolve_tau(cfg), resolve_tau(cfg)
    assert a == b and a > 0


def test_ridge_flattens_the_spike():
    pinv_ratio = peak_ratio(run_sweep(small_config()).records, 8)
    ridge_cfg = small_config(estimator=parse_estimator("ridge:auto"))
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
    ds = make_polynomial_dataset(n, p, noise_sd, seed)
    xe = _legendre_matrix(xs, p)
    s = svd(ds.X)
    fit = _regime_fit(ds.X, ds.Y)
    resid = xe @ fit.beta - ye
    gt = make_ground_truth(np.vstack([ds.X, xe]), np.concatenate([ds.Y, ye]), ds.X, ds.Y)
    bias, var, _ = decompose_test_errors(xe, ds.X, ds.Y, s, gt, fit.regime)
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


def test_polynomial_sweep_factors_each_seed_once(monkeypatch):
    calls = []
    factor = experiments.factor_nested_ground_truth

    def counting(x_full, y_full):
        calls.append(x_full.shape)
        return factor(x_full, y_full)

    monkeypatch.setattr(experiments, "factor_nested_ground_truth", counting)
    monkeypatch.setenv("DESCENT_LAB_THREADS", "3")
    out = run_polynomial_sweep([12, 3, 7, 7, 1], n=6, seeds=[0, 1, 2, 3], noise_sd=0.3)
    assert not out.failures and len(out.records) == 20
    # one fill per seed, also when several threads reach a seed at once
    assert calls == [(1006, 12)] * 4


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
    "sv-cutoff": dict(ablation=AblationKind("sv-cutoff")),
    "test-projection": dict(ablation=AblationKind("test-projection")),
    "linearized-targets": dict(ablation=AblationKind("linearized-targets")),
    "ridge:auto": dict(estimator=parse_estimator("ridge:auto")),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_sweep_fits_ground_truth_per_seed_and_factors_each_cell_once(monkeypatch, variant):
    cfg = small_config(seeds=[0, 1, 2], **VARIANTS[variant])
    plan = experiments._prepare(cfg)  # the cutoff pre-pass is not a cell
    svds = _count_calls(monkeypatch, linalg, "svd")
    truths = _count_calls(monkeypatch, decomposition, "make_ground_truth")
    monkeypatch.setenv("DESCENT_LAB_THREADS", "3")
    out = run_sweep(cfg, _plan=plan)
    assert not out.failures
    # one beta_star per seed, on its 24 pool rows and 256 test rows, also
    # when several threads reach a seed at once; one SVD per cell, n = D
    # included, plus the one inside each seed's ground truth
    assert truths == [(24 + 256, 8)] * 3
    cells = [(n, 8) for n in SMALL["grid"]] * 3
    assert sorted(svds) == sorted(cells + truths)


def test_seed_state_holds_under_a_thread_storm(monkeypatch):
    # Eight threads switching every microsecond over four seeds, one of them
    # listed twice: each distinct seed's state is built once and outlives
    # all of its cells, so a lost update on the cell count would show as a
    # rebuild or a failed cell.
    truths = _count_calls(monkeypatch, decomposition, "make_ground_truth")
    monkeypatch.setenv("DESCENT_LAB_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_sweep(small_config(seeds=[0, 1, 0, 2]))
    finally:
        sys.setswitchinterval(interval)
    assert not out.failures and len(out.records) == 4 * len(SMALL["grid"])
    assert len(truths) == 3
    twice = [r for r in out.records if r.seed == 0]
    assert twice[0::2] == twice[1::2]


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_cell_matches_the_sweep_record(variant):
    cfg = small_config(seeds=[0, 3], **VARIANTS[variant])
    out = run_sweep(cfg)
    assert not out.failures
    for r in out.records:
        if r.n_train in (2, 7, 8, 9, 24):
            assert run_cell(cfg, r.n_train, r.seed) == r


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
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(d=32, grid=[40, 50], seeds=[0]))  # misses n < D
    out = run_sweep(SweepConfig(d=32, grid=[40, 50], seeds=[0], allow_narrow_grid=True))
    assert len(out.records) == 2


def test_default_synthetic_grid_spans_the_threshold():
    grid = default_synthetic_grid(32)
    assert grid[0] == 2 and grid[-1] == 96 and 32 in grid


def test_parse_ablation():
    assert parse_ablation("none") == AblationKind()
    assert parse_ablation("sv-cutoff:0.5") == AblationKind("sv-cutoff", 0.5)
    assert parse_ablation("sv-cutoff") == AblationKind("sv-cutoff")
    assert parse_ablation("test-projection:auto") == AblationKind("test-projection")
    assert parse_ablation("linearized-targets") == AblationKind("linearized-targets")
    for bad in ("flip-signs", "sv-cutoff:tiny", "sv-cutoff:-1", "none:0.5"):
        with pytest.raises(ConfigError):
            parse_ablation(bad)


def test_parse_estimator():
    assert parse_estimator("pinv") == EstimatorPolicy()
    assert parse_estimator("ridge:0.25") == EstimatorPolicy("ridge", lam=0.25)
    auto = parse_estimator("ridge:auto")
    assert auto.kind == "ridge" and auto.auto_coeff is not None and auto.lam is None
    assert parse_estimator("ridge:auto:0.1").auto_coeff == 0.1
    for bad in ("lasso", "ridge", "ridge:", "ridge:soft", "ridge:-1", "pinv:0.1",
                "ridge:auto:junk", "ridge:auto:-2"):
        with pytest.raises(ConfigError):
            parse_estimator(bad)


def test_ablation_kind_labels_and_validation():
    assert AblationKind().label() == "none"
    assert AblationKind("sv-cutoff").label() == "sv-cutoff:auto"
    assert AblationKind("sv-cutoff", 0.5).label() == "sv-cutoff:0.5"
    assert AblationKind("test-projection", 0.0).label() == "test-projection:0"
    with pytest.raises(ConfigError):
        AblationKind("none", 1.0)
    with pytest.raises(ConfigError):
        AblationKind("sv-cutoff", 0.0)
    with pytest.raises(ConfigError):
        AblationKind("test-projection", -0.5)
    with pytest.raises(ConfigError):
        AblationKind("linearized-targets", 1.0)


def test_estimator_policy_validation():
    with pytest.raises(ConfigError):
        EstimatorPolicy("ridge")  # needs lambda or coefficient
    with pytest.raises(ConfigError):
        EstimatorPolicy("ridge", lam=0.1, auto_coeff=0.1)
    with pytest.raises(ConfigError):
        EstimatorPolicy("pinv", lam=0.1)
    with pytest.raises(ConfigError):
        EstimatorPolicy("ridge", lam=0.0)


def test_peak_ratio_needs_both_anchor_points():
    with pytest.raises(ConfigError):
        peak_ratio([record(8, 1.0)], 8)  # no n = 3D cells
    assert peak_ratio([record(8, 6.0), record(24, 2.0)], 8) == pytest.approx(3.0)


def test_sweep_is_deterministic():
    a = run_sweep(small_config(seeds=[0, 1]))
    b = run_sweep(small_config(seeds=[0, 1]))
    assert a.records == b.records


def test_sweep_ignores_thread_count(monkeypatch):
    monkeypatch.setenv("DESCENT_LAB_THREADS", "1")
    a = run_sweep(small_config(seeds=[0, 1]))
    monkeypatch.setenv("DESCENT_LAB_THREADS", "4")
    b = run_sweep(small_config(seeds=[0, 1]))
    assert a.records == b.records


def test_worker_count_env_handling(monkeypatch):
    monkeypatch.setenv("DESCENT_LAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("DESCENT_LAB_THREADS", "many")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("DESCENT_LAB_THREADS", "0")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.delenv("DESCENT_LAB_THREADS")
    assert worker_count() >= 1


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


def test_run_cell_rejects_oversized_n_train():
    cfg = small_config(grid=[2, 8, 16], seeds=[0])
    with pytest.raises(ConfigError):
        run_cell(cfg, 17, 0)


def test_unknown_source_is_rejected():
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(source="parquet:foo", d=4, grid=[2, 4, 8], seeds=[0]))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(source="csv:/tmp/x.csv", grid=[2, 4, 8], seeds=[0]))
