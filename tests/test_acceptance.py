"""End-to-end checks of every headline claim, one test per claim.

Each test prints a single PASS/FAIL line with the measured numbers so a
plain ``pytest tests/test_acceptance.py`` run doubles as a results table.
The headline configuration (D = 32, noise 0.25, n_train 2..96, 30 seeds)
is computed once in conftest and shared.
"""

import csv
import math
from pathlib import Path

import numpy as np

from descent_lab import (
    DivergenceError,
    SweepConfig,
    decompose_test_error,
    default_learning_rate,
    fit_gradient_descent,
    fit_min_norm,
    fit_ols_under,
    fit_pinv,
    make_ground_truth,
    median_series,
    peak_ratio,
    pseudoinverse_apply,
    run_polynomial_sweep,
    run_sweep,
    svd,
)
from descent_lab.cli import main

from conftest import HEADLINE

DIABETES = Path(__file__).resolve().parent.parent / "data" / "diabetes.csv"


def _report(name: str, ok: bool, details: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"{name}: {details}"


def _median_at(records, n):
    return float(np.median([r.test_mse for r in records if r.n_train == n]))


def test_double_descent_spike(threshold_sweep):
    recs = threshold_sweep.records
    at_16, at_32, at_96 = (_median_at(recs, n) for n in (16, 32, 96))
    vs_under = at_32 / at_96
    vs_over = at_32 / at_16
    _report(
        "double-descent spike",
        vs_under >= 5.0 and vs_over >= 5.0,
        f"median test MSE {at_32:.4g} at n=32 vs {at_16:.4g} at n=16 "
        f"({vs_over:.1f}x) and {at_96:.4g} at n=96 ({vs_under:.1f}x), need 5x",
    )


def min_norm_risk(n: int, d: int, noise_var: float) -> float:
    """Expected test MSE of the minimum-norm fit on isotropic Gaussian data
    with |beta| = 1, noisy test targets included (Belkin, Hsu & Xu,
    arXiv:1903.07571; Hastie et al., arXiv:1903.08560); finite only for
    |n - d| >= 2."""
    if n > d + 1:
        return noise_var + noise_var * d / (n - d - 1)
    if n < d - 1:
        return noise_var + (1.0 - n / d) + noise_var * n / (d - n - 1)
    raise ValueError(f"risk is infinite at n={n}, d={d}")


def test_closed_form_min_norm_risk(threshold_sweep):
    ok = True
    parts = []
    for n in (8, 16, 64, 96):
        vals = np.array([r.test_mse for r in threshold_sweep.records if r.n_train == n])
        mean = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        risk = min_norm_risk(n, HEADLINE["d"], HEADLINE["noise_sd"] ** 2)
        ok &= abs(mean - risk) <= 4.0 * se
        parts.append(f"n={n} {mean:.4g} vs {risk:.4g} ({abs(mean - risk) / se:.2f} SE)")
    _report(
        "closed-form minimum-norm risk",
        ok,
        "mean test MSE " + "; ".join(parts) + ", need <= 4 SE",
    )


def test_singular_value_dip(threshold_sweep):
    ns, sv = median_series(threshold_sweep.records, "smallest_nonzero_sv")
    at = dict(zip(ns, sv))
    _report(
        "singular-value dip at the threshold",
        at[32] < at[16] and at[32] < at[64],
        f"median smallest sv {at[32]:.4g} at n=32 vs {at[16]:.4g} at n=16 "
        f"and {at[64]:.4g} at n=64",
    )


def test_ablations_remove_spike():
    ratios = {}
    for name in ("sv-cutoff", "test-projection", "linearized-targets"):
        cfg = SweepConfig(**HEADLINE, ablation=name)
        out = run_sweep(cfg)
        assert not out.failures, f"{name}: {len(out.failures)} cells failed"
        ratios[name] = peak_ratio(out.records, 32)
    detail = ", ".join(f"{k} {v:.3g}" for k, v in ratios.items())
    _report(
        "ablations remove the spike",
        all(v <= 2.0 for v in ratios.values()),
        f"peak ratio {detail}, need <= 2",
    )


def test_real_data_spike():
    cfg = SweepConfig(
        source=f"csv:{DIABETES}",
        target_column="target",
        grid=list(range(2, 31)),
        seeds=list(range(10)),
    )
    out = run_sweep(cfg)
    assert not out.failures, f"{len(out.failures)} cells failed"
    d = out.records[0].d
    ns, med = median_series(out.records, "test_mse")
    peak_n = ns[int(np.argmax(med))]
    peak = max(med)
    at_3d = med[ns.index(3 * d)]
    _report(
        "real-data spike",
        abs(peak_n - d) <= 2 and peak >= 2.0 * at_3d,
        f"diabetes D={d}: median test MSE peaks at n={peak_n} "
        f"({peak:.4g}), {peak / at_3d:.1f}x the value at n={3 * d}, "
        f"need peak within 2 of n={d} and 2x",
    )


def test_polynomial_double_descent():
    out = run_polynomial_sweep(list(range(1, 201)), n=30, seeds=list(range(20)), noise_sd=0.5)
    assert not out.failures, f"{len(out.failures)} cells failed"
    ps, med = median_series(out.records, "test_mse", key="d")
    at = dict(zip(ps, med))
    vs_small = at[30] / at[5]
    vs_large = at[30] / at[200]
    _report(
        "polynomial double descent",
        vs_small >= 5.0 and vs_large >= 5.0,
        f"median test MSE {at[30]:.4g} at P=30 vs {at[5]:.4g} at P=5 "
        f"({vs_small:.3g}x) and {at[200]:.4g} at P=200 ({vs_large:.3g}x), need 5x",
    )


def test_decomposition_exactness():
    rng = np.random.default_rng(20260816)
    fails = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 26))
        d = int(rng.integers(2, 26))
        x = rng.standard_normal((n, d))
        beta = rng.standard_normal(d)
        e = rng.standard_normal(n) * float(rng.uniform(0.05, 1.0))
        y = x @ beta + e
        x_test = rng.standard_normal(d)
        gt = make_ground_truth(x, y, x, y)
        dec = decompose_test_error(x_test, x, y, svd(x), gt)
        fit = fit_pinv(x, y)
        y_star = float(x_test @ gt.beta_star)
        observed = float(x_test @ fit.beta) - y_star
        diff = abs(observed - (dec.bias_term + dec.variance_term))
        bound = 1e-8 * max(1.0, abs(y_star))
        worst = max(worst, diff / bound)
        fails += diff > bound
    _report(
        "decomposition exactness",
        fails == 0,
        f"{1000 - fails}/1000 instances within 1e-8 relative, "
        f"worst error at {worst:.3g} of the bound",
    )


def test_gradient_descent_finds_min_norm():
    rng = np.random.default_rng(7)
    bad = 0
    worst = 0.0
    for i in range(100):
        dd = int(rng.integers(8, 21))
        n, d = (2 * dd, dd) if i % 2 == 0 else (dd, 2 * dd)
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        trace = fit_gradient_descent(x, y, default_learning_rate(x), 50000)
        target = pseudoinverse_apply(x, y)
        tol = 1e-6 * max(1.0, float(np.linalg.norm(target)))
        worst = max(worst, trace.distance_to_pinv / tol)
        bad += trace.distance_to_pinv > tol

    caught = 0
    for i in range(20):
        dd = int(rng.integers(8, 21))
        n, d = (2 * dd, dd) if i % 2 == 0 else (dd, 2 * dd)
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        try:
            fit_gradient_descent(x, y, 3.0 * default_learning_rate(x), 2000)
        except DivergenceError as exc:
            caught += exc.step >= 0
    _report(
        "gradient descent finds the minimum-norm solution",
        bad == 0 and caught == 20,
        f"{100 - bad}/100 runs within 1e-6 of the pseudoinverse solution "
        f"(worst {worst:.3g} of tolerance); {caught}/20 unstable step sizes "
        f"detected as divergence",
    )


def test_estimator_agreement():
    rng = np.random.default_rng(8)
    bad_tall = 0
    for _ in range(500):
        d = int(rng.integers(2, 20))
        n = d + 2 + int(rng.integers(0, 20))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        b1 = fit_pinv(x, y).beta
        b2 = fit_ols_under(x, y).beta
        bad_tall += np.linalg.norm(b1 - b2) > 1e-8 * max(1.0, np.linalg.norm(b2))
    bad_wide = 0
    for _ in range(500):
        n = int(rng.integers(2, 20))
        d = n + 2 + int(rng.integers(0, 20))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        b1 = fit_pinv(x, y).beta
        b2 = fit_min_norm(x, y).beta
        bad_wide += np.linalg.norm(b1 - b2) > 1e-8 * max(1.0, np.linalg.norm(b2))
    _report(
        "estimator agreement",
        bad_tall == 0 and bad_wide == 0,
        f"pseudoinverse vs normal equations {500 - bad_tall}/500 tall, "
        f"vs Gram min-norm {500 - bad_wide}/500 wide, within 1e-8 relative",
    )


def test_determinism_across_reruns_and_seed_order(tmp_path, threshold_sweep):
    args = ["sweep", "--d", "32", "--noise-sd", "0.25", "--grid", "2:96", "--seeds", "0:29"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "records.csv").read_bytes()
    rerun = (tmp_path / "b" / "records.csv").read_bytes()
    with open(tmp_path / "a" / "records.csv", newline="", encoding="utf-8") as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    backward = run_sweep(SweepConfig(**{**HEADLINE, "seeds": HEADLINE["seeds"][::-1]}))
    same_order = not backward.failures and backward.records == threshold_sweep.records
    _report(
        "determinism across reruns and seed order",
        first == rerun and same_order,
        f"records.csv byte-identical over two runs ({n_rows} rows); run_sweep records "
        f"identical with the seeds in reverse ({len(backward.records)} records)",
    )
