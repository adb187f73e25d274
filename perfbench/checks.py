"""Correctness gates on the files a descent-lab command writes.

The thresholds are those of ``tests/test_acceptance.py`` and are never looser:

* spike: median test MSE at n = 32 at least 5x the medians at n = 16 and
  n = 96;
* ablations: peak ratio (median at n = D over median at n = 3D, both
  cushioned by 1e-12) at most 2;
* polynomial: median test MSE at P = 30 at least 5x the medians at P = 5 and
  P = 200;
* gradient descent: every seed converged and the command exited 0.

The oracle gate compares the mean test MSE at n in {8, 16, 64, 96} with the
closed-form risk of the minimum-norm fit on isotropic Gaussian data
(Belkin, Hsu & Xu, arXiv:1903.07571; Hastie et al., arXiv:1903.08560) and
fails when the gap exceeds ``ORACLE_MAX_SE`` standard errors of that mean.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

SPIKE_FACTOR = 5.0
PEAK_RATIO_MAX = 2.0
PEAK_RATIO_EPS = 1e-12
ORACLE_NS = (8, 16, 64, 96)
ORACLE_MAX_SE = 4.0
REGIMES = {1: "underparameterized", 0: "interpolation", -1: "overparameterized"}


def read_records(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        for key in ("n_train", "d", "seed"):
            r[key] = int(r[key])
        for key in ("train_mse", "test_mse", "bias_term_mean", "variance_term_mean"):
            r[key] = float(r[key])
    return rows


def _values(rows, key: str, at: int) -> list[float]:
    return [r["test_mse"] for r in rows if r[key] == at]


def _median(rows, key: str, at: int) -> float:
    vals = _values(rows, key, at)
    if not vals:
        raise ValueError(f"no records with {key} = {at}")
    return statistics.median(vals)


def spike(rows, key: str = "n_train", peak: int = 32, below: int = 16, above: int = 96):
    """(ok, detail): the median at ``peak`` is at least 5x both neighbours."""
    at_peak, at_below, at_above = (_median(rows, key, k) for k in (peak, below, above))
    ok = at_peak >= SPIKE_FACTOR * at_below and at_peak >= SPIKE_FACTOR * at_above
    return ok, (f"median test MSE {at_peak:.4g} at {key}={peak} vs {at_below:.4g} at "
                f"{below} and {at_above:.4g} at {above}, need {SPIKE_FACTOR:g}x")


def peak_ratio(rows, d: int = 32):
    ratio = (_median(rows, "n_train", d) + PEAK_RATIO_EPS) / (
        _median(rows, "n_train", 3 * d) + PEAK_RATIO_EPS)
    return ratio <= PEAK_RATIO_MAX, f"peak ratio {ratio:.3g}, need <= {PEAK_RATIO_MAX:g}"


def min_norm_risk(n: int, d: int, noise_var: float) -> float:
    """Expected test MSE of the minimum-norm fit with |beta| = 1, including
    the noise of the test targets; finite only for |n - d| >= 2."""
    if n > d + 1:
        return noise_var + noise_var * d / (n - d - 1)
    if n < d - 1:
        return noise_var + (1.0 - n / d) + noise_var * n / (d - n - 1)
    raise ValueError(f"risk is infinite at n={n}, d={d}")


def oracle(rows, d: int = 32, noise_sd: float = 0.25):
    """(ok, largest relative gap, detail) against the closed-form risk."""
    worst_rel = 0.0
    parts = []
    ok = True
    for n in ORACLE_NS:
        vals = _values(rows, "n_train", n)
        if len(vals) < 2:
            raise ValueError(f"oracle needs at least two seeds at n={n}")
        mean = statistics.fmean(vals)
        se = statistics.stdev(vals) / math.sqrt(len(vals))
        risk = min_norm_risk(n, d, noise_sd ** 2)
        gap = abs(mean - risk)
        ok &= gap <= ORACLE_MAX_SE * se
        worst_rel = max(worst_rel, gap / risk)
        parts.append(f"n={n} {mean:.4g} vs {risk:.4g} ({gap / se:.2f} SE)")
    return ok, worst_rel, "; ".join(parts) + f", need <= {ORACLE_MAX_SE:g} SE"


def records_sane(rows) -> tuple[bool, str]:
    """Every number finite and every regime label matching n_train vs d."""
    for r in rows:
        nums = (r["train_mse"], r["test_mse"], r["bias_term_mean"], r["variance_term_mean"])
        if not all(math.isfinite(v) and v >= 0 for v in nums):
            return False, f"non-finite or negative value in cell n={r['n_train']} seed={r['seed']}"
        sign = (r["n_train"] > r["d"]) - (r["n_train"] < r["d"])
        if r["regime"] != REGIMES[sign]:
            return False, f"regime {r['regime']!r} at n={r['n_train']}, d={r['d']}"
    return True, f"{len(rows)} records finite with consistent regimes"
