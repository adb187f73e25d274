"""Per-layer metrics computed from the spans of one traced child process.

A span's self time is its duration minus the part of its interval covered by
its child spans.  Children that overlap (sweep cells running on several
threads) are merged first, so the covered part never exceeds the span.

SVD work is computed from input shapes, not measured: for an m x n input with
M = max(m, n) and N = min(m, n), the thin factorization U1, S, V costs
6 M N^2 + 20 N^3 flops (Golub & Van Loan, R-SVD), and it reads and writes
8 (m n + m N + N + N n) bytes of float64.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import CELL_SPAN, SWEEP_SPAN

FITS = (
    "estimators.fit_ols_under",
    "estimators.fit_min_norm",
    "estimators.fit_pinv",
    "estimators.fit_ridge",
)

# (metric, unit), in report order.  Names ending in .calls count spans of the
# layer function before it; names ending in .self_s sum their self time.
PER_LAYER = (
    ("linalg.svd.calls", "count"),
    ("linalg.svd.calls_per_cell", "calls/cell"),
    ("linalg.svd.self_s", "s"),
    ("linalg.svd.flops", "flop"),
    ("linalg.svd.bytes", "B"),
    ("linalg.fix_signs.self_s", "s"),
    ("linalg.pseudoinverse_apply.calls", "count"),
    ("linalg.truncate_svd.calls", "count"),
    ("data.make_student_teacher.calls", "count"),
    ("data.make_student_teacher.self_s", "s"),
    ("data.make_polynomial_dataset.calls", "count"),
    ("data.make_polynomial_dataset.self_s", "s"),
    ("data.legendre.calls", "count"),
    ("data.legendre.self_s", "s"),
    ("estimators.fit_ols_under.calls", "count"),
    ("estimators.fit_min_norm.calls", "count"),
    ("estimators.fit_pinv.calls", "count"),
    ("estimators.fit_ridge.calls", "count"),
    ("estimators.fit.self_s", "s"),
    ("estimators.fallback_frac", "ratio"),
    ("estimators.fit_gradient_descent.self_s", "s"),
    ("estimators.gd.steps", "count"),
    ("decomposition.make_ground_truth.calls", "count"),
    ("decomposition.make_ground_truth.self_s", "s"),
    ("decomposition.make_ground_truth.rows", "rows"),
    ("decomposition.decompose_test_errors.calls", "count"),
    ("decomposition.decompose_test_errors.self_s", "s"),
    ("experiments.prepare.self_s", "s"),
    ("experiments.apply_ablation.self_s", "s"),
    ("experiments.cell.count", "count"),
    ("experiments.cell.failed", "count"),
    ("experiments.cell.self_s", "s"),
    ("experiments.cell.p50_ms", "ms"),
    ("experiments.cell.p99_ms", "ms"),
    ("experiments.cell.busy_s", "s"),
    ("experiments.concurrency", "ratio"),
    ("svgplot.render_line_svg.self_s", "s"),
    ("cli.write_records_csv.self_s", "s"),
    ("cli.write_manifest.self_s", "s"),
    ("cli.records_bytes", "B"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Metrics that count work: they must repeat exactly for the same inputs.
COUNTS = tuple(name for name, unit in PER_LAYER
               if unit not in ("s", "ms") and name != "experiments.concurrency")


def svd_flops(m: int, n: int) -> int:
    big, small = max(m, n), min(m, n)
    return 6 * big * small * small + 20 * small ** 3


def svd_bytes(m: int, n: int) -> int:
    k = min(m, n)
    return 8 * (m * n + m * k + k + k * n)


def _covered(lo: float, hi: float, intervals) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> list[float]:
    """Self time of every span, in the order given."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, *_ in spans:
        children[parent].append((t0, t1))
    return [t1 - t0 - _covered(t0, t1, children.get(sid, ())) for sid, _p, _n, t0, t1, *_ in spans]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cell_durations_ms(spans) -> list[float]:
    return [(s[4] - s[3]) * 1e3 for s in spans if s[2] == CELL_SPAN]


def summarize(spans, cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced child.  ``cells`` is the number of
    workload cells the child ran (sweep cells, or seeds for gdcheck); it is
    the denominator of ``linalg.svd.calls_per_cell``."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur = defaultdict(float)
    values = defaultdict(list)
    errors = defaultdict(list)
    for span, own in zip(spans, selfs):
        name = span[2]
        calls[name] += 1
        self_s[name] += own
        dur[name] += span[4] - span[3]
        if span[7] is not None:
            values[name].append(span[7])
        if span[6] is not None:
            errors[name].append(span[6])

    shapes = values["linalg.svd"]
    fits = sum(calls[f] for f in FITS)
    fallbacks = sum(e == "RankDeficientError" for f in FITS for e in errors[f])
    cell_ms = cell_durations_ms(spans)
    out = {
        "linalg.svd.calls_per_cell": calls["linalg.svd"] / cells if cells else 0.0,
        "linalg.svd.flops": sum(svd_flops(m, n) for m, n in shapes),
        "linalg.svd.bytes": sum(svd_bytes(m, n) for m, n in shapes),
        "estimators.fit.self_s": sum(self_s[f] for f in FITS),
        "estimators.fallback_frac": fallbacks / fits if fits else 0.0,
        "estimators.gd.steps": sum(values["estimators.fit_gradient_descent"]),
        "decomposition.make_ground_truth.rows": sum(values["decomposition.make_ground_truth"]),
        "experiments.cell.count": calls[CELL_SPAN],
        "experiments.cell.failed": len(errors[CELL_SPAN]),
        "experiments.cell.p50_ms": percentile(cell_ms, 50),
        "experiments.cell.p99_ms": percentile(cell_ms, 99),
        "experiments.cell.busy_s": dur[CELL_SPAN],
        "experiments.concurrency": dur[CELL_SPAN] / dur[SWEEP_SPAN] if dur[SWEEP_SPAN] else 0.0,
        "cli.records_bytes": sum(values["cli.write_records_csv"]),
        "trace.spans": len(spans),
    }
    for metric, _unit in PER_LAYER:
        if metric in out or metric.startswith("trace."):
            continue
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
    return out


def combine(per_child: list[dict], pooled_cells_ms: list[float]) -> dict[str, float]:
    """Median of each metric over a run's traced children, with the cell
    latency percentiles taken over all their cells together."""
    out = {name: statistics.median(d[name] for d in per_child) for name in per_child[0]}
    out["experiments.cell.p50_ms"] = percentile(pooled_cells_ms, 50)
    out["experiments.cell.p99_ms"] = percentile(pooled_cells_ms, 99)
    return out
