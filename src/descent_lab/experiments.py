"""Sweep orchestration: run the double-descent experiments and record them.

A sweep walks ``n_train`` across the interpolation threshold (or, for the
polynomial variant, walks the feature count ``P`` across it at fixed ``n``),
fits the regime-appropriate estimator in every (n_train, seed) cell, and
records train/test error, the smallest nonzero singular value of the training
matrix, and the mean magnitudes of the bias and variance terms of the error
decomposition.

Each seed draws its training pool and its test set once and fits the ideal
model beta_star once, on pool and test together; every cell of the seed
takes its first n_train pool rows, factors them with one SVD, and fits,
reads sigma_min, ablates and decomposes from that one factorization
(``_cell``).  beta_star is therefore the same at every n_train of a seed,
so the bias and variance columns compare along the curve.

Three ablations switch off one spike ingredient each:

* ``sv-cutoff``: truncate the training SVD at a cutoff tau before fitting,
  removing the small singular values.
* ``test-projection``: replace every test row by its projection onto the
  training singular modes that survive the same cutoff tau, removing the test
  set's overlap with the dangerous trailing modes.  (Projecting onto the full
  row space provably does not change minimum-norm predictions at all, because
  X^+ Y already lives in the row space; the cutoff makes the projection bite.)
* ``linearized-targets``: replace every target of a seed, pool and test, by
  X beta_star with the seed's beta_star, removing the residuals.

When tau is not given explicitly it defaults to 0.9x the median over all
cells of sigma_max(training X).  Small cutoffs leave the near-threshold modes
that drive the spike partially intact; a cutoff near the bulk of the spectrum
is what actually flattens the peak-to-tail ratio.

Cells are independent pure computations, so they may run in any order and on
any number of threads; results are merged and sorted by (n_train, seed) at
the end, making the output deterministic for a given configuration.  The
environment variable ``DESCENT_LAB_THREADS`` caps the worker count.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    Dataset,
    SplitSpec,
    _legendre_matrix,
    load_csv,
    make_polynomial_dataset,
    make_student_teacher,
    polynomial_target,
    split,
)
from .decomposition import (
    GroundTruth,
    NestedGroundTruth,
    decompose_test_errors,
    factor_nested_ground_truth,
    make_ground_truth,
    make_nested_ground_truth,
    smallest_nonzero_singular_value,
)
from .errors import ConfigError, EmptySpectrumError, RankDeficientError
from .estimators import fit_min_norm, fit_ols_under, fit_pinv, fit_ridge
from .linalg import SvdResult, svd, truncate_svd

N_TEST_SYNTHETIC = 256
DENSE_EVAL_POINTS = 1000
HOLDOUT_FRACTION = 0.2
REAL_GRID_POINTS = 40
# Default singular value cutoff for the ablations, as a fraction of the
# median per-cell sigma_max.
SV_CUTOFF_COEFF = 0.9
# lambda = RIDGE_AUTO_COEFF * sigma_max^2 when ridge is asked to pick its own
# strength; heavy on purpose, the point is to bury the trailing modes.
RIDGE_AUTO_COEFF = 0.5
# Guards the peak ratio against 0/0 when an ablation drives both medians to
# the float-noise floor.
PEAK_RATIO_EPS = 1e-12

ABLATION_KINDS = ("none", "sv-cutoff", "test-projection", "linearized-targets")


@dataclass(frozen=True)
class AblationKind:
    """Which spike ingredient to remove, and the cutoff where one applies.

    ``tau`` may be left as None on the cutoff-style ablations, meaning
    "resolve the default from the sweep"; it must be positive for sv-cutoff
    and nonnegative for test-projection (tau = 0 projects onto the full row
    space).
    """

    kind: str = "none"
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ABLATION_KINDS:
            raise ConfigError(f"unknown ablation {self.kind!r}")
        if self.kind in ("none", "linearized-targets") and self.tau is not None:
            raise ConfigError(f"{self.kind} takes no cutoff")
        if self.kind == "sv-cutoff" and self.tau is not None and not self.tau > 0:
            raise ConfigError(f"sv-cutoff needs tau > 0, got {self.tau}")
        if self.kind == "test-projection" and self.tau is not None and self.tau < 0:
            raise ConfigError(f"test-projection needs tau >= 0, got {self.tau}")

    @property
    def needs_tau(self) -> bool:
        return self.kind in ("sv-cutoff", "test-projection") and self.tau is None

    def label(self) -> str:
        if self.kind in ("none", "linearized-targets"):
            return self.kind
        if self.tau is None:
            return f"{self.kind}:auto"
        return f"{self.kind}:{self.tau:.12g}"


def parse_ablation(text: str) -> AblationKind:
    """Parse CLI syntax: none | sv-cutoff[:tau] | test-projection[:tau] |
    linearized-targets.  Omitted tau means the sweep-level default."""
    kind, sep, arg = text.partition(":")
    if not sep:
        return AblationKind(kind)
    if arg == "auto":
        return AblationKind(kind)
    try:
        tau = float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad cutoff in ablation {text!r}") from exc
    return AblationKind(kind, tau)


@dataclass(frozen=True)
class EstimatorPolicy:
    """Which estimator the sweep uses: plain pseudoinverse, ridge at a fixed
    lambda, or ridge at lambda = auto_coeff * sigma_max^2 per cell."""

    kind: str = "pinv"
    lam: float | None = None
    auto_coeff: float | None = None

    def __post_init__(self):
        if self.kind not in ("pinv", "ridge"):
            raise ConfigError(f"unknown estimator {self.kind!r}")
        if self.kind == "pinv" and (self.lam is not None or self.auto_coeff is not None):
            raise ConfigError("pinv takes no lambda")
        if self.kind == "ridge":
            if (self.lam is None) == (self.auto_coeff is None):
                raise ConfigError("ridge needs exactly one of lambda or auto_coeff")
            if self.lam is not None and not self.lam > 0:
                raise ConfigError(f"ridge needs lambda > 0, got {self.lam}")
            if self.auto_coeff is not None and not self.auto_coeff > 0:
                raise ConfigError("ridge auto coefficient must be > 0")

    def label(self) -> str:
        if self.kind == "pinv":
            return "pinv"
        if self.lam is not None:
            return f"ridge:{self.lam:.12g}"
        return f"ridge:auto:{self.auto_coeff:.12g}"


def parse_estimator(text: str) -> EstimatorPolicy:
    """Parse CLI syntax: pinv | ridge:lambda (also ridge:auto[:coeff])."""
    kind, sep, arg = text.partition(":")
    if kind == "pinv":
        if sep:
            raise ConfigError("pinv takes no argument")
        return EstimatorPolicy("pinv")
    if kind != "ridge":
        raise ConfigError(f"unknown estimator {text!r}")
    if not sep or not arg:
        raise ConfigError("ridge needs a lambda, e.g. ridge:0.1")
    if arg == "auto":
        return EstimatorPolicy("ridge", auto_coeff=RIDGE_AUTO_COEFF)
    try:
        if arg.startswith("auto:"):
            return EstimatorPolicy("ridge", auto_coeff=float(arg.split(":", 1)[1]))
        lam = float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad lambda in estimator {text!r}") from exc
    return EstimatorPolicy("ridge", lam=lam)


@dataclass
class SweepRecord:
    """One (n_train, seed) cell of a sweep."""

    n_train: int
    d: int
    seed: int
    ablation: str
    estimator: str
    train_mse: float
    test_mse: float
    smallest_nonzero_sv: float | None
    bias_term_mean: float
    variance_term_mean: float
    regime: str


@dataclass
class CellFailure:
    """A cell that raised instead of producing a record."""

    n_train: int
    seed: int
    error: str


@dataclass
class SweepOutcome:
    """All records of a sweep (sorted by n_train, seed) plus any failures."""

    records: list[SweepRecord]
    failures: list[CellFailure] = field(default_factory=list)


@dataclass
class SweepConfig:
    """Everything a sweep needs.

    ``source`` is either "student-teacher" or "csv:<path>" (the latter needs
    ``target_column``).  A None grid means the default: every integer in
    [2, 3D] for synthetic data, ~40 log-spaced points for real data.  The
    grid must span both regimes (min < D < max) unless
    ``allow_narrow_grid`` is set.
    """

    source: str = "student-teacher"
    d: int | None = 32
    noise_sd: float = 0.25
    grid: list[int] | None = None
    seeds: list[int] = field(default_factory=lambda: list(range(30)))
    ablation: AblationKind = AblationKind()
    estimator: EstimatorPolicy = EstimatorPolicy()
    target_column: str | None = None
    standardize: bool = True
    n_test: int = N_TEST_SYNTHETIC
    allow_narrow_grid: bool = False


def default_synthetic_grid(d: int) -> list[int]:
    return list(range(2, 3 * d + 1))


def default_real_grid(pool_rows: int) -> list[int]:
    pts = np.geomspace(2, pool_rows, REAL_GRID_POINTS)
    return sorted({int(round(p)) for p in pts})


def worker_count() -> int:
    """Thread pool size: DESCENT_LAB_THREADS when set, else min(8, cpus)."""
    env = os.environ.get("DESCENT_LAB_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"DESCENT_LAB_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ConfigError(f"DESCENT_LAB_THREADS must be >= 1, got {n}")
        return n
    return min(8, os.cpu_count() or 1)


@dataclass
class _Plan:
    """A SweepConfig with everything resolved: data loaded, grid and cutoff
    pinned.  Cells read from it but never write."""

    config: SweepConfig
    csv_ds: Dataset | None
    d: int
    grid: list[int]
    ablation: AblationKind


def _validate_grid(grid: list[int], d: int, allow_narrow: bool) -> None:
    if not grid:
        raise ConfigError("empty n_train grid")
    if any(int(n) != n or n < 1 for n in grid):
        raise ConfigError("grid entries must be positive integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly increasing")
    if not allow_narrow and not (grid[0] < d < grid[-1]):
        raise ConfigError(
            f"grid [{grid[0]}, {grid[-1]}] does not span both regimes around D={d}"
        )


def _prepare(config: SweepConfig) -> _Plan:
    if config.source.startswith("csv:"):
        if not config.target_column:
            raise ConfigError("csv datasets need a target column")
        csv_ds = load_csv(config.source[4:], config.target_column, config.standardize)
        d = csv_ds.n_cols
        pool_rows = csv_ds.n_rows - int(round(HOLDOUT_FRACTION * csv_ds.n_rows))
        grid = config.grid if config.grid is not None else default_real_grid(pool_rows)
    elif config.source == "student-teacher":
        if config.d is None or config.d < 1:
            raise ConfigError("student-teacher data needs a positive feature count d")
        csv_ds = None
        d = config.d
        grid = config.grid if config.grid is not None else default_synthetic_grid(d)
    else:
        raise ConfigError(f"unknown dataset source {config.source!r}")
    grid = [int(n) for n in grid]
    _validate_grid(grid, d, config.allow_narrow_grid)

    plan = _Plan(config=config, csv_ds=csv_ds, d=d, grid=grid, ablation=config.ablation)
    if config.ablation.needs_tau:
        tau = SV_CUTOFF_COEFF * _median_sigma_max(plan)
        plan.ablation = replace(config.ablation, tau=tau)
    return plan


def _environment(plan: _Plan, seed: int) -> tuple[Dataset, Dataset]:
    """The training pool and the held-out test set for one seed.

    Synthetic: one draw of pool + test rows, test at the end, no shuffle
    (rows are exchangeable).  Real: seed-controlled shuffle, last 20% held
    out.  Either way the test set is fixed across every n_train cell of a
    seed and training sets are nested, so curves differ only in how much
    training data they saw.
    """
    if plan.csv_ds is None:
        cfg = plan.config
        ds, _ = make_student_teacher(
            plan.grid[-1] + cfg.n_test, plan.d, cfg.noise_sd, seed
        )
        return split(ds, SplitSpec(n_train=plan.grid[-1], seed=seed, shuffle=False))
    n = plan.csv_ds.n_rows
    n_test = int(round(HOLDOUT_FRACTION * n))
    return split(plan.csv_ds, SplitSpec(n_train=n - n_test, seed=seed, shuffle=True))


def _median_sigma_max(plan: _Plan) -> float:
    tops = []
    for seed in plan.config.seeds:
        pool, _ = _environment(plan, seed)
        for n in plan.grid:
            if n <= pool.n_rows:
                tops.append(np.linalg.svd(pool.X[:n], compute_uv=False)[0])
    if not tops:
        raise ConfigError("no usable cells to resolve the cutoff from")
    return float(np.median(tops))


def resolve_tau(config: SweepConfig) -> float:
    """The default ablation cutoff for this sweep: 0.9x the median over all
    (n_train, seed) cells of sigma_max of the training matrix."""
    plan = _prepare(replace(config, ablation=AblationKind()))
    return SV_CUTOFF_COEFF * _median_sigma_max(plan)


def apply_ablation(
    kind: AblationKind, train: Dataset, test: Dataset
) -> tuple[Dataset, Dataset, str]:
    """Apply one ablation to a (train, test) pair, returning new datasets and
    a one-line note describing what was done.

    The cutoff-style ablations need a concrete tau here; sweeps resolve the
    default before dispatching cells.  Sweeps do not call this: they ablate
    from the cell's own SVD and linearize with the seed's beta_star (see
    the module docstring), where this fits beta_star on train and test.
    """
    if train.n_cols != test.n_cols:
        raise ConfigError("train and test feature counts differ")
    if kind.kind == "none":
        return train, test, "unchanged"
    if kind.needs_tau:
        raise ConfigError(f"{kind.kind} needs a resolved cutoff; see resolve_tau")
    if kind.kind == "sv-cutoff":
        s = truncate_svd(svd(train.X), kind.tau)
        train2 = replace_x(train, s.reconstruct())
        return train2, test, f"kept {s.rank} training modes at cutoff {kind.tau:.6g}"
    if kind.kind == "test-projection":
        s = truncate_svd(svd(train.X), kind.tau)
        proj = (test.X @ s.v_cols) @ s.v_cols.T
        return train, replace_x(test, proj), (
            f"projected test rows onto {s.rank} training modes at cutoff {kind.tau:.6g}"
        )
    # linearized-targets: fit the ideal model on everything in sight and
    # replace all targets with its predictions, leaving zero residuals.
    x_cat = np.vstack([train.X, test.X])
    y_cat = np.concatenate([train.Y, test.Y])
    gt = make_ground_truth(x_cat, y_cat, train.X, train.Y)
    train2 = replace_y(train, train.X @ gt.beta_star)
    test2 = replace_y(test, test.X @ gt.beta_star)
    return train2, test2, f"replaced targets with the ideal fit on {x_cat.shape[0]} rows"


def replace_x(ds: Dataset, x: np.ndarray) -> Dataset:
    return Dataset(X=x, Y=ds.Y, feature_names=list(ds.feature_names),
                   source=ds.source, preprocessing=ds.preprocessing, seed=ds.seed)


def replace_y(ds: Dataset, y: np.ndarray) -> Dataset:
    return Dataset(X=ds.X, Y=y, feature_names=list(ds.feature_names),
                   source=ds.source, preprocessing=ds.preprocessing, seed=ds.seed)


def _regime_fit(x: np.ndarray, y: np.ndarray, s: SvdResult | None = None):
    """The regime-appropriate estimator: OLS when tall, Gram min-norm when
    wide, pseudoinverse at the threshold and on rank-deficient input.

    ``s`` is the cell's own factorization of ``x``, possibly truncated: its
    rank spares the tall and wide fits a second factorization, and the
    pseudoinverse fit uses its modes.  Left out, the fits factor ``x``.
    """
    n, d = x.shape
    rank = None if s is None else s.rank
    try:
        if n > d:
            return fit_ols_under(x, y, rank=rank)
        if n < d:
            return fit_min_norm(x, y, rank=rank)
    except RankDeficientError:
        pass
    return fit_pinv(x, y, s=s)


def _cell(
    x, y, x_eval, y_eval, s: SvdResult, gt: GroundTruth, policy: EstimatorPolicy
) -> dict:
    """The data columns of one cell's record, all from its one factorization.

    ``s`` factors the training rows ``x`` (truncated under sv-cutoff); the
    fit, sigma_min and the decomposition all use it.  ``x_eval`` and
    ``y_eval`` are the rows the test error is measured on.
    """
    if policy.kind == "ridge" and s.rank > 0:
        lam = policy.lam
        if lam is None:
            lam = policy.auto_coeff * float(s.singular_values[0]) ** 2
        fit = fit_ridge(x, y, lam, s=s)
    else:
        fit = _regime_fit(x, y, s)

    resid = x_eval @ fit.beta - y_eval
    try:
        sv = smallest_nonzero_singular_value(s)
    except EmptySpectrumError:
        sv = None

    # The decomposition always describes the minimum-norm mechanism on the
    # (possibly ablated) training data; ridge alters only the MSE columns.
    bias_vec, var_vec, _ = decompose_test_errors(x_eval, x, y, s, gt, fit.regime)
    return dict(
        train_mse=fit.train_mse,
        test_mse=float(resid @ resid / x_eval.shape[0]),
        smallest_nonzero_sv=sv,
        bias_term_mean=float(np.mean(np.abs(bias_vec))),
        variance_term_mean=float(np.mean(np.abs(var_vec))),
        regime=fit.regime,
    )


def _seed_state(plan: _Plan, seed: int) -> tuple[Dataset, Dataset, np.ndarray]:
    """One seed's training pool and test set, and beta_star fit once on both.
    Under linearized-targets both sets come back with X beta_star as targets."""
    pool, test = _environment(plan, seed)
    beta_star = make_ground_truth(
        np.vstack([pool.X, test.X]), np.concatenate([pool.Y, test.Y]), pool.X, pool.Y
    ).beta_star
    if plan.ablation.kind == "linearized-targets":
        pool = replace_y(pool, pool.X @ beta_star)
        test = replace_y(test, test.X @ beta_star)
    return pool, test, beta_star


def _linear_cell(plan: _Plan, state, n_train: int, seed: int) -> SweepRecord:
    pool, test, beta_star = state
    if n_train > pool.n_rows:
        raise ConfigError(
            f"n_train={n_train} exceeds the {pool.n_rows}-row training pool"
        )
    x, y = pool.X[:n_train], pool.Y[:n_train]
    s = svd(x)
    x_eval = test.X
    kind = plan.ablation
    if kind.kind == "sv-cutoff":
        s = truncate_svd(s, kind.tau)
    elif kind.kind == "test-projection":
        v = truncate_svd(s, kind.tau).v_cols
        x_eval = (x_eval @ v) @ v.T
    gt = GroundTruth(beta_star=beta_star, residuals=y - x @ beta_star)
    policy = plan.config.estimator
    return SweepRecord(
        n_train=n_train,
        d=plan.d,
        seed=seed,
        ablation=kind.label(),
        estimator=policy.label(),
        **_cell(x, y, x_eval, test.Y, s, gt, policy),
    )


def run_cell(config: SweepConfig, n_train: int, seed: int) -> SweepRecord:
    """Run one (n_train, seed) cell and record everything about it; the
    record equals the sweep's for the same cell."""
    plan = _prepare(config)
    return _linear_cell(plan, _seed_state(plan, seed), n_train, seed)


def _run_cells(cells, one) -> SweepOutcome:
    """Run the cells on the worker pool and merge deterministically."""
    records: list[SweepRecord] = []
    failures: list[CellFailure] = []

    def guarded(cell):
        try:
            return one(*cell), None
        except Exception as exc:  # a failed cell is recorded, not fatal
            return None, CellFailure(cell[0], cell[1], f"{type(exc).__name__}: {exc}")

    workers = worker_count()
    if workers == 1:
        results = [guarded(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(guarded, cells))
    for rec, fail in results:
        if rec is not None:
            records.append(rec)
        else:
            failures.append(fail)
    records.sort(key=lambda r: (r.n_train, r.seed, r.d))
    failures.sort(key=lambda f: (f.n_train, f.seed))
    return SweepOutcome(records=records, failures=failures)


def run_sweep(config: SweepConfig, *, _plan: _Plan | None = None) -> SweepOutcome:
    """Run every (n_train, seed) cell of the sweep.

    Output order is sorted by (n_train, seed) whatever the execution
    schedule, and identical configurations produce identical outcomes.
    Failed cells are collected, not fatal.  Cells run seed-major, and the
    first cell of a seed builds its state (``_seed_state``).
    """
    plan = _plan if _plan is not None else _prepare(config)
    cells = [(n, seed) for seed in config.seeds for n in plan.grid]
    cache = _SeedCache(lambda seed: _seed_state(plan, seed), cells)

    def one(n_train: int, seed: int) -> SweepRecord:
        state = cache.acquire(seed)
        try:
            return _linear_cell(plan, state, n_train, seed)
        finally:
            cache.release(seed)

    return _run_cells(cells, one)


class _SeedCache:
    """Per-seed state shared by the cells of one seed.

    The first cell of a seed builds it, under the lock, so cells of the same
    seed on other threads wait for that one build; the seed's last cell to
    release it drops it; ``cells`` says how many cells each seed has.  With
    seed-major dispatch only the seeds in flight are held.
    """

    def __init__(self, build, cells):
        self._build = build
        self._cells_per_seed = Counter(seed for _, seed in cells)
        self._lock = threading.Lock()
        self._live: dict[int, list] = {}  # seed -> [state, cells left]

    def acquire(self, seed: int):
        with self._lock:
            slot = self._live.get(seed)
            if slot is None:
                slot = self._live[seed] = [self._build(seed), self._cells_per_seed[seed]]
            return slot[0]

    def release(self, seed: int) -> None:
        with self._lock:
            slot = self._live[seed]
            slot[1] -= 1
            if slot[1] == 0:
                del self._live[seed]


def run_polynomial_sweep(
    p_grid: list[int], n: int, seeds: list[int], noise_sd: float
) -> SweepOutcome:
    """Sweep the Legendre feature count P at fixed n.

    Test MSE is measured against a dense noiseless grid of 1,000 points on
    [-1, 1].  Records reuse the sweep schema with d = P.  Duplicate grid
    entries produce duplicate records.

    Legendre columns nest across P, so each seed draws its training set once
    at P_max, factors its (n + 1000) x P_max ground-truth stack once
    (``NestedGroundTruth``), and every cell slices the first P columns.  The
    slices are bit-identical to a P-column draw.
    """
    if not p_grid:
        raise ConfigError("empty P grid")
    if any(int(p) != p or not 1 <= p <= 200 for p in p_grid):
        raise ConfigError("P grid entries must be integers in [1, 200]")
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    xs = np.linspace(-1.0, 1.0, DENSE_EVAL_POINTS)
    ye = polynomial_target(xs)
    p_max = max(p_grid)
    xe_max = _legendre_matrix(xs, p_max)

    def build(seed: int) -> tuple[Dataset, NestedGroundTruth]:
        ds = make_polynomial_dataset(n, p_max, noise_sd, seed)
        truth = factor_nested_ground_truth(
            np.vstack([ds.X, xe_max]), np.concatenate([ds.Y, ye])
        )
        return ds, truth

    # Seed-major, so each seed's cells run together and its state is dropped
    # once they are done.
    cells = [(int(p), seed) for seed in seeds for p in p_grid]
    cache = _SeedCache(build, cells)
    pinv = EstimatorPolicy()

    def one(p: int, seed: int) -> SweepRecord:
        ds, truth = cache.acquire(seed)
        try:
            # Contiguous copies, so every BLAS call sees the layout of a
            # fresh P-column draw and the records stay bit-identical to one.
            x = np.ascontiguousarray(ds.X[:, :p])
            xe = np.ascontiguousarray(xe_max[:, :p])
            gt = make_nested_ground_truth(truth, x, ds.Y)
            fields = _cell(x, ds.Y, xe, ye, svd(x), gt, pinv)
        finally:
            cache.release(seed)
        return SweepRecord(
            n_train=n, d=p, seed=seed, ablation="none", estimator=pinv.label(), **fields
        )

    return _run_cells(cells, one)


def peak_ratio(records: list[SweepRecord], d: int) -> float:
    """Median test MSE at the threshold n = D over the median at n = 3D.

    Both medians are cushioned by a tiny epsilon so that ablations which
    drive the entire curve to the float-noise floor come out near 1 instead
    of as a 0/0 lottery.
    """
    at_d = [r.test_mse for r in records if r.n_train == d]
    at_3d = [r.test_mse for r in records if r.n_train == 3 * d]
    if not at_d or not at_3d:
        raise ConfigError(f"peak ratio needs cells at n={d} and n={3 * d}")
    return float(
        (np.median(at_d) + PEAK_RATIO_EPS) / (np.median(at_3d) + PEAK_RATIO_EPS)
    )


def median_series(records: list[SweepRecord], attr: str, key: str = "n_train"):
    """Per-key medians of one record field, skipping missing values.

    ``key`` is the record field that varies along the sweep (n_train for the
    linear sweeps, d for the polynomial one).  Returns (sorted key values,
    medians) ready for plotting.
    """
    groups: dict[int, list[float]] = {}
    for r in records:
        v = getattr(r, attr)
        if v is None:
            continue
        groups.setdefault(getattr(r, key), []).append(v)
    ks = sorted(groups)
    return ks, [float(np.median(groups[k])) for k in ks]
