"""Sweep orchestration: run the double-descent experiments and record them.

A sweep walks ``n_train`` across the interpolation threshold (or, for the
polynomial variant, walks the feature count ``P`` across it at fixed ``n``),
fits the minimum-norm estimator X^+ y (or ridge, when asked) in every
(n_train, seed) cell, and records train/test error, the smallest nonzero
singular value of the training matrix, and the mean magnitudes of the bias
and variance terms of that fit's error decomposition.

Each seed reads its training pool and its test set as views of one array,
pool rows first (``_environment``), and fits the ideal model beta_star once,
on that whole array; every cell of the seed takes its first n_train pool
rows, factors them with one SVD, ablates (``apply_ablation``), and fits,
reads sigma_min and decomposes from that one factorization (``_cell``).
beta_star is therefore the same at every n_train of a seed, so the bias and
variance columns compare along the curve.

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

When tau is not given explicitly it defaults to 0.9x the median of
sigma_max(training X) over every cell that fits the pool.  Small cutoffs
leave the near-threshold modes that drive the spike partially intact; a
cutoff near the bulk of the spectrum is what actually flattens the
peak-to-tail ratio.  Appending a row never lowers sigma_max (Cauchy
interlacing), so each seed's sigma_max values rise along the grid and the
median is read off a merge of those sorted sequences: about half of the
cells' singular-value SVDs, run before the first cell.

Cells are independent pure computations, so they may run in any order;
results are sorted by (n_train, seed) at the end, making the output
deterministic for a given configuration.  Both sweeps run their cells
through ``_run_seeded``, seed-major on the calling thread: a seed's state is
built before its first cell and dropped when the next seed's is built, so
one seed's state is held at a time.  While a sweep runs, BLAS is held to one
thread (``linalg.one_blas_thread``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice

import numpy as np

from .data import (
    Preprocessing,
    _legendre_matrix,
    load_csv,
    make_polynomial_dataset,
    make_student_teacher,
    polynomial_target,
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
from .errors import ConfigError, EmptySpectrumError
from .estimators import _mse, fit_pinv, fit_ridge
from .linalg import SvdResult, one_blas_thread, project_onto_rowspace, svd, truncate_svd

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
    "resolve the default from the sweep"; it must be finite, positive for
    sv-cutoff and nonnegative for test-projection (tau = 0 projects onto the
    full row space).
    """

    kind: str = "none"
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ABLATION_KINDS:
            raise ConfigError(f"unknown ablation {self.kind!r}")
        if self.kind in ("none", "linearized-targets") and self.tau is not None:
            raise ConfigError(f"{self.kind} takes no cutoff")
        if self.tau is not None and not math.isfinite(self.tau):
            raise ConfigError(f"{self.kind} needs a finite tau, got {self.tau}")
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
            if self.lam is not None and not 0 < self.lam < math.inf:
                raise ConfigError(f"ridge needs a finite lambda > 0, got {self.lam}")
            if self.auto_coeff is not None and not 0 < self.auto_coeff < math.inf:
                raise ConfigError(
                    f"ridge auto coefficient must be finite and > 0, got {self.auto_coeff}"
                )

    def lam_for(self, s: SvdResult) -> float:
        """The ridge strength for a cell factored as ``s``: 0 for pinv and for
        a rank-0 factorization (whose fit is zero either way), else the fixed
        lambda or auto_coeff * sigma_max^2."""
        if self.kind == "pinv" or s.rank == 0:
            return 0.0
        if self.lam is not None:
            return self.lam
        return self.auto_coeff * float(s.singular_values[0]) ** 2

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
    """All records of a sweep (sorted by n_train, seed) plus any failures, and
    ``resolved``, every value that decides the records (its source, grid,
    seeds, cutoff and the like), then the ``blas_threads`` the cells ran
    with (None: BLAS left as it was).  For a csv sweep, ``data`` says what
    ``load_csv`` dropped: the rows with a missing value, the constant
    columns and the non-numeric columns.  It follows from the file, so it
    stays out of ``resolved``."""

    records: list[SweepRecord]
    failures: list[CellFailure] = field(default_factory=list)
    resolved: dict = field(default_factory=dict)
    data: dict | None = None


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
    allow_narrow_grid: bool = False


def default_synthetic_grid(d: int) -> list[int]:
    return list(range(2, 3 * d + 1))


def default_real_grid(pool_rows: int) -> list[int]:
    pts = np.geomspace(2, pool_rows, REAL_GRID_POINTS)
    return sorted({int(round(p)) for p in pts})


def worker_count() -> int:
    """Threads a sweep runs its cells on: always 1, the calling thread.
    ``perfbench/child.py`` reports it in each benchmark child's environment."""
    return 1


@dataclass
class _Plan:
    """A SweepConfig with everything resolved: data loaded, grid and cutoff
    pinned.  Cells read from it but never write.  ``csv`` is ``load_csv``'s
    result for a csv source, None for synthetic data; ``pool_rows`` is the
    size of each seed's training pool (the grid's last point for synthetic
    data, all but the held-out 20% of a csv's rows)."""

    config: SweepConfig
    csv: tuple[np.ndarray, np.ndarray, Preprocessing] | None
    d: int
    pool_rows: int
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
    if not 0 <= config.noise_sd < math.inf:
        raise ConfigError(f"noise-sd must be finite and >= 0, got {config.noise_sd}")
    if config.source.startswith("csv:"):
        if not config.target_column:
            raise ConfigError("csv datasets need a target column")
        csv = load_csv(config.source[4:], config.target_column, config.standardize)
        n_rows, d = csv[0].shape
        pool_rows = n_rows - int(round(HOLDOUT_FRACTION * n_rows))
        if pool_rows == n_rows:
            raise ConfigError(f"{config.source[4:]}: {n_rows} rows leave no test row")
        grid = config.grid if config.grid is not None else default_real_grid(pool_rows)
    elif config.source == "student-teacher":
        if config.d is None or config.d < 1:
            raise ConfigError("student-teacher data needs a positive feature count d")
        csv = None
        d = config.d
        grid = config.grid if config.grid is not None else default_synthetic_grid(d)
    else:
        raise ConfigError(f"unknown dataset source {config.source!r}")
    grid = [int(n) for n in grid]
    _validate_grid(grid, d, config.allow_narrow_grid)
    if csv is None:
        pool_rows = grid[-1]

    plan = _Plan(config=config, csv=csv, d=d, pool_rows=pool_rows, grid=grid,
                 ablation=config.ablation)
    if config.ablation.needs_tau:
        tau = SV_CUTOFF_COEFF * _median_sigma_max(plan)
        plan.ablation = replace(config.ablation, tau=tau)
    return plan


def _environment(plan: _Plan, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One seed's rows and targets, the ``plan.pool_rows`` pool rows first
    and the test set after.

    Synthetic: one draw of pool + test rows, as drawn (rows are
    exchangeable).  Real: the file's rows in ``default_rng(seed).permutation``
    order, one copy, the last 20% held out.  Either way the test set is fixed
    across every n_train cell of a seed and training sets are nested, so
    curves differ only in how much training data they saw.
    """
    if plan.csv is None:
        x, y, _ = make_student_teacher(
            plan.pool_rows + N_TEST_SYNTHETIC, plan.d, plan.config.noise_sd, seed
        )
        return x, y
    x, y, _ = plan.csv
    order = np.random.default_rng(seed).permutation(x.shape[0])
    return x[order], y[order]


def _median_sigma_max(plan: _Plan) -> float:
    """The median sigma_max over every (n_train, seed) cell that fits the
    pool, from about half of their factorizations.

    A seed's training sets nest along the strictly increasing grid, and
    appending a row never lowers sigma_max (Cauchy interlacing), so each
    seed's sigma_max values come out sorted.  ``heapq.merge`` over one lazy
    sequence per seed therefore yields every cell's sigma_max in ascending
    order, and the median needs only the M // 2 + 1 smallest of the M cells:
    that many SVDs, plus at most one look-ahead for each other seed.  The
    merge equals the sort while the computed sigma_max keep the mathematical
    order; two prefixes whose sigma_max agree to within rounding (say, after
    an appended zero row) can move the median by that rounding.
    """
    fitting = sum(n <= plan.pool_rows for n in plan.grid) * len(plan.config.seeds)

    def tops(seed):
        x = _environment(plan, seed)[0]
        for n in plan.grid:
            if n > plan.pool_rows:
                return
            yield np.linalg.svd(x[:n], compute_uv=False)[0]

    lowest = list(islice(heapq.merge(*map(tops, plan.config.seeds)), fitting // 2 + 1))
    if not lowest:
        raise ConfigError("no usable cells to resolve the cutoff from")
    # The median of all M: the middle value, or the mean of the middle two.
    return _median(lowest[-1:] if fitting % 2 else lowest[-2:])


def apply_ablation(
    kind: AblationKind, s: SvdResult, x_eval: np.ndarray
) -> tuple[SvdResult, np.ndarray]:
    """One cell's ablation, on the factorization ``s`` of its training rows
    and the rows ``x_eval`` its test error is measured on.

    sv-cutoff truncates ``s`` at tau; test-projection projects ``x_eval``
    onto the training modes that survive tau; none and linearized-targets
    pass both through (the targets are linearized once per seed, in
    ``_seed_state``).  The cutoff ablations need a concrete tau: a sweep
    resolves the default in ``_prepare``, before any cell runs, and reports
    it as ``resolved["tau"]``.
    """
    if kind.needs_tau:
        raise ConfigError(f"{kind.kind} needs a resolved cutoff")
    if kind.kind == "sv-cutoff":
        return truncate_svd(s, kind.tau), x_eval
    if kind.kind == "test-projection":
        return s, project_onto_rowspace(x_eval, truncate_svd(s, kind.tau))
    return s, x_eval


def _cell(
    x, y, x_eval, y_eval, s: SvdResult, gt: GroundTruth, policy: EstimatorPolicy
) -> dict:
    """The data columns of one cell's record, all from its one factorization.

    ``s`` factors the training rows ``x`` (truncated under sv-cutoff); the
    fit, sigma_min and the decomposition all use it, with the one lambda the
    policy resolves for it (0 for the pseudoinverse).  The fit is the
    spectral filter the decomposition splits and crosschecks, X^+ y or ridge
    on ``s``, so test_mse is the crosschecked error for every estimator.
    ``x_eval`` and ``y_eval`` are the rows the test error is measured on.
    A train or test MSE that overflows fails the cell with ``DomainError``.
    """
    lam = policy.lam_for(s)
    fit = fit_ridge(x, y, lam, s=s) if lam > 0 else fit_pinv(x, y, s=s)
    test_mse = _mse(x_eval, y_eval, fit.beta, "test")
    try:
        sv = smallest_nonzero_singular_value(s)
    except EmptySpectrumError:
        sv = None
    bias_vec, var_vec, _ = decompose_test_errors(x_eval, x, y, s, gt, lam=lam)
    return dict(
        train_mse=fit.train_mse,
        test_mse=test_mse,
        smallest_nonzero_sv=sv,
        bias_term_mean=float(np.mean(np.abs(bias_vec))),
        variance_term_mean=float(np.mean(np.abs(var_vec))),
        regime=fit.regime,
    )


def _seed_state(plan: _Plan, seed: int):
    """One seed's pool rows and targets and test rows and targets, as views
    of its ``_environment`` array, and beta_star fit once on that whole
    array.  Under linearized-targets both target views are replaced by
    X beta_star."""
    x, y = _environment(plan, seed)
    n_pool = plan.pool_rows
    x_pool, y_pool, x_test, y_test = x[:n_pool], y[:n_pool], x[n_pool:], y[n_pool:]
    beta_star = make_ground_truth(x, y, x_pool, y_pool).beta_star
    if plan.ablation.kind == "linearized-targets":
        y_pool, y_test = x_pool @ beta_star, x_test @ beta_star
    return x_pool, y_pool, x_test, y_test, beta_star


def _linear_cell(plan: _Plan, state, n_train: int, seed: int) -> SweepRecord:
    x_pool, y_pool, x_test, y_test, beta_star = state
    if n_train > x_pool.shape[0]:
        raise ConfigError(
            f"n_train={n_train} exceeds the {x_pool.shape[0]}-row training pool"
        )
    x, y = x_pool[:n_train], y_pool[:n_train]
    s, x_eval = apply_ablation(plan.ablation, svd(x), x_test)
    gt = GroundTruth(beta_star=beta_star, residuals=y - x @ beta_star)
    policy = plan.config.estimator
    return SweepRecord(
        n_train=n_train,
        d=plan.d,
        seed=seed,
        ablation=plan.ablation.label(),
        estimator=policy.label(),
        **_cell(x, y, x_eval, y_test, s, gt, policy),
    )


def _run_cells(cells, one) -> SweepOutcome:
    """Run ``one(*cell)`` for every cell in order on the calling thread, BLAS
    held to one thread, and sort the records and failures by (n_train, seed).
    A cell that raises is recorded as a failure, not fatal."""
    records: list[SweepRecord] = []
    failures: list[CellFailure] = []
    with one_blas_thread() as blas_threads:
        for cell in cells:
            try:
                records.append(one(*cell))
            except Exception as exc:
                failures.append(CellFailure(cell[0], cell[1], f"{type(exc).__name__}: {exc}"))
    records.sort(key=lambda r: (r.n_train, r.seed, r.d))
    failures.sort(key=lambda f: (f.n_train, f.seed))
    return SweepOutcome(records=records, failures=failures,
                        resolved={"blas_threads": blas_threads})


def _run_seeded(keys, seeds, build, cell) -> SweepOutcome:
    """Run ``cell(state, key, seed)`` for every key of every seed, where
    ``state = build(seed)`` is shared by the cells of one seed.

    Cells go to ``_run_cells`` seed-major, so a seed's cells run one after
    another.  The first cell of a seed builds its state and drops the
    previous seed's, so one seed's state is held at a time (a seed listed
    twice is built twice).  A build that raises is not retried: each cell of
    that seed fails with the build's error.
    """
    held: dict = {}  # the current seed: (state, None) or (None, build error)

    def one(key, seed):
        if seed not in held:
            held.clear()
            try:
                held[seed] = build(seed), None
            except Exception as exc:
                held[seed] = None, exc
        state, error = held[seed]
        if error is not None:
            raise error
        return cell(state, key, seed)

    return _run_cells([(key, seed) for seed in seeds for key in keys], one)


def run_sweep(config: SweepConfig) -> SweepOutcome:
    """Run every (n_train, seed) cell of the sweep.

    Output order is sorted by (n_train, seed) whatever the execution
    schedule, and identical configurations produce identical outcomes.
    Failed cells are collected, not fatal.  Each seed's state
    (``_seed_state``) is built by its first cell and shared by the rest
    (``_run_seeded``).  ``resolved`` holds the source and what applies to
    it (the noise level for synthetic data; for a csv, the SHA-256 of the
    file's bytes in place of its path, the target column and
    standardization), d, the grid, the seeds, the ablation label and its
    cutoff tau, the estimator label, and the BLAS thread count.  A csv
    sweep also fills ``data`` from the dataset's ``Preprocessing``.  The
    csv's digest is of the bytes ``load_csv`` parsed, before any cell ran.
    """
    plan = _prepare(config)
    outcome = _run_seeded(
        plan.grid, config.seeds, partial(_seed_state, plan), partial(_linear_cell, plan)
    )
    if plan.csv is None:
        source = {"source": config.source, "d": plan.d, "noise_sd": config.noise_sd}
    else:
        prep = plan.csv[2]
        source = {
            "source": "csv",
            "data_sha256": prep.data_sha256,
            "target_column": config.target_column,
            "standardize": config.standardize,
            "d": plan.d,
        }
        outcome.data = {
            "rows_dropped_for_missing": prep.rows_dropped_for_missing,
            "constant_columns_dropped": prep.constant_columns_dropped,
            "non_numeric_columns_dropped": prep.non_numeric_columns_dropped,
        }
    outcome.resolved = {
        **source,
        "grid": plan.grid,
        "seeds": list(config.seeds),
        "ablation": plan.ablation.label(),
        "tau": plan.ablation.tau,
        "estimator": config.estimator.label(),
        **outcome.resolved,
    }
    return outcome


def run_polynomial_sweep(
    p_grid: list[int], n: int, seeds: list[int], noise_sd: float
) -> SweepOutcome:
    """Sweep the Legendre feature count P at fixed n.

    Test MSE is measured against a dense noiseless grid of 1,000 points on
    [-1, 1].  Records reuse the sweep schema with d = P.  Duplicate grid
    entries produce duplicate records.  ``resolved`` holds n, the noise
    level, the P grid, the seeds and the BLAS thread count.

    Legendre columns nest across P, so the run allocates one augmented
    ground-truth stack [X y; E ye], a C-ordered (n + 1000) x (P_max + 1)
    array.  Its last 1000 rows, the evaluation block E at P_max and its
    noiseless targets ye, are written once.  Each seed's state, built by its
    first cell (``_run_seeded``), is its training set drawn once at P_max
    and the stack factored once (``NestedGroundTruth``), after the draw is
    written into the stack's first n rows over the previous seed's.  Every
    cell reads the first P columns of the training set and of E, and ye, as
    views, not copies.  The slices are bit-identical to a P-column draw, and
    on these C-ordered blocks the records match the per-cell path (a fresh
    draw, its own evaluation matrix, ``make_ground_truth`` on the explicit
    stack): train and test MSE, sigma_min and regime bit for bit, the bias
    and variance means to rounding.
    """
    if not p_grid:
        raise ConfigError("empty P grid")
    if any(int(p) != p or not 1 <= p <= 200 for p in p_grid):
        raise ConfigError("P grid entries must be integers in [1, 200]")
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    if not 0 <= noise_sd < math.inf:
        raise ConfigError(f"noise-sd must be finite and >= 0, got {noise_sd}")
    xs = np.linspace(-1.0, 1.0, DENSE_EVAL_POINTS)
    p_max = max(p_grid)
    stack = np.empty((n + DENSE_EVAL_POINTS, p_max + 1))
    xe_max, ye = stack[n:, :p_max], stack[n:, p_max]
    xe_max[...] = _legendre_matrix(xs, p_max)
    ye[...] = polynomial_target(xs)

    def build(seed: int) -> tuple[np.ndarray, np.ndarray, NestedGroundTruth]:
        x, y = make_polynomial_dataset(n, p_max, noise_sd, seed)
        stack[:n, :p_max], stack[:n, p_max] = x, y
        return x, y, factor_nested_ground_truth(stack)

    pinv = EstimatorPolicy()

    def cell(state, p: int, seed: int) -> SweepRecord:
        x_max, y, truth = state
        x, xe = x_max[:, :p], xe_max[:, :p]
        gt = make_nested_ground_truth(truth, x, y)
        return SweepRecord(
            n_train=n, d=p, seed=seed, ablation="none", estimator=pinv.label(),
            **_cell(x, y, xe, ye, svd(x), gt, pinv),
        )

    p_grid = [int(p) for p in p_grid]
    outcome = _run_seeded(p_grid, seeds, build, cell)
    outcome.resolved = {
        "n": n, "noise_sd": noise_sd, "p_grid": p_grid, "seeds": list(seeds), **outcome.resolved
    }
    return outcome


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
        (_median(at_d) + PEAK_RATIO_EPS) / (_median(at_3d) + PEAK_RATIO_EPS)
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
    return ks, [_median(groups[k]) for k in ks]


def _median(values) -> float:
    """np.median of a non-empty list, without the numpy.ma import that costs
    about 10 ms of CPU and 1 MiB: the middle value, or the mean of the two
    middle values, and NaN when any value is NaN."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)
