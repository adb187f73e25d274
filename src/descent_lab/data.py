"""Every dataset the experiments consume.

Three sources:

* Legendre polynomial features of scalar inputs on [-1, 1], targets from
  y(x) = 2x + cos(25x): the polynomial double-descent demonstration.
* Student-teacher synthetic data: a unit-norm Gaussian teacher generates
  targets from Gaussian features plus Gaussian noise.
* CSV ingestion for real tabular data, with row dropping for missing values
  and optional per-column standardization.

All generators are pure functions of their parameters and a seed (PCG64 via
``numpy.random.default_rng``), so identical calls give identical datasets on
every platform.  A sweep reads each seed's training pool and test set as
views of one array of a dataset's rows (``experiments._environment``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError

SOURCE_STUDENT_TEACHER = "synthetic-student-teacher"
SOURCE_POLYNOMIAL = "polynomial"

# A column whose population sd is this small (relative to its scale) carries
# no information and cannot be standardized; it is dropped and recorded.
CONSTANT_COLUMN_TOL = 1e-12


@dataclass
class Preprocessing:
    """What happened to the raw columns on the way in."""

    standardized: bool = False
    column_means: np.ndarray | None = None
    column_scales: np.ndarray | None = None
    rows_dropped_for_missing: int = 0
    constant_columns_dropped: list[str] = field(default_factory=list)
    non_numeric_columns_dropped: list[str] = field(default_factory=list)


@dataclass
class Dataset:
    """A feature matrix, its targets, and where they came from."""

    X: np.ndarray
    Y: np.ndarray
    feature_names: list[str]
    source: str
    preprocessing: Preprocessing = field(default_factory=Preprocessing)
    seed: int | None = None

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]


def legendre_features(x: float, p: int) -> np.ndarray:
    """Evaluate (P_1(x), ..., P_p(x)) by the Bonnet three-term recurrence.

    Component i is the degree-i Legendre polynomial; there is no degree-0
    constant component, so a one-feature model is a line through the origin.
    """
    if p < 1:
        raise DomainError(f"need at least one polynomial degree, got {p}")
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"Legendre features are defined on [-1, 1], got {x}")
    return _legendre_matrix(np.array([float(x)]), p)[0]


def _legendre_matrix(xs: np.ndarray, p: int) -> np.ndarray:
    # Bonnet recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, vectorized
    # over the sample points; column j holds degree j+1.
    out = np.empty((xs.shape[0], p))
    prev = np.ones_like(xs)  # P_0
    cur = xs.copy()  # P_1
    out[:, 0] = cur
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1) * xs * cur - k * prev) / (k + 1)
        out[:, k] = cur
    return out


def polynomial_target(x):
    """The ground-truth curve 2x + cos(25x); accepts scalars or arrays."""
    return 2.0 * x + np.cos(25.0 * x)


def make_polynomial_dataset(n: int, p: int, noise_sd: float, seed: int) -> Dataset:
    """Sample x uniformly on [-1, 1], featurize with degrees 1..p, add noise.

    The raw x values are recoverable as the first feature column (degree 1 is
    the identity), which the plotting code relies on.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    if p < 1:
        raise DomainError(f"need at least one polynomial degree, got {p}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, n)
    x_mat = _legendre_matrix(xs, p)
    y = polynomial_target(xs) + noise_sd * rng.standard_normal(n)
    return Dataset(
        X=x_mat,
        Y=y,
        feature_names=[f"legendre_{k}" for k in range(1, p + 1)],
        source=SOURCE_POLYNOMIAL,
        seed=seed,
    )


def make_student_teacher(
    n_total: int, d: int, noise_sd: float, seed: int
) -> tuple[Dataset, np.ndarray]:
    """Gaussian features, targets from a unit-norm Gaussian teacher plus noise.

    Returns the dataset and the teacher vector (handy for diagnostics; the
    experiments themselves re-estimate the ideal parameters from data).
    """
    if n_total < 2:
        raise DomainError(f"need at least two rows, got {n_total}")
    if d < 1:
        raise DomainError(f"need at least one feature, got {d}")
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal(d)
    teacher /= np.linalg.norm(teacher)
    x = rng.standard_normal((n_total, d))
    y = x @ teacher + noise_sd * rng.standard_normal(n_total)
    return (
        Dataset(
            X=x,
            Y=y,
            feature_names=[f"f{j}" for j in range(d)],
            source=SOURCE_STUDENT_TEACHER,
            seed=seed,
        ),
        teacher,
    )


def _parse_cell(text: str) -> float | None:
    text = text.strip()
    if not text:
        return None  # empty field means missing
    return float(text)


def load_csv(path, target_column: str, standardize: bool = False) -> Dataset:
    """Load a headered CSV into a Dataset.

    Non-numeric columns are dropped (and recorded); rows with any missing
    value (an empty field) among the remaining columns are dropped and
    counted; features are optionally standardized to mean 0, population sd 1.
    The target column is never standardized.  A nan, inf or overflowing
    number in a kept column raises ``DataError``, and so does a feature
    column whose mean or sd overflows when standardizing.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    if target_column not in header:
        raise DataError(f"target column {target_column!r} not in header {header}")

    n_cols = len(header)
    parsed: list[list[float | None]] = []
    numeric = [True] * n_cols
    for raw in body:
        row: list[float | None] = []
        for j in range(n_cols):
            cell = raw[j] if j < len(raw) else ""
            try:
                row.append(_parse_cell(cell))
            except ValueError:
                numeric[j] = False
                row.append(None)
        parsed.append(row)

    target_idx = header.index(target_column)
    if not numeric[target_idx]:
        raise DataError(f"target column {target_column!r} is not numeric")
    feature_idx = [
        j for j in range(n_cols) if j != target_idx and numeric[j]
    ]
    dropped_non_numeric = [header[j] for j in range(n_cols) if not numeric[j]]

    used = feature_idx + [target_idx]
    kept_rows = []
    dropped = 0
    for i, row in enumerate(parsed):
        vals = [row[j] for j in used]
        for j, v in zip(used, vals):
            if v is not None and not math.isfinite(v):
                raise DataError(
                    f"{path}: row {i + 1} (line {i + 2}), column {header[j]!r}: "
                    f"{body[i][j].strip()!r} is not a finite number; an empty field "
                    "means missing"
                )
        if any(v is None for v in vals):
            dropped += 1
        else:
            kept_rows.append(vals)
    if not kept_rows or not feature_idx:
        raise DataError(f"{path}: nothing left after cleaning")

    arr = np.array(kept_rows, dtype=np.float64)
    x, y = arr[:, :-1], arr[:, -1]
    names = [header[j] for j in feature_idx]
    prep = Preprocessing(non_numeric_columns_dropped=dropped_non_numeric,
                         rows_dropped_for_missing=dropped)

    if standardize:
        with np.errstate(over="ignore", invalid="ignore"):
            means = x.mean(axis=0)
            scales = x.std(axis=0)  # population (1/N) standard deviation
        for name, mean, scale in zip(names, means, scales):
            if not (math.isfinite(mean) and math.isfinite(scale)):
                raise DataError(
                    f"{path}: column {name!r} is too large to standardize "
                    f"(mean {mean}, sd {scale})"
                )
        keep = scales > CONSTANT_COLUMN_TOL * np.maximum(1.0, np.abs(means))
        prep.constant_columns_dropped = [n for n, k in zip(names, keep) if not k]
        x = (x[:, keep] - means[keep]) / scales[keep]
        names = [n for n, k in zip(names, keep) if k]
        if not names:
            raise DataError(f"{path}: nothing left after cleaning")
        prep.standardized = True
        prep.column_means = means[keep]
        prep.column_scales = scales[keep]

    return Dataset(X=x, Y=y, feature_names=names, source=f"csv:{path}",
                   preprocessing=prep)

