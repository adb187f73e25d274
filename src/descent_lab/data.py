"""Every dataset the experiments consume, as plain arrays.

Three sources:

* Legendre polynomial features of scalar inputs on [-1, 1], targets from
  y(x) = 2x + cos(25x): the polynomial double-descent demonstration.
* Student-teacher synthetic data: a unit-norm Gaussian teacher generates
  targets from Gaussian features plus Gaussian noise.
* CSV ingestion for real tabular data, with row dropping for missing values
  and optional per-column standardization.

Each returns plain arrays: the feature matrix and the targets, then the
teacher or the csv's ``Preprocessing`` where there is one.

All generators are pure functions of their parameters and a seed (PCG64 via
``numpy.random.default_rng``), so identical calls give identical arrays on
every platform.  A sweep reads each seed's training pool and test set as
views of one array of a dataset's rows (``experiments._environment``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError

# A column whose population sd is this small (relative to its scale) carries
# no information and cannot be standardized; it is dropped and recorded.
CONSTANT_COLUMN_TOL = 1e-12


@dataclass
class Preprocessing:
    """The bytes a csv load parsed, and what it dropped on the way in."""

    data_sha256: str
    rows_dropped_for_missing: int
    constant_columns_dropped: list[str]
    non_numeric_columns_dropped: list[str]


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


def make_polynomial_dataset(
    n: int, p: int, noise_sd: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample x uniformly on [-1, 1], featurize with degrees 1..p, add noise.

    Returns the n x p feature matrix and the n targets.  The raw x values
    are recoverable as the first feature column (degree 1 is the identity),
    which the plotting code relies on.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    if p < 1:
        raise DomainError(f"need at least one polynomial degree, got {p}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, n)
    return _legendre_matrix(xs, p), polynomial_target(xs) + noise_sd * rng.standard_normal(n)


def make_student_teacher(
    n_total: int, d: int, noise_sd: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian features, targets from a unit-norm Gaussian teacher plus noise.

    Returns the n_total x d feature matrix, the targets and the teacher
    vector (handy for diagnostics; the experiments themselves re-estimate
    the ideal parameters from data).
    """
    if n_total < 2:
        raise DomainError(f"need at least two rows, got {n_total}")
    if d < 1:
        raise DomainError(f"need at least one feature, got {d}")
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal(d)
    teacher /= np.linalg.norm(teacher)
    x = rng.standard_normal((n_total, d))
    return x, x @ teacher + noise_sd * rng.standard_normal(n_total), teacher


def _parse_cell(text: str) -> float | None:
    text = text.strip()
    if not text:
        return None  # empty field means missing
    return float(text)


def load_csv(
    path, target_column: str, standardize: bool = False
) -> tuple[np.ndarray, np.ndarray, Preprocessing]:
    """Load a headered CSV: the feature matrix, the targets, and a
    ``Preprocessing`` with the SHA-256 of the bytes parsed and what was
    dropped.

    The file is read once, and the digest is of exactly the bytes parsed,
    a UTF-8 byte-order mark included; the mark is not part of the first
    column's name.  A header that names a column twice raises ``DataError``.
    Non-numeric columns are dropped (and recorded); rows with any missing
    value (an empty field) among the remaining columns are dropped and
    counted; features are optionally standardized to mean 0, population sd 1.
    The target column is never standardized.  A missing file raises
    ``FileNotFoundError``; a path that cannot be read (a directory, say) or
    is not UTF-8 text raises ``DataError``, and so does a nan, inf or
    overflowing number in a kept column, or a feature column whose mean or
    sd overflows when standardizing.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        data = path.read_bytes()
        text = data.decode("utf-8-sig")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise DataError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    for name in header:
        if header.count(name) > 1:
            raise DataError(f"{path}: header names column {name!r} twice")
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
    constant: list[str] = []

    if standardize:
        names = [header[j] for j in feature_idx]
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
        if not keep.any():
            raise DataError(f"{path}: nothing left after cleaning")
        constant = [n for n, k in zip(names, keep) if not k]
        x = (x[:, keep] - means[keep]) / scales[keep]

    return x, y, Preprocessing(
        data_sha256=hashlib.sha256(data).hexdigest(),
        rows_dropped_for_missing=dropped,
        constant_columns_dropped=constant,
        non_numeric_columns_dropped=dropped_non_numeric,
    )
