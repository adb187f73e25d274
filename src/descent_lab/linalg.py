"""Dense linear algebra kernel: SVD with a numerical-rank policy, pseudoinverse
application, row-space projection, and spectrum truncation.

Everything downstream (estimators, error decomposition, sweeps) is built on the
``SvdResult`` produced here, so the conventions are pinned once:

* a singular value is retained only if it exceeds
  ``sigma_max * max(N, D) * 1e-12``; everything at or below that is treated as
  numerically zero and does not count toward the rank,
* retained values are positive and sorted in descending order,
* each right singular vector has its first nonzero component made positive,
  with the matching left vector flipped alongside it, so factorizations are
  reproducible fixtures rather than sign lotteries.

Every estimator the sweeps run is a spectral filter on that factorization,
beta = V diag(f / sigma) U^T y (``spectral_filter``): f = 1 is the
pseudoinverse, f = sigma^2 / (sigma^2 + lambda) ridge.

Matrices are data-by-features: rows are observations, columns are features.

``one_blas_thread`` holds the BLAS numpy loaded to one thread for a block of
code.  A sweep runs thousands of small factorizations, too small for BLAS
threads to pay: with OpenBLAS at 2 threads on 2 CPUs, a 4-seed headline
sweep took a median 0.146 s wall and 0.146 s CPU with the hold, against
0.180 s wall and 0.361 s CPU without it.  Importing ``descent_lab`` before
numpy already loads OpenBLAS with one thread (see the package docstring);
the hold is what keeps sweeps at one BLAS thread when numpy was loaded
first or the environment asked OpenBLAS for more.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, IterationFailureError

RANK_TOLERANCE_SCALE = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, rejecting NaN/Inf entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return out


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array, rejecting NaN/Inf entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Thin SVD of an N x D matrix, keeping only numerically nonzero modes.

    Attributes
    ----------
    u_cols : (N, R) array whose columns are the left singular vectors.
    singular_values : (R,) array, positive, descending.
    v_cols : (D, R) array whose columns are the right singular vectors.
    rank : number of retained modes R.
    rank_tolerance : the cutoff below which modes were discarded.
    """

    u_cols: np.ndarray
    singular_values: np.ndarray
    v_cols: np.ndarray
    rank: int
    rank_tolerance: float

    @property
    def n_rows(self) -> int:
        return self.u_cols.shape[0]

    @property
    def n_cols(self) -> int:
        return self.v_cols.shape[0]


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sign convention: first nonzero component of each right singular vector
    # is positive.  u and v must flip together to preserve the product.  An
    # all-zero row has argmax 0 and a zero lead, so it keeps sign +1.  The
    # results are C-ordered whatever LAPACK returned, because the BLAS calls
    # downstream round differently on other layouts.
    lead = vt[np.arange(vt.shape[0]), np.argmax(vt != 0, axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    return np.multiply(u, sign, order="C"), np.multiply(vt, sign[:, None], order="C")


def rank_tolerance(singular_values: np.ndarray, shape: tuple[int, int]) -> float:
    """The cutoff at or below which a singular value of an N x D matrix of
    that ``shape`` counts as zero: sigma_max * max(N, D) *
    ``RANK_TOLERANCE_SCALE``, and 0 for an empty spectrum.

    ``svd`` keeps the values above it.  The triangular factor R of a QR of a
    taller matrix A = QR has A's singular values, so A's shape gives R the
    cutoff ``svd(A)`` would use.
    """
    if not singular_values.size:
        return 0.0
    return float(singular_values[0]) * max(shape) * RANK_TOLERANCE_SCALE


def svd(x) -> SvdResult:
    """Factor ``x`` as U diag(sigma) V^T, dropping the modes at or below
    ``rank_tolerance``.

    Parameters
    ----------
    x : array-like, shape (N, D), N >= 1 and D >= 1, all entries finite.

    Returns
    -------
    SvdResult with rank R <= min(N, D).

    Raises
    ------
    IterationFailureError
        If the underlying factorization fails to converge, which signals a
        pathological input rather than a recoverable condition.
    """
    x = as_matrix(x)
    n, d = x.shape
    if n < 1 or d < 1:
        raise DimensionMismatchError(f"svd needs at least one row and column, got {n}x{d}")
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise IterationFailureError(f"SVD did not converge: {exc}") from exc
    tol = rank_tolerance(s, x.shape)
    keep = s > tol
    u, s, vt = u[:, keep], s[keep], vt[keep]
    u, vt = _fix_signs(u, vt)
    return SvdResult(
        u_cols=u,
        singular_values=s,
        v_cols=vt.T,
        rank=int(s.size),
        rank_tolerance=tol,
    )


def spectral_filter(s: SvdResult, b: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Scale the mode coordinates ``b`` by the filter gains f_r / sigma_r,
    with shrink factor f_r = sigma_r^2 / (sigma_r^2 + lam).

    For lam = 0 that is b / sigma, the pseudoinverse; for lam > 0 it is
    sigma / (sigma^2 + lam) b, ridge, whose gain never exceeds 1 / (2 sqrt
    lam).  Applied to U^T y it gives the fit's coefficients on V.  A
    negative or non-finite lam raises ``DomainError``.
    """
    sv = s.singular_values
    if lam == 0:
        return b / sv
    if not (lam > 0 and np.isfinite(lam)):
        raise DomainError(f"the filter needs a finite lambda >= 0, got {lam}")
    return sv / (sv * sv + lam) * b


def pseudoinverse_apply(x, y, *, s: SvdResult | None = None, lam: float = 0.0) -> np.ndarray:
    """Return the minimum-norm least squares solution X^+ y, or for lam > 0
    the ridge solution on the same modes.

    Computed mode by mode as V ``spectral_filter``(U^T y), sum_r (f_r /
    sigma_r) (u_r . y) v_r, which keeps the result inside the span of X's
    rows by construction.  A rank-zero matrix maps everything to the zero
    vector.  ``s`` is ``svd(x)`` (or a truncation of it) when the caller
    already holds it; left out, it is computed here.

    Raises ``DomainError`` when the solution is not representable: some
    coefficient overflows, or beta . beta does (|beta| beyond about 1e154),
    as happens for matrices scaled far below the targets.
    """
    x = as_matrix(x)
    y = as_vector(y)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"y has length {y.shape[0]} but the matrix has {x.shape[0]} rows"
        )
    if s is None:
        s = svd(x)
    elif (s.n_rows, s.n_cols) != x.shape:
        raise DimensionMismatchError(
            f"factorization is {s.n_rows}x{s.n_cols} but the matrix is "
            f"{x.shape[0]}x{x.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        beta = s.v_cols @ spectral_filter(s, s.u_cols.T @ y, lam)
        # an infinite coefficient leaves an inf or nan in beta
        representable = np.isfinite(beta @ beta)
    if not representable:
        what = "X^+ y" if lam == 0 else f"the ridge fit at lambda {lam:.3g}"
        raise DomainError(
            f"{what} overflows: sigma_min = {s.singular_values[-1]:.3g} "
            f"against |y| up to {np.abs(y).max():.3g}"
        )
    return beta


def truncate_svd(s: SvdResult, cutoff: float) -> SvdResult:
    """Drop every mode with sigma_r < cutoff, keeping the original order.

    The cutoff becomes the new rank tolerance when it exceeds the old one.
    The result may have rank zero; that is not an error.
    """
    if cutoff < 0:
        raise DimensionMismatchError(f"cutoff must be nonnegative, got {cutoff}")
    keep = s.singular_values >= cutoff
    return SvdResult(
        u_cols=s.u_cols[:, keep],
        singular_values=s.singular_values[keep],
        v_cols=s.v_cols[:, keep],
        rank=int(keep.sum()),
        rank_tolerance=max(s.rank_tolerance, float(cutoff)),
    )


def project_onto_rowspace(x, s: SvdResult) -> np.ndarray:
    """Project a feature vector, or each row of a matrix, onto the span of
    the retained right singular vectors: (x V) V^T, sum_r (x . v_r) v_r.

    Idempotent; the component orthogonal to every retained mode is removed.
    """
    x = as_vector(x) if np.ndim(x) == 1 else as_matrix(x)
    if x.shape[-1] != s.n_cols:
        raise DimensionMismatchError(
            f"x has {x.shape[-1]} features but the factorization has {s.n_cols} columns"
        )
    return (x @ s.v_cols) @ s.v_cols.T


# (prefix, suffix) of OpenBLAS's thread-count calls: a plain build, and the
# scipy-openblas64 build that numpy wheels bundle.
_OPENBLAS_SYMBOLS = (("openblas", ""), ("scipy_openblas", "64_"))


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, found through ``/proc/self/maps``; empty where there is none (no
    OpenBLAS, or no such map on this platform)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    controls = []
    for path in paths:
        try:
            # RTLD_NOLOAD: a handle on the copy already mapped, never a new one.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOW | os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


# The BLAS thread count is process-wide, so the limit's holder count and the
# saved counts are too.
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved: list[int] = []


@contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS held to one thread.

    Yields the BLAS thread count inside the block: 1, or None where no
    OpenBLAS thread control was found, in which case nothing changes.
    Nested and concurrent blocks share one limit: the first entry saves the
    counts and sets 1, the last exit restores them, also when a block raises.
    The count is process-wide, so BLAS calls on other threads meanwhile run
    on one thread too.  Where the package loaded OpenBLAS with one thread
    the hold changes nothing; it matters when numpy was imported first, or
    when ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` asked for more.
    """
    global _blas_holders, _blas_saved
    controls = _openblas_controls()
    if not controls:
        yield None
        return
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _blas_holders += 1
    try:
        yield 1
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for (_, set_), n in zip(controls, _blas_saved):
                    set_(n)
