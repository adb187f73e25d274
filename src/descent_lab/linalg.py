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

Matrices are data-by-features: rows are observations, columns are features.
"""

from __future__ import annotations

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

    def reconstruct(self) -> np.ndarray:
        """Rebuild the (rank-R approximation of the) original matrix.

        Returns sum_r sigma_r u_r v_r^T as an (N, D) array; the zero matrix
        when rank is 0.
        """
        return (self.u_cols * self.singular_values) @ self.v_cols.T


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sign convention: first nonzero component of each right singular vector
    # is positive.  u and v must flip together to preserve the product.  An
    # all-zero row has argmax 0 and a zero lead, so it keeps sign +1.  The
    # results are C-ordered whatever LAPACK returned, because the BLAS calls
    # downstream round differently on other layouts.
    lead = vt[np.arange(vt.shape[0]), np.argmax(vt != 0, axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    return np.multiply(u, sign, order="C"), np.multiply(vt, sign[:, None], order="C")


def svd(x, *, stack_rows: int | None = None) -> SvdResult:
    """Factor ``x`` as U diag(sigma) V^T, dropping numerically zero modes.

    Parameters
    ----------
    x : array-like, shape (N, D), N >= 1 and D >= 1, all entries finite.
    stack_rows : when ``x`` is the triangular factor R of a QR of a taller
        matrix A = QR, the row count of A.  R has A's singular values, and
        the rank tolerance then uses A's shape, max(stack_rows, D), so the
        retained modes are the ones ``svd(A)`` would keep.

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
    rows = n if stack_rows is None else stack_rows
    tol = float(s[0]) * max(rows, d) * RANK_TOLERANCE_SCALE if s.size else 0.0
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


def pseudoinverse_apply(x, y, *, s: SvdResult | None = None) -> np.ndarray:
    """Return the minimum-norm least squares solution X^+ y.

    Computed mode by mode as sum_r (1/sigma_r) (u_r . y) v_r, which keeps the
    result inside the span of X's rows by construction.  A rank-zero matrix
    maps everything to the zero vector.  ``s`` is ``svd(x)`` (or a truncation
    of it) when the caller already holds it; left out, it is computed here.

    Raises ``DomainError`` when the solution is not representable: some
    1/sigma_r overflows, or beta . beta does (|beta| beyond about 1e154), as
    happens for matrices scaled far below the targets.
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
        coeffs = (s.u_cols.T @ y) / s.singular_values
        beta = s.v_cols @ coeffs
        representable = (
            np.isfinite(1.0 / s.singular_values).all() and np.isfinite(beta @ beta)
        )
    if not representable:
        raise DomainError(
            f"X^+ y overflows: sigma_min = {s.singular_values[-1]:.3g} "
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
    """Project a feature vector onto the span of the retained right singular
    vectors, sum_r (x . v_r) v_r.

    Idempotent; the component orthogonal to every retained mode is removed.
    """
    x = as_vector(x)
    if x.shape[0] != s.n_cols:
        raise DimensionMismatchError(
            f"x has length {x.shape[0]} but the factorization has {s.n_cols} columns"
        )
    return s.v_cols @ (s.v_cols.T @ x)
