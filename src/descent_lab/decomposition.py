"""Decompose the test prediction error of a minimum-norm linear fit.

Write the targets as Y = X beta_star + E, where beta_star is the ideal linear
model (operationally: the pseudoinverse fit on the full dataset) and E is the
in-sample residual.  For the pseudoinverse fit beta_hat = X^+ Y, the error of
a prediction at x_test against the ideal value y_star = x_test . beta_star
splits exactly into two pieces:

    bias      = x_test . (sum_r v_r v_r^T - I) beta_star
    variance  = sum_r (1/sigma_r) (x_test . v_r) (u_r . E)

The bias term is the information about beta_star lost in directions the
training rows never span; it vanishes whenever the training matrix has full
column rank.  Each variance contribution is a product of three factors: an
inverse singular value, the projection of the test point onto that right
singular vector, and the projection of the residual onto the matching left
singular vector.  All three must be present at once for the test error to
spike, which is exactly what happens near the interpolation threshold.

The identity is algebraic, so it holds in every regime; the functions here
verify it numerically against an independent least squares fit of the
training rows and refuse to return silently wrong numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionMismatchError,
    DimensionMismatchError,
    EmptySpectrumError,
    RegimeMismatchError,
)
from .estimators import regime_of
from .linalg import SvdResult, as_matrix, as_vector, pseudoinverse_apply, svd

# The crosscheck compares the decomposition with an independent fit: LAPACK's
# gelsd least squares solver (np.linalg.lstsq) on the original training rows
# and targets, cut at the factorization's own rank tolerance.  gelsd runs its
# own bidiagonalization, so the two routes share no factorization and drift
# apart by up to a few thousand times machine epsilon times the condition
# number of the retained spectrum, measured against the size of the terms
# being summed.  The gate scales with both.  The worst drift seen, on the
# badly conditioned near-threshold cells of the polynomial sweep (P 1:200,
# n = 30, seeds 0:19), used 0.3% of it, and the linear sweeps under every
# ablation at most 0.002%; a wrong formula, a dropped mode or inconsistent
# residuals produce an O(1) relative disagreement.
CROSSCHECK_TOL = 1e-8
CROSSCHECK_KAPPA_FACTOR = 65536.0


def _crosscheck_rel(s: SvdResult) -> float:
    kappa = (
        float(s.singular_values[0] / s.singular_values[-1]) if s.rank > 0 else 1.0
    )
    eps = float(np.finfo(np.float64).eps)
    return max(CROSSCHECK_TOL, CROSSCHECK_KAPPA_FACTOR * eps * kappa)


@dataclass
class GroundTruth:
    """The ideal linear parameters and the residuals they leave behind.

    ``residuals`` is defined as E = Y_train - X_train beta_star, so
    Y_train = X_train beta_star + E holds exactly by construction.
    """

    beta_star: np.ndarray
    residuals: np.ndarray


@dataclass
class ModeContribution:
    """One singular mode's term in the variance sum."""

    mode_index: int
    sigma: float
    inv_sigma: float
    xtest_dot_v: float
    u_dot_E: float
    contribution: float


@dataclass
class ErrorDecomposition:
    """Bias term plus per-mode variance contributions for one test point."""

    bias_term: float
    modes: list[ModeContribution]
    variance_term: float
    predicted_error: float


def make_ground_truth(x_full, y_full, x_train, y_train) -> GroundTruth:
    """Fit beta_star on the full dataset and take residuals on the train rows.

    The ideal parameters are the pseudoinverse fit on everything available;
    the residuals are whatever that model cannot explain about the training
    targets.  With noiseless linear data the residuals are exactly zero.
    """
    x_full = as_matrix(x_full, "x_full")
    y_full = as_vector(y_full, "y_full")
    x_train = as_matrix(x_train, "x_train")
    y_train = as_vector(y_train, "y_train")
    if y_full.shape[0] != x_full.shape[0]:
        raise DimensionMismatchError("full X and Y row counts differ")
    if y_train.shape[0] != x_train.shape[0]:
        raise DimensionMismatchError("train X and Y row counts differ")
    if x_full.shape[1] != x_train.shape[1]:
        raise DimensionMismatchError("full and train feature counts differ")
    beta_star = pseudoinverse_apply(x_full, y_full)
    return GroundTruth(beta_star=beta_star, residuals=y_train - x_train @ beta_star)


@dataclass(frozen=True, eq=False)
class NestedGroundTruth:
    """One Householder QR of a full-data stack, serving the ground truth of
    every leading column block of it.

    For a stack A = [X; E] of shape (N, P_max) with targets b, the QR of the
    augmented matrix [A b] gives A = Q R and Q^T b at once.  Householder QR
    treats columns in order, so every leading block factors as
    A[:, :P] = Q[:, :P] R[:P, :P]: the block has the singular values of the
    P x P triangle, and its minimum-norm least squares solution is
    pinv(R[:P, :P]) (Q^T b)[:P].  ``make_nested_ground_truth`` computes that
    with the rank tolerance of the block's own shape, max(N, P), so it keeps
    the modes ``make_ground_truth`` keeps on the explicit block.

    ``full_rank`` says whether A itself keeps all P_max modes.  Dropping
    columns can only raise the smallest singular value and lower the largest
    (interlacing), so the tolerance max(N, P) sigma_max * RANK_TOLERANCE_SCALE
    can only shrink with them.  A full-rank A therefore has full-rank leading
    blocks, and pinv(R[:P, :P]) is the inverse: one triangular solve instead
    of an SVD per block.

    This only pays when the features nest, as Legendre columns do across P.
    """

    r: np.ndarray
    qtb: np.ndarray
    n_rows: int
    full_rank: bool


def factor_nested_ground_truth(x_full, y_full) -> NestedGroundTruth:
    """Factor the full-data stack once; see ``NestedGroundTruth``."""
    x_full = as_matrix(x_full, "x_full")
    y_full = as_vector(y_full, "y_full")
    if y_full.shape[0] != x_full.shape[0]:
        raise DimensionMismatchError("full X and Y row counts differ")
    n, p = x_full.shape
    if n < p:
        raise DimensionMismatchError(f"the stack must be tall, got {n}x{p}")
    r = np.linalg.qr(np.column_stack([x_full, y_full]), mode="r")[:p]
    full_rank = svd(r[:, :p], stack_rows=n).rank == p
    return NestedGroundTruth(r=r[:, :p], qtb=r[:, p], n_rows=n, full_rank=full_rank)


def make_nested_ground_truth(f: NestedGroundTruth, x_train, y_train) -> GroundTruth:
    """``make_ground_truth`` on the stack's first P columns, P the column
    count of ``x_train``, solved on the P x P triangle instead of the stack."""
    x_train = as_matrix(x_train, "x_train")
    y_train = as_vector(y_train, "y_train")
    if y_train.shape[0] != x_train.shape[0]:
        raise DimensionMismatchError("train X and Y row counts differ")
    p = x_train.shape[1]
    if p > f.r.shape[0]:
        raise DimensionMismatchError(
            f"train has {p} features but the stack only {f.r.shape[0]}"
        )
    if f.full_rank:
        beta_star = np.linalg.solve(f.r[:p, :p], f.qtb[:p])
    else:
        s = svd(f.r[:p, :p], stack_rows=f.n_rows)
        beta_star = s.v_cols @ ((s.u_cols.T @ f.qtb[:p]) / s.singular_values)
    return GroundTruth(beta_star=beta_star, residuals=y_train - x_train @ beta_star)


def _check_regime(s: SvdResult, regime: str) -> None:
    actual = regime_of(s.n_rows, s.n_cols)
    if regime != actual:
        raise RegimeMismatchError(
            f"declared regime {regime!r} but the factorization is "
            f"{s.n_rows}x{s.n_cols} ({actual})"
        )


def _training_rows(x_train, y_train, s: SvdResult, gt: GroundTruth):
    x_train = as_matrix(x_train, "x_train")
    y_train = as_vector(y_train, "y_train")
    if x_train.shape != (s.n_rows, s.n_cols) or y_train.shape[0] != s.n_rows:
        raise DimensionMismatchError(
            f"training rows are {x_train.shape[0]}x{x_train.shape[1]} with "
            f"{y_train.shape[0]} targets, the factorization {s.n_rows}x{s.n_cols}"
        )
    if gt.residuals.shape[0] != s.n_rows:
        raise DimensionMismatchError(
            f"residuals have length {gt.residuals.shape[0]}, expected {s.n_rows}"
        )
    return x_train, y_train


def _lstsq_fit(x_train: np.ndarray, y_train: np.ndarray, s: SvdResult) -> np.ndarray:
    # gelsd treats sigma <= rcond * sigma_max as zero, the modes s dropped.
    # (A cutoff within rounding of a singular value may land on either side
    # in the two drivers; the check then fails loudly.)  gelsd reads
    # rcond >= 1 as machine epsilon, so keeping no mode at all, the
    # minimum-norm fit being zero, cannot be asked of it.
    if s.rank == 0:
        return np.zeros(s.n_cols)
    rcond = s.rank_tolerance / float(s.singular_values[0])
    return np.linalg.lstsq(x_train, y_train, rcond=rcond)[0]


def decompose_test_error(
    x_test, x_train, y_train, s: SvdResult, gt: GroundTruth, regime: str
) -> ErrorDecomposition:
    """Split the prediction error at one test point into bias and variance.

    ``s`` is the factorization of ``x_train`` the decomposition runs on:
    ``svd(x_train)``, or a truncation of it, which the minimum-norm fit then
    shares.  The result satisfies predicted_error = bias_term +
    variance_term and is cross-checked against the prediction of an
    independent least squares fit on (``x_train``, ``y_train``) at the same
    rank tolerance; a mismatch beyond tolerance raises
    ``DecompositionMismatchError`` instead of returning bad numbers.
    """
    x_test = as_vector(x_test, "x_test")
    if x_test.shape[0] != s.n_cols:
        raise DimensionMismatchError(
            f"x_test has length {x_test.shape[0]}, expected {s.n_cols}"
        )
    x_train, y_train = _training_rows(x_train, y_train, s, gt)
    _check_regime(s, regime)

    if s.rank == s.n_cols:
        bias = 0.0  # projector onto the row space is the identity
    else:
        proj_beta = s.v_cols @ (s.v_cols.T @ gt.beta_star)
        bias = float(x_test @ (proj_beta - gt.beta_star))

    xv = s.v_cols.T @ x_test
    ue = s.u_cols.T @ gt.residuals
    modes = []
    for r in range(s.rank):
        sigma = float(s.singular_values[r])
        inv_sigma = 1.0 / sigma
        contribution = inv_sigma * float(xv[r]) * float(ue[r])
        modes.append(
            ModeContribution(
                mode_index=r,
                sigma=sigma,
                inv_sigma=inv_sigma,
                xtest_dot_v=float(xv[r]),
                u_dot_E=float(ue[r]),
                contribution=contribution,
            )
        )
    variance = float(sum(m.contribution for m in modes))
    predicted = bias + variance

    # Independent route: what a least squares fit actually predicts.
    beta_hat = _lstsq_fit(x_train, y_train, s)
    y_star = float(x_test @ gt.beta_star)
    observed = float(x_test @ beta_hat) - y_star
    magnitude = max(
        1.0, abs(y_star), abs(bias) + sum(abs(m.contribution) for m in modes)
    )
    if abs(predicted - observed) > _crosscheck_rel(s) * magnitude:
        raise DecompositionMismatchError(
            f"bias + variance = {predicted:.6g} but the estimator error is "
            f"{observed:.6g}"
        )
    return ErrorDecomposition(
        bias_term=bias,
        modes=modes,
        variance_term=variance,
        predicted_error=predicted,
    )


def decompose_test_errors(
    x_test_rows, x_train, y_train, s: SvdResult, gt: GroundTruth, regime: str
):
    """Vectorized decomposition over many test points at once.

    Returns (bias, variance, predicted) arrays, one entry per test row,
    computed with the same formulas as ``decompose_test_error`` and
    cross-checked row by row against the same least squares fit.
    """
    x_rows = as_matrix(x_test_rows, "x_test_rows")
    if x_rows.shape[1] != s.n_cols:
        raise DimensionMismatchError(
            f"test rows have {x_rows.shape[1]} features, expected {s.n_cols}"
        )
    x_train, y_train = _training_rows(x_train, y_train, s, gt)
    _check_regime(s, regime)

    if s.rank == s.n_cols:
        bias = np.zeros(x_rows.shape[0])
    else:
        proj_beta = s.v_cols @ (s.v_cols.T @ gt.beta_star)
        bias = x_rows @ (proj_beta - gt.beta_star)

    xv = x_rows @ s.v_cols
    coeff = (s.u_cols.T @ gt.residuals) / s.singular_values
    variance = xv @ coeff
    predicted = bias + variance

    beta_hat = _lstsq_fit(x_train, y_train, s)
    y_star = x_rows @ gt.beta_star
    observed = x_rows @ beta_hat - y_star
    gap = np.abs(predicted - observed)
    magnitude = np.maximum.reduce(
        [np.ones_like(gap), np.abs(y_star), np.abs(bias) + np.abs(xv) @ np.abs(coeff)]
    )
    allowed = _crosscheck_rel(s) * magnitude
    if np.any(gap > allowed):
        worst = int(np.argmax(gap - allowed))
        raise DecompositionMismatchError(
            f"row {worst}: bias + variance = {predicted[worst]:.6g} but the "
            f"estimator error is {observed[worst]:.6g}"
        )
    return bias, variance, predicted


def smallest_nonzero_singular_value(s: SvdResult) -> float:
    """The last retained singular value, sigma_R.

    This is the quantity that dips hardest at the interpolation threshold.
    Raises ``EmptySpectrumError`` when the rank is zero.
    """
    if s.rank < 1:
        raise EmptySpectrumError("no nonzero singular values (rank 0)")
    return float(s.singular_values[-1])
