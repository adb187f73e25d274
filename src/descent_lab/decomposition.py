"""Decompose the test prediction error of a spectrally filtered linear fit.

Write the targets as Y = X beta_star + E, where beta_star is the ideal linear
model (operationally: the pseudoinverse fit on the full dataset) and E is the
in-sample residual.  Every estimator the sweeps run is a filter on the
training SVD, beta_hat = V diag(f / sigma) U^T Y, with shrink factor f_r = 1
for the pseudoinverse X^+ Y and f_r = sigma_r^2 / (sigma_r^2 + lambda) for
ridge (``linalg.spectral_filter``).  The error of a prediction at x_test
against the ideal value y_star = x_test . beta_star splits exactly into two
pieces:

    bias      = x_test . (V diag(f) V^T - I) beta_star
    variance  = sum_r (f_r / sigma_r) (x_test . v_r) (u_r . E)

For the pseudoinverse the bias term is the information about beta_star lost
in directions the training rows never span; it vanishes whenever the
training matrix has full column rank.  Ridge adds the shrinkage of the
spanned directions.  Each variance contribution is a product of three
factors: a filtered inverse singular value, the projection of the test point
onto that right singular vector, and the projection of the residual onto the
matching left singular vector.  All three must be present at once for the
test error to spike, which is exactly what happens near the interpolation
threshold; ridge caps the first at 1 / (2 sqrt(lambda)).

The identity is algebraic, so it holds in every regime; the functions here
verify it numerically against an independent least squares fit of the
training rows and refuse to return silently wrong numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionMismatchError,
    DimensionMismatchError,
    EmptySpectrumError,
    RankDeficientError,
)
from .linalg import (
    SvdResult,
    as_matrix,
    as_vector,
    pseudoinverse_apply,
    rank_tolerance,
    spectral_filter,
)

# The crosscheck compares the decomposition with an independent least squares
# fit of the original training rows and targets (``_lstsq_fit``).  When the
# factorization keeps full rank min(N, D), the fit is Householder QR: of
# [X y] for tall and square X, of X^T for wide X, and for ridge of the
# augmented [X y; sqrt(lambda) I 0] at every shape.  Otherwise (a truncated
# or rank-deficient factorization) it is LAPACK's gelsd (np.linalg.lstsq)
# cut at the factorization's own rank tolerance, and ridge then runs the
# augmented QR on its fitted values.  None shares a factorization with the
# SVD, so the two routes drift apart by up to a few thousand times machine
# epsilon times the condition number of the retained spectrum, measured
# against the size of the terms being summed.  The gate scales with both.
# The worst drift seen, on the badly conditioned near-threshold cells of the
# polynomial sweep (P 1:200, n = 30, seeds 0:19), used 1.4% of it, the
# linear sweeps under every ablation at most 0.003%, and ridge (auto and
# lambda = 0.1 under every ablation, headline sweep, seeds 0:11) at most
# 0.0005%; a wrong formula, a dropped or rescaled mode or inconsistent
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
    """One Householder QR of a full-rank, full-data stack, serving the ground
    truth of every leading column block of it.

    For a stack A = [X; E] of shape (N, P_max) with targets b, the QR of the
    augmented matrix [A b] gives A = Q R and Q^T b (``qtb``) at once.
    Householder QR treats columns in order, so every leading block factors
    as A[:, :P] = Q[:, :P] R[:P, :P], and its least squares solution is
    R[:P, :P]^-1 (Q^T b)[:P].  For an upper triangular R that inverse is the
    leading block of ``r_inv`` = R^-1: one inverse per stack instead of an
    SVD or a solve per block.

    The stack must keep all P_max modes under the rank tolerance of its own
    shape (``linalg.rank_tolerance``), read off R's singular values alone.
    Dropping columns can only raise the smallest singular value and lower
    the largest (interlacing), so every leading block then keeps all its
    modes too, and the solution is the minimum-norm one
    ``make_ground_truth`` computes on the explicit block.  The polynomial
    sweep's stacks, n training rows over the 1000-point evaluation grid at
    P <= 200, are far inside that margin.

    This only pays when the features nest, as Legendre columns do across P.
    """

    qtb: np.ndarray
    r_inv: np.ndarray


def factor_nested_ground_truth(stack) -> NestedGroundTruth:
    """Factor the augmented full-data stack [A b] once, A = [X; E] its first
    P_max columns and the targets b its last; see ``NestedGroundTruth``.

    The QR reads ``stack`` as given, so a caller can keep one array and
    refill its rows between calls instead of building the stack anew.
    Raises ``RankDeficientError`` when A loses a mode.
    """
    stack = as_matrix(stack, "stack")
    n, p = stack.shape[0], stack.shape[1] - 1
    if p < 1:
        raise DimensionMismatchError("the stack needs a feature column and a target column")
    if n < p:
        raise DimensionMismatchError(f"the stack must be tall, got {n} rows for {p} features")
    r = np.linalg.qr(stack, mode="r")[:p]
    sv = np.linalg.svd(r[:, :p], compute_uv=False)
    rank = int(np.count_nonzero(sv > rank_tolerance(sv, (n, p))))
    if rank < p:
        raise RankDeficientError(f"the {n}x{p} stack has rank {rank}, not {p}")
    return NestedGroundTruth(qtb=r[:, p], r_inv=np.linalg.inv(r[:, :p]))


def make_nested_ground_truth(f: NestedGroundTruth, x_train, y_train) -> GroundTruth:
    """``make_ground_truth`` on the stack's first P columns, P the column
    count of ``x_train``, from the leading P x P block of R^-1 instead of
    the stack."""
    x_train = as_matrix(x_train, "x_train")
    y_train = as_vector(y_train, "y_train")
    if y_train.shape[0] != x_train.shape[0]:
        raise DimensionMismatchError("train X and Y row counts differ")
    p = x_train.shape[1]
    if p > f.r_inv.shape[0]:
        raise DimensionMismatchError(
            f"train has {p} features but the stack only {f.r_inv.shape[0]}"
        )
    beta_star = f.r_inv[:p, :p] @ f.qtb[:p]
    return GroundTruth(beta_star=beta_star, residuals=y_train - x_train @ beta_star)


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


def _lstsq_fit(
    x_train: np.ndarray, y_train: np.ndarray, s: SvdResult, lam: float
) -> np.ndarray:
    # s only picks the route and, off full rank, the cutoff; the fit itself
    # reads nothing but the training rows and targets (and lambda).
    n, d = x_train.shape
    if s.rank == 0:
        return np.zeros(d)
    if s.rank < min(n, d):
        # gelsd treats sigma <= rcond * sigma_max as zero, the modes s
        # dropped.  (A cutoff within rounding of a singular value may land on
        # either side in the two drivers; the check then fails loudly.)
        # gelsd reads rcond >= 1 as machine epsilon, so keeping no mode at
        # all, the minimum-norm fit being zero, cannot be asked of it.
        rcond = s.rank_tolerance / float(s.singular_values[0])
        beta = np.linalg.lstsq(x_train, y_train, rcond=rcond)[0]
        if lam == 0:
            return beta
        # Ridge of the fitted values X b, b = X_k^+ y the fit on the kept
        # modes: (X^T X + lambda I)^-1 X^T X b keeps b's modes, each scaled
        # by sigma^2 / (sigma^2 + lambda), which is ridge on the kept modes.
        y_train = x_train @ beta
    elif n < d and lam == 0:
        # X^T = Q R, so X = R^T Q^T and the minimum-norm fit is Q R^-T y.
        q, r = np.linalg.qr(x_train.T)
        return q @ np.linalg.solve(r.T, y_train)
    # [X y] = Q [R | Q^T y], so R beta = (Q^T y)[:d]; for ridge the same with
    # sqrt(lambda) I appended below X and zeros below y, which makes R
    # invertible at every shape: R^T R = X^T X + lambda I.
    a = np.column_stack([x_train, y_train])
    if lam > 0:
        a = np.vstack([a, np.column_stack([math.sqrt(lam) * np.eye(d), np.zeros(d)])])
    r = np.linalg.qr(a, mode="r")
    return np.linalg.solve(r[:d, :d], r[:d, d])


def decompose_test_error(
    x_test, x_train, y_train, s: SvdResult, gt: GroundTruth
) -> ErrorDecomposition:
    """Split the prediction error at one test point into bias and variance.

    ``decompose_test_errors`` on the single row ``x_test`` for the
    pseudoinverse fit (lam = 0), cross-checked the same way, plus the
    variance sum broken into its per-mode terms.
    """
    x_test = as_vector(x_test, "x_test")
    (bias,), (variance,), (predicted,) = decompose_test_errors(
        x_test[None, :], x_train, y_train, s, gt
    )
    xv = s.v_cols.T @ x_test
    ue = s.u_cols.T @ gt.residuals
    modes = []
    for r in range(s.rank):
        sigma = float(s.singular_values[r])
        inv_sigma = 1.0 / sigma
        modes.append(
            ModeContribution(
                mode_index=r,
                sigma=sigma,
                inv_sigma=inv_sigma,
                xtest_dot_v=float(xv[r]),
                u_dot_E=float(ue[r]),
                contribution=inv_sigma * float(xv[r]) * float(ue[r]),
            )
        )
    return ErrorDecomposition(
        bias_term=float(bias),
        modes=modes,
        variance_term=float(variance),
        predicted_error=float(predicted),
    )


def decompose_test_errors(
    x_test_rows, x_train, y_train, s: SvdResult, gt: GroundTruth, *, lam: float = 0.0
):
    """Split the prediction error at each test row into bias and variance.

    ``s`` is the factorization of ``x_train`` the decomposition runs on:
    ``svd(x_train)``, or a truncation of it, which the fit then shares.
    ``lam`` picks the fit's spectral filter: 0 for the minimum-norm fit X^+ y
    (``fit_pinv``), lambda > 0 for ridge (``fit_ridge``).  Returns (bias,
    variance, predicted) arrays, one entry per test row, with predicted =
    bias + variance.  Every row is cross-checked against the prediction of
    an independent least squares fit on (``x_train``, ``y_train``) at the
    same rank tolerance and lambda; a mismatch beyond tolerance raises
    ``DecompositionMismatchError`` instead of returning bad numbers.
    """
    x_rows = as_matrix(x_test_rows, "x_test_rows")
    if x_rows.shape[1] != s.n_cols:
        raise DimensionMismatchError(
            f"test rows have {x_rows.shape[1]} features, expected {s.n_cols}"
        )
    x_train, y_train = _training_rows(x_train, y_train, s, gt)

    # One product with the test rows, [V | beta_star | beta_hat | (V diag(f)
    # V^T - I) beta_star]^T x_rows^T (the bias row only off full column rank
    # or under ridge), taken transposed so xv and each vector come out
    # contiguous: strided slices cost more than the fusion saves on 256 x 32
    # test sets.
    r, with_bias = s.rank, s.rank < s.n_cols or lam > 0
    w = np.empty((r + 2 + with_bias, s.n_cols))
    w[:r] = s.v_cols.T
    w[r] = gt.beta_star
    w[r + 1] = _lstsq_fit(x_train, y_train, s, lam)
    if with_bias:
        vb = gt.beta_star @ s.v_cols
        if lam > 0:
            vb = spectral_filter(s, s.singular_values * vb, lam)  # f_r (v_r . beta_star)
        w[r + 2] = vb @ s.v_cols.T - gt.beta_star
    products = w @ x_rows.T
    xv, y_star, fitted = products[:r].T, products[r], products[r + 1]
    bias = products[r + 2] if with_bias else np.zeros(x_rows.shape[0])

    coeff = spectral_filter(s, s.u_cols.T @ gt.residuals, lam)
    variance = xv @ coeff
    predicted = bias + variance
    observed = fitted - y_star
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
