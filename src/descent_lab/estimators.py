"""The four ways this library fits a linear model to (X, Y).

* ``fit_ols_under``: textbook ordinary least squares via the normal equations,
  beta = (X^T X)^{-1} X^T Y.  Needs more data than features and full rank.
* ``fit_min_norm``: the Gram-matrix interpolator beta = X^T (X X^T)^{-1} Y,
  the minimum-norm solution among all interpolants when N <= D.
* ``fit_pinv``: beta = X^+ Y through the SVD.  Agrees with both of the above
  on their home turf and is the only one defined everywhere, including at the
  interpolation threshold N = D and on rank-deficient inputs.
* ``fit_ridge``: beta = X^T (X X^T + lambda I)^{-1} Y, whose lambda -> 0 limit
  is the pseudoinverse solution.
* ``fit_gradient_descent``: the discrete rule w(t+1) = w(t) - eta X^T e(t)
  started from w(0) = 0, which converges to the minimum-norm solution whenever
  eta < 2 / sigma_max^2.

Regime vocabulary used throughout: underparameterized means N > D,
interpolation means N = D, overparameterized means N < D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    RankDeficientError,
)
from .linalg import as_matrix, as_vector, pseudoinverse_apply, svd

REGIME_UNDER = "underparameterized"
REGIME_INTERP = "interpolation"
REGIME_OVER = "overparameterized"

# Gradient descent stops early once the training loss is effectively zero.
GD_LOSS_FLOOR = 1e-14
# Loss rising past 10x its running minimum counts as divergence; the absolute
# floor keeps float dust near machine precision from tripping the detector.
GD_DIVERGENCE_FACTOR = 10.0
GD_DIVERGENCE_FLOOR = 1e-12


def regime_of(n_rows: int, n_cols: int) -> str:
    """Classify a shape: more rows than columns is underparameterized, equal
    is the interpolation threshold, fewer rows is overparameterized."""
    if n_rows > n_cols:
        return REGIME_UNDER
    if n_rows == n_cols:
        return REGIME_INTERP
    return REGIME_OVER


@dataclass
class FitResult:
    """A fitted coefficient vector plus the bookkeeping around it."""

    beta: np.ndarray
    regime: str
    method: str
    train_mse: float


@dataclass
class GdTrace:
    """Record of a gradient descent run.

    ``steps`` counts executed update steps (early exit can make it smaller
    than requested); ``loss_history`` holds the training MSE before the first
    step and after every executed step, so its length is ``steps + 1``.
    ``distance_history`` is populated only when ``record_every`` > 0:
    (step, ||w - X^+ Y||) pairs including the final step.
    """

    learning_rate: float
    steps: int
    loss_history: list[float]
    final_beta: np.ndarray
    distance_to_pinv: float
    distance_history: list[tuple[int, float]] = field(default_factory=list)


def _mse(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    r = x @ beta - y
    return float(r @ r / x.shape[0])


def _validate_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = as_matrix(x)
    y = as_vector(y)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"y has length {y.shape[0]} but X has {x.shape[0]} rows"
        )
    return x, y


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    # The rank checks above use a relative tolerance, but LAPACK can still
    # hit an exactly zero pivot on extreme scales (e.g. a ridge lambda that
    # vanishes below the float precision of the Gram entries).
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(f"{what}: system is numerically singular") from exc


def _rank(x: np.ndarray, rank: int | None) -> int:
    return svd(x).rank if rank is None else rank


def fit_ols_under(x, y, *, rank: int | None = None) -> FitResult:
    """Ordinary least squares through the normal equations.

    Requires N >= D with X^T X numerically full rank; rank-deficient input
    raises ``RankDeficientError`` and the caller should fall back to
    ``fit_min_norm`` or ``fit_pinv``.  ``rank`` is X's numerical rank when
    the caller already holds ``svd(x)``; left out, it is computed here.
    """
    x, y = _validate_xy(x, y)
    n, d = x.shape
    if n < d or _rank(x, rank) < d:
        raise RankDeficientError(
            f"normal equations need full column rank (shape {n}x{d})"
        )
    gram = x.T @ x
    beta = _solve(gram, x.T @ y, "normal equations")
    return FitResult(
        beta=beta,
        regime=regime_of(n, d),
        method="ols-normal-equations",
        train_mse=_mse(x, y, beta),
    )


def fit_min_norm(x, y, *, rank: int | None = None) -> FitResult:
    """Minimum-norm interpolation via the Gram matrix, beta = X^T (X X^T)^{-1} Y.

    Requires N <= D with X X^T numerically full rank.  A rank-deficient Gram
    matrix signals duplicate or degenerate rows; callers should fall back to
    ``fit_pinv``, which handles that case.  ``rank`` is as in
    ``fit_ols_under``.
    """
    x, y = _validate_xy(x, y)
    n, d = x.shape
    if n > d or _rank(x, rank) < n:
        raise RankDeficientError(
            f"Gram matrix is rank deficient for shape {n}x{d}"
        )
    gram = x @ x.T
    beta = x.T @ _solve(gram, y, "Gram min-norm")
    return FitResult(
        beta=beta,
        regime=regime_of(n, d),
        method="gram-min-norm",
        train_mse=_mse(x, y, beta),
    )


def fit_pinv(x, y) -> FitResult:
    """Pseudoinverse fit beta = X^+ Y, defined for every shape and rank."""
    x, y = _validate_xy(x, y)
    beta = pseudoinverse_apply(x, y)
    return FitResult(
        beta=beta,
        regime=regime_of(*x.shape),
        method="pseudoinverse",
        train_mse=_mse(x, y, beta),
    )


def fit_ridge(x, y, lam: float) -> FitResult:
    """Ridge regression beta = X^T (X X^T + lambda I)^{-1} Y with lambda > 0.

    As lambda shrinks to zero the solution approaches ``fit_pinv``; use that
    directly for the limit instead of passing lambda = 0.
    """
    x, y = _validate_xy(x, y)
    if not lam > 0:
        raise DomainError(f"ridge needs lambda > 0, got {lam}")
    n = x.shape[0]
    beta = x.T @ _solve(x @ x.T + lam * np.eye(n), y, f"ridge(lambda={lam:.3g})")
    return FitResult(
        beta=beta,
        regime=regime_of(*x.shape),
        method=f"ridge({lam:.12g})",
        train_mse=_mse(x, y, beta),
    )


def fit_gradient_descent(x, y, eta: float, steps: int, record_every: int = 0) -> GdTrace:
    """Run w(t+1) = w(t) - eta X^T (X w(t) - Y) from w(0) = 0.

    Every iterate lives in the row space of X because each update is a linear
    combination of X's rows; with eta < 2 / sigma_max^2 the loss never
    increases and the iterates converge to the pseudoinverse solution X^+ Y.

    Stops early once the training MSE drops below ``GD_LOSS_FLOOR``.  Raises
    ``DivergenceError`` (carrying the step index) when the loss rises past
    10x its running minimum, which is what an unstable step size does within
    a handful of iterations.

    ``record_every`` > 0 additionally records ``||w(t) - X^+ Y||`` every that
    many steps (plus the final step) into ``distance_history``.
    """
    x, y = _validate_xy(x, y)
    if not eta > 0:
        raise DomainError(f"learning rate must be positive, got {eta}")
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    n, d = x.shape
    target = pseudoinverse_apply(x, y)

    w = np.zeros(d)
    err = x @ w - y
    loss = float(err @ err / n)
    history = [loss]
    min_loss = loss
    distances = []
    if record_every > 0:
        distances.append((0, float(np.linalg.norm(w - target))))

    executed = 0
    for t in range(1, steps + 1):
        w = w - eta * (x.T @ err)
        err = x @ w - y
        loss = float(err @ err / n)
        history.append(loss)
        executed = t
        if loss > max(GD_DIVERGENCE_FACTOR * min_loss, GD_DIVERGENCE_FLOOR):
            raise DivergenceError(t)
        if loss < min_loss:
            min_loss = loss
        if record_every > 0 and t % record_every == 0:
            distances.append((t, float(np.linalg.norm(w - target))))
        if loss < GD_LOSS_FLOOR:
            break

    if record_every > 0 and (not distances or distances[-1][0] != executed):
        distances.append((executed, float(np.linalg.norm(w - target))))

    return GdTrace(
        learning_rate=float(eta),
        steps=executed,
        loss_history=history,
        final_beta=w,
        distance_to_pinv=float(np.linalg.norm(w - target)),
        distance_history=distances,
    )


def default_learning_rate(x) -> float:
    """The safe step size 1 / sigma_max^2, which contracts every mode."""
    x = as_matrix(x)
    top = np.linalg.svd(x, compute_uv=False)[0]
    if top == 0:
        raise DomainError("cannot pick a step size for the zero matrix")
    return float(1.0 / top**2)
