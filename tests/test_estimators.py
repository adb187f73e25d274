import numpy as np
import pytest
from numpy.testing import assert_allclose

from descent_lab.errors import (
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    RankDeficientError,
)
from descent_lab.estimators import (
    REGIME_INTERP,
    REGIME_OVER,
    REGIME_UNDER,
    default_learning_rate,
    fit_gradient_descent,
    fit_min_norm,
    fit_ols_under,
    fit_pinv,
    fit_ridge,
    regime_of,
)
from descent_lab.linalg import pseudoinverse_apply, svd, truncate_svd


def test_regime_labels():
    assert regime_of(3, 2) == REGIME_UNDER
    assert regime_of(2, 2) == REGIME_INTERP
    assert regime_of(2, 3) == REGIME_OVER


def test_ols_one_column_slope():
    fit = fit_ols_under([[1.0], [2.0]], [1.0, 2.0])
    assert_allclose(fit.beta, [1.0])
    assert fit.regime == REGIME_UNDER
    assert fit.train_mse < 1e-28


def test_ols_averages_repeated_row():
    # two copies of x=1 with targets 0 and 2: least squares picks the mean
    fit = fit_ols_under([[1.0], [1.0]], [0.0, 2.0])
    assert_allclose(fit.beta, [1.0])
    assert_allclose(fit.train_mse, 1.0)


def test_ols_exact_tall_system():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    fit = fit_ols_under(x, x @ np.array([1.0, 1.0]))
    assert_allclose(fit.beta, [1.0, 1.0], atol=1e-12)


def test_ols_satisfies_normal_equations():
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = int(rng.integers(1, 8))
        n = d + int(rng.integers(1, 10))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        fit = fit_ols_under(x, y)
        resid = x.T @ (x @ fit.beta - y)
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(x.T @ y))


def test_ols_rejects_wrong_shapes_and_rank():
    with pytest.raises(RankDeficientError):
        fit_ols_under(np.ones((2, 3)), np.ones(2))  # wide
    with pytest.raises(RankDeficientError):
        fit_ols_under([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [1.0, 2.0, 3.0])


def test_known_rank_spares_the_factorization_only():
    rng = np.random.default_rng(14)
    for fit, (n, d) in ((fit_ols_under, (9, 4)), (fit_min_norm, (4, 9))):
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        own = fit(x, y)
        given = fit(x, y, rank=svd(x).rank)
        assert given.beta.tobytes() == own.beta.tobytes()
        assert given.train_mse == own.train_mse
        with pytest.raises(RankDeficientError):
            fit(x, y, rank=min(n, d) - 1)
    # without a rank, both still find the deficiency themselves
    deficient = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficientError):
        fit_ols_under(deficient, [1.0, 2.0, 3.0])
    with pytest.raises(RankDeficientError):
        fit_min_norm(deficient.T, [1.0, 2.0])


def test_min_norm_symmetric_example():
    fit = fit_min_norm([[1.0, 1.0]], [2.0])
    assert_allclose(fit.beta, [1.0, 1.0])
    assert fit.regime == REGIME_OVER


def test_min_norm_identity_interpolates():
    fit = fit_min_norm(np.eye(3), [1.0, 2.0, 3.0])
    assert_allclose(fit.beta, [1.0, 2.0, 3.0])
    assert fit.regime == REGIME_INTERP


def test_min_norm_matches_pseudoinverse():
    fit = fit_min_norm([[1.0, 2.0]], [5.0])
    assert_allclose(fit.beta, pseudoinverse_apply([[1.0, 2.0]], [5.0]))
    assert_allclose(fit.beta, [1.0, 2.0])


def test_min_norm_rejects_tall_and_degenerate():
    with pytest.raises(RankDeficientError):
        fit_min_norm(np.ones((3, 2)), np.ones(3))  # tall
    with pytest.raises(RankDeficientError):
        fit_min_norm([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 1.0])  # dup rows


def test_min_norm_interpolates_and_minimizes_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(1, 7))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        fit = fit_min_norm(x, y)
        assert np.linalg.norm(x @ fit.beta - y) <= 1e-8 * max(1.0, np.linalg.norm(y))
        # any interpolant is fit.beta plus a null-space vector, which only
        # grows the norm; build one from a random direction
        s = svd(x)
        z = rng.standard_normal(d)
        null = z - s.v_cols @ (s.v_cols.T @ z)
        if np.linalg.norm(null) > 1e-8:
            other = fit.beta + null
            assert np.linalg.norm(other) >= np.linalg.norm(fit.beta)


def test_pinv_fit_agrees_with_regime_solvers():
    rng = np.random.default_rng(12)
    x_tall = rng.standard_normal((9, 4))
    y_tall = rng.standard_normal(9)
    assert_allclose(fit_pinv(x_tall, y_tall).beta, fit_ols_under(x_tall, y_tall).beta, atol=1e-9)
    x_wide = rng.standard_normal((4, 9))
    y_wide = rng.standard_normal(4)
    assert_allclose(fit_pinv(x_wide, y_wide).beta, fit_min_norm(x_wide, y_wide).beta, atol=1e-9)


def test_pinv_fit_handles_rank_deficiency():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    fit = fit_pinv(x, [1.0, 1.0])
    assert_allclose(fit.beta, [1.0, 0.0], atol=1e-9)
    assert fit.regime == REGIME_INTERP
    assert fit.train_mse < 1e-20


def test_ridge_scalar_shrinkage():
    # 1x1 system: beta = y x / (x^2 + lam) = 1 / (1 + lam)
    assert_allclose(fit_ridge([[1.0]], [1.0], 1.0).beta, [0.5])
    assert_allclose(fit_ridge([[1.0]], [1.0], 9.0).beta, [0.1])


def test_ridge_approaches_pinv_as_lambda_vanishes():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal(3)
    near = fit_ridge(x, y, 1e-12).beta
    assert_allclose(near, fit_pinv(x, y).beta, atol=1e-6)


def test_ridge_norm_shrinks_with_lambda():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    norms = [np.linalg.norm(fit_ridge(x, y, lam).beta) for lam in (0.01, 0.1, 1.0, 10.0)]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_ridge_rejects_nonpositive_lambda():
    with pytest.raises(DomainError):
        fit_ridge([[1.0]], [1.0], 0.0)
    with pytest.raises(DomainError):
        fit_ridge([[1.0]], [1.0], -1.0)


def test_ridge_vanishing_lambda_stays_on_the_retained_modes():
    # lambda far below the float precision of the Gram entries left the old
    # Gram solve exactly singular; on the singular modes it is just a tiny
    # shift of sigma^2, and the fit is the pseudoinverse one
    x = np.array([[185359.0], [185359.0]])
    assert_allclose(fit_ridge(x, [0.0, 0.0], 1e-6).beta, [0.0], atol=0)
    assert_allclose(fit_ridge(x, [1.0, 1.0], 1e-6).beta, fit_pinv(x, [1.0, 1.0]).beta, rtol=1e-12)


def test_ridge_drops_the_modes_the_pseudoinverse_drops():
    # sigma = 1e-6 sits under the rank tolerance 3 * 1e-12 * sigma_max, so
    # X^+ y is zero; ridge keeps no direction the pseudoinverse discards
    x = np.array([[1e-6, 0.0, 0.0], [0.0, 3.33334e5, 0.0]])
    assert svd(x).rank == 1
    assert_allclose(fit_ridge(x, [1.0, 0.0], 1e-6 * 3.33334e5**2).beta, np.zeros(3), atol=0)


def test_fits_from_a_given_factorization():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, 9))
    y = rng.standard_normal(6)
    s = svd(x)
    assert np.array_equal(fit_pinv(x, y, s=s).beta, fit_pinv(x, y).beta)
    assert np.array_equal(fit_ridge(x, y, 0.7, s=s).beta, fit_ridge(x, y, 0.7).beta)
    # the textbook form agrees with the modal one on a full-rank matrix
    want = x.T @ np.linalg.solve(x @ x.T + 0.7 * np.eye(6), y)
    assert_allclose(fit_ridge(x, y, 0.7).beta, want, rtol=1e-10)
    # a truncated factorization fits on its own modes only
    t = truncate_svd(s, float(s.singular_values[2] + s.singular_values[3]) / 2)
    assert_allclose(fit_pinv(x, y, s=t).beta, t.v_cols @ ((t.u_cols.T @ y) / t.singular_values))
    with pytest.raises(DimensionMismatchError):
        fit_pinv(x[:5], y[:5], s=s)


def test_train_mse_is_what_it_says():
    rng = np.random.default_rng(15)
    for fitter in (fit_pinv, lambda x, y: fit_ridge(x, y, 0.3)):
        x = rng.standard_normal((7, 4))
        y = rng.standard_normal(7)
        fit = fitter(x, y)
        resid = x @ fit.beta - y
        assert_allclose(fit.train_mse, float(resid @ resid) / 7, rtol=1e-10)


def test_gd_converges_on_symmetric_row():
    trace = fit_gradient_descent([[1.0, 1.0]], [2.0], eta=0.1, steps=200)
    assert trace.distance_to_pinv <= 1e-6
    assert_allclose(trace.final_beta, [1.0, 1.0], atol=1e-6)


def test_gd_zero_targets_are_a_fixed_point():
    trace = fit_gradient_descent(np.eye(3), np.zeros(3), eta=0.5, steps=10)
    assert_allclose(trace.final_beta, np.zeros(3))
    assert trace.distance_to_pinv == 0.0


def test_gd_divergence_carries_step_index():
    with pytest.raises(DivergenceError) as info:
        fit_gradient_descent([[1.0]], [1.0], eta=3.0, steps=100)
    assert info.value.step >= 1
    assert "step" in str(info.value)


def test_gd_iterates_stay_in_rowspace():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 8))
    y = rng.standard_normal(3)
    trace = fit_gradient_descent(x, y, eta=default_learning_rate(x), steps=500)
    s = svd(x)
    w = trace.final_beta
    back = s.v_cols @ (s.v_cols.T @ w)
    assert np.linalg.norm(back - w) <= 1e-10 * max(1.0, np.linalg.norm(w))


def test_gd_loss_never_increases_with_safe_step():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    trace = fit_gradient_descent(x, y, eta=default_learning_rate(x), steps=300)
    diffs = np.diff(trace.loss_history)
    assert (diffs <= 1e-12).all()


def test_gd_zero_steps_reports_initial_distance():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    y = np.array([4.0, 3.0])
    trace = fit_gradient_descent(x, y, eta=0.1, steps=0)
    assert trace.steps == 0
    assert len(trace.loss_history) == 1
    target = pseudoinverse_apply(x, y)
    assert_allclose(trace.distance_to_pinv, np.linalg.norm(target))


def test_gd_distance_history_cadence():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)  # noisy tall system: loss floor stays positive
    trace = fit_gradient_descent(x, y, eta=default_learning_rate(x), steps=47, record_every=10)
    steps = [t for t, _ in trace.distance_history]
    assert steps == [0, 10, 20, 30, 40, 47]
    dists = [d for _, d in trace.distance_history]
    assert dists[-1] == trace.distance_to_pinv
    assert dists[0] == pytest.approx(np.linalg.norm(pseudoinverse_apply(x, y)))


def test_gd_reaches_pinv_across_shapes():
    rng = np.random.default_rng(19)
    for i in range(20):
        d = int(rng.integers(2, 12))
        n = 2 * d if i % 2 == 0 else max(1, d // 2)
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        trace = fit_gradient_descent(x, y, eta=default_learning_rate(x), steps=50000)
        scale = max(1.0, np.linalg.norm(pseudoinverse_apply(x, y)))
        assert trace.distance_to_pinv <= 1e-6 * scale


def test_gd_parameter_validation():
    with pytest.raises(DomainError):
        fit_gradient_descent([[1.0]], [1.0], eta=0.0, steps=5)
    with pytest.raises(DomainError):
        fit_gradient_descent([[1.0]], [1.0], eta=0.1, steps=-1)


def test_default_learning_rate():
    assert_allclose(default_learning_rate(np.diag([2.0, 1.0])), 0.25)
    with pytest.raises(DomainError):
        default_learning_rate(np.zeros((2, 2)))
