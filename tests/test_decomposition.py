import numpy as np
import pytest
from numpy.testing import assert_allclose

from descent_lab.data import _legendre_matrix, make_polynomial_dataset, polynomial_target
from descent_lab.decomposition import (
    GroundTruth,
    decompose_test_error,
    decompose_test_errors,
    factor_nested_ground_truth,
    make_ground_truth,
    make_nested_ground_truth,
    smallest_nonzero_singular_value,
)
from descent_lab.errors import (
    DecompositionMismatchError,
    DimensionMismatchError,
    EmptySpectrumError,
    RegimeMismatchError,
)
from descent_lab.estimators import REGIME_INTERP, REGIME_OVER, fit_pinv, regime_of
from descent_lab.linalg import SvdResult, svd, truncate_svd


def test_identity_training_matrix_by_hand():
    # X = I2, beta* = (1, 0), residuals E = (0, 1).  Both sigmas are 1, so the
    # variance at x = (1, 1) is (x.v1)(u1.E) + (x.v2)(u2.E) = 0 + 1 = 1 and
    # the bias vanishes because the row space is all of R^2.
    s = svd(np.eye(2))
    gt = GroundTruth(beta_star=np.array([1.0, 0.0]), residuals=np.array([0.0, 1.0]))
    dec = decompose_test_error([1.0, 1.0], np.eye(2), [1.0, 1.0], s, gt, REGIME_INTERP)
    assert dec.bias_term == 0.0
    assert_allclose([m.contribution for m in dec.modes], [0.0, 1.0], atol=1e-15)
    assert_allclose(dec.variance_term, 1.0)
    assert_allclose(dec.predicted_error, 1.0)


def test_unseen_direction_shows_up_as_bias():
    # X = [[1, 0]] never sees the second coordinate.  With beta* = (0, 1) and
    # no residual, a test point along that blind direction is pure bias.
    x = np.array([[1.0, 0.0]])
    gt = GroundTruth(beta_star=np.array([0.0, 1.0]), residuals=np.array([0.0]))
    dec = decompose_test_error([0.0, 1.0], x, [0.0], svd(x), gt, REGIME_OVER)
    assert_allclose(dec.bias_term, -1.0)
    assert_allclose(dec.variance_term, 0.0, atol=1e-15)


def test_noiseless_data_has_zero_variance_term():
    rng = np.random.default_rng(20)
    x_full = rng.standard_normal((40, 6))
    beta = rng.standard_normal(6)
    y_full = x_full @ beta
    x_tr, y_tr = x_full[:10], y_full[:10]
    gt = make_ground_truth(x_full, y_full, x_tr, y_tr)
    s = svd(x_tr)
    dec = decompose_test_error(rng.standard_normal(6), x_tr, y_tr, s, gt, regime_of(10, 6))
    assert abs(dec.variance_term) <= 1e-8
    assert all(abs(m.u_dot_E) <= 1e-8 for m in dec.modes)


def test_make_ground_truth_noiseless():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((30, 5))
    beta = rng.standard_normal(5)
    gt = make_ground_truth(x, x @ beta, x[:8], (x @ beta)[:8])
    assert_allclose(gt.beta_star, beta, atol=1e-9)
    assert np.abs(gt.residuals).max() <= 1e-9


def test_make_ground_truth_orthogonal_noise_lands_in_residuals():
    # noise orthogonal to the column space cannot change the fitted beta*, so
    # the residuals must reproduce it exactly on the training rows
    rng = np.random.default_rng(22)
    x = rng.standard_normal((12, 3))
    beta = rng.standard_normal(3)
    clean = x @ beta
    noise = rng.standard_normal(12)
    q, _ = np.linalg.qr(x)
    noise -= q @ (q.T @ noise)  # strip the column-space component
    y = clean + noise
    gt = make_ground_truth(x, y, x, y)
    assert_allclose(gt.beta_star, beta, atol=1e-9)
    assert_allclose(gt.residuals, noise, atol=1e-9)


def test_make_ground_truth_scalar_example():
    gt = make_ground_truth([[2.0]], [6.0], [[2.0]], [6.0])
    assert_allclose(gt.beta_star, [3.0])
    assert_allclose(gt.residuals, [0.0], atol=1e-15)


def test_variance_is_the_sum_of_mode_contributions():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 12))
        x_full = rng.standard_normal((n + 20, d))
        y_full = x_full @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n + 20)
        gt = make_ground_truth(x_full, y_full, x_full[:n], y_full[:n])
        s = svd(x_full[:n])
        dec = decompose_test_error(
            rng.standard_normal(d), x_full[:n], y_full[:n], s, gt, regime_of(n, d)
        )
        total = sum(m.contribution for m in dec.modes)
        assert abs(dec.variance_term - total) <= 1e-12 * max(1.0, abs(total))
        assert abs(dec.predicted_error - (dec.bias_term + dec.variance_term)) <= 1e-12


def test_decomposition_matches_estimator_error_directly():
    rng = np.random.default_rng(24)
    x_full = rng.standard_normal((50, 8))
    y_full = x_full @ rng.standard_normal(8) + 0.2 * rng.standard_normal(50)
    x_tr, y_tr = x_full[:6], y_full[:6]
    gt = make_ground_truth(x_full, y_full, x_tr, y_tr)
    s = svd(x_tr)
    beta_hat = fit_pinv(x_tr, y_tr).beta
    for i in range(40, 50):
        xt = x_full[i]
        dec = decompose_test_error(xt, x_tr, y_tr, s, gt, regime_of(6, 8))
        observed = float(xt @ beta_hat - xt @ gt.beta_star)
        assert abs(dec.predicted_error - observed) <= 1e-8 * max(1.0, abs(observed))


def test_crosscheck_catches_wrong_decompositions():
    # Test doubles of a wrong decomposition: the factorization with one mode
    # dropped, and residuals of the wrong sign.  The least squares fit on the
    # raw training rows disagrees with both.  (Flipped residuals slipped past
    # a refit on targets rebuilt as X beta_star + E from the same residuals.)
    rng = np.random.default_rng(29)
    x_full = rng.standard_normal((40, 8))
    y_full = x_full @ rng.standard_normal(8) + 0.5 * rng.standard_normal(40)
    tests = x_full[30:]
    for n in (5, 8, 20):
        x, y = x_full[:n], y_full[:n]
        gt = make_ground_truth(x_full, y_full, x, y)
        s = svd(x)
        regime = regime_of(n, 8)
        decompose_test_errors(tests, x, y, s, gt, regime)  # the real thing passes
        for drop in range(s.rank):
            keep = np.arange(s.rank) != drop
            dropped = SvdResult(
                s.u_cols[:, keep], s.singular_values[keep], s.v_cols[:, keep],
                s.rank - 1, s.rank_tolerance,
            )
            with pytest.raises(DecompositionMismatchError):
                decompose_test_errors(tests, x, y, dropped, gt, regime)
        flipped = GroundTruth(beta_star=gt.beta_star, residuals=-gt.residuals)
        with pytest.raises(DecompositionMismatchError):
            decompose_test_errors(tests, x, y, s, flipped, regime)
        with pytest.raises(DecompositionMismatchError):
            decompose_test_error(tests[0], x, y, s, flipped, regime)


def test_crosscheck_follows_a_truncated_factorization():
    # A truncated SVD is checked against least squares on the original rows
    # cut at the truncation, down to keeping no mode at all.
    rng = np.random.default_rng(30)
    x_full = rng.standard_normal((60, 6))
    y_full = x_full @ rng.standard_normal(6) + 0.3 * rng.standard_normal(60)
    x, y = x_full[:9], y_full[:9]
    gt = make_ground_truth(x_full, y_full, x, y)
    s = svd(x)
    sv = s.singular_values
    # cutoffs in the gaps: one within rounding of a sigma is a coin toss
    # between two LAPACK drivers, and the check then fails loudly
    for cutoff in (0.0, float(sv[2] + sv[3]) / 2, float(sv[0]) * 2):
        t = truncate_svd(s, cutoff)
        bias, var, pred = decompose_test_errors(x_full[40:], x, y, t, gt, regime_of(9, 6))
        beta_hat = fit_pinv(x, y, s=t).beta
        assert_allclose(pred, x_full[40:] @ (beta_hat - gt.beta_star), atol=1e-10)
    assert t.rank == 0 and np.all(var == 0)


def test_training_rows_must_match_the_factorization():
    rng = np.random.default_rng(31)
    x, y = rng.standard_normal((5, 3)), rng.standard_normal(5)
    gt = make_ground_truth(x, y, x, y)
    s = svd(x)
    with pytest.raises(DimensionMismatchError):
        decompose_test_errors(x, x[:4], y[:4], s, gt, regime_of(5, 3))
    with pytest.raises(DimensionMismatchError):
        decompose_test_error(x[0], x, y[:4], s, gt, regime_of(5, 3))


def test_regime_mismatch_is_rejected():
    x = np.ones((2, 3))
    gt = GroundTruth(beta_star=np.zeros(3), residuals=np.zeros(2))
    with pytest.raises(RegimeMismatchError):
        decompose_test_error([1.0, 0.0, 0.0], x, np.zeros(2), svd(x), gt, REGIME_INTERP)


def test_halving_a_singular_value_doubles_its_contribution():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((5, 9))
    s = svd(x)
    gt = GroundTruth(beta_star=rng.standard_normal(9), residuals=rng.standard_normal(5))
    xt = rng.standard_normal(9)
    base = decompose_test_error(xt, x, x @ gt.beta_star + gt.residuals, s, gt, REGIME_OVER)

    shrunk = s.singular_values.copy()
    shrunk[-1] *= 0.5
    x2 = (s.u_cols * shrunk) @ s.v_cols.T
    y2 = x2 @ gt.beta_star + gt.residuals
    dec2 = decompose_test_error(xt, x2, y2, svd(x2), gt, REGIME_OVER)
    assert_allclose(
        dec2.modes[-1].contribution, 2.0 * base.modes[-1].contribution, rtol=1e-6
    )
    # the other two factors are properties of the subspaces, not the sigmas
    assert_allclose(dec2.modes[-1].xtest_dot_v, base.modes[-1].xtest_dot_v, atol=1e-8)
    assert_allclose(dec2.modes[-1].u_dot_E, base.modes[-1].u_dot_E, atol=1e-8)


def test_smallest_nonzero_singular_value():
    assert smallest_nonzero_singular_value(svd(np.diag([2.0, 1.0, 0.1]))) == pytest.approx(0.1)
    assert smallest_nonzero_singular_value(svd(np.array([[5.0]]))) == 5.0
    with pytest.raises(EmptySpectrumError):
        smallest_nonzero_singular_value(svd(np.zeros((2, 2))))


def test_smallest_singular_value_against_characteristic_polynomial():
    # For a 2x2 Gram matrix the eigenvalues solve a quadratic.  Two stability
    # details make this a trustworthy independent reference for a nearly
    # singular matrix: det(G) is formed as (ad - bc)^2 on the original
    # entries (the float subtraction 1 + 1e-6 - 1 is exact), and lambda_min
    # comes out as det / lambda_max rather than the cancellation-prone
    # (tr - sqrt(disc)) / 2.
    x = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]])
    det = (x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]) ** 2
    tr = np.trace(x.T @ x)
    lam_max = (tr + np.sqrt(tr * tr - 4 * det)) / 2
    expected = np.sqrt(det / lam_max)
    got = smallest_nonzero_singular_value(svd(x))
    assert_allclose(got, expected, rtol=1e-6)


def test_batch_decomposition_matches_scalar():
    rng = np.random.default_rng(26)
    x_full = rng.standard_normal((60, 7))
    y_full = x_full @ rng.standard_normal(7) + 0.25 * rng.standard_normal(60)
    for n in (4, 7, 20):
        x_tr, y_tr = x_full[:n], y_full[:n]
        gt = make_ground_truth(x_full, y_full, x_tr, y_tr)
        s = svd(x_tr)
        regime = regime_of(n, 7)
        tests = x_full[40:]
        bias, var, pred = decompose_test_errors(tests, x_tr, y_tr, s, gt, regime)
        for i, xt in enumerate(tests):
            dec = decompose_test_error(xt, x_tr, y_tr, s, gt, regime)
            assert_allclose(bias[i], dec.bias_term, atol=1e-12)
            assert_allclose(var[i], dec.variance_term, rtol=1e-9, atol=1e-12)
            assert_allclose(pred[i], dec.predicted_error, rtol=1e-9, atol=1e-12)


def test_ill_conditioned_polynomial_instance_still_balances():
    # Legendre features near the interpolation threshold produce spectra with
    # condition numbers around 1e9; the internal crosscheck has to tolerate
    # the float drift of two algebraically identical routes at that scale.
    from descent_lab.data import legendre_features

    ds = make_polynomial_dataset(46, 46, 0.5, seed=8)
    xs = np.linspace(-1.0, 1.0, 1000)
    dense_x = np.array([legendre_features(x, 46) for x in xs])
    dense_y = polynomial_target(xs)
    gt = make_ground_truth(
        np.vstack([ds.X, dense_x]),
        np.concatenate([ds.Y, dense_y]),
        ds.X,
        ds.Y,
    )
    s = svd(ds.X)
    bias, var, pred = decompose_test_errors(
        dense_x[:50], ds.X, ds.Y, s, gt, regime_of(46, 46)
    )
    assert np.isfinite(pred).all()


def test_nested_ground_truth_matches_the_explicit_stack_at_every_p():
    # One QR of the P = 200 polynomial stack against make_ground_truth on the
    # explicit (30 + 1000) x P stack of a fresh P-column draw, for every P.
    xs = np.linspace(-1.0, 1.0, 1000)
    xe, ye = _legendre_matrix(xs, 200), polynomial_target(xs)
    worst = 0.0
    for seed in (0, 11):
        full = make_polynomial_dataset(30, 200, 0.5, seed)
        nested = factor_nested_ground_truth(
            np.vstack([full.X, xe]), np.concatenate([full.Y, ye])
        )
        assert nested.n_rows == 1030 and nested.full_rank
        for p in range(1, 201):
            ds = make_polynomial_dataset(30, p, 0.5, seed)
            stack = np.vstack([ds.X, xe[:, :p]])
            want = make_ground_truth(stack, np.concatenate([ds.Y, ye]), ds.X, ds.Y)
            got = make_nested_ground_truth(nested, ds.X, ds.Y)
            # a full-rank stack leaves every leading block full rank
            assert svd(stack).rank == p, f"seed {seed}, P={p}"
            err = np.linalg.norm(got.beta_star - want.beta_star)
            worst = max(worst, err / np.linalg.norm(want.beta_star))
            assert_allclose(got.residuals, ds.Y - ds.X @ got.beta_star, rtol=0, atol=0)
    assert worst <= 1e-9, worst


def test_nested_ground_truth_rejects_bad_shapes():
    rng = np.random.default_rng(27)
    x, y = rng.standard_normal((12, 5)), rng.standard_normal(12)
    with pytest.raises(DimensionMismatchError):
        factor_nested_ground_truth(x.T, y[:5])  # wide stack
    with pytest.raises(DimensionMismatchError):
        factor_nested_ground_truth(x, y[:11])
    nested = factor_nested_ground_truth(x, y)
    with pytest.raises(DimensionMismatchError):
        make_nested_ground_truth(nested, rng.standard_normal((3, 6)), y[:3])
    assert_allclose(
        make_nested_ground_truth(nested, x[:3], y[:3]).beta_star,
        make_ground_truth(x, y, x[:3], y[:3]).beta_star,
        rtol=1e-12,
    )


def test_nested_ground_truth_on_a_rank_deficient_stack():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((40, 6))
    x[:, 3] = x[:, 1]  # blocks with P >= 4 lose a mode
    y = rng.standard_normal(40)
    nested = factor_nested_ground_truth(x, y)
    assert not nested.full_rank
    for p in range(1, 7):
        rank = svd(nested.r[:p, :p], stack_rows=40).rank
        assert rank == svd(x[:, :p]).rank == (p if p < 4 else p - 1)
        got = make_nested_ground_truth(nested, x[:5, :p], y[:5])
        want = make_ground_truth(x[:, :p], y, x[:5, :p], y[:5])
        assert_allclose(got.beta_star, want.beta_star, rtol=1e-9, atol=1e-12)
