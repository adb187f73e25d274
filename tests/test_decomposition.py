import numpy as np
import pytest
from numpy.testing import assert_allclose

from descent_lab import decomposition
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
    RankDeficientError,
)
from descent_lab.estimators import fit_pinv, fit_ridge
from descent_lab.linalg import (
    SvdResult,
    project_onto_rowspace,
    pseudoinverse_apply,
    spectral_filter,
    svd,
    truncate_svd,
)


def test_identity_training_matrix_by_hand():
    # X = I2, beta* = (1, 0), residuals E = (0, 1).  Both sigmas are 1, so the
    # variance at x = (1, 1) is (x.v1)(u1.E) + (x.v2)(u2.E) = 0 + 1 = 1 and
    # the bias vanishes because the row space is all of R^2.
    s = svd(np.eye(2))
    gt = GroundTruth(beta_star=np.array([1.0, 0.0]), residuals=np.array([0.0, 1.0]))
    dec = decompose_test_error([1.0, 1.0], np.eye(2), [1.0, 1.0], s, gt)
    assert dec.bias_term == 0.0
    assert_allclose([m.contribution for m in dec.modes], [0.0, 1.0], atol=1e-15)
    assert_allclose(dec.variance_term, 1.0)
    assert_allclose(dec.predicted_error, 1.0)


def test_unseen_direction_shows_up_as_bias():
    # X = [[1, 0]] never sees the second coordinate.  With beta* = (0, 1) and
    # no residual, a test point along that blind direction is pure bias.
    x = np.array([[1.0, 0.0]])
    gt = GroundTruth(beta_star=np.array([0.0, 1.0]), residuals=np.array([0.0]))
    dec = decompose_test_error([0.0, 1.0], x, [0.0], svd(x), gt)
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
    dec = decompose_test_error(rng.standard_normal(6), x_tr, y_tr, s, gt)
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
        dec = decompose_test_error(rng.standard_normal(d), x_full[:n], y_full[:n], s, gt)
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
        dec = decompose_test_error(xt, x_tr, y_tr, s, gt)
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
        decompose_test_errors(tests, x, y, s, gt)  # the real thing passes
        for drop in range(s.rank):
            keep = np.arange(s.rank) != drop
            dropped = SvdResult(
                s.u_cols[:, keep], s.singular_values[keep], s.v_cols[:, keep],
                s.rank - 1, s.rank_tolerance,
            )
            with pytest.raises(DecompositionMismatchError):
                decompose_test_errors(tests, x, y, dropped, gt)
        flipped = GroundTruth(beta_star=gt.beta_star, residuals=-gt.residuals)
        with pytest.raises(DecompositionMismatchError):
            decompose_test_errors(tests, x, y, s, flipped)
        with pytest.raises(DecompositionMismatchError):
            decompose_test_error(tests[0], x, y, s, flipped)


def _fitted(x, y, s, lam):
    """The fit a decomposition at ``lam`` describes: X^+ y, or ridge."""
    return (fit_ridge(x, y, lam, s=s) if lam > 0 else fit_pinv(x, y, s=s)).beta


def _pinv_filter_only(monkeypatch):
    """A wrong double: the decomposition applies the pseudoinverse's filter
    whatever lambda it is given, while its crosscheck still fits ridge."""
    monkeypatch.setattr(decomposition, "spectral_filter",
                        lambda s, b, lam=0.0: spectral_filter(s, b))


@pytest.mark.parametrize("n", [20, 8, 5], ids=["tall", "square", "wide"])
def test_crosscheck_catches_full_rank_wrong_decompositions(lstsq_calls, monkeypatch, n):
    # Doubles that keep full rank, so the crosscheck fits by QR, not gelsd:
    # one singular value rescaled, or one right singular vector negated
    # without its left partner.  The same for the pseudoinverse (lam = 0)
    # and for ridge, whose QR runs on [X y; sqrt(lam) I 0].
    rng = np.random.default_rng(32)
    x_full = rng.standard_normal((40, 8))
    y_full = x_full @ rng.standard_normal(8) + 0.5 * rng.standard_normal(40)
    tests = x_full[30:]
    x, y = x_full[:n], y_full[:n]
    gt = make_ground_truth(x_full, y_full, x, y)
    s = svd(x)
    assert s.rank == min(n, 8)
    for lam in (0.0, 0.1):
        # the real thing passes
        _, _, pred = decompose_test_errors(tests, x, y, s, gt, lam=lam)
        assert_allclose(pred, tests @ (_fitted(x, y, s, lam) - gt.beta_star), atol=1e-10)
        for mode in range(s.rank):
            scaled = s.singular_values.copy()
            scaled[mode] *= 1.5
            flipped = s.v_cols.copy()
            flipped[:, mode] *= -1
            for wrong in (
                SvdResult(s.u_cols, scaled, s.v_cols, s.rank, s.rank_tolerance),
                SvdResult(s.u_cols, s.singular_values, flipped, s.rank, s.rank_tolerance),
            ):
                with pytest.raises(DecompositionMismatchError):
                    decompose_test_errors(tests, x, y, wrong, gt, lam=lam)
    # a ridge fit described with the pseudoinverse's filter does not balance
    _pinv_filter_only(monkeypatch)
    with pytest.raises(DecompositionMismatchError):
        decompose_test_errors(tests, x, y, s, gt, lam=0.1)
    assert lstsq_calls == []


def test_duplicated_rows_fall_back_to_gelsd(lstsq_calls):
    # Rows repeated three times: rank 4 at every shape, below min(N, D).
    rng = np.random.default_rng(33)
    base = rng.standard_normal((4, 6))
    x_full = np.vstack([base] * 3 + [rng.standard_normal((20, 6))])
    y_full = x_full @ rng.standard_normal(6) + 0.3 * rng.standard_normal(32)
    for n in (12, 6, 5):
        x, y = x_full[:n], y_full[:n]
        gt = make_ground_truth(x_full, y_full, x, y)
        s = svd(x)
        assert s.rank == 4 < min(n, 6)
        # the pseudoinverse, then ridge on the four kept modes
        for lam in (0.0, 0.1):
            bias, var, pred = decompose_test_errors(x_full[20:], x, y, s, gt, lam=lam)
            beta_hat = _fitted(x, y, s, lam)
            assert_allclose(pred, x_full[20:] @ (beta_hat - gt.beta_star), atol=1e-10)
    assert lstsq_calls == [(12, 6), (12, 6), (6, 6), (6, 6), (5, 6), (5, 6)]


def test_crosscheck_follows_a_truncated_factorization(monkeypatch):
    # A truncated SVD is checked against least squares on the original rows
    # cut at the truncation, down to keeping no mode at all; ridge (lam > 0)
    # against the ridge fit of that least squares fit's values.
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
        for lam in (0.0, 0.1):
            bias, var, pred = decompose_test_errors(x_full[40:], x, y, t, gt, lam=lam)
            beta_hat = _fitted(x, y, t, lam)
            assert_allclose(pred, x_full[40:] @ (beta_hat - gt.beta_star), atol=1e-10)
    assert t.rank == 0 and np.all(var == 0)
    _pinv_filter_only(monkeypatch)
    with pytest.raises(DecompositionMismatchError):
        decompose_test_errors(x_full[40:], x, y, truncate_svd(s, float(sv[2] + sv[3]) / 2),
                              gt, lam=0.1)


def test_training_rows_must_match_the_factorization():
    rng = np.random.default_rng(31)
    x, y = rng.standard_normal((5, 3)), rng.standard_normal(5)
    gt = make_ground_truth(x, y, x, y)
    s = svd(x)
    with pytest.raises(DimensionMismatchError):
        decompose_test_errors(x, x[:4], y[:4], s, gt)
    with pytest.raises(DimensionMismatchError):
        decompose_test_error(x[0], x, y[:4], s, gt)


def test_halving_a_singular_value_doubles_its_contribution():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((5, 9))
    s = svd(x)
    gt = GroundTruth(beta_star=rng.standard_normal(9), residuals=rng.standard_normal(5))
    xt = rng.standard_normal(9)
    base = decompose_test_error(xt, x, x @ gt.beta_star + gt.residuals, s, gt)

    shrunk = s.singular_values.copy()
    shrunk[-1] *= 0.5
    x2 = (s.u_cols * shrunk) @ s.v_cols.T
    y2 = x2 @ gt.beta_star + gt.residuals
    dec2 = decompose_test_error(xt, x2, y2, svd(x2), gt)
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
        tests = x_full[40:]
        bias, var, pred = decompose_test_errors(tests, x_tr, y_tr, s, gt)
        for i, xt in enumerate(tests):
            dec = decompose_test_error(xt, x_tr, y_tr, s, gt)
            # the scalar form is the batch form on one row, exactly
            one = decompose_test_errors(xt[None, :], x_tr, y_tr, s, gt)
            assert (dec.bias_term, dec.variance_term, dec.predicted_error) == tuple(
                float(a[0]) for a in one
            )
            # BLAS may round a one-row product and a many-row product
            # differently in the last bit
            got = (dec.bias_term, dec.variance_term, dec.predicted_error)
            assert_allclose(got, (bias[i], var[i], pred[i]), rtol=1e-14, atol=1e-14)


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
    bias, var, pred = decompose_test_errors(dense_x[:50], ds.X, ds.Y, s, gt)
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
            np.column_stack([np.vstack([full.X, xe]), np.concatenate([full.Y, ye])])
        )
        for p in range(1, 201):
            ds = make_polynomial_dataset(30, p, 0.5, seed)
            stack = np.vstack([ds.X, xe[:, :p]])
            # make_ground_truth's beta_star, on the stack's one SVD
            s = svd(stack)
            want = pseudoinverse_apply(stack, np.concatenate([ds.Y, ye]), s=s)
            got = make_nested_ground_truth(nested, ds.X, ds.Y)
            # a full-rank stack leaves every leading block full rank
            assert s.rank == p, f"seed {seed}, P={p}"
            err = np.linalg.norm(got.beta_star - want)
            worst = max(worst, err / np.linalg.norm(want))
            assert_allclose(got.residuals, ds.Y - ds.X @ got.beta_star, rtol=0, atol=0)
    assert worst <= 1e-9, worst


def test_nested_ground_truth_on_a_full_rank_stack_runs_no_solve(monkeypatch):
    xs = np.linspace(-1.0, 1.0, 1000)
    ds = make_polynomial_dataset(30, 200, 0.5, seed=0)
    nested = factor_nested_ground_truth(np.column_stack([
        np.vstack([ds.X, _legendre_matrix(xs, 200)]),
        np.concatenate([ds.Y, polynomial_target(xs)]),
    ]))
    solves = []
    solve = np.linalg.solve

    def counting(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    for p in (1, 30, 117, 200):
        assert np.isfinite(make_nested_ground_truth(nested, ds.X[:, :p], ds.Y).beta_star).all()
    assert solves == []


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def test_fused_products_on_a_strided_wide_polynomial_cell():
    # P = 60 > n = 30: the cell keeps 30 of 60 modes, so the bias term is in
    # the fused product too, and the test rows are a strided view of a wider
    # evaluation block, as in the polynomial sweep.
    n, p = 30, 60
    xs = np.linspace(-1.0, 1.0, 1000)
    xe_max, ye = _legendre_matrix(xs, 200), polynomial_target(xs)
    ds = make_polynomial_dataset(n, 200, 0.5, seed=3)
    x, rows = ds.X[:, :p], xe_max[:, :p]
    assert not rows.flags.c_contiguous
    nested = factor_nested_ground_truth(
        np.column_stack([np.vstack([ds.X, xe_max]), np.concatenate([ds.Y, ye])])
    )
    gt = make_nested_ground_truth(nested, x, ds.Y)
    s = svd(x)
    assert s.rank == n < p
    bias, var, pred = decompose_test_errors(rows, x, ds.Y, s, gt)
    want_bias = rows @ (project_onto_rowspace(gt.beta_star, s) - gt.beta_star)
    coeff = (s.u_cols.T @ gt.residuals) / s.singular_values
    assert _rel_err(bias, want_bias) <= 1e-12
    assert _rel_err(var, (rows @ s.v_cols) @ coeff) <= 1e-12
    assert_allclose(pred, bias + var, rtol=0, atol=0)
    copied = decompose_test_errors(np.ascontiguousarray(rows), x, ds.Y, s, gt)
    for got, want in zip((bias, var, pred), copied):
        assert_allclose(got, want, rtol=0, atol=0)


def test_nested_ground_truth_rejects_bad_shapes():
    rng = np.random.default_rng(27)
    x, y = rng.standard_normal((12, 5)), rng.standard_normal(12)
    with pytest.raises(DimensionMismatchError):
        factor_nested_ground_truth(np.column_stack([x.T, y[:5]]))  # wide stack
    with pytest.raises(DimensionMismatchError):
        factor_nested_ground_truth(y[:, None])  # targets without features
    with pytest.raises(DimensionMismatchError):
        factor_nested_ground_truth(y)
    nested = factor_nested_ground_truth(np.column_stack([x, y]))
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
    with pytest.raises(RankDeficientError, match="40x6 stack has rank 5, not 6"):
        factor_nested_ground_truth(np.column_stack([x, rng.standard_normal(40)]))
