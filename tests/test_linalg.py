import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from descent_lab import linalg
from descent_lab.errors import DimensionMismatchError, DomainError
from descent_lab.linalg import (
    RANK_TOLERANCE_SCALE,
    _fix_signs,
    as_matrix,
    as_vector,
    one_blas_thread,
    project_onto_rowspace,
    pseudoinverse_apply,
    rank_tolerance,
    svd,
    truncate_svd,
)


def test_svd_diagonal_matrix():
    s = svd([[2.0, 0.0], [0.0, 1.0]])
    assert_allclose(s.singular_values, [2.0, 1.0])
    # sign convention pins the columns exactly
    assert_allclose(s.u_cols, np.eye(2), atol=1e-15)
    assert_allclose(s.v_cols, np.eye(2), atol=1e-15)


def test_svd_zero_matrix_has_empty_spectrum():
    s = svd(np.zeros((2, 2)))
    assert s.rank == 0
    assert s.singular_values.shape == (0,)
    assert s.u_cols.shape == (2, 0)
    assert s.v_cols.shape == (2, 0)


def test_svd_single_row():
    # XX^T = [2] by hand, so sigma = sqrt(2) and v is the symmetric unit vector.
    s = svd([[1.0, 1.0]])
    assert_allclose(s.singular_values, [np.sqrt(2.0)])
    assert_allclose(s.v_cols.ravel(), [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_svd_sign_convention_first_nonzero_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
        s = svd(x)
        for r in range(s.rank):
            col = s.v_cols[:, r]
            nz = col[np.abs(col) > 1e-12]
            assert nz.size > 0 and nz[0] > 0


def _fix_signs_loop(u, vt):
    # The row-by-row loop _fix_signs replaced, kept as its reference.
    u = u.copy()
    vt = vt.copy()
    for r in range(vt.shape[0]):
        nz = np.nonzero(vt[r])[0]
        if nz.size and vt[r, nz[0]] < 0:
            vt[r] = -vt[r]
            u[:, r] = -u[:, r]
    return u, vt


def test_fix_signs_is_bit_identical_to_the_loop():
    rng = np.random.default_rng(12)
    cases = [(np.zeros((3, 0)), np.zeros((0, 4)))]  # rank 0
    for _ in range(200):
        n, d = (int(k) for k in rng.integers(1, 9, size=2))
        r = int(rng.integers(1, min(n, d) + 1))
        u = rng.standard_normal((n, r))
        vt = rng.standard_normal((r, d))
        # leading zeros (signed zeros too) and whole zero rows
        lead = rng.integers(0, d + 1, size=r)
        for i, k in enumerate(lead):
            vt[i, :k] = 0.0 if rng.random() < 0.5 else -0.0
        cases.append((u, vt))
        # LAPACK hands back Fortran-ordered factors
        cases.append((np.asfortranarray(u), np.asfortranarray(vt)))
    for u, vt in cases:
        got_u, got_vt = _fix_signs(u, vt)
        want_u, want_vt = _fix_signs_loop(u, vt)
        # same layout too: downstream BLAS calls round by it
        assert got_u.strides == want_u.strides and got_vt.strides == want_vt.strides
        assert got_u.tobytes() == want_u.tobytes()
        assert got_vt.tobytes() == want_vt.tobytes()


def test_rank_tolerance_of_a_triangle_uses_the_stack_shape():
    # R of a QR of a tall matrix has its singular values; given the tall
    # matrix's shape, the rank tolerance is its max(N, D), not R's max(D, D).
    rng = np.random.default_rng(13)
    a = rng.standard_normal((50, 4)) * [1.0, 1.0, 1.0, 1e-11]
    r = np.linalg.qr(a, mode="r")
    sv = np.linalg.svd(r, compute_uv=False)
    assert svd(r).rank == 4
    assert np.count_nonzero(sv > rank_tolerance(sv, a.shape)) == svd(a).rank == 3
    assert_allclose(rank_tolerance(sv, a.shape), svd(a).rank_tolerance, rtol=1e-12)
    assert_allclose(rank_tolerance(sv, r.shape), svd(r).rank_tolerance, rtol=1e-12)
    assert rank_tolerance(np.zeros(0), (3, 4)) == 0.0


def test_svd_orthonormal_columns():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal((rng.integers(1, 15), rng.integers(1, 15)))
        s = svd(x)
        assert np.abs(s.u_cols.T @ s.u_cols - np.eye(s.rank)).max() < 1e-10
        assert np.abs(s.v_cols.T @ s.v_cols - np.eye(s.rank)).max() < 1e-10


def test_svd_spectrum_descending_and_positive():
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((rng.integers(1, 12), rng.integers(1, 12))) for _ in range(50)]
    mats.append(np.eye(4))  # degenerate spectrum: descending with ties
    for x in mats:
        s = svd(x)
        assert (s.singular_values > 0).all()
        assert (s.singular_values > s.rank_tolerance).all()
        assert (np.diff(s.singular_values) <= 0).all()
        assert s.rank <= min(np.shape(x))


def _rebuild(s):
    """sum_r sigma_r u_r v_r^T: the matrix ``s`` factors, at its rank."""
    return (s.u_cols * s.singular_values) @ s.v_cols.T


def test_svd_reconstruction_on_a_thousand_matrices():
    rng = np.random.default_rng(3)
    for i in range(1000):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 21))
        x = rng.standard_normal((n, d))
        if i % 4 == 0:  # force rank deficiency
            r = int(rng.integers(1, min(n, d) + 1))
            x = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
        s = svd(x)
        err = np.linalg.norm(_rebuild(s) - x)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(x))


def test_rank_tolerance_drops_tiny_modes():
    s = svd(np.diag([1.0, 1e-20]))
    assert s.rank == 1
    assert_allclose(s.rank_tolerance, 1.0 * 2 * RANK_TOLERANCE_SCALE)
    assert_allclose(s.singular_values, [1.0])


def test_matrix_and_vector_validation():
    with pytest.raises(DimensionMismatchError):
        as_matrix([[1.0, np.nan]], "x")
    with pytest.raises(DimensionMismatchError):
        as_matrix([1.0, 2.0], "x")
    with pytest.raises(DimensionMismatchError):
        as_vector([[1.0]], "y")
    with pytest.raises(DimensionMismatchError):
        as_vector([np.inf], "y")
    with pytest.raises(DimensionMismatchError):
        svd(np.zeros((0, 3)))


def test_pinv_identity():
    assert_allclose(pseudoinverse_apply(np.eye(2), [3.0, 4.0]), [3.0, 4.0])


def test_pinv_symmetric_min_norm():
    # symmetry forces equal components of the min-norm solution to b1+b2=2
    assert_allclose(pseudoinverse_apply([[1.0, 1.0]], [2.0]), [1.0, 1.0])


def test_pinv_rank_deficient_against_ridge_limit():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0])
    oracle = x.T @ np.linalg.solve(x @ x.T + 1e-12 * np.eye(2), y)
    got = pseudoinverse_apply(x, y)
    assert_allclose(got, oracle, atol=1e-9)
    assert_allclose(got, [1.0, 0.0], atol=1e-9)


def test_pinv_result_lies_in_rowspace():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal((rng.integers(1, 10), rng.integers(1, 10)))
        y = rng.standard_normal(x.shape[0])
        beta = pseudoinverse_apply(x, y)
        s = svd(x)
        back = s.v_cols @ (s.v_cols.T @ beta)
        assert np.linalg.norm(back - beta) <= 1e-10 * max(1.0, np.linalg.norm(beta))


def test_pinv_reproduces_targets_in_rowspace():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        x = rng.standard_normal((n, d))
        s = svd(x)
        beta = s.v_cols @ rng.standard_normal(s.rank)  # in the row space
        yy = x @ beta
        again = x @ pseudoinverse_apply(x, yy)
        assert np.linalg.norm(again - yy) <= 1e-8 * max(1.0, np.linalg.norm(yy))


def test_pinv_matches_lstsq():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        y = rng.standard_normal(x.shape[0])
        ours = pseudoinverse_apply(x, y)
        ref = np.linalg.lstsq(x, y, rcond=None)[0]
        assert_allclose(ours, ref, atol=1e-9)


def test_pinv_rejects_an_overflowing_solution():
    # sigma ~ 2e-219 against targets of order one puts |X^+ y| near 1e219,
    # whose square overflows; that must fail loudly, not come back as a beta
    # with an infinite norm
    rng = np.random.default_rng(7)
    x = 2e-219 * rng.standard_normal((4, 3))
    with pytest.raises(DomainError):
        pseudoinverse_apply(x, rng.standard_normal(4))
    # a representable solution at the same scale still comes back
    beta = pseudoinverse_apply(x, 1e-300 * rng.standard_normal(4))
    assert np.isfinite(beta @ beta)
    # as does one of an ordinary matrix against modest targets
    assert np.isfinite(pseudoinverse_apply(1e-150 * np.eye(2), [1.0, 1.0])).all()


def test_pinv_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pseudoinverse_apply(np.eye(2), [1.0, 2.0, 3.0])


def test_truncate_filters_small_modes():
    s = svd(np.diag([2.0, 1.0, 0.01]))
    t = truncate_svd(s, 0.5)
    assert_allclose(t.singular_values, [2.0, 1.0])
    assert t.rank == 2
    assert t.rank_tolerance == 0.5


def test_truncate_zero_cutoff_is_identity():
    s = svd(np.diag([2.0, 1.0]))
    t = truncate_svd(s, 0.0)
    assert_allclose(t.singular_values, s.singular_values)
    assert t.rank == s.rank
    assert t.rank_tolerance == s.rank_tolerance


def test_truncate_can_empty_the_spectrum():
    t = truncate_svd(svd(np.diag([2.0, 1.0])), 3.0)
    assert t.rank == 0
    assert t.singular_values.shape == (0,)


def test_truncate_rejects_negative_cutoff():
    with pytest.raises(DimensionMismatchError):
        truncate_svd(svd(np.eye(2)), -1.0)


def test_truncation_is_best_low_rank_approximation():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 6))
    s = svd(x)
    cutoff = float(s.singular_values[2]) - 1e-12
    t = truncate_svd(s, cutoff)
    assert t.rank == 3
    # Frobenius error of the rank-3 truncation equals the dropped tail
    err = np.linalg.norm(_rebuild(t) - x)
    tail = np.sqrt((s.singular_values[3:] ** 2).sum())
    assert_allclose(err, tail, rtol=1e-9)


def test_project_fixes_vectors_in_rowspace():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 7))
    s = svd(x)
    v1 = 2.5 * s.v_cols[:, 0]
    assert_allclose(project_onto_rowspace(v1, s), v1, atol=1e-12)


def test_project_kills_orthogonal_vectors():
    s = svd(np.array([[1.0, 0.0, 0.0]]))
    assert_allclose(project_onto_rowspace([0.0, 1.0, 2.0], s), [0.0, 0.0, 0.0], atol=1e-15)


def test_project_hand_example():
    s = svd(np.array([[1.0, 0.0]]))
    assert_allclose(project_onto_rowspace([1.0, 1.0], s), [1.0, 0.0], atol=1e-15)


def test_project_is_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
        s = svd(x)
        v = rng.standard_normal(x.shape[1])
        once = project_onto_rowspace(v, s)
        twice = project_onto_rowspace(once, s)
        assert np.abs(twice - once).max() < 1e-10
        # a matrix projects row by row, and stays put when projected again
        rows = rng.standard_normal((5, x.shape[1]))
        projected = project_onto_rowspace(rows, s)
        assert projected.shape == rows.shape
        per_row = np.array([project_onto_rowspace(r, s) for r in rows])
        assert np.abs(projected - per_row).max() < 1e-12
        assert np.abs(project_onto_rowspace(projected, s) - projected).max() < 1e-10


def test_project_rejects_a_feature_count_mismatch():
    s = svd(np.ones((2, 3)))
    for x in (np.ones(4), np.ones((5, 4)), np.ones((5, 2))):
        with pytest.raises(DimensionMismatchError):
            project_onto_rowspace(x, s)


def test_one_blas_thread_nests_and_restores(blas_count):
    with one_blas_thread() as outer:
        assert outer == 1 and blas_count() == 1
        with one_blas_thread() as inner:
            assert inner == 1
        assert blas_count() == 1  # the inner exit leaves the outer limit on
    assert blas_count() == 2


def test_one_blas_thread_holds_under_a_thread_storm(blas_count):
    # Eight threads entering and leaving the limit while the interpreter
    # switches every microsecond: every block sees one thread and the count
    # comes back once all have left, which a lost update on the holder
    # count would break.
    seen = []

    def churn():
        for _ in range(200):
            with one_blas_thread():
                seen.append(blas_count())

    threads = [threading.Thread(target=churn) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] * 1600
    assert blas_count() == 2


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_controls", lambda: ())
    with one_blas_thread() as count:
        assert count is None
