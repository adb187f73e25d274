"""Property-based checks of the algebraic invariants the package leans on."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from descent_lab.errors import DomainError
from descent_lab.estimators import fit_ridge
from descent_lab.linalg import pseudoinverse_apply, svd, truncate_svd

# Subnormal entries make 1/sigma overflow, same as numpy's own pinv; the
# invariants under test are about ordinary scales.
finite = st.floats(
    min_value=-1e6,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)


def matrices(max_side=8):
    return st.integers(1, max_side).flatmap(
        lambda n: st.integers(1, max_side).flatmap(
            lambda d: arrays(np.float64, (n, d), elements=finite)
        )
    )


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_svd_reconstructs_within_tolerance(x):
    s = svd(x)
    assert np.linalg.norm(s.reconstruct() - x) <= 1e-7 * max(1.0, np.linalg.norm(x))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_svd_spectrum_is_positive_and_sorted(x):
    s = svd(x)
    assert (s.singular_values > 0).all()
    assert (np.diff(s.singular_values) <= 0).all()
    assert s.rank <= min(x.shape)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.floats(0.0, 1e7, allow_nan=False))
def test_truncation_rank_shrinks_with_the_cutoff(x, cutoff):
    s = svd(x)
    t = truncate_svd(s, cutoff)
    assert t.rank <= s.rank
    assert (t.singular_values >= cutoff).all()
    # truncating further never brings modes back
    assert truncate_svd(t, 2 * cutoff).rank <= t.rank


def assert_rightly_rejected(x, y):
    # pseudoinverse_apply raised DomainError.  |X^+ y| <= |y| / sigma_min,
    # so that is only right when 1/sigma_min overflows or |y| / sigma_min
    # reaches the ~1.3e154 where beta . beta overflows.
    sigma_min = svd(x).singular_values[-1]
    tiny = 1.0 / np.finfo(np.float64).max
    assert sigma_min < tiny or np.linalg.norm(y) > 1e154 * sigma_min


class FixedDraws:
    """Stands in for ``st.data()`` in an explicit example: hands out the
    given values in draw order."""

    def __init__(self, *values):
        self._values = list(values)

    def draw(self, strategy, label=None):
        return self._values.pop(0)


@settings(max_examples=150, deadline=None)
@given(matrices(max_side=6), st.data())
@example(2e-219 * np.array([[1.0, 2.0], [3.0, 4.0]]), FixedDraws([1e6, -1e6]))
def test_pinv_fit_projects_targets_onto_the_column_space(x, data):
    # Whatever the rank, X X^+ y is the best approximation of y inside the
    # column space, so applying the projection twice changes nothing.
    y = np.array(data.draw(st.lists(finite, min_size=x.shape[0], max_size=x.shape[0])))
    # Tiny-but-normal entries (2e-219 scale) push 1/sigma and X^+ y past the
    # float range; those inputs must be rejected, not answered with inf.
    try:
        once = x @ pseudoinverse_apply(x, y)
    except DomainError:
        assert_rightly_rejected(x, y)
        return
    twice = x @ pseudoinverse_apply(x, once)
    assert np.linalg.norm(twice - once) <= 1e-6 * max(1.0, np.linalg.norm(once))


@settings(max_examples=100, deadline=None)
@given(matrices(max_side=6), st.data())
# sigma = 1e-6 is under the rank tolerance, so X^+ y = 0; ridge must drop
# that mode too instead of answering with a 9e-12 coefficient.
@example(np.array([[1e-6, 0.0, 0.0], [0.0, 3.33334e5, 0.0]]), FixedDraws([1.0, 0.0], 1e-6))
# X^+ y overflows: rejected, and the vanishing sigma_max^2 is no lambda.
@example(2e-219 * np.array([[1.0, 2.0], [3.0, 4.0]]), FixedDraws([1e6, 0.0]))
def test_ridge_never_expands_past_the_min_norm_solution(x, data):
    # lambda is drawn relative to sigma_max^2 (how the sweeps use ridge);
    # a lambda far below the data scale makes the solve itself meaningless.
    smax = float(np.linalg.svd(x, compute_uv=False)[0])
    assume(smax > 0)
    y = np.array(data.draw(st.lists(finite, min_size=x.shape[0], max_size=x.shape[0])))
    try:
        base = np.linalg.norm(pseudoinverse_apply(x, y))
    except DomainError:
        assert_rightly_rejected(x, y)
        return
    lam = data.draw(st.floats(1e-6, 1e3, allow_nan=False)) * smax**2
    assume(lam > 0)  # smax^2 can underflow for vanishingly scaled matrices
    ridged = np.linalg.norm(fit_ridge(x, y, lam).beta)
    # the additive slack covers cancellation noise, which scales with y
    assert ridged <= base * (1 + 1e-7) + 1e-12 * max(1.0, np.linalg.norm(y))
