import numpy as np
import pytest

from descent_lab import SweepConfig, linalg, run_sweep

# The headline synthetic configuration: D = 32, noise 0.25, every n_train in
# [2, 96], 30 seeds.  Several tests interrogate the same run, so build it once.
HEADLINE = dict(d=32, noise_sd=0.25, grid=list(range(2, 97)), seeds=list(range(30)))


@pytest.fixture(scope="session")
def threshold_sweep():
    outcome = run_sweep(SweepConfig(**HEADLINE))
    assert not outcome.failures, f"{len(outcome.failures)} cells failed"
    return outcome


@pytest.fixture
def blas_count():
    """The loaded OpenBLAS's thread-count getter.  The count is set to 2 for
    the test, so a limit that is not lifted shows, and put back after it."""
    controls = linalg._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    get, set_ = controls[0]
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The shapes of the matrices np.linalg.lstsq is called on during the
    test, which the crosscheck runs only off full rank."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(a, b, *args, **kwargs):
        calls.append(np.shape(a))
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls
