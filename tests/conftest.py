"""Fixtures shared by the test modules."""

import pytest

from chebnet import training


@pytest.fixture
def pooled(monkeypatch):
    """Run ``chebnet.training``'s fits as two participants, the caller and
    one forked worker, whatever this machine's core count.  Where numpy's
    BLAS is no OpenBLAS whose thread count can be set, fits always run in
    the caller, so a test of the pool has nothing to test."""
    if training._blas_threads() is None:
        pytest.skip("no settable OpenBLAS: every fit runs in the caller")
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
