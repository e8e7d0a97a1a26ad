"""Conv1d kernels against naive loops and finite differences."""

import numpy as np
import pytest

from chebnet import kernels


def random_case(rng, b=3, c=2, length=11, f=4, t=5):
    x = rng.standard_normal((b, c, length))
    w = rng.standard_normal((f, c, t))
    bias = rng.standard_normal(f)
    return x, w, bias


class TestNumpyReference:
    def test_forward_against_naive_loops(self):
        rng = np.random.default_rng(0)
        x, w, bias = random_case(rng)
        y = kernels.conv1d_forward(x, w, bias)
        b_, f_, p_ = y.shape
        for bi in range(b_):
            for fi in range(f_):
                for pi in range(p_):
                    acc = bias[fi]
                    for ci in range(x.shape[1]):
                        for ti in range(w.shape[2]):
                            acc += w[fi, ci, ti] * x[bi, ci, pi + ti]
                    assert y[bi, fi, pi] == pytest.approx(acc, abs=1e-12)

    def test_backward_against_finite_differences(self):
        rng = np.random.default_rng(1)
        x, w, bias = random_case(rng, b=2, c=2, length=8, f=2)
        up = rng.standard_normal((2, 2, 4))
        dx, dw, db = kernels.conv1d_backward(x, w, up)
        h = 1e-6

        def loss():
            return float((kernels.conv1d_forward(x, w, bias) * up).sum())

        for arr, grad in ((x, dx), (w, dw)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(0, flat.size, 3):  # sample every third element
                orig = flat[i]
                flat[i] = orig + h
                hi = loss()
                flat[i] = orig - h
                lo = loss()
                flat[i] = orig
                assert gflat[i] == pytest.approx((hi - lo) / (2 * h),
                                                 abs=1e-4)
        np.testing.assert_allclose(db, up.sum(axis=(0, 2)))
