"""Conv1d kernels against naive loops and finite differences."""

import numpy as np
import pytest

from chebnet import kernels

# (B, C, L, F) of dataco-csv's two Conv1D layers ((B, 1, 11) -> 10 kernels,
# (B, 10, 7) -> 2) and of sg-product's first ((B, 4, 20) -> 10)
MODEL_SHAPES = [(2, 1, 11, 10), (2, 10, 7, 2), (2, 4, 20, 10)]


def random_case(rng, b=3, c=2, length=11, f=4, t=5):
    x = rng.standard_normal((b, c, length))
    w = rng.standard_normal((f, c, t))
    bias = rng.standard_normal(f)
    return x, w, bias


def naive_forward(x, w, bias):
    """The valid cross-correlation, one output element at a time."""
    p = x.shape[2] - w.shape[2] + 1
    y = np.empty((x.shape[0], w.shape[0], p))
    for bi in range(y.shape[0]):
        for fi in range(y.shape[1]):
            for pi in range(p):
                acc = bias[fi]
                for ci in range(x.shape[1]):
                    for ti in range(w.shape[2]):
                        acc += w[fi, ci, ti] * x[bi, ci, pi + ti]
                y[bi, fi, pi] = acc
    return y


def naive_backward(x, w, up):
    """(dx, dw, db) of the valid cross-correlation, one tap at a time."""
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros(w.shape[0])
    for bi in range(up.shape[0]):
        for fi in range(up.shape[1]):
            for pi in range(up.shape[2]):
                g = up[bi, fi, pi]
                db[fi] += g
                for ci in range(x.shape[1]):
                    for ti in range(w.shape[2]):
                        dx[bi, ci, pi + ti] += g * w[fi, ci, ti]
                        dw[fi, ci, ti] += g * x[bi, ci, pi + ti]
    return dx, dw, db


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

    @pytest.mark.parametrize("b,c,length,f", MODEL_SHAPES)
    def test_model_shapes_against_naive_loops(self, b, c, length, f):
        rng = np.random.default_rng(2)
        x, w, bias = random_case(rng, b, c, length, f)
        up = rng.standard_normal((b, f, length - w.shape[2] + 1))
        np.testing.assert_allclose(kernels.conv1d_forward(x, w, bias),
                                   naive_forward(x, w, bias),
                                   rtol=1e-12, atol=1e-12)
        for got, want in zip(kernels.conv1d_backward(x, w, up),
                             naive_backward(x, w, up)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("b,c,length,f", MODEL_SHAPES)
    def test_input_grad_false_skips_only_dx(self, b, c, length, f):
        rng = np.random.default_rng(3)
        x, w, _ = random_case(rng, b, c, length, f)
        up = rng.standard_normal((b, f, length - w.shape[2] + 1))
        _, dw, db = kernels.conv1d_backward(x, w, up)
        dx, dw_only, db_only = kernels.conv1d_backward(x, w, up,
                                                       input_grad=False)
        assert dx is None
        np.testing.assert_array_equal(dw_only, dw)
        np.testing.assert_array_equal(db_only, db)

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
