"""Conv1d compute kernels in numpy.

Each kernel lowers the convolution to one GEMM over an im2col window matrix
(Chellapilla, Puri & Simard 2006): row b*P + p of ``_columns(x, T)`` holds
the window x[b, :, p:p+T], so the forward is that matrix times the flattened
kernel bank, the weight gradient is the upstream gradient times it, and the
input gradient is the forward applied to the zero-padded upstream gradient
with the flipped kernel bank.

The passes follow the fast-path rules of ``chebnet.layers``.  The forward
adds the bias to the GEMM's rows, viewed (B, P*F) with the bias tiled P
times, before the transpose to (B, F, P): broadcast over the short length
axis the same add runs about twice as slowly, with the same bits.
"""

import numpy as np

# Read by the perfbench env line; kept constant so runs compare across versions.
BACKEND = "python"


def _as_c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _columns(x, t):
    """(B, C, L) -> the (B*P, C*T) window matrix, P = L - T + 1, whose row
    b*P + p is x[b, :, p:p+T] flattened channel-major."""
    b, c, length = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, t, axis=2)
    return windows.transpose(0, 2, 1, 3).reshape(b * (length - t + 1), c * t)


def _correlate(x, w, bias=None):
    """Valid cross-correlation of (B, C, L) with (F, C, T), plus ``bias``
    (F,) unless it is None.  The bias is added to the GEMM's rows, viewed
    (B, P*F) with the bias tiled P times, before the transpose to
    (B, F, P)."""
    b, _, length = x.shape
    f, c, t = w.shape
    p = length - t + 1
    y = _columns(x, t) @ w.reshape(f, c * t).T
    if bias is not None:
        rows = y.reshape(b, p * f)
        np.add(rows, np.tile(bias, p), out=rows)
    return np.ascontiguousarray(y.reshape(b, p, f).transpose(0, 2, 1))


def conv1d_forward(x, w, b):
    """Batched valid 1-D cross-correlation with stride 1.

    x: (B, C, L), w: (F, C, T), b: (F,); returns (B, F, L-T+1).
    """
    x, w, b = _as_c64(x), _as_c64(w), _as_c64(b)
    return _correlate(x, w, b)


def conv1d_backward(x, w, up, *, input_grad=True):
    """Gradients of conv1d_forward; returns (dx, dw, db), with dx None when
    ``input_grad`` is false."""
    x, w, up = _as_c64(x), _as_c64(w), _as_c64(up)
    f, c, t = w.shape
    b, _, p = up.shape
    up_rows = up.transpose(0, 2, 1).reshape(b * p, f)
    dw = (up_rows.T @ _columns(x, t)).reshape(f, c, t)
    db = np.einsum("ij->j", up_rows)
    if not input_grad:
        return None, dw, db
    # dx[b, c, l] = sum_{f, s} up[b, f, l - s] w[f, c, s]: the correlation of
    # up, padded by T - 1 zeros on each side, with the flipped kernel bank
    padded = np.zeros((b, f, p + 2 * (t - 1)))
    padded[:, :, t - 1:t - 1 + p] = up
    dx = _correlate(padded, w[:, :, ::-1].transpose(1, 0, 2))
    return dx, dw, db
