"""Conv1d compute kernels in numpy.

Each kernel lowers the convolution to einsum contractions over a strided
window view of the input, so the work runs as GEMM-shaped BLAS calls.
"""

import numpy as np

# Read by the perfbench env line; kept constant so runs compare across versions.
BACKEND = "python"


def _as_c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def conv1d_forward(x, w, b):
    """Batched valid 1-D cross-correlation with stride 1.

    x: (B, C, L), w: (F, C, T), b: (F,); returns (B, F, L-T+1).
    """
    x, w, b = _as_c64(x), _as_c64(w), _as_c64(b)
    t = w.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, t, axis=2)
    y = np.einsum("bcpt,fct->bfp", windows, w, optimize=True)
    y += b[None, :, None]
    return np.ascontiguousarray(y)


def conv1d_backward(x, w, up):
    """Gradients of conv1d_forward; returns (dx, dw, db)."""
    x, w, up = _as_c64(x), _as_c64(w), _as_c64(up)
    t = w.shape[2]
    p = up.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, t, axis=2)
    dw = np.einsum("bcpt,bfp->fct", windows, up, optimize=True)
    db = up.sum(axis=(0, 2))
    dx = np.zeros_like(x)
    for k in range(t):
        dx[:, :, k:k + p] += np.einsum("bfp,fc->bcp", up, w[:, :, k])
    return dx, dw, db
