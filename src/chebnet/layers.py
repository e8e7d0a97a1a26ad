"""Differentiable layers with explicit forward and backward passes.

Every layer caches what its backward pass needs during forward, accumulates
parameter gradients into ``Parameter.grad`` on backward, and returns the
gradient with respect to its input.  Layers accept a single graph signal
(N, F) or a batch (B, N, F); the non-graph layers likewise broadcast over
leading batch dimensions.  There is no general autodiff: the fixed
two-branch topology is differentiated by hand and validated against finite
differences (see ``grad_check``).
"""

import math

import numpy as np

from chebnet import kernels
from chebnet.graph import cheb_apply


class InvalidStateError(RuntimeError):
    """Raised when backward is called without a matching forward."""


class Parameter:
    """Trainable array paired with a gradient buffer of identical shape."""

    __slots__ = ("value", "grad", "touched")

    def __init__(self, value):
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.touched = False

    def accumulate(self, g):
        self.grad += g
        self.touched = True

    def zero_grad(self):
        self.grad[...] = 0.0
        self.touched = False

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _flat2(a, width):
    """View (..., width) as (rows, width)."""
    return a.reshape(-1, width)


# ---------------------------------------------------------------------------
# activations


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(up, x):
    return up * (x > 0.0)


def leaky_relu(x, slope=0.1):
    return np.where(x > 0.0, x, slope * x)


def leaky_relu_backward(up, x, slope=0.1):
    return up * np.where(x > 0.0, 1.0, slope)


def log_softmax(x):
    """Row-wise log softmax over the last axis, numerically stable."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_backward(up, out):
    return up - np.exp(out) * up.sum(axis=-1, keepdims=True)


def dropout(x, p, rng=None, training=True):
    """Inverted dropout.  Returns (output, scaled mask); mask is None when
    the call is an identity (eval mode or p == 0)."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def dropout_backward(up, mask):
    if mask is None:
        return up
    return up * mask


# ---------------------------------------------------------------------------
# graph layers


class ChebConv:
    """Graph convolution by a K-order Chebyshev polynomial of the scaled
    Laplacian: y = sum_k T_k(Ls) x theta_k + bias."""

    def __init__(self, in_features, out_features, order=1, rng=None):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if rng is None:
            rng = np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.order = order
        self.weight = Parameter(
            glorot_uniform(rng, (order, in_features, out_features),
                           order * in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))
        self._cache = None

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, graph, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[-1]}")
        basis = cheb_apply(graph.scaled_laplacian, x, self.order)
        y = basis[0] @ self.weight.value[0]
        for k in range(1, self.order):
            y += basis[k] @ self.weight.value[k]
        y += self.bias.value
        self._cache = (graph, basis)
        return y

    def backward(self, up):
        if self._cache is None:
            raise InvalidStateError("ChebConv.backward before forward")
        graph, basis = self._cache
        up = np.asarray(up, dtype=np.float64)
        dw = np.empty_like(self.weight.grad)
        upf = _flat2(up, self.out_features)
        for k in range(self.order):
            dw[k] = _flat2(basis[k], self.in_features).T @ upf
        self.weight.accumulate(dw)
        self.bias.accumulate(upf.sum(axis=0))
        # dL/dx = sum_k T_k(Ls) (up theta_k^T); T_k is symmetric, so the
        # recurrence is reused instead of materializing T_k itself.
        dx = up @ self.weight.value[0].T
        for k in range(1, self.order):
            g = up @ self.weight.value[k].T
            dx += cheb_apply(graph.scaled_laplacian, g, k + 1)[k]
        return dx


class GCNConv:
    """Symmetric-normalized graph convolution with added self-loops:
    y = D^-1/2 (W + I) D^-1/2 x theta + bias."""

    def __init__(self, in_features, out_features, rng=None):
        if rng is None:
            rng = np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, (in_features, out_features),
                           in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))
        self._cache = None

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    @staticmethod
    def propagation(adjacency):
        a = adjacency + np.eye(adjacency.shape[0])
        dinv = 1.0 / np.sqrt(a.sum(axis=1))  # self-loop keeps degrees > 0
        return dinv[:, None] * a * dinv[None, :]

    def forward(self, graph, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[-1]}")
        prop = self.propagation(graph.adjacency)
        px = prop @ x
        y = px @ self.weight.value + self.bias.value
        self._cache = (prop, px)
        return y

    def backward(self, up):
        if self._cache is None:
            raise InvalidStateError("GCNConv.backward before forward")
        prop, px = self._cache
        up = np.asarray(up, dtype=np.float64)
        upf = _flat2(up, self.out_features)
        self.weight.accumulate(_flat2(px, self.in_features).T @ upf)
        self.bias.accumulate(upf.sum(axis=0))
        return prop @ (up @ self.weight.value.T)  # prop is symmetric


class GATLayer:
    """Single-head graph attention over the nonzero-adjacency neighborhood.

    Attention logit for edge (u, v) is leaky(a . [psi x_u || psi x_v]) with
    slope 0.2, softmax-normalized over each node's neighborhood; aggregation
    is the attention-weighted sum followed by a leaky activation.
    """

    LOGIT_SLOPE = 0.2

    def __init__(self, in_features, out_features, rng=None,
                 activation_slope=0.2, include_self=True):
        if rng is None:
            rng = np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.activation_slope = activation_slope
        self.include_self = include_self
        self.transform = Parameter(
            glorot_uniform(rng, (in_features, out_features),
                           in_features, out_features))
        self.attention = Parameter(
            glorot_uniform(rng, (2 * out_features,), 2 * out_features, 1))
        self._cache = None

    def parameters(self):
        return [("transform", self.transform), ("attention", self.attention)]

    def _mask(self, graph):
        mask = graph.adjacency != 0.0
        if self.include_self:
            mask = mask | np.eye(graph.n_nodes, dtype=bool)
        if not mask.any(axis=1).all():
            raise ValueError("graph has an isolated node with self-loops disabled")
        return mask

    def attention_coefficients(self, graph, x):
        """Softmax-normalized attention rows (inference helper for tests)."""
        self.forward(graph, x)
        alpha = self._cache["alpha"]
        self._cache = None
        return alpha

    def forward(self, graph, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[-1]}")
        mask = self._mask(graph)
        h = x @ self.transform.value
        a_src = self.attention.value[: self.out_features]
        a_dst = self.attention.value[self.out_features:]
        s = h @ a_src
        d = h @ a_dst
        logits = s[..., :, None] + d[..., None, :]
        act = leaky_relu(logits, self.LOGIT_SLOPE)
        masked = np.where(mask, act, -np.inf)
        masked -= masked.max(axis=-1, keepdims=True)
        expd = np.exp(masked)
        alpha = expd / expd.sum(axis=-1, keepdims=True)
        agg = alpha @ h
        y = leaky_relu(agg, self.activation_slope)
        self._cache = {"x": x, "h": h, "logits": logits, "alpha": alpha,
                       "agg": agg}
        return y

    def backward(self, up):
        if self._cache is None:
            raise InvalidStateError("GATLayer.backward before forward")
        c = self._cache
        up = np.asarray(up, dtype=np.float64)
        dagg = leaky_relu_backward(up, c["agg"], self.activation_slope)
        alpha = c["alpha"]
        h = c["h"]
        dalpha = dagg @ h.swapaxes(-1, -2)
        dh = alpha.swapaxes(-1, -2) @ dagg
        # softmax backward per neighborhood row (off-neighborhood alpha is 0)
        dact = alpha * (dalpha - (alpha * dalpha).sum(axis=-1, keepdims=True))
        dlogits = leaky_relu_backward(dact, c["logits"], self.LOGIT_SLOPE)
        ds = dlogits.sum(axis=-1)
        dd = dlogits.sum(axis=-2)
        a_src = self.attention.value[: self.out_features]
        a_dst = self.attention.value[self.out_features:]
        dh += ds[..., None] * a_src + dd[..., None] * a_dst
        da = np.concatenate([
            (_flat2(h, self.out_features) * ds.reshape(-1, 1)).sum(axis=0),
            (_flat2(h, self.out_features) * dd.reshape(-1, 1)).sum(axis=0),
        ])
        self.attention.accumulate(da)
        self.transform.accumulate(
            _flat2(c["x"], self.in_features).T @ _flat2(dh, self.out_features))
        return dh @ self.transform.value.T


# ---------------------------------------------------------------------------
# non-graph layers


class Conv1D:
    """Valid 1-D cross-correlation, kernel length 5, stride 1.

    The activation is applied separately by the model (leaky_relu 0.1).
    Forward and backward call the numpy kernels in ``chebnet.kernels``.
    """

    KERNEL_LEN = 5

    def __init__(self, in_channels, n_kernels, rng=None):
        if rng is None:
            rng = np.random.default_rng()
        self.in_channels = in_channels
        self.n_kernels = n_kernels
        fan_in = in_channels * self.KERNEL_LEN
        fan_out = n_kernels * self.KERNEL_LEN
        self.kernels = Parameter(
            glorot_uniform(rng, (n_kernels, in_channels, self.KERNEL_LEN),
                           fan_in, fan_out))
        self.bias = Parameter(np.zeros(n_kernels))
        self._cache = None

    def parameters(self):
        return [("kernels", self.kernels), ("bias", self.bias)]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 2
        if squeeze:
            x = x[None]
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} channels, got {x.shape[1]}")
        if x.shape[2] < self.KERNEL_LEN:
            raise ValueError(
                f"sequence length {x.shape[2]} is shorter than the kernel "
                f"({self.KERNEL_LEN})")
        y = kernels.conv1d_forward(x, self.kernels.value, self.bias.value)
        self._cache = (x, squeeze)
        return y[0] if squeeze else y

    def backward(self, up):
        if self._cache is None:
            raise InvalidStateError("Conv1D.backward before forward")
        x, squeeze = self._cache
        up = np.asarray(up, dtype=np.float64)
        if squeeze:
            up = up[None]
        dx, dw, db = kernels.conv1d_backward(x, self.kernels.value, up)
        self.kernels.accumulate(dw)
        self.bias.accumulate(db)
        return dx[0] if squeeze else dx


class Linear:
    """Affine map y = x W + b over the last axis."""

    def __init__(self, in_features, out_features, rng=None):
        if rng is None:
            rng = np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, (in_features, out_features),
                           in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))
        self._cache = None

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[-1]}")
        self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, up):
        if self._cache is None:
            raise InvalidStateError("Linear.backward before forward")
        x = self._cache
        up = np.asarray(up, dtype=np.float64)
        upf = _flat2(up, self.out_features)
        self.weight.accumulate(_flat2(x, self.in_features).T @ upf)
        self.bias.accumulate(upf.sum(axis=0))
        return up @ self.weight.value.T


class BatchNorm:
    """Per-channel batch normalization over all leading axes.

    Train mode normalizes with (biased) batch statistics and folds them into
    the running estimates with momentum 0.1; eval mode uses the running
    statistics.  The affine gamma/beta pair is applied last.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, width):
        self.width = width
        self.gamma = Parameter(np.ones(width))
        self.beta = Parameter(np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.training = True
        self._cache = None

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def state(self):
        return [("running_mean", self.running_mean),
                ("running_var", self.running_var)]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.width:
            raise ValueError(f"expected width {self.width}, got {x.shape[-1]}")
        flat = _flat2(x, self.width)
        if self.training:
            if flat.shape[0] < 2:
                raise ValueError("batch norm needs at least 2 rows in train mode")
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            self.running_mean *= 1.0 - self.MOMENTUM
            self.running_mean += self.MOMENTUM * mean
            self.running_var *= 1.0 - self.MOMENTUM
            self.running_var += self.MOMENTUM * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat = (flat - mean) * inv_std
        y = xhat * self.gamma.value + self.beta.value
        self._cache = (xhat, inv_std, x.shape, self.training)
        return y.reshape(x.shape)

    def backward(self, up):
        if self._cache is None:
            raise InvalidStateError("BatchNorm.backward before forward")
        xhat, inv_std, shape, trained = self._cache
        upf = _flat2(np.asarray(up, dtype=np.float64), self.width)
        self.gamma.accumulate((upf * xhat).sum(axis=0))
        self.beta.accumulate(upf.sum(axis=0))
        if trained:
            dx = (self.gamma.value * inv_std) * (
                upf - upf.mean(axis=0) - xhat * (upf * xhat).mean(axis=0))
        else:
            dx = upf * self.gamma.value * inv_std
        return dx.reshape(shape)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(f, wrt, h=1e-5):
    """Compare analytic gradients against central finite differences.

    ``f()`` must run a deterministic forward/backward pass and return
    ``(loss, grads)`` with one gradient array per entry of ``wrt`` (the value
    arrays, perturbed in place).  Returns the maximum relative error
    |a - n| / max(1e-8, |a| + |n|) over every element.
    """
    _, analytic = f()
    analytic = [np.array(g, dtype=np.float64, copy=True) for g in analytic]
    if len(analytic) != len(wrt):
        raise ValueError("f() must return one gradient per checked array")
    worst = 0.0
    for value, grad in zip(wrt, analytic):
        flat = value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()[0]
            flat[i] = orig - h
            lo = f()[0]
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
