"""Differentiable layers with explicit forward and backward passes.

Every layer follows one cache rule, kept by the ``_Layer`` base: a layer's
``training`` attribute is true until the model sets it; a train-mode
forward caches what the backward reads, an eval-mode forward caches nothing
and clears the cache, and the backward takes the cache once, so each
backward needs a train-mode forward of its own.  The backward accumulates
parameter gradients into ``Parameter.grad`` and returns the gradient with
respect to the layer's input.  Only Conv1D's backward takes
``input_grad=False``, which skips that gradient and returns None.  Graph
layers accept a single graph signal (N, F) or a batch (B, N, F), or with
``diagonal=True`` (B, N) rows that stand for diagonal node-signal matrices,
for which their backward forms no input gradient and returns None; Linear
and BatchNorm likewise broadcast over leading batch dimensions, and Conv1D
takes (B, C, L) only.  The activation backwards take the bool sign mask
x > 0.0 of the activation's input, which is all they read.  There is no
general autodiff: the fixed two-branch topology is differentiated by hand
and validated against finite differences in the tests.

Ownership: ``relu``, ``leaky_relu``, ``relu_backward``,
``leaky_relu_backward``, ``BatchNorm.forward`` and ``BatchNorm.backward``
overwrite the array they are given and return it (BatchNorm's train-mode y
is the one new array among them, because its xc stays cached).  A caller
passes them only an array it owns and no longer reads, such as a layer's
fresh output or a fresh upstream gradient, and takes any sign mask it
keeps before the activation overwrites its input.  Every other layer
leaves its arguments as they are.  An in-place ufunc gives the bits of its
out-of-place form, so this changes no result.

The activations are (rows, width) arrays with many rows and few channels,
so the per-channel passes are written for that shape: a bias add, a
BatchNorm centring or scaling broadcasts its vector over rows of about 64
elements (``_channelwise``), and a sum over the rows is an einsum
reduction.  Both give the same bits as the plain numpy expressions.

Fast paths.  The per-epoch passes here, in ``chebnet.model`` and in
``chebnet.kernels`` are written for numpy's fast paths and keep the bits
of their plain forms; ``tests/test_fast_paths.py`` pins the rewritten ones
against those forms at the benchmark shapes.  Three rules hold throughout:

- no ``where=`` ufunc pass on activations: a masked multiply runs element
  by element, so ``leaky_relu_backward`` multiplies by a factor array
  looked up from the sign mask;
- a stacked (3-D) product with a short contraction takes its transposed
  operand as a contiguous copy (``_matmul_transposed``), faster with the
  same bits; longer contractions and 2-D products keep the view, which
  BLAS reads through its transpose flag;
- no tall flat GEMMs at sg-product shapes: a graph layer's stacked
  product is not reshaped into one (B*N, F) GEMM, because a GEMM of ~30k
  rows touches about 16 MB of OpenBLAS buffer pages that the stacked form
  never does, and the benchmark's peak RSS rises with them.
"""

import math

import numpy as np

from chebnet import kernels


class InvalidStateError(RuntimeError):
    """Raised when backward is called without a matching forward."""


def take_once(owner, name, message):
    """Return the cache ``owner.<name>`` and clear it; raise
    ``InvalidStateError(message)`` when there is none."""
    cache = getattr(owner, name)
    if cache is None:
        raise InvalidStateError(message)
    setattr(owner, name, None)
    return cache


class _Layer:
    """The cache rule of every layer (see the module docstring)."""

    training = True
    _cache = None

    def _keep(self, cache):
        self._cache = cache if self.training else None

    def _take(self):
        return take_once(self, "_cache", f"{type(self).__name__}.backward "
                                         f"without a train-mode forward")


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


# Elements per row of the full-width view that ``_channelwise`` runs over.
_ROW_ELEMENTS = 64


def _channelwise(op, a, v, out=None):
    """``op(a, v, out=out)`` for an array ``a`` of shape (..., width) and a
    per-channel vector ``v`` of shape (width,), bit for bit; returns ``out``,
    a new array when None.

    numpy runs a broadcast's inner loop over the last axis, which at the
    graph branch's narrow widths is a few elements long.  So when ``a`` and
    ``out`` are C-contiguous and r = ``_ROW_ELEMENTS`` // width is 2 or more,
    their rows are viewed r at a time as (rows // r, r * width) and ``v`` is
    tiled r times; the rows % r rows left over take the plain broadcast, as
    does everything at widths above ``_ROW_ELEMENTS`` / 2.
    """
    if out is None:
        out = np.empty_like(a)
    width = a.shape[-1]
    r = _ROW_ELEMENTS // width
    if r < 2 or not (a.flags.c_contiguous and out.flags.c_contiguous):
        return op(a, v, out=out)
    af, of = _flat2(a, width), _flat2(out, width)  # views: both contiguous
    n = af.shape[0] - af.shape[0] % r
    op(af[:n].reshape(-1, r * width), np.tile(v, r),
       out=of[:n].reshape(-1, r * width))
    op(af[n:], v, out=of[n:])
    return out


# Longest contraction at which a stacked product takes a contiguous copy
# of its transposed operand (see ``_matmul_transposed``).
_SHORT_CONTRACTION = 15


def _matmul_transposed(a, bt):
    """``a @ bt`` for a transposed view ``bt``, with the bits of that
    product.  A stacked (3-D) ``a`` with a contraction of at most
    ``_SHORT_CONTRACTION`` takes bt as a contiguous copy, which numpy's
    stacked matmul runs 2-3x faster than the view, with the same bits.  At
    longer contractions and for a 2-D ``a`` the view is kept: there BLAS
    reads it through its transpose flag, and a copy can round the last
    bits differently (seen under OpenBLAS from 16 terms on)."""
    if a.ndim > 2 and bt.shape[-2] <= _SHORT_CONTRACTION:
        bt = np.ascontiguousarray(bt)
    return a @ bt


def _column_sums(a):
    """Sums over the rows of a C-contiguous (rows, width) array, bitwise
    equal to ``a.sum(axis=0)``.  The einsum reduction is 4-5x faster at the
    graph branch's narrow widths; at width 1 it sums in another order, and
    there ``sum`` is a contiguous reduction already."""
    return np.einsum("ij->j", a) if a.shape[1] > 1 else a.sum(axis=0)


# ---------------------------------------------------------------------------
# activations


def relu(x):
    """ReLU, in place on x."""
    return np.maximum(x, 0.0, out=x)


def relu_backward(up, positive):
    """Gradient of ``relu`` from the sign mask ``positive`` = x > 0.0 of
    its input x, in place on ``up``."""
    return np.multiply(up, positive, out=up)


def leaky_relu(x, slope=0.1):
    """LeakyReLU, in place on x."""
    return leaky_relu_backward(x, x > 0.0, slope)


def leaky_relu_backward(up, positive, slope=0.1):
    """Gradient of ``leaky_relu`` from the sign mask ``positive`` = x > 0.0
    of its input x, in place on ``up``: one multiply by the factor 1.0
    where the mask is true and ``slope`` where it is false, looked up from
    the mask's bytes.  Times 1.0 leaves every value's bits as they are, so
    this equals the masked multiply by ``slope``.  LeakyReLU is x times its
    own derivative, so with ``up`` = x this is ``leaky_relu(x)``, which is
    how a caller that keeps the mask applies the activation without forming
    it twice."""
    factor = np.array([slope, 1.0]).take(positive.view(np.uint8))
    return np.multiply(up, factor, out=up)


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


def _graph_input(layer, graph, x, diagonal):
    """A graph layer's input as float64, checked.  Dense input is (N, F_in)
    or (B, N, F_in) with N the graph's node count.  With ``diagonal=True``
    it is (B, N) rows, row b standing for the node-signal matrix diag(x_b):
    node i carries the value x_b[i] as its feature i, so the input width is
    the node count."""
    x = np.asarray(x, dtype=np.float64)
    if diagonal:
        if x.ndim != 2 or x.shape[1] != layer.in_features:
            raise ValueError(f"expected (batch, {layer.in_features}) rows, "
                             f"got shape {x.shape}")
        if layer.in_features != graph.n_nodes:
            raise ValueError(f"diagonal input has {layer.in_features} "
                             f"channels but the graph has {graph.n_nodes} "
                             f"nodes")
    elif x.ndim < 2 or x.shape[-1] != layer.in_features:
        raise ValueError(f"expected (..., nodes, {layer.in_features}) input, "
                         f"got shape {x.shape}")
    elif x.shape[-2] != graph.n_nodes:
        raise ValueError(f"input has {x.shape[-2]} nodes but the graph has "
                         f"{graph.n_nodes}")
    return x


def _diagonal_apply(x, basis, w):
    """y[b, n, f] = sum_k sum_i basis[k, n, i] x[b, i] w[k, i, f], the
    filter sum_k basis[k] diag(x_b) w[k] on (B, N) rows, as one GEMM
    y = x @ M with M[i, n, f] = sum_k basis[k, n, i] w[k, i, f]."""
    n, f = basis.shape[1], w.shape[2]
    m = basis.transpose(2, 1, 0) @ w.transpose(1, 0, 2)
    return (x @ m.reshape(n, n * f)).reshape(x.shape[0], n, f)


def _diagonal_weight_grad(basis, x, up):
    """Gradient of ``_diagonal_apply`` with respect to w:
    dw[k, i, f] = sum_n basis[k, n, i] G[i, n, f], G = x^T up."""
    b, n, f = up.shape
    g = (x.T @ up.reshape(b, n * f)).reshape(n, n, f)
    return (basis.transpose(2, 0, 1) @ g).transpose(1, 0, 2)


class ChebConv(_Layer):
    """Graph convolution by a K-order Chebyshev polynomial of the scaled
    Laplacian: y = sum_k T_k(Ls) x theta_k + bias.

    Both input kinds filter with the basis, the K matrices T_k(Ls) of size
    N x N, which ``GraphContext.cheb_basis`` builds once per graph and
    order.  Dense input (N, F_in) or (B, N, F_in) is projected and then
    propagated at the output width,
    y = x theta_0 + sum_{k>=1} T_k(Ls) (x theta_k), one term at a time.
    The backward reads u_k = T_k(Ls) up (u_0 = up) and adds each
    term's dtheta_k = x^T u_k and share u_k theta_k^T of dx as it comes
    (T_k(Ls) is symmetric).  The cache holds x and the basis.

    ``diagonal=True`` takes (B, N) rows that stand for diag(x_b) (see
    ``_graph_input``): then y = x @ M with
    M[i, n, f] = sum_k T_k(Ls)[n, i] theta_k[i, f], and no (B, N, N) array
    is formed.  Its backward returns no input gradient.
    """

    def __init__(self, in_features, out_features, order=1, *, rng):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.in_features = in_features
        self.out_features = out_features
        self.order = order
        self.weight = Parameter(
            glorot_uniform(rng, (order, in_features, out_features),
                           order * in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, graph, x, *, diagonal=False):
        x = _graph_input(self, graph, x, diagonal)
        w = self.weight.value
        basis = graph.cheb_basis(self.order)
        if diagonal:
            y = _diagonal_apply(x, basis, w)
        else:
            y = x @ w[0]
            for k in range(1, self.order):
                y += basis[k] @ (x @ w[k])
        _channelwise(np.add, y, self.bias.value, out=y)
        self._keep((x, basis, diagonal))
        return y

    def backward(self, up):
        x, basis, diagonal = self._take()
        up = np.asarray(up, dtype=np.float64)
        self.bias.accumulate(_column_sums(_flat2(up, self.out_features)))
        if diagonal:
            self.weight.accumulate(_diagonal_weight_grad(basis, x, up))
            return None
        w = self.weight.value
        xf = _flat2(x, self.in_features)
        dw = np.empty_like(w)
        dw[0] = xf.T @ _flat2(up, self.out_features)
        dx = _matmul_transposed(up, w[0].T)
        for k in range(1, self.order):
            u = basis[k] @ up
            dw[k] = xf.T @ _flat2(u, self.out_features)
            dx += _matmul_transposed(u, w[k].T)
        self.weight.accumulate(dw)
        return dx


class GCNConv(_Layer):
    """Symmetric-normalized graph convolution with added self-loops:
    y = D^-1/2 (W + I) D^-1/2 x theta + bias.

    ``diagonal=True`` takes (B, N) rows that stand for diag(x_b) (see
    ``_graph_input``) and computes y = x @ M with
    M[i, n, f] = P[n, i] theta[i, f], P the propagation matrix; its backward
    returns no input gradient.
    """

    def __init__(self, in_features, out_features, *, rng):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, (in_features, out_features),
                           in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    @staticmethod
    def propagation(adjacency):
        a = adjacency + np.eye(adjacency.shape[0])
        dinv = 1.0 / np.sqrt(a.sum(axis=1))  # self-loop keeps degrees > 0
        return dinv[:, None] * a * dinv[None, :]

    def forward(self, graph, x, *, diagonal=False):
        x = _graph_input(self, graph, x, diagonal)
        prop = self.propagation(graph.adjacency)
        if diagonal:
            xin = x
            y = _diagonal_apply(x, prop[None], self.weight.value[None])
        else:
            xin = prop @ x
            y = xin @ self.weight.value
        _channelwise(np.add, y, self.bias.value, out=y)
        self._keep((prop, xin, diagonal))
        return y

    def backward(self, up):
        prop, xin, diagonal = self._take()
        up = np.asarray(up, dtype=np.float64)
        upf = _flat2(up, self.out_features)
        self.bias.accumulate(_column_sums(upf))
        if diagonal:
            self.weight.accumulate(
                _diagonal_weight_grad(prop[None], xin, up)[0])
            return None
        self.weight.accumulate(_flat2(xin, self.in_features).T @ upf)
        # prop is symmetric
        return prop @ _matmul_transposed(up, self.weight.value.T)


class GATLayer(_Layer):
    """Single-head graph attention over each node's neighborhood: the node
    itself and its nonzero-adjacency neighbors.

    Attention logit for edge (u, v) is leaky(a . [psi x_u || psi x_v]) with
    slope ``LOGIT_SLOPE``, softmax-normalized over each node's neighborhood;
    aggregation is the attention-weighted sum followed by a leaky activation
    with slope ``ACTIVATION_SLOPE``.

    ``diagonal=True`` takes (B, N) rows that stand for diag(x_b) (see
    ``_graph_input``), whose transform is h = x[..., None] * psi; its
    backward returns no input gradient.  The cache keeps the leaky
    activations' sign masks, not their inputs.
    """

    LOGIT_SLOPE = 0.2
    ACTIVATION_SLOPE = 0.2

    def __init__(self, in_features, out_features, *, rng):
        self.in_features = in_features
        self.out_features = out_features
        self.transform = Parameter(
            glorot_uniform(rng, (in_features, out_features),
                           in_features, out_features))
        self.attention = Parameter(
            glorot_uniform(rng, (2 * out_features,), 2 * out_features, 1))

    def parameters(self):
        return [("transform", self.transform), ("attention", self.attention)]

    def forward(self, graph, x, *, diagonal=False):
        x = _graph_input(self, graph, x, diagonal)
        if diagonal:
            h = x[..., None] * self.transform.value
        else:
            h = x @ self.transform.value
        mask = (graph.adjacency != 0.0) | np.eye(graph.n_nodes, dtype=bool)
        a_src = self.attention.value[: self.out_features]
        a_dst = self.attention.value[self.out_features:]
        s = h @ a_src
        d = h @ a_dst
        logits = s[..., :, None] + d[..., None, :]
        logits_positive = logits > 0.0
        act = leaky_relu_backward(logits, logits_positive, self.LOGIT_SLOPE)
        masked = np.where(mask, act, -np.inf)
        masked -= masked.max(axis=-1, keepdims=True)
        expd = np.exp(masked)
        alpha = expd / expd.sum(axis=-1, keepdims=True)
        agg = alpha @ h
        agg_positive = agg > 0.0
        self._keep({"x": x, "diagonal": diagonal, "h": h,
                    "logits_positive": logits_positive, "alpha": alpha,
                    "agg_positive": agg_positive})
        return leaky_relu_backward(agg, agg_positive, self.ACTIVATION_SLOPE)

    def backward(self, up):
        c = self._take()
        # the activation backward works in place, and ``up`` is the caller's
        dagg = leaky_relu_backward(np.array(up, dtype=np.float64),
                                   c["agg_positive"], self.ACTIVATION_SLOPE)
        alpha = c["alpha"]
        h = c["h"]
        dalpha = _matmul_transposed(dagg, h.swapaxes(-1, -2))
        # alpha^T stays a view: a contiguous copy of the (B, N, N) array
        # measured slower
        dh = alpha.swapaxes(-1, -2) @ dagg
        # softmax backward per neighborhood row (off-neighborhood alpha is 0)
        dact = alpha * (dalpha - (alpha * dalpha).sum(axis=-1, keepdims=True))
        dlogits = leaky_relu_backward(dact, c["logits_positive"],
                                      self.LOGIT_SLOPE)
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
        if c["diagonal"]:
            self.transform.accumulate(np.einsum("bi,bif->if", c["x"], dh))
            return None
        self.transform.accumulate(
            _flat2(c["x"], self.in_features).T @ _flat2(dh, self.out_features))
        return _matmul_transposed(dh, self.transform.value.T)


# ---------------------------------------------------------------------------
# non-graph layers


class Conv1D(_Layer):
    """Valid 1-D cross-correlation, kernel length 5, stride 1, over
    (batch, channels, length) input.

    The activation is applied separately by the model (leaky_relu 0.1).
    Forward and backward call the numpy kernels in ``chebnet.kernels``.
    """

    KERNEL_LEN = 5

    def __init__(self, in_channels, n_kernels, *, rng):
        self.in_channels = in_channels
        self.n_kernels = n_kernels
        fan_in = in_channels * self.KERNEL_LEN
        fan_out = n_kernels * self.KERNEL_LEN
        self.kernels = Parameter(
            glorot_uniform(rng, (n_kernels, in_channels, self.KERNEL_LEN),
                           fan_in, fan_out))
        self.bias = Parameter(np.zeros(n_kernels))

    def parameters(self):
        return [("kernels", self.kernels), ("bias", self.bias)]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(f"expected (batch, {self.in_channels}, length) "
                             f"input, got shape {x.shape}")
        if x.shape[2] < self.KERNEL_LEN:
            raise ValueError(
                f"sequence length {x.shape[2]} is shorter than the kernel "
                f"({self.KERNEL_LEN})")
        y = kernels.conv1d_forward(x, self.kernels.value, self.bias.value)
        self._keep(x)
        return y

    def backward(self, up, *, input_grad=True):
        dx, dw, db = kernels.conv1d_backward(
            self._take(), self.kernels.value,
            np.asarray(up, dtype=np.float64), input_grad=input_grad)
        self.kernels.accumulate(dw)
        self.bias.accumulate(db)
        return dx


class Linear(_Layer):
    """Affine map y = x W + b over the last axis."""

    def __init__(self, in_features, out_features, *, rng):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, (in_features, out_features),
                           in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[-1]}")
        self._keep(x)
        y = x @ self.weight.value
        return _channelwise(np.add, y, self.bias.value, out=y)

    def backward(self, up):
        x = self._take()
        up = np.asarray(up, dtype=np.float64)
        upf = _flat2(up, self.out_features)
        self.weight.accumulate(_flat2(x, self.in_features).T @ upf)
        self.bias.accumulate(_column_sums(upf))
        return _matmul_transposed(up, self.weight.value.T)


class BatchNorm(_Layer):
    """Per-channel batch normalization over all leading axes.

    Train mode normalizes with (biased) batch statistics and folds them into
    the running estimates with momentum 0.1; eval mode uses the running
    statistics.  The input is centred once, xc = x - mean, and normalized
    with one per-channel scale, y = xc * (gamma * inv_std) + beta.  Only a
    train-mode forward caches for backward, and its cache is xc (not the
    normalized xhat = xc * inv_std), from which the backward works with the
    same scale.  Every per-channel statistic is one einsum reduction over
    the rows, which builds no (rows, width) temporary.

    Both passes overwrite the array they are given (see the module
    docstring): a train-mode forward centres x in place and caches it as
    xc, an eval-mode forward returns y in x's memory, and the backward
    forms dx in ``up``'s.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, width):
        self.width = width
        self.gamma = Parameter(np.ones(width))
        self.beta = Parameter(np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

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
            rows = flat.shape[0]
            mean = np.einsum("ij->j", flat) / rows
            xc = _channelwise(np.subtract, flat, mean, out=flat)
            var = np.einsum("ij,ij->j", xc, xc) / rows
            self.running_mean *= 1.0 - self.MOMENTUM
            self.running_mean += self.MOMENTUM * mean
            self.running_var *= 1.0 - self.MOMENTUM
            self.running_var += self.MOMENTUM * var
        else:
            xc = _channelwise(np.subtract, flat, self.running_mean, out=flat)
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        scale = self.gamma.value * inv_std
        self._keep((xc, inv_std, x.shape))
        # eval mode keeps no xc, so y takes its memory, the input's
        y = _channelwise(np.multiply, xc, scale,
                         out=None if self.training else xc)
        _channelwise(np.add, y, self.beta.value, out=y)
        return y.reshape(x.shape)

    def backward(self, up):
        xc, inv_std, shape = self._take()
        upf = _flat2(np.asarray(up, dtype=np.float64), self.width)
        rows = upf.shape[0]
        # with xhat = xc * inv_std: dgamma = sum(up * xhat) and
        # dx = gamma * inv_std * (up - mean(up) - xhat * mean(up * xhat))
        up_sum = np.einsum("ij->j", upf)
        up_xc = np.einsum("ij,ij->j", upf, xc)
        self.gamma.accumulate(up_xc * inv_std)
        self.beta.accumulate(up_sum)
        dx = _channelwise(np.subtract, upf, up_sum / rows, out=upf)
        # xc is no longer cached: reuse it
        _channelwise(np.multiply, xc, np.square(inv_std) * up_xc / rows,
                     out=xc)
        dx -= xc
        _channelwise(np.multiply, dx, self.gamma.value * inv_std, out=dx)
        return dx.reshape(shape)
