"""Differentiable layers with explicit forward and backward passes.

Every layer follows one cache rule, kept by the ``_Layer`` base: a layer's
``training`` attribute is true until the model sets it; a train-mode
forward caches what the backward reads, an eval-mode forward caches nothing
and clears the cache, and the backward takes the cache once, so each
backward needs a train-mode forward of its own.  The backward accumulates
parameter gradients into ``Parameter.grad``.  Linear's and Conv1D's return
the gradient with respect to the layer's input; a graph layer's returns
None and hands that gradient to the BatchNorm before it (see Hand-over),
and takes the keyword ``x`` as well (see Inputs handed back).  The graph
branch's two heads in ``chebnet.model``, ``NodeReadout`` and ``EdgeHead``,
are layers under this rule too: ``forward(h, edges)`` returns
log-probabilities and ``backward(dout)`` the gradient with respect to h;
EdgeHead's cache and its two Linears' caches are each taken once.  Only
Conv1D's backward takes ``input_grad=False``, which skips that gradient
and returns None.  Graph layers accept a single graph signal (N, F) or a
batch (B, N, F), or with ``diagonal=True`` (B, N) rows that stand for
diagonal node-signal matrices, for which their backward forms no input
gradient; Linear and BatchNorm likewise broadcast over leading batch
dimensions, and Conv1D takes (B, C, L) only.  The activation backwards
take the bool sign mask x > 0.0 of the activation's input, which is all
they read.  There is no general autodiff: the fixed two-branch topology is
differentiated by hand and validated against finite differences in the
tests.

Ownership: ``relu``, ``relu_backward``, ``leaky_relu_backward`` and
``BatchNorm.forward`` in train mode overwrite the array they are given and
return it (the train-mode BatchNorm returns its input centred in place,
which it keeps as its cache, and an eval-mode one returns its input
untouched).  ``BatchNorm.backward`` overwrites the upstream gradient it is
given and writes its result over the rows of its own cache, which it
returns.  A caller passes them only an array it owns and no longer reads,
such as a layer's fresh output or a fresh upstream gradient, and takes any
sign mask it keeps before the activation overwrites its input.  Every
other layer leaves its arguments as they are.  An in-place ufunc gives the
bits of its out-of-place form, so this changes no result.

Folded input: a BatchNorm forms no output.  Its forward returns
(x, scale, shift), which stands for y = x * scale + shift per channel,
and every graph layer takes a hidden input in that form, as its dense
input x and the keywords ``scale`` and ``shift``.  It folds the map into
its own weights, as inference engines fold BatchNorm into the next layer:
it projects x with scale o theta (``_folded``) and adds the share of the
shift as a per-(node, channel) constant in its bias add
(``_add_bias``).  Its backward forms the weight gradient
y^T g = scale o (x^T g) + shift (x) colsum(g) from the same x
(``_input_weight_grad``) and forms dy = dL/dy with the unfolded weights.
``apply_affine`` forms y where it is needed as an array: after the last
block, and for ``layer_activations``.

Hand-over: a hidden graph layer's x is the previous BatchNorm's cache xc,
and the dy it forms is what that BatchNorm's backward reads: first two
sums over all rows, colsum(dy) and colsum(dy * xc), then dy row by row.
So a hidden layer's backward is handed that BatchNorm and its block's
ReLU sign mask, as the keywords ``bn`` and ``positive``, and makes two
passes over its sample blocks (``_sample_blocks``).  Pass 1 forms the
weight and bias gradients from x^T u_k and colsum(u_k), and from the same
products the two sums: with dy = sum_k u_k theta_k^T,
colsum(dy) = sum_k theta_k colsum(u_k) and
colsum(dy * x) = sum_k rowsum(theta_k o x^T u_k) (``_input_grad_sums``;
GCNConv's u_0 is P up, GATLayer's one u is its dh).  It hands them to
``BatchNorm.take_sums``, which accumulates dgamma and dbeta and fixes its
per-channel constants m1, c2 and s.  Pass 2 forms each block's rows of dy
(ChebConv and GCNConv form u_k = ops[k] up[rows] again, which costs
nothing for operator 0 = I; GATLayer reads them from its dh), and
``BatchNorm.backward`` writes ((dy - m1) - xc c2) s, masked by the sign
mask, over those rows of xc (``_hand_over``).  That is dL/dz of the
previous block, which its layer's backward reads next: it lives in memory
the forward already holds, and no hidden backward allocates an
input-sized array.  The last BatchNorm, which feeds the head, is handed
the head's whole gradient and no sums, and forms them itself; the
formula is the same.  A layer with no block before it, the diagonal
first layer or an edge task's dense first layer, is handed nothing and
forms no input gradient.  Every per-element operation runs in the order
of the whole-array form, so dL/dz keeps its bits; the sums are taken in
another order than passes over dy would take them, so dgamma and dbeta
agree with those to round-off.

The diagonal first layer's bias rides in its one GEMM: [x 1] @ [M; bias]
(``_diagonal_apply``), and its gradient in the ones row of the weight
gradient's GEMM [x 1]^T up (``_diagonal_weight_grad``), so neither pass
over its (B, N, F) output or upstream gradient is made.

Inputs handed back: no graph layer keeps its input from forward to
backward.  Each gets it back as the backward's keyword ``x``; the model
hands a hidden layer the previous BatchNorm's cache xc, which that
BatchNorm keeps anyway, so between forward and backward each activation
is held once and no hidden input is formed at all.  Pass 1 only reads x;
pass 2 leaves dL/dz in it, through the BatchNorm, once pass 1 has read
its last row.  A first layer's x, the caller's features, is only read.
ChebConv, and with it GCNConv, an order-1 ChebConv whose one operator is
P, runs its forward and both backward passes as loops over sample blocks
of about ``BLOCK_BYTES``.  The forward adds each block's terms
ops[k] (x theta_k).  Pass 1 forms each block's u_k = ops[k] up[rows]
(up[rows] itself when ops[0] is the identity) and adds x[rows]^T u_k into
dtheta_k and colsum(u_k) into the k-th sum; pass 2 forms them again and
adds u_k theta_k^T into the block's dy.  So above what was live before
the call a ChebConv forward allocates its output and two blocks, and a
backward at most three blocks, at any K: the whole-batch backward took
2|x| + |up|, and one that formed a new dx |x| more than the blocks (see
README, Memory).  Each sample's stacked GEMMs and the order of the adds
are those of the whole-batch form, so y and dL/dz keep their bits;
dtheta and the sums are sums over the blocks, which agree with the
whole-batch products to round-off.
Linear keeps its cached input, and Conv1D hands its cache to
``kernels.conv1d_backward``.

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
    """Glorot-uniform initial weights drawn from ``rng``; zeros when rng
    is None, which is only for a model whose weights are restored next
    (a checkpoint's), so that restoring draws nothing and never imports
    ``numpy.random``."""
    if rng is None:
        return np.zeros(shape)
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


def _matmul_transposed(a, bt, out=None):
    """``a @ bt`` for a transposed view ``bt``, with the bits of that
    product, written to ``out`` when given.  A stacked (3-D) ``a`` with a
    contraction of at most ``_SHORT_CONTRACTION`` takes bt as a contiguous
    copy, which numpy's stacked matmul runs 2-3x faster than the view, with
    the same bits.  At longer contractions and for a 2-D ``a`` the view is
    kept: there BLAS reads it through its transpose flag, and a copy can
    round the last bits differently (seen under OpenBLAS from 16 terms
    on)."""
    if a.ndim > 2 and bt.shape[-2] <= _SHORT_CONTRACTION:
        bt = np.ascontiguousarray(bt)
    return np.matmul(a, bt, out=out)


# Byte budget of one sample block of a graph layer's dense forward or input
# gradient (see ``_sample_blocks``).
BLOCK_BYTES = 2 << 20


def _row_blocks(n_rows, row_bytes, budget):
    """Consecutive slices that split ``n_rows`` rows of ``row_bytes`` bytes
    each into near-equal blocks, the first n_rows % blocks of them one row
    longer (as ``np.array_split`` cuts): as few blocks as keep each within
    ``budget`` bytes, but never more than n_rows // 2, so no block holds
    one row when there are two or more.  Every row block in the package is
    cut by this rule, with ``row_bytes`` taken from the array's itemsize.

    A product of one row takes another BLAS path than one of two or more
    rows and can round differently, while a stacked product is one GEMM
    per sample; so a product taken block by block keeps the bits of the
    whole one.  When the budget holds fewer than three rows, a block of
    two or three rows may exceed it."""
    per_block = max(1, budget // row_bytes)
    n_blocks = max(1, min(-(-n_rows // per_block), n_rows // 2))
    size, longer = divmod(n_rows, n_blocks)
    starts = [i * size + min(i, longer) for i in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def _sample_blocks(a, width):
    """``_row_blocks`` of the leading axis of a stacked (B, ..., N, F) array
    ``a`` within ``BLOCK_BYTES``, a sample's bytes taken from a's itemsize
    and its (..., N) rows at ``width`` columns; a 2-D (N, F) array, which
    has no sample axis, is one block."""
    return [slice(None)] if a.ndim < 3 else _row_blocks(
        len(a), a.itemsize * math.prod(a.shape[1:-1]) * width, BLOCK_BYTES)


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


def leaky_relu_backward(up, positive, slope=0.1):
    """Gradient of LeakyReLU from the sign mask ``positive`` = x > 0.0
    of its input x, in place on ``up``: one multiply by the factor 1.0
    where the mask is true and ``slope`` where it is false, looked up from
    the mask's bytes.  Times 1.0 leaves every value's bits as they are, so
    this equals the masked multiply by ``slope``.  LeakyReLU is x times its
    own derivative, so with ``up`` = x this is the activation itself, which
    is how every caller applies it: from the mask it keeps, without forming
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


def _graph_input(layer, graph, x, diagonal, scale, shift):
    """A graph layer's input as float64, checked.  Dense input is (N, F_in)
    or (B, N, F_in) with N the graph's node count.  With ``diagonal=True``
    it is (B, N) rows, row b standing for the node-signal matrix diag(x_b):
    node i carries the value x_b[i] as its feature i, so the input width is
    the node count.  ``scale`` and ``shift``, given together or not at all,
    make dense x stand for the input y = x * scale + shift (see Folded
    input in the module docstring)."""
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
    if (scale is None) != (shift is None) or (scale is not None and (
            diagonal or np.shape(scale) != (layer.in_features,)
            or np.shape(shift) != (layer.in_features,))):
        raise ValueError(f"scale and shift go together, each of shape "
                         f"({layer.in_features},), and only with dense input")
    return x


def _backward_input(x, shape):
    """The input a graph layer's backward is handed back, checked against
    the ``shape`` its forward saw; the backward only reads it."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != shape:
        raise ValueError(f"backward input has shape {x.shape}, the forward's "
                         f"had {shape}")
    return x


def _folded(w, scale):
    """The weight that takes x when the input is y = x * scale + shift:
    ``scale`` folded into w's input rows (w itself without a scale).  w is
    (F_in, F_out) or a (K, F_in, F_out) stack."""
    return w if scale is None else scale[:, None] * w


def _add_bias(y, bias, shift, ops, w):
    """y += bias in place, after a propagated layer's products.  When the
    input is x * scale + shift, the shift adds sum_k (ops[k] 1)(shift w[k])^T
    through the (K, N, N) operators ``ops`` and (K, F_in, F_out) weights
    ``w``: that (N, F_out) constant joins the bias and is added as one
    vector over y's (N * F_out)-wide rows."""
    if shift is not None:
        bias = ops.sum(axis=-1).T @ (shift @ w) + bias
    flat = _flat2(y, bias.size)
    _channelwise(np.add, flat, bias.reshape(-1), out=flat)
    return y


def _input_weight_grad(xtg, scale, shift, g_sum):
    """y^T g for the input rows y = x * scale + shift, from xtg = x^T g and
    g_sum, the column sums of g: scale o xtg + shift (x) g_sum (xtg itself
    without a scale)."""
    if scale is None:
        return xtg
    dw = scale[:, None] * xtg
    dw += np.outer(shift, g_sum)
    return dw


def _input_grad_sums(w, xtg, g_sums):
    """The column sums of dx = sum_k u_k w[k]^T and of dx * x over the
    rows, from the products the weight gradient takes, xtg[k] = x^T u_k,
    and the column sums g_sums[k] of u_k: sum_k w[k] g_sums[k] and
    sum_k rowsum(w[k] o xtg[k]).  They are the two sums BatchNorm's
    backward reads when x is its cache (see Hand-over)."""
    dx_sum = sum(wk @ gk for wk, gk in zip(w, g_sums))
    dx_x = sum(np.einsum("if,if->i", wk, tk) for wk, tk in zip(w, xtg))
    return dx_sum, dx_x


def _hand_over(bn, positive, w, xtg, g_sums, blocks, dx_rows):
    """Hand a hidden graph layer's input gradient dx = sum_k u_k w[k]^T to
    ``bn``, the BatchNorm whose cache is the layer's x, with its block's
    ReLU sign mask ``positive`` (see Hand-over): first the two sums, from
    the weight gradient's products xtg and the column sums g_sums of the
    u_k, then ``dx_rows(rows)``, dx's rows, for each sample block."""
    bn.take_sums(*_input_grad_sums(w, xtg, g_sums))
    for rows in blocks:
        bn.backward(dx_rows(rows), rows=rows, positive=positive)


def _with_ones(x):
    """(B, N) rows with a column of ones appended: (B, N + 1)."""
    xa = np.empty((x.shape[0], x.shape[1] + 1))
    xa[:, :-1] = x
    xa[:, -1] = 1.0
    return xa


def _diagonal_apply(x, basis, w, bias):
    """y[b, n, f] = sum_k sum_i basis[k, n, i] x[b, i] w[k, i, f] + bias[f],
    the filter sum_k basis[k] diag(x_b) w[k] plus the bias on (B, N) rows,
    as one GEMM y = [x 1] @ [M; bias] with
    M[i, n, f] = sum_k basis[k, n, i] w[k, i, f] and the bias tiled over
    the nodes in the ones column's row, so no pass over y adds it."""
    n, f = basis.shape[1], w.shape[2]
    m = np.empty((n + 1, n * f))
    np.matmul(basis.transpose(2, 1, 0), w.transpose(1, 0, 2),
              out=m[:n].reshape(n, n, f))
    m[n] = np.tile(bias, n)
    return (_with_ones(x) @ m).reshape(x.shape[0], n, f)


def _diagonal_weight_grad(basis, x, up):
    """Gradients of ``_diagonal_apply`` with respect to w and the bias:
    dw[k, i, f] = sum_n basis[k, n, i] G[i, n, f] with G = x^T up, and
    dbias[f] = sum_n H[n, f] with H the ones column's row of the same
    GEMM [x 1]^T up, so no pass over up sums it."""
    b, n, f = up.shape
    g = (_with_ones(x).T @ up.reshape(b, n * f)).reshape(n + 1, n, f)
    dw = (basis.transpose(2, 0, 1) @ g[:n]).transpose(1, 0, 2)
    return dw, g[n].sum(axis=0)


class ChebConv(_Layer):
    """Graph convolution by a K-order Chebyshev polynomial of the scaled
    Laplacian: y = sum_k T_k(Ls) x theta_k + bias.

    The filter reads its K operators ops[k], each N x N and symmetric, from
    one place, ``_operators``: here the basis T_k(Ls), which
    ``GraphContext.cheb_basis`` builds once per graph and order.  Its
    operator 0 is T_0 = I, which no product applies (``_identity_first``).
    Dense input (N, F_in) or (B, N, F_in) is projected and then propagated
    at the output width, y = sum_k ops[k] (x theta_k), in sample blocks.
    The backward, handed x back, runs the same blocks: each forms its rows
    of every u_k = ops[k] up (u_0 = up for the identity) and adds x^T u_k
    into dtheta_k.  Handed the BatchNorm before it and that block's sign
    mask (``bn`` and ``positive``), it then hands dx = sum_k u_k theta_k^T
    to it, one block of rows at a time, after the sums that BatchNorm
    reads (see Hand-over; the module docstring gives the cost).  The cache
    holds the operators, x's shape and the input's scale and shift, not x.

    Folded input x * scale + shift projects with scale o theta_k and adds
    sum_k (ops[k] 1)(shift theta_k)^T with the bias (``_add_bias``).

    ``diagonal=True`` takes (B, N) rows that stand for diag(x_b) (see
    ``_graph_input``): then y = x @ M + bias with
    M[i, n, f] = sum_k ops[k][n, i] theta_k[i, f], one GEMM that adds the
    bias too, and no (B, N, N) array is formed.  Its backward forms no
    input gradient.
    """

    # operator 0 is T_0 = I, which no product applies
    _identity_first = True

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

    def _operators(self, graph):
        """The (K, N, N) stack of the filter's operators."""
        return graph.cheb_basis(self.order)

    def _theta(self):
        """The weight as a (K, F_in, F_out) stack, a view."""
        return self.weight.value.reshape(self.order, self.in_features,
                                         self.out_features)

    def forward(self, graph, x, *, diagonal=False, scale=None, shift=None):
        x = _graph_input(self, graph, x, diagonal, scale, shift)
        theta = self._theta()
        w = _folded(theta, scale)
        ops = self._operators(graph)
        if diagonal:
            y = _diagonal_apply(x, ops, w, self.bias.value)
        else:
            y = np.empty(x.shape[:-1] + (self.out_features,))
            for rows in _sample_blocks(y, self.out_features):
                d = np.matmul(x[rows], w[0], out=y[rows])
                if not self._identity_first:
                    d[...] = ops[0] @ d
                for k in range(1, self.order):
                    d += ops[k] @ (x[rows] @ w[k])
            _add_bias(y, self.bias.value, shift, ops, theta)
        self._keep((ops, diagonal, x.shape, scale, shift))
        return y

    def _propagated(self, ops, up):
        """Each u_k = ops[k] up of a block ``up``, in turn: up itself when
        operator 0 is the identity."""
        for k in range(self.order):
            yield up if k == 0 and self._identity_first else ops[k] @ up

    def _input_grad(self, ops, w, up):
        """dx = sum_k u_k w[k]^T of a block ``up``."""
        for k, u in enumerate(self._propagated(ops, up)):
            if k == 0:
                dx = _matmul_transposed(u, w[0].T)
            else:
                dx += _matmul_transposed(u, w[k].T)
        return dx

    def backward(self, up, *, x, bn=None, positive=None):
        ops, diagonal, shape, scale, shift = self._take()
        x = _backward_input(x, shape)
        up = np.asarray(up, dtype=np.float64)
        if diagonal:
            dw, dbias = _diagonal_weight_grad(ops, x, up)
            self.weight.accumulate(dw.reshape(self.weight.shape))
            self.bias.accumulate(dbias)
            return None
        self.bias.accumulate(_column_sums(_flat2(up, self.out_features)))
        w = self._theta()
        xtg, g_sums = np.zeros(w.shape), np.zeros((self.order, w.shape[2]))
        # a block's rows of up and of dx: N nodes at the wider of the widths
        blocks = _sample_blocks(x, max(w.shape[1:]))
        for rows in blocks:
            xf = _flat2(x[rows], self.in_features)
            for k, u in enumerate(self._propagated(ops, up[rows])):
                uf = _flat2(u, self.out_features)
                xtg[k] += xf.T @ uf
                g_sums[k] += _column_sums(uf)
        self.weight.accumulate(np.stack([
            _input_weight_grad(t, scale, shift, g)
            for t, g in zip(xtg, g_sums)]).reshape(self.weight.shape))
        if bn is not None:
            _hand_over(bn, positive, w, xtg, g_sums, blocks,
                       lambda rows: self._input_grad(ops, w, up[rows]))
        return None


class GCNConv(ChebConv):
    """Kipf & Welling's graph convolution, the first-order ChebNet with
    the renormalized operator in place of the basis: y = P (x theta) + bias
    with P = D^-1/2 (W + I) D^-1/2, the propagation matrix, which
    ``GraphContext.propagation`` builds once per graph.  It is a ChebConv
    of order 1 whose one operator is P in place of T_0 = I, so its
    forward and backward are ChebConv's: dtheta = x^T (P up) and
    dx = (P up) theta^T, with the same folded input, diagonal first layer,
    hand-over, cache and sample blocks.  Its weight is one (F_in, F_out)
    theta, drawn as an order-1 ChebConv draws its (1, F_in, F_out) stack.
    """

    _identity_first = False

    def __init__(self, in_features, out_features, *, rng):
        super().__init__(in_features, out_features, rng=rng)
        self.weight = Parameter(self.weight.value[0])

    def _operators(self, graph):
        return graph.propagation()[None]


class GATLayer(_Layer):
    """Single-head graph attention over each node's neighborhood: the node
    itself and its nonzero-adjacency neighbors, a mask that
    ``GraphContext.neighborhood`` builds once per graph.

    Attention logit for edge (u, v) is leaky(a . [psi x_u || psi x_v]) with
    slope ``LOGIT_SLOPE``, softmax-normalized over each node's neighborhood;
    aggregation is the attention-weighted sum followed by a leaky activation
    with slope ``ACTIVATION_SLOPE``.

    Folded input x * scale + shift transforms with scale o psi and adds
    shift psi to every node's h.

    ``diagonal=True`` takes (B, N) rows that stand for diag(x_b) (see
    ``_graph_input``), whose transform is h = x[..., None] * psi; its
    backward forms no input gradient.  The cache keeps the leaky
    activations' sign masks, not their inputs, and not x, which the
    backward is handed back.  Handed the BatchNorm before it, the backward
    hands it the sums of dx = dh psi^T, from x^T dh and colsum(dh), and
    then dx one sample block of dh at a time (see Hand-over).
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

    def forward(self, graph, x, *, diagonal=False, scale=None, shift=None):
        x = _graph_input(self, graph, x, diagonal, scale, shift)
        if diagonal:
            h = x[..., None] * self.transform.value
        else:
            h = x @ _folded(self.transform.value, scale)
            if shift is not None:
                _channelwise(np.add, h, shift @ self.transform.value, out=h)
        a_src = self.attention.value[: self.out_features]
        a_dst = self.attention.value[self.out_features:]
        s = h @ a_src
        d = h @ a_dst
        logits = s[..., :, None] + d[..., None, :]
        logits_positive = logits > 0.0
        act = leaky_relu_backward(logits, logits_positive, self.LOGIT_SLOPE)
        masked = np.where(graph.neighborhood(), act, -np.inf)
        masked -= masked.max(axis=-1, keepdims=True)
        expd = np.exp(masked)
        alpha = expd / expd.sum(axis=-1, keepdims=True)
        agg = alpha @ h
        agg_positive = agg > 0.0
        self._keep({"shape": x.shape, "diagonal": diagonal, "h": h,
                    "logits_positive": logits_positive, "alpha": alpha,
                    "agg_positive": agg_positive, "scale": scale,
                    "shift": shift})
        return leaky_relu_backward(agg, agg_positive, self.ACTIVATION_SLOPE)

    def backward(self, up, *, x, bn=None, positive=None):
        c = self._take()
        x = _backward_input(x, c["shape"])
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
            self.transform.accumulate(np.einsum("bi,bif->if", x, dh))
            return None
        psi = self.transform.value
        dhf = _flat2(dh, self.out_features)
        xtg = _flat2(x, self.in_features).T @ dhf
        g_sum = _column_sums(dhf)
        self.transform.accumulate(_input_weight_grad(xtg, c["scale"],
                                                     c["shift"], g_sum))
        if bn is not None:
            blocks = _sample_blocks(x, max(self.in_features,
                                           self.out_features))
            _hand_over(bn, positive, [psi], [xtg], [g_sum], blocks,
                       lambda rows: _matmul_transposed(dh[rows], psi.T))
        return None


# ---------------------------------------------------------------------------
# non-graph layers


class Conv1D(_Layer):
    """Valid 1-D cross-correlation, kernel length 5, stride 1, over
    (batch, channels, length) input.

    The activation is applied separately by the model (LeakyReLU, slope 0.1).
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


def apply_affine(x, scale, shift, out=None):
    """y = x * scale + shift over the last axis, in ``out`` when given: the
    output a BatchNorm hands over as (x, scale, shift), formed."""
    y = _channelwise(np.multiply, x, scale, out=out)
    return _channelwise(np.add, y, shift, out=y)


class BatchNorm(_Layer):
    """Per-channel batch normalization over all leading axes.

    Train mode normalizes with (biased) batch statistics and folds them into
    the running estimates with momentum 0.1; eval mode uses the running
    statistics.  The forward forms no output: it returns (x', scale,
    shift), which stands for y = x' * scale + shift, for the next graph
    layer to fold into its weights, or for ``apply_affine`` to form.  In
    train mode x' is the input centred once, xc = x - mean, and the cache
    for the backward, with scale = gamma * inv_std and shift = beta; in
    eval mode x' is the input itself, with scale = gamma * inv_std and
    shift = beta - running_mean * scale, and the forward makes no pass
    over it.  Every per-channel statistic is one einsum reduction over the
    rows, which builds no (rows, width) temporary.

    The backward comes in two steps (see Hand-over in the module
    docstring).  ``take_sums`` is handed colsum(up) and colsum(up * xc)
    over every row of the upstream gradient up, accumulates dgamma and
    dbeta, and fixes the per-channel constants dx reads, which it keeps in
    place of the forward's cache.  ``backward`` is then handed up's rows,
    one sample block at a time, and writes dx = ((up - m1) - xc c2) s,
    masked by a ReLU sign mask when one is given, over those rows of xc;
    the constants go once the last rows are written.  Handed all of up
    without the sums, as the model hands the last BatchNorm the head's
    gradient, ``backward`` forms them itself first.

    Both passes overwrite the array they are given (see the module
    docstring): a train-mode forward centres x in place and caches it as
    xc, and the backward forms dx in ``up``'s memory and then over xc.
    """

    EPS = 1e-5
    MOMENTUM = 0.1
    # the constants of a backward between ``take_sums`` and its last rows
    _grad = None

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
        self._grad = None
        if not self.training:
            self._keep(None)
            scale = self.gamma.value * (
                1.0 / np.sqrt(self.running_var + self.EPS))
            return x, scale, self.beta.value - self.running_mean * scale
        flat = _flat2(x, self.width)
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
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        self._keep((xc, inv_std, x.shape))
        return (xc.reshape(x.shape), self.gamma.value * inv_std,
                self.beta.value.copy())

    def take_sums(self, up_sum, up_xc):
        """Take the forward's cache and the sums colsum(up) and
        colsum(up * xc) over every row of the upstream gradient up:
        accumulate dgamma and dbeta and fix the constants ``backward``
        forms dx with."""
        self._start(self._take(), up_sum, up_xc)

    def _start(self, cache, up_sum, up_xc):
        # with xhat = xc * inv_std: dgamma = sum(up * xhat) and
        # dx = gamma * inv_std * (up - mean(up) - xhat * mean(up * xhat))
        xc, inv_std, shape = cache
        rows = xc.shape[0]
        self.gamma.accumulate(up_xc * inv_std)
        self.beta.accumulate(up_sum)
        self._grad = (xc.reshape(shape), up_sum / rows,
                      np.square(inv_std) * up_xc / rows,
                      self.gamma.value * inv_std)

    def backward(self, up, *, rows=slice(None), positive=None):
        """dL/dx for the sample rows ``rows`` of the cached input, from
        ``up``, those rows of the upstream gradient, masked by the sign mask
        ``positive`` of the whole input when given: written over those rows
        of the cache xc and returned.  Without ``take_sums`` first, up must
        be every row, whose sums it forms itself."""
        upf = _flat2(np.asarray(up, dtype=np.float64), self.width)
        if self._grad is None:
            cache = self._take()
            if rows != slice(None) or upf.shape != cache[0].shape:
                raise ValueError("BatchNorm.backward of some rows needs the "
                                 "sums over all of them from take_sums")
            self._start(cache, np.einsum("ij->j", upf),
                        np.einsum("ij,ij->j", upf, cache[0]))
        xc, up_mean, c2, s = self._grad
        if rows.stop is None or rows.stop >= len(xc):
            self._grad = None
        dx = xc[rows]   # each row of xc is read once, here, then written
        dxf = _flat2(dx, self.width)
        _channelwise(np.subtract, upf, up_mean, out=upf)
        _channelwise(np.multiply, dxf, c2, out=dxf)
        np.subtract(upf, dxf, out=dxf)
        _channelwise(np.multiply, dxf, s, out=dxf)
        return dx if positive is None else relu_backward(dx, positive[rows])
