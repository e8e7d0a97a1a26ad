"""Reference implementations that only the tests use.

The eigendecomposition filter oracle, a node-by-node graph attention
oracle, the finite-difference gradient checker, an edge-relation dataset
generator, a reader for the adjacency CSV that ``chebnet export --what
graph`` writes, LeakyReLU as a function of its input, and the plain numpy
forms of the per-epoch passes that the package computes another, faster
or leaner way (the graph branch's whole-array backward among them), a
hand-over target that collects a graph layer's input gradient, and a
list of this process's live child processes.  None
of them is on a path the ``chebnet`` commands run.
"""

import multiprocessing
import os

import numpy as np

from chebnet import kernels
from chebnet.layers import (GATLayer, _channelwise, _column_sums, _flat2,
                            _input_grad_sums, _input_weight_grad,
                            _matmul_transposed, _sample_blocks,
                            dropout_backward, leaky_relu_backward,
                            relu_backward, take_once)
from chebnet.data import (EDGE_TASK, Dataset, _orthonormal_directions,
                          _read_csv)
from chebnet.graph import (DEFAULT_THRESHOLD, _as_matrix, _check_symmetric,
                           build_adjacency, lambda_max)


# ---------------------------------------------------------------------------
# spectral filter oracle


def spectral_decomposition(laplacian):
    """Eigendecomposition of a symmetric PSD Laplacian.

    Returns (eigenvalues ascending, eigenvector matrix U) with
    U diag(w) U^T = L; the columns of U are the graph Fourier basis.
    """
    lap = _as_matrix(laplacian, "laplacian")
    _check_symmetric(lap, "laplacian")
    evals, evecs = np.linalg.eigh(lap)
    return evals, evecs


def _cheb_scalar(t, k):
    """T_k evaluated pointwise via the trigonometric closed form."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    inside = np.abs(t) <= 1.0
    out[inside] = np.cos(k * np.arccos(t[inside]))
    above = t > 1.0
    out[above] = np.cosh(k * np.arccosh(t[above]))
    below = t < -1.0
    out[below] = ((-1.0) ** k) * np.cosh(k * np.arccosh(-t[below]))
    return out


def spectral_filter_oracle(laplacian, theta, x):
    """Spectral filtering through a dense eigendecomposition.

    Computes U (sum_k theta_k T_k(scaled eigenvalues)) U^T x, i.e. the same
    filter as the Chebyshev recurrence but evaluated in the Fourier basis
    with the scalar closed form.  Exact, slow, and deliberately independent
    of cheb_apply.
    """
    lap = _as_matrix(laplacian, "laplacian")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64)
    evals, evecs = spectral_decomposition(lap)
    lam = lambda_max(lap)  # same estimate the production path uses
    scaled = 2.0 * evals / lam - 1.0
    gain = np.zeros_like(scaled)
    for k, coef in enumerate(theta):
        gain += coef * _cheb_scalar(scaled, k)
    xhat = evecs.T @ x
    if xhat.ndim == 1:
        return evecs @ (gain * xhat)
    return evecs @ (gain[:, None] * xhat)


# ---------------------------------------------------------------------------
# graph attention oracle


def gat_attention_oracle(layer, graph, x):
    """A GATLayer's attention rows and output on dense (N, F_in) input,
    computed one neighbourhood at a time: node u attends to itself and to
    every v with a nonzero adjacency entry, with logits
    leaky(a_src . h_u + a_dst . h_v) normalized by a softmax over that set.
    Returns (alpha (N, N), zero outside each neighbourhood; output (N, F_out)).
    """
    x = np.asarray(x, dtype=np.float64)
    psi, a = layer.transform.value, layer.attention.value
    a_src, a_dst = a[: layer.out_features], a[layer.out_features:]
    n = graph.n_nodes
    h = [x[u] @ psi for u in range(n)]
    alpha = np.zeros((n, n))
    out = np.empty((n, layer.out_features))
    for u in range(n):
        hood = [v for v in range(n) if v == u or graph.adjacency[u, v] != 0.0]
        logits = []
        for v in hood:
            e = float(a_src @ h[u] + a_dst @ h[v])
            logits.append(e if e > 0.0 else layer.LOGIT_SLOPE * e)
        top = max(logits)
        weights = [np.exp(e - top) for e in logits]
        total = sum(weights)
        agg = np.zeros(layer.out_features)
        for v, w in zip(hood, weights):
            alpha[u, v] = w / total
            agg += alpha[u, v] * h[v]
        out[u] = np.where(agg > 0.0, agg, layer.ACTIVATION_SLOPE * agg)
    return alpha, out


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


# ---------------------------------------------------------------------------
# edge-relation data


def synth_edge_generate(n_nodes, n_features, n_communities, separation,
                        n_edges, seed, threshold=DEFAULT_THRESHOLD):
    """Edge-relation dataset: node communities induce both the node-feature
    graph and the edge labels (ordered community pair -> class)."""
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    comm = np.arange(n_nodes) % n_communities
    rng.shuffle(comm)
    # orthogonal community signatures with unit-scale entries, so the shared
    # component carries separation**2 of each feature's variance
    directions = np.sqrt(n_features) * _orthonormal_directions(
        rng, n_features, n_communities)
    feats = (separation * directions.T[comm]
             + rng.standard_normal((n_nodes, n_features)))

    src = rng.integers(0, n_nodes, size=n_edges)
    dst = rng.integers(0, n_nodes - 1, size=n_edges)
    dst = np.where(dst >= src, dst + 1, dst)  # no self-loop edges
    labels = comm[src] * n_communities + comm[dst]

    rho = separation ** 2 / (separation ** 2 + 1.0)
    truth_corr = np.where(comm[:, None] == comm[None, :], rho, 0.0)
    np.fill_diagonal(truth_corr, 1.0)
    truth_adjacency = build_adjacency(truth_corr, threshold)

    dataset = Dataset(
        features=feats,
        targets=labels,
        task=EDGE_TASK,
        n_classes=n_communities ** 2,
        edges=np.stack([src, dst], axis=1),
    )
    return dataset, truth_adjacency


def read_adjacency_csv(path):
    """The (matrix, channel names) of a ``write_adjacency_csv`` file."""
    names, rows, _ = _read_csv(path)
    return (np.array([[float(v) for v in r] for r in rows], dtype=np.float64),
            tuple(names))


# ---------------------------------------------------------------------------
# plain forms of the fast-path passes


def leaky_relu(x, slope=0.1):
    """LeakyReLU, in place on x, as the package applies it: x times its
    own derivative (``layers.leaky_relu_backward`` with ``up`` = x)."""
    return leaky_relu_backward(x, x > 0.0, slope)


def masked_leaky_relu_backward(up, positive, slope):
    """``layers.leaky_relu_backward`` as a multiply by ``slope`` under the
    mask ~positive (a ``where=`` ufunc pass), on a copy of ``up``."""
    out = np.array(up, dtype=np.float64)
    return np.multiply(out, slope, out=out, where=~positive)


def transposed_view_product(a, bt):
    """``a @ bt`` with ``bt`` the transposed view as it is, the form
    ``layers._matmul_transposed`` must reproduce."""
    return a @ bt


def mean_readout(h):
    """The node-task readout as numpy's mean over the node axis."""
    return h.mean(axis=-2)


def broadcast_bias_conv1d(x, w, b):
    """``kernels.conv1d_forward`` with the bias broadcast over the short
    length axis of the transposed (B, F, P) output."""
    n, _, length = x.shape
    f, c, t = w.shape
    p = length - t + 1
    y = kernels._columns(x, t) @ w.reshape(f, c * t).T
    y = np.ascontiguousarray(y.reshape(n, p, f).transpose(0, 2, 1))
    y += b[None, :, None]
    return y


def full_cheb_forward(basis, w, b, x):
    """``ChebConv.forward`` on dense input with each term formed over the
    whole batch: y = x theta_0 + sum_{k>=1} T_k (x theta_k) + bias."""
    y = x @ w[0]
    for k in range(1, len(w)):
        y += basis[k] @ (x @ w[k])
    return y + b


def full_cheb_backward(basis, w, x, up):
    """(dx, dtheta) of ``ChebConv.backward`` on dense input, each term
    formed over the whole batch while the input stays alive:
    dtheta_k = x^T u_k and dx = sum_k u_k theta_k^T with u_k = T_k up."""
    f_in, f_out = w.shape[1:]
    xf = _flat2(x, f_in)
    dw = np.empty_like(w)
    dw[0] = xf.T @ _flat2(up, f_out)
    dx = _matmul_transposed(up, w[0].T)
    for k in range(1, len(w)):
        u = basis[k] @ up
        dw[k] = xf.T @ _flat2(u, f_out)
        dx += _matmul_transposed(u, w[k].T)
    return dx, dw


def blocked_weight_grad(ops, x, up, identity_first):
    """dtheta of ``ChebConv.backward`` on dense input, summed as the layer
    sums it: zeros plus x_b^T u_k,b over the layer's ``_sample_blocks`` b
    (N nodes at the wider of the widths), in block order, with
    u_k,b = ops[k] up_b, and u_0,b = up_b when operator 0 is the identity.
    Returns a (K, F_in, F_out) stack."""
    f_in, f_out = x.shape[-1], up.shape[-1]
    dw = np.zeros((len(ops), f_in, f_out))
    for rows in _sample_blocks(x, max(f_in, f_out)):
        for k, op in enumerate(ops):
            u = up[rows] if k == 0 and identity_first else op @ up[rows]
            dw[k] += _flat2(x[rows], f_in).T @ _flat2(u, f_out)
    return dw


def full_gcn_backward(prop, w, x, up):
    """(dx, dtheta) of ``GCNConv.backward`` on dense input, formed over the
    whole batch: with u = P up, dtheta = x^T u and dx = u theta^T."""
    u = prop @ up
    dw = _flat2(x, w.shape[0]).T @ _flat2(u, w.shape[1])
    return _matmul_transposed(u, w.T), dw


# ---------------------------------------------------------------------------
# the whole-array graph backward


class RowCollector:
    """A hand-over target that stands where a graph layer's backward hands
    its input gradient to a BatchNorm: it keeps the two sums it is handed
    and collects the rows of dx into ``dx``, a new array of the layer's
    input shape, so a test can read the gradient a layer forms."""

    def __init__(self, shape):
        self.dx = np.full(shape, np.nan)
        self.sums = None

    def take_sums(self, dx_sum, dx_x):
        self.sums = (dx_sum, dx_x)

    def backward(self, dx, *, rows, positive):
        assert positive is None
        self.dx[rows] = dx
        return self.dx[rows]


def input_grad(layer, up, x):
    """(dx, (colsum(dx), colsum(dx * x))) of a dense graph layer's backward
    after its train-mode forward, read through a ``RowCollector``."""
    target = RowCollector(np.shape(x))
    assert layer.backward(up, x=x, bn=target) is None
    return target.dx, target.sums


def whole_array_layer_backward(layer, up, x):
    """A dense graph layer's backward as it ran before the hand-over: the
    parameter gradients accumulated as the layer accumulates them, and dx
    formed over the whole batch in a new array.  Returns dx, or
    (dx, colsum(dx), colsum(dx * x)) after a folded forward."""
    if isinstance(layer, GATLayer):
        return _whole_array_gat_backward(layer, up, x)
    ops, diagonal, shape, scale, shift = layer._take()
    assert not diagonal and x.shape == shape
    up = np.asarray(up, dtype=np.float64)
    layer.bias.accumulate(_column_sums(_flat2(up, layer.out_features)))
    w = layer._theta()
    first = int(layer._identity_first)
    xtg, g_sums = np.zeros(w.shape), np.zeros((layer.order, w.shape[2]))
    dx = np.empty(shape)
    for rows in _sample_blocks(dx, max(w.shape[1:])):
        xf = _flat2(x[rows], layer.in_features)
        for k in range(layer.order):
            u = up[rows] if k < first else ops[k] @ up[rows]
            uf = _flat2(u, layer.out_features)
            xtg[k] += xf.T @ uf
            if scale is not None:
                g_sums[k] += _column_sums(uf)
            if k == 0:
                d = _matmul_transposed(u, w[0].T, out=dx[rows])
            else:
                d += _matmul_transposed(u, w[k].T)
    layer.weight.accumulate(np.stack([
        _input_weight_grad(t, scale, shift, g)
        for t, g in zip(xtg, g_sums)]).reshape(layer.weight.shape))
    return dx if scale is None else (dx, *_input_grad_sums(w, xtg, g_sums))


def _whole_array_gat_backward(layer, up, x):
    c = layer._take()
    assert not c["diagonal"] and x.shape == c["shape"]
    dagg = leaky_relu_backward(np.array(up, dtype=np.float64),
                               c["agg_positive"], layer.ACTIVATION_SLOPE)
    alpha, h = c["alpha"], c["h"]
    dalpha = _matmul_transposed(dagg, h.swapaxes(-1, -2))
    dh = alpha.swapaxes(-1, -2) @ dagg
    dact = alpha * (dalpha - (alpha * dalpha).sum(axis=-1, keepdims=True))
    dlogits = leaky_relu_backward(dact, c["logits_positive"],
                                  layer.LOGIT_SLOPE)
    ds = dlogits.sum(axis=-1)
    dd = dlogits.sum(axis=-2)
    a_src = layer.attention.value[: layer.out_features]
    a_dst = layer.attention.value[layer.out_features:]
    dh += ds[..., None] * a_src + dd[..., None] * a_dst
    layer.attention.accumulate(np.concatenate([
        (_flat2(h, layer.out_features) * ds.reshape(-1, 1)).sum(axis=0),
        (_flat2(h, layer.out_features) * dd.reshape(-1, 1)).sum(axis=0),
    ]))
    scale, psi = c["scale"], layer.transform.value
    dhf = _flat2(dh, layer.out_features)
    xtg = _flat2(x, layer.in_features).T @ dhf
    g_sum = _column_sums(dhf) if scale is not None else None
    layer.transform.accumulate(_input_weight_grad(xtg, scale, c["shift"],
                                                  g_sum))
    dx = _matmul_transposed(dh, psi.T)
    return (dx if scale is None
            else (dx, *_input_grad_sums([psi], [xtg], [g_sum])))


def whole_array_batchnorm_backward(bn, up, sums=None):
    """BatchNorm's backward as it ran before the hand-over: dx formed in
    ``up``'s memory from the handed ``sums`` of up, or its own."""
    xc, inv_std, shape = bn._take()
    upf = _flat2(np.asarray(up, dtype=np.float64), bn.width)
    rows = upf.shape[0]
    if sums is None:
        sums = np.einsum("ij->j", upf), np.einsum("ij,ij->j", upf, xc)
    up_sum, up_xc = sums
    bn.gamma.accumulate(up_xc * inv_std)
    bn.beta.accumulate(up_sum)
    dx = _channelwise(np.subtract, upf, up_sum / rows, out=upf)
    _channelwise(np.multiply, xc, np.square(inv_std) * up_xc / rows, out=xc)
    dx -= xc
    _channelwise(np.multiply, dx, bn.gamma.value * inv_std, out=dx)
    return dx.reshape(shape)


def whole_array_graph_backward(model, dout, keep=True):
    """``EnsembleModel.graph_backward`` as it ran before the hand-over:
    each block's BatchNorm backward (with the sums the next layer handed
    on, the last with its own), then the ReLU mask, then the layer's
    backward, which forms dx over the whole batch.  Returns copies of each
    block's dL/dz, first block first, or none when ``keep`` is false."""
    c = take_once(model, "_gcache", "no training-mode graph_forward")
    dh = dropout_backward(model.head.backward(dout), c.pop("mask"))
    inputs, signs, sums, dz_all = c["inputs"], c["signs"], None, []
    for i in reversed(range(len(model.blocks))):
        layer, bn = model.blocks[i]
        dz = relu_backward(whole_array_batchnorm_backward(bn, dh, sums),
                           signs.pop())
        if keep:
            dz_all.append(dz.copy())
        x = inputs.pop()
        if i:
            dh, *sums = whole_array_layer_backward(layer, dz, x)
        elif model.head.samples_are_rows:
            layer.backward(dz, x=x)     # diagonal: no input gradient
        else:
            whole_array_layer_backward(layer, dz, x)
    return dz_all[::-1]


# ---------------------------------------------------------------------------
# child processes


def live_children():
    """Pids of this process's children that are still running or not yet
    reaped: the ``multiprocessing`` ones it knows, and on Linux every
    process in ``/proc`` whose parent is this one."""
    pids = {p.pid for p in multiprocessing.active_children()}
    me = str(os.getpid())
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                # pid (comm) state ppid ...
                ppid = fh.read().rpartition(")")[2].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.add(int(entry))
    return sorted(pids)
