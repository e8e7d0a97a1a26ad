"""Reference implementations that only the tests use.

The eigendecomposition filter oracle, a node-by-node graph attention
oracle, the finite-difference gradient checker, an edge-relation dataset
generator, a reader for the adjacency CSV that ``chebnet export --what
graph`` writes, LeakyReLU as a function of its input, and the plain numpy
forms of the per-epoch passes that the package computes another, faster
or leaner way, and a list of this process's live child processes.  None
of them is on a path the ``chebnet`` commands run.
"""

import multiprocessing
import os

import numpy as np

from chebnet import kernels
from chebnet.layers import _flat2, _matmul_transposed, leaky_relu_backward
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


def full_gcn_backward(prop, w, xin, up):
    """(dx, dtheta) of ``GCNConv.backward`` on dense input, dx formed over
    the whole batch: dtheta = (P x)^T up and dx = P (up theta^T)."""
    dw = _flat2(xin, w.shape[0]).T @ _flat2(up, w.shape[1])
    return prop @ _matmul_transposed(up, w.T), dw


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
