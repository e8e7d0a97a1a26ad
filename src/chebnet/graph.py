"""Correlation-derived graph construction and spectral machinery.

The pipeline: Pearson correlation across feature channels, sigmoid squashing
of the absolute correlations with a threshold cut, degree / Laplacian
assembly, largest eigenvalue by power iteration, rescaling of the spectrum
into [-1, 1], and the Chebyshev three-term recurrence (``cheb_apply``) that
builds the matrices T_k(Ls) the convolution layers filter with.

All functions are pure and operate on float64 numpy arrays.  A
``GraphContext`` keeps the Chebyshev bases it has built (``cheb_basis``),
so each graph builds a basis once per order.
"""

from dataclasses import dataclass, field

import numpy as np

# Deterministic start vector for power iteration.  The all-ones vector is
# useless here (it spans the Laplacian null space), so a fixed pseudorandom
# direction is used instead.
_POWER_SEED = 0x5D1F7A2C
# Power-iteration budget and relative convergence tolerance.
_POWER_MAX_ITER = 1000
_POWER_TOL = 1e-10

DEFAULT_THRESHOLD = 0.7


def _as_matrix(a, name):
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {m.shape}")
    return m


def _check_symmetric(m, name, atol=1e-10):
    if m.shape[0] != m.shape[1] or not np.allclose(m, m.T, atol=atol):
        raise ValueError(f"{name} must be symmetric")


def pearson_correlation(features):
    """Pearson correlation between channels of a (samples x channels) matrix.

    Constant channels correlate 0 with everything and 1 with themselves,
    so downstream sigmoid/threshold stages never see NaN.
    """
    x = _as_matrix(features, "features")
    n = x.shape[0]
    if n < 2:
        raise ValueError("correlation needs at least 2 samples")
    if not np.isfinite(x).all():
        raise ValueError("features contain NaN or Inf")
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0)  # population std, matching the z-score path
    nonconst = std > 0.0
    z = centered / np.where(nonconst, std, 1.0)
    corr = (z.T @ z) / n
    corr[~nonconst, :] = 0.0
    corr[:, ~nonconst] = 0.0
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def build_adjacency(corr, threshold=DEFAULT_THRESHOLD):
    """Edge weights sigma(|corr|), zeroed where they fall below the threshold.

    The surviving entries keep their sigmoid value (weighted adjacency, not
    binarized).  Self-loops pass the cut whenever sigma(1) ~ 0.731 does.
    """
    c = _as_matrix(corr, "corr")
    _check_symmetric(c, "corr")
    if np.abs(c).max(initial=0.0) > 1.0 + 1e-9:
        raise ValueError("corr entries must lie in [-1, 1]")
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    w = 1.0 / (1.0 + np.exp(-np.abs(c)))
    w[w < threshold] = 0.0
    return w


def degree_and_laplacian(adjacency):
    """Degree vector (row sums) and combinatorial Laplacian D - W."""
    w = _as_matrix(adjacency, "adjacency")
    _check_symmetric(w, "adjacency")
    if w.min(initial=0.0) < 0.0:
        raise ValueError("adjacency must be nonnegative")
    degree = w.sum(axis=1)
    laplacian = np.diag(degree) - w
    return degree, laplacian


def lambda_max(laplacian):
    """Largest Laplacian eigenvalue by power iteration.

    Falls back to 2.0 when the estimate is below 1e-9 (edgeless graph), which
    keeps the scaled Laplacian well defined.
    """
    lap = _as_matrix(laplacian, "laplacian")
    _check_symmetric(lap, "laplacian")
    n = lap.shape[0]
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = lap @ v
        lam_new = float(v @ w)
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            lam = 0.0
            break
        v = w / norm
        if abs(lam_new - lam) <= _POWER_TOL * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    if lam < 1e-9:
        return 2.0
    return lam


def scale_laplacian(laplacian, lam):
    """Rescale the spectrum into [-1, 1]: 2 L / lambda_max - I."""
    lap = _as_matrix(laplacian, "laplacian")
    if lam <= 0.0:
        raise ValueError(f"lambda_max must be positive, got {lam}")
    return 2.0 * lap / lam - np.eye(lap.shape[0])


@dataclass(frozen=True, eq=False)
class GraphContext:
    """Spectral context of one constructed graph, shared by all layers."""

    adjacency: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray
    lambda_max: float
    scaled_laplacian: np.ndarray
    channel_names: tuple = ()
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_nodes(self):
        return self.adjacency.shape[0]

    def cheb_basis(self, order):
        """The (order, N, N) stack of T_k(Ls), ``cheb_apply`` on the
        identity.  It is built on the first call for an order and kept,
        read-only, for every later layer and pass on this graph."""
        basis = self._bases.get(order)
        if basis is None:
            basis = np.stack(cheb_apply(self.scaled_laplacian,
                                        np.eye(self.n_nodes), order))
            basis.flags.writeable = False
            self._bases[order] = basis
        return basis


def build_graph_context(adjacency, channel_names=()):
    """Run the degree -> Laplacian -> lambda_max -> scaling chain."""
    degree, laplacian = degree_and_laplacian(adjacency)
    lam = lambda_max(laplacian)
    scaled = scale_laplacian(laplacian, lam)
    return GraphContext(
        adjacency=np.asarray(adjacency, dtype=np.float64),
        degree=degree,
        laplacian=laplacian,
        lambda_max=lam,
        scaled_laplacian=scaled,
        channel_names=tuple(channel_names),
    )


def graph_from_features(features, threshold=DEFAULT_THRESHOLD, channel_names=()):
    """Correlation graph over the channels of a (samples x channels) matrix."""
    corr = pearson_correlation(features)
    return build_graph_context(build_adjacency(corr, threshold), channel_names)


def cheb_apply(scaled_laplacian, x, order):
    """Chebyshev basis applied to a signal: [T_0(Ls) x, ..., T_{K-1}(Ls) x].

    Runs the three-term recurrence T_k = 2 Ls T_{k-1} - T_{k-2}; cost is one
    matrix product per term and no eigendecomposition.  ``x`` may be (N, F)
    or batched (B, N, F); with ``x`` the identity the terms are the matrices
    T_k(Ls) themselves, which is how ``GraphContext.cheb_basis`` uses it.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    ls = np.asarray(scaled_laplacian, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2] != ls.shape[0]:
        raise ValueError(
            f"signal has {x.shape[-2]} rows but the graph has {ls.shape[0]} nodes"
        )
    terms = [x]
    if order >= 2:
        terms.append(ls @ x)
    for _ in range(2, order):
        terms.append(2.0 * (ls @ terms[-1]) - terms[-2])
    return terms
