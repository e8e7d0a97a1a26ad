"""Two-branch ensemble model: graph convolution branch + 1-D conv branch.

The graph branch stacks (ChebConv | GCNConv | GATLayer) -> ReLU -> BatchNorm
blocks, applies one dropout after the last block, and ends in a head that
returns log-probabilities: ``NodeReadout`` for node tasks, ``EdgeHead`` for
edge tasks.  The model asks the head one thing, ``samples_are_rows``:
whether each sample is a row of the input.  The conv branch is two Conv1D
+ LeakyReLU(0.1) layers whose final kernel count equals the class count,
averaged over the remaining length.  Inference uses the graph branch; the
conv branch regularizes training through the ensemble loss.

For node tasks a C-channel sample x_b stands for the diagonal node-signal
matrix diag(x_b) (node i carries channel i's value as its feature i), which
makes the first layer's feature width equal the node count.  That matrix is
never built: the first graph layer takes the (B, C) rows with
``diagonal=True`` and computes its output as one product y = x @ M, where for
ChebConv M[i, n, f] = sum_k T_k(Ls)[n, i] theta_k[i, f] (GCNConv: the
propagation matrix in place of T_0 and K = 1; GATLayer: h = x[..., None] psi).
The later ChebConv layers apply the same N x N matrices T_k(Ls) to their
dense (B, N, F) input.
The diagonal first layer forms no input gradient.  An edge task's first
graph layer takes the dense (N, F) node features and returns one, formed
in a copy of them, which nothing reads.  The first Conv1D is called with
``input_grad=False`` (only Conv1D takes it) and computes none.

Both branches keep the cache rule of ``chebnet.layers`` (``take_once``),
and the heads are layers under it.  Of every ReLU and LeakyReLU
pre-activation the model keeps only the bool sign mask z > 0, which is
what their backward takes.  No graph layer keeps its input:
``graph_backward`` hands it back to the layers that take it
(``_layer_input``), a hidden layer's formed again by the BatchNorm before
it.  An eval-mode forward (prediction, ``layer_activations``) keeps
nothing.

The activations and BatchNorm overwrite the array they are given (see
``chebnet.layers``), and the model passes them only arrays it owns: a
layer's fresh output or a fresh upstream gradient, never the caller's
features or conv sequences.  So a block's ReLU, BatchNorm centring (train)
or whole normalization (eval) take no new array, and in the backward
BatchNorm forms dx in its upstream gradient, which the ReLU backward then
masks in place.  Sign masks are taken before the activation runs.

The per-epoch passes follow the fast-path rules of ``chebnet.layers``:
the conv branch's LeakyReLUs take the unmasked ``leaky_relu_backward``,
and the graph branch keeps its stacked (B, N, F) products rather than
flattening them into tall GEMMs.  The conv branch's mean over its last few
positions stays ``mean(axis=-1)``: an einsum there sums in another order.

When the samples are the rows, an eval-mode graph forward runs them in
blocks of ``_eval_block_rows`` and concatenates their log-probabilities:
each sample is independent there, and a block's activations stay small
enough to be reused from the heap instead of mapped afresh.  An edge
task's graph couples every node, so it runs as one block, as does
``layer_activations``, whose batch means span all rows.
"""

import math

import numpy as np

from chebnet.data import EDGE_TASK
from chebnet.layers import (
    BatchNorm,
    ChebConv,
    Conv1D,
    GATLayer,
    GCNConv,
    Linear,
    Parameter,
    _Layer,
    dropout,
    dropout_backward,
    leaky_relu_backward,
    log_softmax,
    log_softmax_backward,
    relu,
    relu_backward,
    take_once,
)

VARIANTS = ("cheb", "gcn", "gat")

CONV_SLOPE = 0.1
EDGE_HEAD_HIDDEN = 100
# Byte budget for the widest activation of one block of an eval-mode
# node-task graph forward (see ``EnsembleModel._eval_block_rows``).
EVAL_BLOCK_BYTES = 4 << 20


def edge_embed(node_embeddings, edges):
    """Per-edge features: concat(embedding[src], embedding[dst])."""
    emb = np.asarray(node_embeddings, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and (edges.min() < 0 or edges.max() >= emb.shape[0]):
        raise ValueError("edge endpoint index out of range")
    return np.concatenate([emb[edges[:, 0]], emb[edges[:, 1]]], axis=1)


def _node_mean(h):
    """The mean readout over the node axis of (B, N, F) activations, bit
    for bit ``h.mean(axis=-2)``.  The node sum is an einsum reduction,
    5-6x faster at the branch's narrow widths; at width 1 einsum sums in
    another order, and there ``mean`` is kept."""
    if h.shape[-1] == 1:
        return h.mean(axis=-2)
    return np.einsum("...nf->...f", h) / h.shape[-2]


class NodeReadout(_Layer):
    """The node task's head: the mean over the node axis of the (B, N, F)
    activations (``_node_mean``, the fast-path rules of ``chebnet.layers``),
    then log-softmax.  The cache is the node count and the output, never
    h: an extra live activation would move the peak RSS."""

    samples_are_rows = True

    def parameters(self):
        return []

    def forward(self, h, edges):
        out = log_softmax(_node_mean(h))
        self._keep((h.shape[-2], out))
        return out

    def backward(self, dout):
        n_nodes, out = self._take()
        dpooled = log_softmax_backward(dout, out) / n_nodes
        return np.repeat(dpooled[..., None, :], n_nodes, axis=-2)


class EdgeHead(_Layer):
    """The edge task's head over (N, F) node embeddings: each scored edge
    concatenates its endpoints' embeddings (``edge_embed``), then Linear,
    ReLU, Linear and log-softmax.  The backward scatters each edge's
    gradient onto its two endpoints' rows with ``np.add.at``, so a node
    that ends several edges sums their shares: all sources first, then
    all targets, the order its bits depend on.  The head owns both
    Linears, sets their ``training`` flag from its own, and names their
    parameters ``0.weight`` ... ``1.bias``."""

    samples_are_rows = False

    def __init__(self, in_features, hidden, n_classes, *, rng):
        self.linears = [Linear(in_features, hidden, rng=rng),
                        Linear(hidden, n_classes, rng=rng)]

    def parameters(self):
        return [(f"{j}.{name}", p) for j, lin in enumerate(self.linears)
                for name, p in lin.parameters()]

    def forward(self, h, edges):
        if edges is None:
            raise ValueError("edge task needs an edge list")
        first, second = self.linears
        first.training = second.training = self.training
        l1 = first.forward(edge_embed(h, edges))
        positive = l1 > 0.0 if self.training else None
        out = log_softmax(second.forward(relu(l1)))
        self._keep((np.asarray(edges, np.int64), h.shape, positive, out))
        return out

    def backward(self, dout):
        edges, shape, positive, out = self._take()
        first, second = self.linears
        da1 = second.backward(log_softmax_backward(dout, out))
        dee = first.backward(relu_backward(da1, positive))
        dh = np.zeros(shape)
        for ends, grad in zip(edges.T, np.split(dee, 2, axis=1)):
            np.add.at(dh, ends, grad)
        return dh


def _make_graph_layer(variant, f_in, f_out, order, rng):
    if variant == "cheb":
        return ChebConv(f_in, f_out, order=order, rng=rng)
    if variant == "gcn":
        return GCNConv(f_in, f_out, rng=rng)
    if variant == "gat":
        return GATLayer(f_in, f_out, rng=rng)
    raise ValueError(f"unknown variant {variant!r}")


class EnsembleModel:
    def __init__(self, blocks, head, conv_layers, dropout_p, n_classes):
        self.blocks = blocks                # [(graph layer, batch norm), ...]
        self.head = head                    # NodeReadout or EdgeHead
        self.conv_layers = conv_layers      # [Conv1D, Conv1D]
        self.dropout_p = dropout_p
        self.n_classes = n_classes
        self._gcache = None
        self._ccache = None

    # -- parameter access ---------------------------------------------------

    def _walk(self):
        """Yield (branch, name, Parameter or batch-norm state array) in the
        fixed manifest order of the checkpoint archive; branch is "graph"
        or "conv"."""
        for i, (layer, bn) in enumerate(self.blocks):
            for name, p in layer.parameters():
                yield "graph", f"graph.{i}.layer.{name}", p
            for name, item in bn.parameters() + bn.state():
                yield "graph", f"graph.{i}.bn.{name}", item
        for name, p in self.head.parameters():
            yield "graph", f"head.{name}", p
        for j, conv in enumerate(self.conv_layers):
            for name, p in conv.parameters():
                yield "conv", f"conv.{j}.{name}", p

    def _parameters(self, branch):
        return [p for b, _, p in self._walk()
                if b == branch and isinstance(p, Parameter)]

    def graph_parameters(self):
        return self._parameters("graph")

    def conv_parameters(self):
        return self._parameters("conv")

    def parameters(self):
        return self.graph_parameters() + self.conv_parameters()

    def named_arrays(self):
        """(name, array) pairs covering parameters and batch-norm state, in
        the fixed manifest order used by the checkpoint archive."""
        return [(name, item.value if isinstance(item, Parameter) else item)
                for _, name, item in self._walk()]

    # -- graph branch ---------------------------------------------------------

    def _blocks(self, graph, features, training):
        """Yield the graph-branch input, then each block's output, each
        paired with the sign mask of the pre-activation that produced it
        (None for the input and in eval mode).  Sets every graph-branch
        layer and the head to ``training`` mode first.  The first layer
        takes (B, C) rows with ``diagonal=True`` when the samples are the
        rows (node tasks), else the (N, F) node feature matrix."""
        for layer, bn in self.blocks:
            layer.training = bn.training = training
        self.head.training = training
        h = np.asarray(features, dtype=np.float64)
        yield None, h
        diagonal = self.head.samples_are_rows
        for layer, bn in self.blocks:
            z = layer.forward(graph, h, diagonal=diagonal)
            positive = z > 0.0 if training else None
            h = bn.forward(relu(z))
            diagonal = False
            yield positive, h

    def _eval_block_rows(self, n_nodes):
        """Rows per block of an eval-mode row-sample graph forward: as many
        as keep the widest activation, (rows, N, width) float64 with width
        the widest of N and the layers' outputs, within
        ``EVAL_BLOCK_BYTES``; at least one (``graph_forward`` still puts
        two or more rows in each block)."""
        width = max([n_nodes] + [layer.out_features
                                 for layer, _ in self.blocks])
        return max(1, EVAL_BLOCK_BYTES // (8 * n_nodes * width))

    def graph_forward(self, graph, features, edges=None, training=False,
                      rng=None):
        """Log-probabilities of the graph branch.

        Node tasks take (B, C) feature rows; edge tasks take the (N, F) node
        feature matrix plus the edge index array to score.  When the
        samples are the rows, an eval-mode forward runs them in blocks of
        ``_eval_block_rows``.
        """
        if training or not self.head.samples_are_rows:
            return self._graph_block(graph, features, edges, training, rng)
        # a one-row product does not keep the bits of the same row in a
        # larger block, so the blocks are near-equal and hold two rows or
        # more, and a lone row runs as a block of two copies of itself
        x = np.asarray(features, dtype=np.float64)
        if len(x) == 1:
            return self._graph_block(graph, x[[0, 0]], None, False, None)[:1]
        n_blocks = min(-(-len(x) // self._eval_block_rows(graph.n_nodes)),
                       len(x) // 2)
        return np.concatenate([
            self._graph_block(graph, rows, None, False, None)
            for rows in np.array_split(x, max(n_blocks, 1))])

    def _graph_block(self, graph, features, edges, training, rng):
        """``graph_forward`` of one block of rows (an edge task's whole
        graph); a training-mode call keeps the backward's cache: the
        caller's features, the sign masks and the dropout mask, the head
        keeping its own."""
        signs = []
        for positive, h in self._blocks(graph, features, training):
            signs.append(positive)
        h, mask = dropout(h, self.dropout_p, rng=rng, training=training)
        out = self.head.forward(h, edges)
        self._gcache = ({"features": features, "signs": signs[1:],
                         "mask": mask} if training else None)
        return out

    def graph_backward(self, dout):
        """Accumulate the graph branch's parameter gradients and release
        the forward's cache; returns nothing, since no caller reads the
        gradient of the input.  A graph layer that ``takes_input`` is
        handed back its input (``_layer_input``)."""
        c = take_once(self, "_gcache",
                      "graph_backward without a training-mode graph_forward")
        dh = dropout_backward(self.head.backward(dout), c["mask"])
        for i in reversed(range(len(self.blocks))):
            layer, bn = self.blocks[i]
            dz = relu_backward(bn.backward(dh), c["signs"][i])
            x = (self._layer_input(i, c["features"]) if layer.takes_input
                 else None)
            dh = layer.backward(dz, x=x)

    def _layer_input(self, i, features):
        """The input of block i's graph layer, handed back to its backward,
        which overwrites a dense one with its input gradient.  A hidden
        layer's is the previous BatchNorm's output, formed again from that
        BatchNorm's cache, so it becomes the layer's one new input-sized
        array.  The first layer's is the caller's features: diagonal rows
        are only read, and dense ones (edge tasks) go in as a copy."""
        if i:
            return self.blocks[i - 1][1].output()
        if self.head.samples_are_rows:
            return features
        return np.array(features, dtype=np.float64)

    # -- conv branch ----------------------------------------------------------

    def conv_forward(self, sequences):
        """Log-probabilities of the conv branch for (B, channels, length).
        Only training runs this branch, so it always caches."""
        # each LeakyReLU is applied in place from the sign mask the backward
        # keeps (z times its derivative; see ``leaky_relu_backward``)
        z1 = self.conv_layers[0].forward(sequences)
        z1_positive = z1 > 0.0
        a1 = leaky_relu_backward(z1, z1_positive, CONV_SLOPE)
        z2 = self.conv_layers[1].forward(a1)
        z2_positive = z2 > 0.0
        a2 = leaky_relu_backward(z2, z2_positive, CONV_SLOPE)
        pooled = a2.mean(axis=-1)
        out = log_softmax(pooled)
        self._ccache = {"z1_positive": z1_positive, "z2_positive": z2_positive,
                        "out": out, "tail": z2.shape[-1]}
        return out

    def conv_backward(self, dout):
        """Accumulate the conv branch's parameter gradients and release the
        forward's cache.  The first Conv1D computes no input gradient, since
        nothing reads it; returns nothing."""
        c = take_once(self, "_ccache", "conv_backward without a conv_forward")
        dpooled = log_softmax_backward(dout, c["out"])
        da2 = np.repeat(dpooled[..., None] / c["tail"], c["tail"], axis=-1)
        dz2 = leaky_relu_backward(da2, c["z2_positive"], CONV_SLOPE)
        da1 = self.conv_layers[1].backward(dz2)
        dz1 = leaky_relu_backward(da1, c["z1_positive"], CONV_SLOPE)
        self.conv_layers[0].backward(dz1, input_grad=False)

    # -- inference helpers ------------------------------------------------------

    def layer_activations(self, graph, features):
        """Eval-mode per-node activations: input plus each graph block output.

        Node tasks average over the sample batch so every matrix has one row
        per graph node; their input is the mean of the diagonal node-signal
        matrices, diag(mean of the rows).
        """
        acts = [h for _, h in self._blocks(graph, features, False)]
        if not self.head.samples_are_rows:
            return acts
        return [np.diag(acts[0].mean(axis=0))] + [h.mean(axis=0)
                                                  for h in acts[1:]]


def default_graph_dims(task, variant, width, n_classes, embedding_dim):
    """Per-layer output widths of the graph branch.

    Node tasks narrow toward the class count over four blocks (three for the
    gcn/gat baselines); edge tasks end at the embedding width fed to the
    edge head.
    """
    if task == EDGE_TASK:
        return [EDGE_HEAD_HIDDEN, EDGE_HEAD_HIDDEN, embedding_dim]
    mid = max(math.ceil(width / 2), n_classes)
    if variant == "cheb":
        return [width, mid, n_classes, n_classes]
    return [width, mid, n_classes]


def build_model(task, variant, width, n_classes, conv_shape, rng,
                cheb_orders=(1, 1, 1, 1), graph_dims=None, conv_kernels=10,
                dropout_p=0.5, alpha=0.9, embedding_dim=50):
    """Assemble an EnsembleModel.

    ``width`` is the channel count for node tasks (= node count of the
    correlation graph) and the per-node feature width for edge tasks.
    Graph layers past the end of ``cheb_orders`` get order 1; for the cheb
    variant, orders past the last graph layer must be 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if graph_dims is None:
        graph_dims = default_graph_dims(task, variant, width, n_classes,
                                        embedding_dim)
    graph_dims = [int(d) for d in graph_dims]
    if not 3 <= len(graph_dims) <= 4:
        raise ValueError("graph branch depth must be 3 or 4")
    if task != EDGE_TASK and graph_dims[-1] != n_classes:
        raise ValueError("last graph dimension must equal the class count")
    orders = [int(k) for k in cheb_orders]
    orders += [1] * (len(graph_dims) - len(orders))
    if any(k < 1 for k in orders):
        raise ValueError("Chebyshev orders must be >= 1")
    if variant == "cheb" and any(k != 1 for k in orders[len(graph_dims):]):
        raise ValueError(f"cheb_orders {orders} sets an order above 1 past "
                         f"the last of the {len(graph_dims)} graph layers")

    blocks = []
    f_in = width
    for i, f_out in enumerate(graph_dims):
        layer = _make_graph_layer(variant, f_in, f_out, orders[i], rng)
        blocks.append((layer, BatchNorm(f_out)))
        f_in = f_out

    ch, length = conv_shape
    seq_len = 2 * length if task == EDGE_TASK else length
    min_len = 2 * (Conv1D.KERNEL_LEN - 1) + 1
    if seq_len < min_len:
        raise ValueError(
            f"conv branch needs sequence length >= {min_len}, got {seq_len}")
    conv_layers = [Conv1D(ch, conv_kernels, rng=rng),
                   Conv1D(conv_kernels, n_classes, rng=rng)]

    head = (EdgeHead(2 * graph_dims[-1], EDGE_HEAD_HIDDEN, n_classes, rng=rng)
            if task == EDGE_TASK else NodeReadout())
    model = EnsembleModel(blocks, head, conv_layers, dropout_p, n_classes)
    # Every resolved argument but ``rng``, as JSON values: a checkpoint
    # stores this record, and build_model(**record, rng=...) rebuilds the
    # same architecture from it.
    model.architecture = {
        "task": task, "variant": variant, "width": int(width),
        "n_classes": int(n_classes), "conv_shape": [int(ch), int(length)],
        "cheb_orders": orders, "graph_dims": graph_dims,
        "conv_kernels": int(conv_kernels), "dropout_p": float(dropout_p),
        "alpha": float(alpha), "embedding_dim": int(embedding_dim),
    }
    return model
