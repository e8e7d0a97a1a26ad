"""Two-branch ensemble model: graph convolution branch + 1-D conv branch.

The graph branch stacks (ChebConv | GCNConv | GATLayer) -> ReLU -> BatchNorm
blocks, applies one dropout after the last block, and ends in log-softmax:
for node tasks after a mean readout over nodes, for edge tasks after a
two-linear edge head over concatenated endpoint embeddings.  The conv branch
is two Conv1D + LeakyReLU(0.1) layers whose final kernel count equals the
class count, averaged over the remaining length.  Inference uses the graph
branch; the conv branch regularizes training through the ensemble loss.

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
graph layer takes the dense (N, F) node features and returns one, which
nothing reads.  The first Conv1D is called with ``input_grad=False`` (only
Conv1D takes it) and computes none.

Both branches keep the cache rule of ``chebnet.layers`` (``take_once``).
Of every ReLU and LeakyReLU pre-activation the model keeps only the bool
sign mask z > 0, which is what their backward takes.  An eval-mode forward
(prediction, ``layer_activations``) keeps nothing.

The activations and BatchNorm overwrite the array they are given (see
``chebnet.layers``), and the model passes them only arrays it owns: a
layer's fresh output or a fresh upstream gradient, never the caller's
features or conv sequences.  So a block's ReLU, BatchNorm centring (train)
or whole normalization (eval) take no new array, and in the backward
BatchNorm forms dx in its upstream gradient, which the ReLU backward then
masks in place.  Sign masks are taken before the activation runs.

The per-epoch passes follow the fast-path rules of ``chebnet.layers``:
the node-task readout sums the node axis as an einsum reduction
(``_node_mean``, the bits of ``mean(axis=-2)``); the conv branch's
LeakyReLUs take the unmasked ``leaky_relu_backward``; and the graph branch
keeps its stacked (B, N, F) products rather than flattening them into tall
GEMMs.  The conv branch's mean over its last few positions stays
``mean(axis=-1)``: an einsum there sums in another order.

An eval-mode node-task graph forward runs the rows in blocks of
``_eval_block_rows`` and concatenates their log-probabilities: each sample
is independent there, and a block's activations stay small enough to be
reused from the heap instead of mapped afresh.  An edge task's graph
couples every node, so it runs as one block, as does
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


def conv_inputs_node(features, conv_shape):
    """Reshape (B, C) samples into (B, channels, length) conv sequences."""
    feats = np.asarray(features, dtype=np.float64)
    ch, length = conv_shape
    return feats.reshape(feats.shape[0], ch, length)


def conv_inputs_edge(node_features, edges, conv_shape):
    """Per-edge conv sequences: endpoint sequences concatenated along length."""
    feats = np.asarray(node_features, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64)
    ch, length = conv_shape
    shaped = feats.reshape(feats.shape[0], ch, length)
    return np.concatenate([shaped[edges[:, 0]], shaped[edges[:, 1]]], axis=2)


def _node_mean(h):
    """The mean readout over the node axis of (B, N, F) activations, bit
    for bit ``h.mean(axis=-2)``.  The node sum is an einsum reduction,
    5-6x faster at the branch's narrow widths; at width 1 einsum sums in
    another order, and there ``mean`` is kept."""
    if h.shape[-1] == 1:
        return h.mean(axis=-2)
    return np.einsum("...nf->...f", h) / h.shape[-2]


def _make_graph_layer(variant, f_in, f_out, order, rng):
    if variant == "cheb":
        return ChebConv(f_in, f_out, order=order, rng=rng)
    if variant == "gcn":
        return GCNConv(f_in, f_out, rng=rng)
    if variant == "gat":
        return GATLayer(f_in, f_out, rng=rng)
    raise ValueError(f"unknown variant {variant!r}")


class EnsembleModel:
    def __init__(self, task, blocks, conv_layers, edge_head, dropout_p,
                 n_classes):
        self.task = task
        self.blocks = blocks                # [(graph layer, batch norm), ...]
        self.conv_layers = conv_layers      # [Conv1D, Conv1D]
        self.edge_head = edge_head          # [Linear, Linear] or None
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
        for j, lin in enumerate(self.edge_head or ()):
            for name, p in lin.parameters():
                yield "graph", f"head.{j}.{name}", p
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
        layer to ``training`` mode first.  Node tasks pass (B, C) rows to
        the first layer with ``diagonal=True``; edge tasks pass the (N, F)
        node feature matrix."""
        for layer, bn in self.blocks:
            layer.training = bn.training = training
        for lin in self.edge_head or ():
            lin.training = training
        h = np.asarray(features, dtype=np.float64)
        yield None, h
        diagonal = self.task != EDGE_TASK
        for layer, bn in self.blocks:
            z = layer.forward(graph, h, diagonal=diagonal)
            positive = z > 0.0 if training else None
            h = bn.forward(relu(z))
            diagonal = False
            yield positive, h

    def _eval_block_rows(self, n_nodes):
        """Rows per block of an eval-mode node-task graph forward: as many
        as keep the widest activation, (rows, N, width) float64 with width
        the widest of N and the layers' outputs, within
        ``EVAL_BLOCK_BYTES``; at least one."""
        width = max([n_nodes] + [layer.out_features
                                 for layer, _ in self.blocks])
        return max(1, EVAL_BLOCK_BYTES // (8 * n_nodes * width))

    def graph_forward(self, graph, features, edges=None, training=False,
                      rng=None):
        """Log-probabilities of the graph branch.

        Node tasks take (B, C) feature rows; edge tasks take the (N, F) node
        feature matrix plus the edge index array to score.  An eval-mode
        node-task forward runs the rows in blocks of ``_eval_block_rows``.
        """
        if self.task == EDGE_TASK:
            if edges is None:
                raise ValueError("edge task needs an edge list")
        elif not training:
            # near-equal blocks, so none is a stray row: a one-row product
            # does not keep the bits of the same row in a larger block
            x = np.asarray(features, dtype=np.float64)
            n_blocks = -(-len(x) // self._eval_block_rows(graph.n_nodes))
            return np.concatenate([
                self._graph_block(graph, rows, None, False, None)
                for rows in np.array_split(x, max(n_blocks, 1))])
        return self._graph_block(graph, features, edges, training, rng)

    def _graph_block(self, graph, features, edges, training, rng):
        """``graph_forward`` of one block of rows (an edge task's whole
        graph); a training-mode call keeps the backward's cache."""
        signs = []
        for positive, h in self._blocks(graph, features, training):
            signs.append(positive)
        h, mask = dropout(h, self.dropout_p, rng=rng, training=training)
        if self.task == EDGE_TASK:
            ee = edge_embed(h, edges)
            l1 = self.edge_head[0].forward(ee)
            l1_positive = l1 > 0.0 if training else None
            l2 = self.edge_head[1].forward(relu(l1))
            out = log_softmax(l2)
        else:
            out = log_softmax(_node_mean(h))
        self._gcache = None
        if training:
            cache = {"signs": signs[1:], "mask": mask, "n_nodes": h.shape[-2],
                     "out": out}
            if self.task == EDGE_TASK:
                cache.update(edges=np.asarray(edges, dtype=np.int64),
                             emb_shape=h.shape, l1_positive=l1_positive)
            self._gcache = cache
        return out

    def graph_backward(self, dout):
        """Accumulate the graph branch's parameter gradients and release
        the forward's cache; returns nothing, since no caller reads the
        gradient of the input."""
        c = take_once(self, "_gcache",
                      "graph_backward without a training-mode graph_forward")
        dlogits = log_softmax_backward(dout, c["out"])
        if self.task == EDGE_TASK:
            da1 = self.edge_head[1].backward(dlogits)
            dl1 = relu_backward(da1, c["l1_positive"])
            dee = self.edge_head[0].backward(dl1)
            d = dee.shape[1] // 2
            dh = np.zeros(c["emb_shape"])
            np.add.at(dh, c["edges"][:, 0], dee[:, :d])
            np.add.at(dh, c["edges"][:, 1], dee[:, d:])
        else:
            dpooled = dlogits / c["n_nodes"]
            dh = np.broadcast_to(
                dpooled[..., None, :],
                dpooled.shape[:-1] + (c["n_nodes"], dpooled.shape[-1])).copy()
        dh = dropout_backward(dh, c["mask"])
        # the first block's result, the input gradient, has no reader
        for (layer, bn), positive in zip(reversed(self.blocks),
                                         reversed(c["signs"])):
            dh = layer.backward(relu_backward(bn.backward(dh), positive))

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
        if self.task == EDGE_TASK:
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

    edge_head = None
    if task == EDGE_TASK:
        edge_head = [Linear(2 * graph_dims[-1], EDGE_HEAD_HIDDEN, rng=rng),
                     Linear(EDGE_HEAD_HIDDEN, n_classes, rng=rng)]

    model = EnsembleModel(
        task=task,
        blocks=blocks,
        conv_layers=conv_layers,
        edge_head=edge_head,
        dropout_p=dropout_p,
        n_classes=n_classes,
    )
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
