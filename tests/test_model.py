"""Ensemble model assembly: parameter layout, diagonal input, branch shapes."""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebnet import layers as layers_module
from chebnet import model as model_module
from chebnet.data import (NODE_TASK, conv_inputs_edge, conv_inputs_node,
                          synth_generate, zscore_normalize, Dataset)
from chebnet.graph import build_graph_context, graph_from_features
from chebnet.layers import ChebConv, GATLayer, GCNConv
from chebnet.model import build_model, default_graph_dims
from chebnet.training import (TrainingConfig, cross_validate, predict,
                              train_model)

from oracles import synth_edge_generate, whole_array_graph_backward


def make_graph(rng, n):
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    return build_graph_context((w + w.T) / 2.0)


def lift(features):
    """(B, C) rows -> (B, C, C) diagonal node-signal matrices diag(x_b)."""
    b, c = features.shape
    lifted = np.zeros((b, c, c))
    lifted[:, np.arange(c), np.arange(c)] = features
    return lifted


class TestDiagonalFirstLayer:
    def test_matches_lifted_dense(self):
        """``diagonal=True`` on (B, C) rows equals the dense forward on
        their diagonal node-signal matrices, for every graph layer, with a
        nonzero bias, which the diagonal GEMM adds; so do the parameter
        gradients of their backwards."""
        rng = np.random.default_rng(12)
        graph = make_graph(rng, 6)
        feats = rng.standard_normal((5, 6))
        lifted = lift(feats)
        np.testing.assert_array_equal(lifted[1], np.diag(feats[1]))
        makers = [lambda r, k=k: ChebConv(6, 4, order=k, rng=r)
                  for k in range(1, 5)]
        makers += [lambda r: GCNConv(6, 4, rng=r),
                   lambda r: GATLayer(6, 4, rng=r)]
        up = rng.standard_normal((5, 6, 4))
        for make in makers:
            grads = []
            for diagonal in (False, True):
                layer = make(np.random.default_rng(13))
                if hasattr(layer, "bias"):
                    layer.bias.value[...] = [0.5, -1.0, 2.0, 0.25]
                out = layer.forward(graph, feats if diagonal else lifted,
                                    diagonal=diagonal)
                layer.backward(up, x=feats if diagonal else lifted)
                grads.append([out] + [p.grad for _, p in layer.parameters()])
            for dense, diagonal in zip(*grads):
                assert diagonal.shape == dense.shape
                scale = np.abs(dense).max()
                assert np.abs(diagonal - dense).max() <= 1e-12 * scale

    def test_rejects_rows_that_do_not_fit_the_graph(self):
        rng = np.random.default_rng(14)
        graph = make_graph(rng, 6)
        with pytest.raises(ValueError, match="6 nodes"):
            ChebConv(5, 2, rng=rng).forward(graph, np.ones((3, 5)),
                                            diagonal=True)
        with pytest.raises(ValueError, match="rows"):
            GCNConv(6, 2, rng=rng).forward(graph, np.ones((3, 6, 6)),
                                           diagonal=True)


class TestConvInputs:
    def test_node_reshape(self):
        feats = np.arange(12.0).reshape(2, 6)
        x = conv_inputs_node(feats, (2, 3))
        assert x.shape == (2, 2, 3)
        np.testing.assert_array_equal(x[0, 0], [0.0, 1.0, 2.0])

    def test_edge_concat_along_length(self):
        feats = np.arange(12.0).reshape(2, 6)
        x = conv_inputs_edge(feats, [[0, 1]], (2, 3))
        assert x.shape == (1, 2, 6)
        np.testing.assert_array_equal(x[0, 0], [0.0, 1.0, 2.0, 6.0, 7.0, 8.0])


class TestParameterLayout:
    def test_dataco_graph_branch_counts(self):
        """Four-block branch over 10 channels: per-row parameter counts
        110/20/55/10/12/4/6/4 (conv, bn alternating)."""
        rng = np.random.default_rng(0)
        model = build_model("node-class", "cheb", width=10, n_classes=2,
                            conv_shape=(1, 10), rng=rng,
                            cheb_orders=(1, 1, 1, 1))
        counts = []
        for layer, bn in model.blocks:
            counts.append(sum(p.size for _, p in layer.parameters()))
            counts.append(sum(p.size for _, p in bn.parameters()))
        assert counts == [110, 20, 55, 10, 12, 4, 6, 4]

    def test_edge_head_shapes(self):
        rng = np.random.default_rng(1)
        for classes in (4, 25):
            model = build_model("edge-class", "cheb", width=12,
                                n_classes=classes, conv_shape=(1, 12),
                                rng=rng, cheb_orders=(1, 1, 1))
            h1, h2 = model.head.linears
            assert h1.weight.shape == (100, 100)  # 2 * embedding_dim -> 100
            assert h2.weight.shape == (100, classes)

    def test_order_scales_weight_blocks(self):
        rng = np.random.default_rng(2)
        model = build_model("node-class", "cheb", width=10, n_classes=2,
                            conv_shape=(1, 10), rng=rng,
                            cheb_orders=(3, 2, 1, 1))
        assert model.blocks[0][0].weight.shape[0] == 3
        assert model.blocks[1][0].weight.shape[0] == 2

    def test_default_depths(self):
        assert len(default_graph_dims("node-class", "cheb", 10, 2, 50)) == 4
        assert len(default_graph_dims("node-class", "gcn", 10, 2, 50)) == 3
        assert len(default_graph_dims("node-class", "gat", 10, 2, 50)) == 3
        assert default_graph_dims("edge-class", "cheb", 30, 4, 50)[-1] == 50

    def test_named_arrays_unique_and_stable(self):
        """The checkpoint manifest of a node and an edge model, name for
        name in its order: checkpoints written by earlier versions load
        only while it stays as it is."""
        def block_names(n_blocks):
            return [f"graph.{i}.{name}" for i in range(n_blocks)
                    for name in ("layer.weight", "layer.bias", "bn.gamma",
                                 "bn.beta", "bn.running_mean",
                                 "bn.running_var")]
        conv = ["conv.0.kernels", "conv.0.bias", "conv.1.kernels",
                "conv.1.bias"]
        head = ["head.0.weight", "head.0.bias", "head.1.weight",
                "head.1.bias"]
        for task, expected in (("node-class", block_names(4) + conv),
                               ("edge-class", block_names(3) + head + conv)):
            for seed in (3, 4):
                model = build_model(task, "cheb", 10, 2, (1, 10),
                                    rng=np.random.default_rng(seed))
                names = [n for n, _ in model.named_arrays()]
                assert names == expected
                assert len(names) == len(set(names))

    def test_architecture_record_rebuilds_model(self):
        rng = np.random.default_rng(6)
        model = build_model("edge-class", "gcn", 12, 3, (2, 8), rng=rng,
                            cheb_orders=(2, 1, 1), embedding_dim=7,
                            dropout_p=0.25, alpha=0.6)
        record = json.loads(json.dumps(model.architecture))
        assert record == model.architecture
        assert record["graph_dims"] == [100, 100, 7]
        again = build_model(**record, rng=np.random.default_rng(7))
        assert again.architecture == record
        assert [(n, a.shape) for n, a in again.named_arrays()] == \
            [(n, a.shape) for n, a in model.named_arrays()]
        assert (again.architecture["alpha"], again.dropout_p) == (0.6, 0.25)

    def test_validates_inputs(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            build_model("node-class", "sage", 10, 2, (1, 10), rng=rng)
        with pytest.raises(ValueError):
            build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng,
                        graph_dims=(10, 5))  # depth 2
        with pytest.raises(ValueError):
            build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng,
                        graph_dims=(10, 5, 3, 4))  # last != classes
        with pytest.raises(ValueError):
            build_model("node-class", "cheb", 10, 2, (1, 6), rng=rng)  # short


class TestBranches:
    def test_graph_branch_shapes(self):
        rng = np.random.default_rng(6)
        graph = make_graph(rng, 10)
        model = build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng,
                            dropout_p=0.0)
        feats = rng.standard_normal((7, 10))
        out = model.graph_forward(graph, feats, training=False)
        assert out.shape == (7, 2)
        assert np.abs(np.exp(out).sum(axis=1) - 1.0).max() < 1e-9

    def test_conv_branch_shapes(self):
        rng = np.random.default_rng(7)
        model = build_model("node-class", "cheb", 10, 3, (1, 10), rng=rng)
        out = model.conv_forward(rng.standard_normal((5, 1, 10)))
        assert out.shape == (5, 3)

    def test_edge_branch_shapes(self):
        rng = np.random.default_rng(8)
        graph = make_graph(rng, 6)
        model = build_model("edge-class", "cheb", 8, 4, (1, 8), rng=rng,
                            dropout_p=0.0)
        feats = rng.standard_normal((6, 8))
        edges = np.array([[0, 1], [2, 3], [4, 5]])
        out = model.graph_forward(graph, feats, edges, training=False)
        assert out.shape == (3, 4)

    def test_edge_task_requires_edges(self):
        rng = np.random.default_rng(9)
        graph = make_graph(rng, 6)
        model = build_model("edge-class", "cheb", 8, 4, (1, 8), rng=rng)
        with pytest.raises(ValueError):
            model.graph_forward(graph, rng.standard_normal((6, 8)))

    def test_layer_activations_rows(self):
        rng = np.random.default_rng(10)
        graph = make_graph(rng, 10)
        model = build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng)
        feats = rng.standard_normal((12, 10))
        acts = model.layer_activations(graph, feats)
        assert len(acts) == 1 + len(model.blocks)
        for act in acts:
            assert act.shape[0] == 10  # one row per graph node
        np.testing.assert_array_equal(acts[0], lift(feats).mean(axis=0))

    def test_dropout_only_in_training(self):
        rng = np.random.default_rng(11)
        graph = make_graph(rng, 10)
        model = build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng,
                            dropout_p=0.5)
        feats = rng.standard_normal((6, 10))
        a = model.graph_forward(graph, feats, training=False)
        b = model.graph_forward(graph, feats, training=False)
        np.testing.assert_array_equal(a, b)


def held_caches(model):
    """Every backward cache the model and its layers hold, by owner."""
    layers = [layer for block in model.blocks for layer in block]
    layers += [model.head] + getattr(model.head, "linears", [])
    layers += model.conv_layers
    held = {f"{type(layer).__name__}#{i}": layer._cache
            for i, layer in enumerate(layers)}
    held.update({f"BatchNorm#{i}.grad": bn._grad
                 for i, (_, bn) in enumerate(model.blocks)})
    held.update(gcache=model._gcache, ccache=model._ccache)
    return {owner: cache for owner, cache in held.items() if cache is not None}


def node_and_edge_cases(variant):
    """(model, graph, (features, edges), conv sequences) for a node and an
    edge task."""
    rng = np.random.default_rng(12)
    graph = make_graph(rng, 10)
    node = build_model("node-class", variant, 10, 2, (1, 10), rng=rng)
    edge = build_model("edge-class", variant, 8, 3, (1, 8), rng=rng)
    edges = np.array([[0, 1], [2, 3], [4, 9], [1, 4]])
    feats = rng.standard_normal((10, 8))
    rows = rng.standard_normal((5, 10))
    return [
        (node, graph, (rows, None), conv_inputs_node(rows, (1, 10))),
        (edge, graph, (feats, edges), conv_inputs_edge(feats, edges, (1, 8))),
    ]


class TestCacheLifecycle:
    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_eval_forward_keeps_no_cache(self, variant):
        rng = np.random.default_rng(13)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            model.graph_forward(graph, feats, edges, training=True, rng=rng)
            # each block's two layers, the head, its Linears, the masks
            linears = getattr(model.head, "linears", [])
            assert len(held_caches(model)) == \
                2 * len(model.blocks) + 2 + len(linears)
            model.graph_forward(graph, feats, edges, training=False)
            assert held_caches(model) == {}
            model.layer_activations(graph, feats)
            assert held_caches(model) == {}

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_backward_releases_every_cache(self, variant):
        rng = np.random.default_rng(14)
        for model, graph, (feats, edges), seqs in node_and_edge_cases(variant):
            glp = model.graph_forward(graph, feats, edges, training=True,
                                      rng=rng)
            clp = model.conv_forward(seqs)
            model.graph_backward(np.ones_like(glp))
            assert model.conv_backward(np.ones_like(clp)) is None
            assert held_caches(model) == {}
            with pytest.raises(RuntimeError):
                model.graph_backward(np.ones_like(glp))
            with pytest.raises(RuntimeError):
                model.conv_backward(np.ones_like(clp))


class TestInputGradient:
    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_first_block_returns_none(self, variant):
        """Every graph layer's backward returns None.  Each hidden one is
        handed the previous block's BatchNorm and sign mask; the first
        layer, the diagonal one of a node model and the dense one of an
        edge model alike, is handed neither."""
        rng = np.random.default_rng(15)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            returned = []
            for layer, _ in model.blocks:
                def backward(up, *, _inner=layer.backward, **kwargs):
                    out = _inner(up, **kwargs)
                    returned.append((out, kwargs))
                    return out
                layer.backward = backward
            glp = model.graph_forward(graph, feats, edges, training=True,
                                      rng=rng)
            model.graph_backward(np.ones_like(glp))
            returned.reverse()      # the backward runs last block first
            assert [out for out, _ in returned] == [None] * len(model.blocks)
            (_, first), *upper = returned
            assert set(first) == {"x"}
            for (_, bn), (_, kwargs) in zip(model.blocks, upper):
                assert kwargs["bn"] is bn
                assert kwargs["positive"].dtype == bool

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_edge_first_layer_forms_no_input_gradient(self, monkeypatch,
                                                      variant):
        """An edge model's first graph layer takes the dense (N, F) node
        features, and nothing is handed to it: its backward makes no
        (N, F) input-gradient product, while each hidden layer makes its
        own."""
        products = []
        real = layers_module._matmul_transposed
        monkeypatch.setattr(layers_module, "_matmul_transposed",
                            lambda a, bt, **k: products.append(
                                (a.shape[:-1] + bt.shape[-1:]))
                            or real(a, bt, **k))
        rng = np.random.default_rng(24)
        model, graph, (feats, edges), _ = node_and_edge_cases(variant)[1]
        per_layer = []
        for layer, _ in model.blocks:
            def backward(up, *, _inner=layer.backward, **kwargs):
                products.clear()
                _inner(up, **kwargs)
                per_layer.append(list(products))
            layer.backward = backward
        glp = model.graph_forward(graph, feats, edges, training=True,
                                  rng=rng)
        model.graph_backward(np.ones_like(glp))
        *hidden, first = per_layer      # the backward runs last block first
        assert feats.shape not in first
        for (layer, _), made in zip(model.blocks[1:], reversed(hidden)):
            assert (graph.n_nodes, layer.in_features) in made


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def cached_arrays(cache):
    """The arrays a layer's cache (an array, a tuple or a dict) holds."""
    if isinstance(cache, dict):
        cache = tuple(cache.values())
    elif not isinstance(cache, tuple):
        cache = (cache,)
    return [a for a in cache if isinstance(a, np.ndarray)]


class TestGraphLayerInputs:
    """No graph layer keeps its input from forward to backward: the model
    hands each layer its input back.  A hidden layer's input is the
    previous BatchNorm's cached xc with that BatchNorm's scale and shift,
    which the layer folds into its weights, so no hidden BatchNorm output
    is formed; its backward leaves dL/dz of the previous block there."""

    @staticmethod
    def record(model):
        """Wrap every graph layer's forward and backward; returns the lists
        of forward (x, x bytes, keywords) and of backward (x, x bytes at
        the call, x bytes after it, up)."""
        inputs, calls = [], []
        for layer, _ in model.blocks:
            def forward(graph, x, *, _inner=layer.forward, **kwargs):
                inputs.append((x, x.tobytes(), kwargs))
                return _inner(graph, x, **kwargs)

            def backward(up, *, x, _inner=layer.backward, **kwargs):
                seen = x.tobytes()
                out = _inner(up, x=x, **kwargs)
                calls.append((x, seen, x.tobytes(), up))
                return out
            layer.forward, layer.backward = forward, backward
        return inputs, calls

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_no_cache_holds_the_input(self, variant):
        """After a train-mode forward no graph layer's cache shares memory
        with its input, the diagonal first layer's rows included."""
        rng = np.random.default_rng(16)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            inputs, _ = self.record(model)
            model.graph_forward(graph, feats, edges, training=True, rng=rng)
            for (layer, _), (x, _, _) in zip(model.blocks, inputs):
                assert not any(np.shares_memory(a, x)
                               for a in cached_arrays(layer._cache))

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_hidden_input_is_the_batchnorm_cache(self, variant):
        """The first layer takes the caller's features as they are; each
        hidden layer's train-mode input is the previous BatchNorm's cached
        xc, with that BatchNorm's gamma * inv_std and beta."""
        rng = np.random.default_rng(19)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            inputs, _ = self.record(model)
            model.graph_forward(graph, feats, edges, training=True, rng=rng)
            (x, _, kwargs), *hidden = inputs
            assert x is feats and kwargs["scale"] is None
            for (_, bn), (x, _, kwargs) in zip(model.blocks, hidden):
                xc, inv_std, shape = bn._cache
                assert np.shares_memory(x, xc) and x.shape == shape
                assert same_bits(kwargs["scale"], bn.gamma.value * inv_std)
                assert same_bits(kwargs["shift"], bn.beta.value)

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_handed_back_input_keeps_its_bits(self, variant):
        """Each backward is handed its forward's input, bit for bit.  The
        first layer's, the caller's features, keeps its bits; each hidden
        one, a BatchNorm's cache, then holds dL/dz of the previous block,
        which is what the previous layer's backward is handed, in the
        same memory."""
        rng = np.random.default_rng(17)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            before = feats.tobytes()
            inputs, calls = self.record(model)
            glp = model.graph_forward(graph, feats, edges, training=True,
                                      rng=rng)
            model.graph_backward(np.ones_like(glp))
            calls.reverse()     # the backward runs last block first
            for (want, want_bytes, _), (x, seen, _, _) in zip(inputs, calls):
                assert x is want and seen == want_bytes
            assert calls[0][0] is feats and feats.tobytes() == before
            for (x, _, after, _), (_, _, _, up) in zip(calls[1:], calls):
                assert up is x and after == up.tobytes()

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_hidden_batchnorm_takes_the_next_layers_sums(self, variant):
        """Each hidden BatchNorm is handed, before any row of its upstream
        gradient, the column sums of that gradient and of that gradient
        times its cached xc, which the next graph layer formed from its
        own products: each within 1e-12 of the sum of its terms'
        magnitudes of the sums over the arrays.  The last BatchNorm, which
        feeds the head, is handed none and forms its own."""
        rng = np.random.default_rng(21)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            seen = []
            for _, bn in model.blocks:
                def take_sums(*sums, _bn=bn, _inner=bn.take_sums):
                    seen.append((_bn, _bn._cache[0].copy(), sums, []))
                    return _inner(*sums)

                def backward(up, *, _bn=bn, _inner=bn.backward, **kwargs):
                    if seen and seen[-1][0] is _bn:
                        seen[-1][3].append(up.reshape(-1, _bn.width).copy())
                    return _inner(up, **kwargs)
                bn.take_sums, bn.backward = take_sums, backward
            glp = model.graph_forward(graph, feats, edges, training=True,
                                      rng=rng)
            model.graph_backward(np.ones_like(glp))
            # the backward runs last block first
            assert [b for b, _, _, _ in seen] == \
                [bn for _, bn in model.blocks[-2::-1]]
            for _, xc, (up_sum, up_xc), blocks in seen:
                up = np.concatenate(blocks)
                for got, terms in ((up_sum, up), (up_xc, up * xc)):
                    assert np.all(np.abs(got - terms.sum(axis=0))
                                  <= 1e-12 * np.abs(terms).sum(axis=0))

    def test_a_hidden_dx_without_sums_is_refused(self):
        """A hidden layer's backward that handed its BatchNorm rows of dx
        without the sums over all of them would leave dL/dz formed with
        another block's constants; the BatchNorm refuses it instead."""
        rng = np.random.default_rng(22)
        model, graph, (rows, _), _ = node_and_edge_cases("cheb")[0]
        model.blocks[-2][1].take_sums = lambda *sums: None
        glp = model.graph_forward(graph, rows[:3], training=True, rng=rng)
        with pytest.raises(ValueError, match="take_sums"):
            model.graph_backward(np.ones_like(glp))

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    @pytest.mark.parametrize("training", [True, False])
    def test_only_the_last_block_forms_its_output(self, monkeypatch,
                                                  variant, training):
        """A forward forms one block output, the last, which feeds dropout
        and the head; every hidden one is folded into the next layer."""
        rng = np.random.default_rng(20)
        formed = []
        real = model_module.apply_affine
        monkeypatch.setattr(model_module, "apply_affine",
                            lambda *a, **k: formed.append(a[0].shape)
                            or real(*a, **k))
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            formed.clear()
            out = model.graph_forward(graph, feats, edges, training=training,
                                      rng=rng)
            width = model.blocks[-1][1].width
            assert formed == [feats.shape[:1] + (graph.n_nodes, width)
                              if model.head.samples_are_rows
                              else (graph.n_nodes, width)]
            if training:
                model.graph_backward(np.ones_like(out))


def hand_over_case(variant, order, task, rng):
    """(model, graph, features, edges) with every graph layer of the given
    order: a node task on 23 rows of 9 channels, or an edge task on 9
    nodes of 6 features."""
    graph = make_graph(rng, 9)
    if task == "node":
        model = build_model("node-class", variant, 9, 3, (1, 9), rng=rng,
                            cheb_orders=(order,) * 4)
        return model, graph, rng.standard_normal((23, 9)), None
    model = build_model("edge-class", variant, 6, 3, (1, 6), rng=rng,
                        cheb_orders=(order,) * 3)
    edges = np.array([[0, 1], [2, 3], [4, 8], [1, 4], [5, 5], [7, 2]])
    return model, graph, rng.standard_normal((9, 6)), edges


class TestHandOver:
    """Each hidden layer's backward hands dx to the previous BatchNorm,
    which writes dL/dz of its block over its own cache, block by block;
    the bits are those of the whole-array form, where each layer formed a
    new dx and the BatchNorm then took the handed sums and the ReLU its
    mask (``oracles.whole_array_graph_backward``)."""

    @pytest.mark.parametrize("task", ["node", "edge"])
    @pytest.mark.parametrize("variant, order", [("cheb", 1), ("cheb", 3),
                                                ("gcn", 1), ("gat", 1)],
                             ids=["cheb1", "cheb3", "gcn", "gat"])
    def test_matches_the_whole_array_backward(self, monkeypatch, variant,
                                              order, task):
        """Every parameter gradient and the dL/dz each block's layer is
        handed keep the bits of the whole-array form; a hidden layer's
        dL/dz is the next layer's input x, the BatchNorm's cache.  The
        node rows span several sample blocks (a 3000-byte budget cuts the
        23 rows of 9 nodes at width 9 into six blocks)."""
        monkeypatch.setattr(layers_module, "BLOCK_BYTES", 3000)
        model, graph, feats, edges = hand_over_case(
            variant, order, task, np.random.default_rng(31))
        oracle = copy.deepcopy(model)
        handed = []
        for layer, _ in model.blocks:
            def backward(up, *, x, _inner=layer.backward, **kwargs):
                handed.append((up, up.copy(), x))
                return _inner(up, x=x, **kwargs)
            layer.backward = backward
        outs = [m.graph_forward(graph, feats, edges, training=True,
                                rng=np.random.default_rng(1))
                for m in (model, oracle)]
        dout = np.random.default_rng(2).standard_normal(outs[0].shape)
        model.graph_backward(dout.copy())
        want_dz = whole_array_graph_backward(oracle, dout.copy())
        handed.reverse()        # the backward runs last block first
        for (_, dz, _), want in zip(handed, want_dz):
            assert same_bits(dz, want)
        for (up, _, _), (_, _, x) in zip(handed, handed[1:]):
            assert up is x
        if task == "node":
            assert len(layers_module._sample_blocks(
                handed[1][2], model.blocks[1][0].in_features)) > 1
        for got, want in zip(model.graph_parameters(),
                             oracle.graph_parameters()):
            assert same_bits(got.grad, want.grad)

    def test_graph_backward_peaks_a_dx_below_the_whole_array_form(self):
        """At sg-product's shape, 372 windows of 80 channel nodes at
        K = 3, whose second layer maps (372, 80, 80) to 40 channels, the
        graph backward's tracemalloc peak is at least that layer's dx,
        18.2 MiB, below the whole-array form's (5.6 against 30.1 MiB)."""
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((372, 80))
        graph = graph_from_features(feats, 0.5)
        graph.cheb_basis(3)     # built once per graph, not per backward
        model = build_model(NODE_TASK, "cheb", 80, 3, (4, 20), rng=rng,
                            cheb_orders=(3, 3, 3, 3))
        assert model.blocks[1][0].in_features == 80
        dx_bytes = feats.size * 80 * feats.itemsize
        peaks = []
        for backward in (lambda m, d: whole_array_graph_backward(m, d, False),
                         lambda m, d: m.graph_backward(d)):
            run = copy.deepcopy(model)
            glp = run.graph_forward(graph, feats, training=True,
                                    rng=np.random.default_rng(1))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                backward(run, np.ones_like(glp))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        whole, handed = peaks
        assert handed <= whole - dx_bytes


class TestTrainingStepMemory:
    """One training epoch at the benchmark workloads' shapes stays under a
    tracemalloc peak set from the measured one (36.4 MiB at sg-product's,
    50.4 MiB at dataco-csv's; 51.6 MiB at sg-product's while each hidden
    graph layer formed a new dx; 62.7 and 55.5 MiB while ChebConv's backward
    formed each whole-batch propagated gradient and the graph backward
    held its masks to the end, 60.7 MiB at dataco-csv's while each hidden
    BatchNorm formed its output, and 71.0 and 82.3 MiB while each graph
    layer kept its input and ChebConv its K - 1 propagated gradients)."""

    @pytest.mark.parametrize("rows, channels, classes, conv_shape, orders, "
                             "bound_mib", [
                                 (372, 80, 3, (4, 20), (3, 3, 3, 3), 40),
                                 (20000, 11, 2, (1, 11), (1, 1, 1, 1), 54),
                             ], ids=["sg-product", "dataco-csv"])
    def test_peak(self, rows, channels, classes, conv_shape, orders,
                  bound_mib):
        rng = np.random.default_rng(18)
        dataset = Dataset(rng.standard_normal((rows, channels)),
                          rng.integers(0, classes, rows), NODE_TASK, classes,
                          conv_shape=conv_shape)
        graph = graph_from_features(dataset.features, 0.5)
        config = TrainingConfig(cheb_orders=orders, epochs=1,
                                early_stop=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_model(dataset, graph, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20


    @pytest.mark.parametrize("variant", ["cheb", "gcn"])
    def test_backward_drops_each_mask_once_used(self, variant):
        """``graph_backward`` drops the dropout mask and each block's sign
        mask once it has applied them: at the entry of the second graph
        layer's backward on a (20000, 11) batch the live memory is lower,
        by at least the dropout mask's size, than when the test holds the
        masks to the end."""
        def live_at_second_layer(hold):
            rng = np.random.default_rng(23)
            feats = rng.standard_normal((20000, 11))
            graph = graph_from_features(feats, 0.5)
            model = build_model(NODE_TASK, variant, 11, 2, (1, 11), rng)
            layer, seen = model.blocks[1][0], []
            inner = layer.backward

            def backward(up, **kwargs):
                seen.append(tracemalloc.get_traced_memory()[0])
                return inner(up, **kwargs)
            layer.backward = backward
            tracemalloc.start()
            try:
                glp = model.graph_forward(graph, feats, training=True,
                                          rng=rng)
                cache = model._gcache
                held = [cache["mask"], *cache["signs"]] if hold else None
                mask_bytes = cache["mask"].nbytes
                del cache
                base = tracemalloc.get_traced_memory()[0]
                model.graph_backward(np.ones_like(glp))
                del held    # the masks it holds lived through the backward
            finally:
                tracemalloc.stop()
            return seen[0] - base, mask_bytes

        dropped, mask_bytes = live_at_second_layer(hold=False)
        held, _ = live_at_second_layer(hold=True)
        assert dropped <= held - mask_bytes


class TestCallerArraysUntouched:
    """The activations and BatchNorm overwrite what they are given, so the
    model must hand them only arrays it owns: no training or inference path
    may write into the caller's features or conv sequences."""

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    @pytest.mark.parametrize("task", ["node", "edge"])
    def test_features_and_conv_inputs_keep_their_bits(self, task, variant):
        if task == "node":
            dataset, _ = synth_generate(24, 10, 2, separation=2.0, seed=3)
            graph = graph_from_features(dataset.features, 0.6)
        else:
            dataset, _ = synth_edge_generate(10, 6, 2, separation=2.0,
                                             n_edges=30, seed=3)
            graph = graph_from_features(dataset.features.T, 0.6)
        cfg = TrainingConfig(variant=variant, epochs=3, folds=2, seed=0,
                             early_stop=False, threshold=0.6)
        feats = dataset.features
        before = feats.copy()
        # a node task's conv sequences are a view of its features
        model, _ = train_model(dataset, graph, cfg)
        cross_validate(dataset, cfg)
        predict(model, graph, feats, dataset.edges)
        model.layer_activations(graph, feats)
        assert feats.tobytes() == before.tobytes()

        seqs = (conv_inputs_node(feats, dataset.conv_shape)
                if task == "node" else
                conv_inputs_edge(feats, dataset.edges, dataset.conv_shape))
        seqs_before = seqs.copy()
        model.conv_backward(np.ones_like(model.conv_forward(seqs)))
        assert seqs.tobytes() == seqs_before.tobytes()
        assert feats.tobytes() == before.tobytes()


class TestBlockedEval:
    """An eval-mode node-task forward runs its rows in blocks, and each
    row's log-probabilities must keep the bits of one whole-batch block.
    BLAS does not promise that a row's products are independent of the
    row count, so this guards it at the benchmark shapes: sg-product's 372
    windows of 80 channels at K = 3, dataco-csv's 20 000 rows of 11
    channels, and a row count one past a whole block."""

    SHAPES = [(372, 80, [3, 3, 3, 3]), (20000, 11, [1]), (4333, 11, [1])]

    @staticmethod
    def case(variant, rows, nodes, orders, dims=None):
        """A model with random BatchNorm statistics, its graph and rows."""
        rng = np.random.default_rng(16)
        graph = make_graph(rng, nodes)
        model = build_model("node-class", variant, nodes, 3, (1, nodes),
                            rng=rng, cheb_orders=orders, graph_dims=dims)
        for _, bn in model.blocks:
            bn.running_mean[...] = rng.standard_normal(bn.width)
            bn.running_var[...] = rng.uniform(0.5, 2.0, bn.width)
        return model, graph, rng.standard_normal((rows, nodes))

    @staticmethod
    def record_blocks(monkeypatch, model):
        """The list each block's row count is appended to as the model's
        ``graph_forward`` runs it."""
        sizes = []
        block = model._graph_block
        monkeypatch.setattr(model, "_graph_block",
                            lambda g, f, *a: sizes.append(len(f)) or
                            block(g, f, *a))
        return sizes

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    @pytest.mark.parametrize("rows, nodes, orders", SHAPES)
    def test_blocks_keep_the_bits_of_one_block(self, monkeypatch, variant,
                                               rows, nodes, orders):
        model, graph, x = self.case(variant, rows, nodes, orders)
        sizes = self.record_blocks(monkeypatch, model)
        blocked = model.graph_forward(graph, x)
        assert len(sizes) > 1 and sum(sizes) == rows
        sizes.clear()
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 1 << 62)
        whole = model.graph_forward(graph, x)
        assert sizes == [rows]      # the whole batch runs as one block
        assert blocked.shape == (rows, 3)
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    @pytest.mark.parametrize("rows, nodes, orders", SHAPES)
    def test_a_row_alone_keeps_its_bits(self, monkeypatch, variant, rows,
                                        nodes, orders):
        """A one-row batch, as ``chebnet eval`` of a one-row file runs,
        scores each of the first 300 rows as the whole batch does."""
        model, graph, x = self.case(variant, rows, nodes, orders)
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 1 << 62)
        whole = model.graph_forward(graph, x)[:300]
        alone = np.concatenate([model.graph_forward(graph, x[i:i + 1])
                                for i in range(300)])
        assert alone.shape == (300, 3)
        assert alone.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_blocks_past_512_nodes_hold_two_rows(self, monkeypatch, variant):
        """Past 512 nodes a block's byte budget holds under two rows; each
        block still holds two or more, the remainder too, so no row keeps
        the bits of a one-row product.  Hidden widths 32 and 16 keep the
        first layer's (N, N, F) operand at 92 MB; in one-row blocks gcn
        moves 2 of the 40 rows here."""
        model, graph, x = self.case(variant, 40, 600, [1], (32, 16, 3))
        # a row's widest activation holds at least N x N items
        assert 2 * x.itemsize * 600 * 600 > model_module.EVAL_BLOCK_BYTES
        sizes = self.record_blocks(monkeypatch, model)
        blocked = model.graph_forward(graph, x)
        # 40 // 2 blocks, the most the rule allows, and none of one row
        assert sizes == [2] * 20
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 1 << 62)
        whole = model.graph_forward(graph, x)
        assert blocked.shape == (40, 3)
        assert blocked.tobytes() == whole.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), variant=st.sampled_from(["cheb", "gcn", "gat"]),
           nodes=st.integers(2, 600), budget_log2=st.integers(0, 23),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_keep_the_bits_at_any_shape(self, data, variant, nodes,
                                               budget_log2, seed):
        """At any node count up to 600, row count and block budget, the
        blocked eval forward gives each row the bits of a one-block run.
        Row counts fall as nodes grow, so that GAT's (rows, N, N)
        attention arrays stay near 16 MiB."""
        rows = data.draw(st.integers(1, max(3, min(64, 2**21 // nodes**2))),
                         label="rows")
        widths = data.draw(st.lists(st.integers(1, 8), min_size=2,
                                    max_size=3), label="widths")
        orders = data.draw(st.lists(st.integers(1, 3), min_size=len(widths),
                                    max_size=len(widths)), label="orders")
        rng = np.random.default_rng(seed)
        graph = make_graph(rng, nodes)
        model = build_model("node-class", variant, nodes, 3, (1, 10),
                            rng=rng, cheb_orders=orders + [1],
                            graph_dims=widths + [3])
        for _, bn in model.blocks:
            bn.running_mean[...] = rng.standard_normal(bn.width)
            bn.running_var[...] = rng.uniform(0.5, 2.0, bn.width)
        x = rng.standard_normal((rows, nodes))
        sizes = []
        block = model._graph_block
        model._graph_block = lambda g, f, *a: (sizes.append(len(f))
                                               or block(g, f, *a))
        budget = model_module.EVAL_BLOCK_BYTES
        try:
            model_module.EVAL_BLOCK_BYTES = 1 << budget_log2
            blocked = model.graph_forward(graph, x)
            assert sum(sizes) == max(rows, 2) and min(sizes) >= 2
            sizes.clear()
            model_module.EVAL_BLOCK_BYTES = 1 << 62
            whole = model.graph_forward(graph, x)
        finally:
            model_module.EVAL_BLOCK_BYTES = budget
        assert sizes == [max(rows, 2)]  # a lone row runs as two copies
        assert blocked.shape == (rows, 3)
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("rows", [2, 3, 5, 41])
    def test_every_block_holds_two_rows(self, monkeypatch, rows):
        model, graph, x = self.case("gcn", rows, 600, [1], (4, 4, 3))
        sizes = self.record_blocks(monkeypatch, model)
        model.graph_forward(graph, x)
        assert sum(sizes) == rows and min(sizes) >= 2

    def test_empty_batch(self):
        rng = np.random.default_rng(17)
        graph = make_graph(rng, 10)
        model = build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng)
        assert model.graph_forward(graph, np.zeros((0, 10))).shape == (0, 2)


class TestOverfitQuick:
    def test_cheb_overfits_tiny_task(self):
        dataset, _ = synth_generate(8, 10, 2, separation=2.0, seed=11)
        feats, _, _ = zscore_normalize(dataset.features)
        full = Dataset(feats, dataset.targets, dataset.task,
                       dataset.n_classes)
        graph = graph_from_features(feats, 0.7)
        cfg = TrainingConfig(epochs=800, folds=2, seed=0, dropout=0.0,
                             weight_decay=0.0, lr_graph=0.01, lr_conv=0.001,
                             early_stop=False)
        _, history = train_model(full, graph, cfg)
        assert min(h[3] for h in history) < 0.01
