"""Ensemble model assembly: parameter layout, diagonal input, branch shapes."""

import json
import tracemalloc

import numpy as np
import pytest

from chebnet import model as model_module
from chebnet.data import (NODE_TASK, conv_inputs_edge, conv_inputs_node,
                          synth_generate, zscore_normalize, Dataset)
from chebnet.graph import build_graph_context, graph_from_features
from chebnet.layers import ChebConv, GATLayer, GCNConv
from chebnet.model import build_model, default_graph_dims
from chebnet.training import (TrainingConfig, cross_validate, predict,
                              train_model)

from oracles import synth_edge_generate


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
        their diagonal node-signal matrices, for every graph layer."""
        rng = np.random.default_rng(12)
        graph = make_graph(rng, 6)
        feats = rng.standard_normal((5, 6))
        lifted = lift(feats)
        np.testing.assert_array_equal(lifted[1], np.diag(feats[1]))
        makers = [lambda r, k=k: ChebConv(6, 4, order=k, rng=r)
                  for k in range(1, 5)]
        makers += [lambda r: GCNConv(6, 4, rng=r),
                   lambda r: GATLayer(6, 4, rng=r)]
        for make in makers:
            layer = make(np.random.default_rng(13))
            dense = layer.forward(graph, lifted)
            diagonal = layer.forward(graph, feats, diagonal=True)
            assert diagonal.shape == dense.shape == (5, 6, 4)
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
        """The diagonal first layer of a node model forms no input
        gradient; an edge model's dense first layer returns one of its
        input's shape, which graph_backward discards."""
        rng = np.random.default_rng(15)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            returned = []
            for layer, _ in model.blocks:
                def backward(up, *, x, _inner=layer.backward):
                    dx = _inner(up, x=x)
                    returned.append(dx)
                    return dx
                layer.backward = backward
            glp = model.graph_forward(graph, feats, edges, training=True,
                                      rng=rng)
            model.graph_backward(np.ones_like(glp))
            *upper, first = returned    # backward runs last block first
            if not model.head.samples_are_rows:
                assert isinstance(first, np.ndarray)
                assert first.shape == feats.shape
            else:
                assert first is None
            assert all(isinstance(dx, np.ndarray) for dx in upper)


def cached_arrays(cache):
    """The arrays a layer's cache (an array, a tuple or a dict) holds."""
    if isinstance(cache, dict):
        cache = tuple(cache.values())
    elif not isinstance(cache, tuple):
        cache = (cache,)
    return [a for a in cache if isinstance(a, np.ndarray)]


class TestGraphLayerInputs:
    """No graph layer keeps its input from forward to backward: the model
    hands it back to the backward (``EnsembleModel._layer_input``), and a
    dense one becomes that layer's input gradient."""

    @staticmethod
    def record(model):
        """Wrap every graph layer's forward and backward; returns the lists
        of forward inputs and of backward (x bytes, x, dx)."""
        inputs, calls = [], []
        for layer, _ in model.blocks:
            def forward(graph, x, *, diagonal=False, _inner=layer.forward):
                inputs.append(x)
                return _inner(graph, x, diagonal=diagonal)

            def backward(up, *, x, _inner=layer.backward):
                seen = None if x is None else x.tobytes()
                dx = _inner(up, x=x)
                calls.append((seen, x, dx))
                return dx
            layer.forward, layer.backward = forward, backward
        return inputs, calls

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_no_cache_holds_the_input(self, variant):
        """After a train-mode forward no graph layer's cache shares memory
        with its input.  GCNConv keeps P x, not x, and its diagonal first
        layer references the caller's rows, which cost nothing."""
        rng = np.random.default_rng(16)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            inputs, _ = self.record(model)
            model.graph_forward(graph, feats, edges, training=True, rng=rng)
            for i, ((layer, _), x) in enumerate(zip(model.blocks, inputs)):
                if i or layer.takes_input:
                    assert not any(np.shares_memory(a, x)
                                   for a in cached_arrays(layer._cache))

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    def test_handed_back_input_keeps_its_bits(self, variant):
        """The backward of a layer that ``takes_input`` gets its forward's
        input bit for bit (a hidden layer's formed again by BatchNorm).  A
        dense one becomes dx, so it is never the caller's features; the
        diagonal rows are only read."""
        rng = np.random.default_rng(17)
        for model, graph, (feats, edges), _ in node_and_edge_cases(variant):
            inputs, calls = self.record(model)
            glp = model.graph_forward(graph, feats, edges, training=True,
                                      rng=rng)
            model.graph_backward(np.ones_like(glp))
            # the backward runs last block first
            for (layer, _), want, (seen, x, dx) in zip(
                    model.blocks, inputs, reversed(calls)):
                if not layer.takes_input:
                    assert x is None
                    continue
                assert seen == want.tobytes()
                if dx is not None:      # dense input, overwritten
                    assert dx is x and not np.shares_memory(x, feats)


class TestTrainingStepMemory:
    """One training epoch at the benchmark workloads' shapes stays under a
    tracemalloc peak set from the measured one (62.9 MiB at sg-product's,
    60.7 MiB at dataco-csv's; 71.0 and 82.3 MiB while each graph layer
    kept its input and ChebConv its K - 1 propagated gradients)."""

    @pytest.mark.parametrize("rows, channels, classes, conv_shape, orders, "
                             "bound_mib", [
                                 (372, 80, 3, (4, 20), (3, 3, 3, 3), 66),
                                 (20000, 11, 2, (1, 11), (1, 1, 1, 1), 64),
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

    @pytest.mark.parametrize("variant", ["cheb", "gcn", "gat"])
    @pytest.mark.parametrize("rows, nodes, orders", SHAPES)
    def test_blocks_keep_the_bits_of_one_block(self, monkeypatch, variant,
                                               rows, nodes, orders):
        model, graph, x = self.case(variant, rows, nodes, orders)
        assert model._eval_block_rows(nodes) < rows
        blocked = model.graph_forward(graph, x)
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 1 << 62)
        whole = model.graph_forward(graph, x)
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
        assert model._eval_block_rows(600) == 1
        blocked = model.graph_forward(graph, x)
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 1 << 62)
        whole = model.graph_forward(graph, x)
        assert blocked.shape == (40, 3)
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("rows", [2, 3, 5, 41])
    def test_every_block_holds_two_rows(self, monkeypatch, rows):
        model, graph, x = self.case("gcn", rows, 600, [1], (4, 4, 3))
        sizes = []
        block = model._graph_block
        monkeypatch.setattr(model, "_graph_block",
                            lambda g, f, *a: sizes.append(len(f)) or
                            block(g, f, *a))
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
