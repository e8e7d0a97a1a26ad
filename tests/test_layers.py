"""Layer forward-pass contracts and activation semantics."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebnet import graph as graphmod
from chebnet.graph import build_graph_context, cheb_apply
from chebnet.layers import (
    BLOCK_BYTES,
    BatchNorm,
    ChebConv,
    Conv1D,
    GATLayer,
    GCNConv,
    InvalidStateError,
    Linear,
    _channelwise,
    _row_blocks,
    _sample_blocks,
    apply_affine,
    dropout,
    glorot_uniform,
    leaky_relu_backward,
    log_softmax,
    relu,
    relu_backward,
)

from oracles import (gat_attention_oracle, input_grad, leaky_relu,
                     spectral_filter_oracle)


def make_graph(rng, n, density=0.7):
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = (w + w.T) / 2.0
    return build_graph_context(w)


def bn_output(bn, x):
    """BatchNorm's output y, formed from the (x, scale, shift) its forward
    hands over."""
    return apply_affine(*bn.forward(x))


def param_count(layer):
    return sum(p.size for _, p in layer.parameters())


class TestActivations:
    def test_relu(self):
        assert relu(np.array(-3.0)) == 0.0
        assert relu(np.array(2.5)) == 2.5

    def test_leaky_relu(self):
        assert leaky_relu(np.array(-10.0), 0.1) == pytest.approx(-1.0)
        assert leaky_relu(np.array(4.0), 0.1) == 4.0

    def test_log_softmax_uniform(self):
        for c in (2, 5, 9):
            out = log_softmax(np.full((3, c), 0.42))
            np.testing.assert_allclose(out, -np.log(c), atol=1e-12)

    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(0)
        out = log_softmax(rng.standard_normal((50, 7)) * 10)
        sums = np.exp(out).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-9

    def test_dropout_p_zero_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        for training in (True, False):
            y, mask = dropout(x, 0.0, training=training)
            assert mask is None
            np.testing.assert_array_equal(y, x)

    def test_dropout_eval_identity(self):
        x = np.ones((4, 4))
        y, mask = dropout(x, 0.5, training=False)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_dropout_expectation(self):
        # inverted dropout keeps the expectation: check within 3 SE
        rng = np.random.default_rng(1)
        p = 0.5
        x = 2.0
        trials = 20000
        y, _ = dropout(np.full(trials, x), p, rng=rng, training=True)
        se = x * np.sqrt(p / (1 - p)) / np.sqrt(trials)
        assert abs(y.mean() - x) < 3 * se

    def test_dropout_validates_p(self):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 1.0, rng=np.random.default_rng(2))

    def test_sign_mask_backward_is_bitwise_equal(self):
        """The backwards take only the mask x > 0; they must give the bits
        of up times the activation's derivative at x, signed zeros
        included."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000)
        x[::7], x[3::11] = 0.0, -0.0
        up = rng.standard_normal(1000)
        up[::5] = 0.0
        positive = x > 0.0
        # the backwards work in place on ``up``: pass copies
        assert (relu_backward(up.copy(), positive).tobytes()
                == (up * np.where(x > 0.0, 1.0, 0.0)).tobytes())
        for slope in (0.1, 0.2):
            assert (leaky_relu_backward(up.copy(), positive, slope).tobytes()
                    == (up * np.where(x > 0.0, 1.0, slope)).tobytes())


class TestInPlace:
    """The ownership contract: the activations and BatchNorm reuse the
    array they are given instead of allocating a full-size result."""

    def test_activations_return_their_argument(self):
        rng = np.random.default_rng(4)
        x, up = rng.standard_normal((2, 50, 3))
        positive = x > 0.0
        assert relu_backward(up, positive) is up
        assert leaky_relu_backward(up, positive, 0.2) is up
        assert leaky_relu(x, 0.2) is x
        assert relu(x) is x

    def test_batchnorm_works_in_the_given_arrays(self):
        """A train-mode forward hands over x centred in place, its cache,
        and the backward writes dx over that cache, in x's memory, block
        by block; an eval-mode forward hands over x itself and makes no
        pass."""
        rng = np.random.default_rng(5)
        bn = BatchNorm(3)
        x, up = rng.standard_normal((2, 4, 5, 3))
        xc, _, _ = bn.forward(x)
        assert np.shares_memory(bn._cache[0], x)   # xc is x, centred
        assert np.shares_memory(xc, x) and xc.shape == x.shape
        dx = bn.backward(up)
        assert np.shares_memory(dx, x) and dx.shape == x.shape
        bn.forward(x)
        upf = up.reshape(-1, 3)
        bn.take_sums(upf.sum(axis=0), (upf * xc.reshape(-1, 3)).sum(axis=0))
        for rows in (slice(0, 1), slice(1, 4)):
            assert np.shares_memory(bn.backward(up[rows].copy(), rows=rows),
                                    x[rows])
        assert bn._grad is None and bn._cache is None
        bn.training = False
        x = rng.standard_normal((4, 5, 3))
        before = x.tobytes()
        assert bn.forward(x)[0] is x and x.tobytes() == before


class TestChebConv:
    def test_zero_weights_broadcast_bias(self):
        rng = np.random.default_rng(3)
        graph = make_graph(rng, 5)
        layer = ChebConv(3, 4, order=2, rng=rng)
        layer.weight.value[...] = 0.0
        layer.bias.value[...] = [1.0, -2.0, 0.5, 3.0]
        y = layer.forward(graph, rng.standard_normal((5, 3)))
        np.testing.assert_allclose(y, np.tile(layer.bias.value, (5, 1)))

    def test_order_one_equals_linear(self):
        rng = np.random.default_rng(4)
        graph = make_graph(rng, 6)
        layer = ChebConv(3, 2, order=1, rng=rng)
        linear = Linear(3, 2, rng=rng)
        linear.weight.value[...] = layer.weight.value[0]
        linear.bias.value[...] = layer.bias.value
        x = rng.standard_normal((6, 3))
        assert np.abs(layer.forward(graph, x) - linear.forward(x)).max() < 1e-12

    def test_first_layer_shapes(self):
        # 10-feature width with order 1: weights (1,10,10) + bias (10) = 110
        rng = np.random.default_rng(5)
        graph = make_graph(rng, 10)
        layer = ChebConv(10, 10, order=1, rng=rng)
        assert layer.weight.shape == (1, 10, 10)
        assert layer.bias.shape == (10,)
        assert param_count(layer) == 110
        y = layer.forward(graph, rng.standard_normal((10, 10)))
        assert y.shape == (10, 10)

    @pytest.mark.parametrize("order", range(1, 6))
    def test_matches_spectral_oracle(self, order):
        """One input and one output feature: the layer is the spectral
        filter sum_k theta_k T_k, evaluated independently in the Laplacian's
        eigenbasis."""
        rng = np.random.default_rng(40 + order)
        graph = make_graph(rng, 7)
        layer = ChebConv(1, 1, order=order, rng=rng)
        x = rng.standard_normal((7, 1))
        oracle = spectral_filter_oracle(graph.laplacian,
                                        layer.weight.value[:, 0, 0], x)
        assert np.abs(layer.forward(graph, x) - oracle).max() < 1e-10

    def test_backward_before_forward(self):
        layer = ChebConv(2, 2, order=1, rng=np.random.default_rng(6))
        with pytest.raises(InvalidStateError):
            layer.backward(np.ones((3, 2)), x=np.ones((3, 2)))

    def test_backward_linearity(self):
        rng = np.random.default_rng(7)
        graph = make_graph(rng, 4)
        layer = ChebConv(3, 2, order=3, rng=rng)
        x = rng.standard_normal((4, 3))
        up = rng.standard_normal((4, 2))

        layer.forward(graph, x)
        dx1, _ = input_grad(layer, up, x.copy())
        g1 = layer.weight.grad.copy()

        for _, p in layer.parameters():
            p.zero_grad()
        layer.forward(graph, x)
        dx2, _ = input_grad(layer, 2.0 * up, x.copy())
        g2 = layer.weight.grad.copy()

        np.testing.assert_allclose(dx2, 2.0 * dx1, atol=1e-12)
        np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-12)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(8)
        graph = make_graph(rng, 4)
        layer = ChebConv(2, 3, order=2, rng=rng)
        x = rng.standard_normal((4, 2))
        layer.forward(graph, x)
        dx, _ = input_grad(layer, np.zeros((4, 3)), x)
        assert (layer.weight.grad == 0).all()
        assert (layer.bias.grad == 0).all()
        assert (dx == 0).all()


class TestSeededConstructors:
    @pytest.mark.parametrize("make", [
        lambda: ChebConv(3, 2, order=2),
        lambda: GCNConv(3, 2),
        lambda: GATLayer(3, 2),
        lambda: Conv1D(3, 2),
        lambda: Linear(3, 2),
    ], ids=["cheb", "gcn", "gat", "conv1d", "linear"])
    def test_rng_is_required(self, make):
        """Every layer with random initial weights takes its generator from
        the caller; none draws from an unseeded one."""
        with pytest.raises(TypeError):
            make()


class TestDenseInputCheck:
    @pytest.mark.parametrize("make", [
        lambda r: ChebConv(3, 2, order=1, rng=r),
        lambda r: ChebConv(3, 2, order=3, rng=r),
        lambda r: GCNConv(3, 2, rng=r),
        lambda r: GATLayer(3, 2, rng=r),
    ], ids=["cheb-k1", "cheb-k3", "gcn", "gat"])
    def test_rejects_wrong_node_count(self, make):
        """Dense input has one row per graph node; an order-1 ChebConv
        multiplies by no graph matrix, so only this check catches it."""
        rng = np.random.default_rng(16)
        graph = make_graph(rng, 6)
        layer = make(rng)
        for x in (np.ones((5, 3)), np.ones((2, 7, 3))):
            with pytest.raises(ValueError,
                               match=f"input has {x.shape[-2]} nodes but "
                                     f"the graph has 6"):
                layer.forward(graph, x)


def folded_case(kind, shape, training, seed):
    """Two copies of one graph layer, a BatchNorm hand-over (x, scale,
    shift) of a ReLU output of ``shape`` in train or eval mode, and y
    formed from it."""
    rng = np.random.default_rng(seed)
    graph = make_graph(rng, shape[-2])
    make = {"cheb1": lambda r: ChebConv(5, 3, order=1, rng=r),
            "cheb2": lambda r: ChebConv(5, 3, order=2, rng=r),
            "cheb3": lambda r: ChebConv(5, 3, order=3, rng=r),
            "gcn": lambda r: GCNConv(5, 3, rng=r),
            "gat": lambda r: GATLayer(5, 3, rng=r)}[kind]
    folded, formed = make(np.random.default_rng(seed)), \
        make(np.random.default_rng(seed))
    for a, b in zip(folded.parameters(), formed.parameters()):
        if a[0] == "bias":
            a[1].value[...] = b[1].value[...] = rng.standard_normal(3)
    bn = BatchNorm(5)
    bn.gamma.value[...] = rng.uniform(0.5, 1.5, 5)
    bn.beta.value[...] = rng.standard_normal(5)
    bn.running_mean[...] = rng.standard_normal(5)
    bn.running_var[...] = rng.uniform(0.5, 2.0, 5)
    bn.training = training
    x, scale, shift = bn.forward(relu(rng.standard_normal(shape)))
    return (graph, folded, formed, (x, scale, shift),
            apply_affine(x, scale, shift), rng)


class TestFoldedInput:
    """A graph layer handed a BatchNorm's (x, scale, shift) gives the
    output and gradients of the same layer on the formed
    y = x * scale + shift: forward, weight and bias gradients and dy agree
    within 1e-12 of each one's largest magnitude (round-off of a sum taken
    in another order), and x keeps its bits.  dy is read through a target
    that collects the rows it is handed."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(4, 7, 5), (7, 5)],
                             ids=["node-batch", "edge-nodes"])
    @pytest.mark.parametrize("kind", ["cheb1", "cheb2", "cheb3", "gcn",
                                      "gat"])
    def test_matches_the_formed_input(self, kind, shape, training):
        graph, folded, formed, (x, scale, shift), y, rng = folded_case(
            kind, shape, training, 60)
        before = x.tobytes()
        got = folded.forward(graph, x, scale=scale, shift=shift)
        want = formed.forward(graph, y)
        up = rng.standard_normal(want.shape)
        dy, _ = input_grad(folded, up, x)
        pairs = [(got, want), (dy, input_grad(formed, up, y)[0])]
        pairs += [(a.grad, b.grad) for (_, a), (_, b)
                  in zip(folded.parameters(), formed.parameters())]
        for a, b in pairs:
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert x.tobytes() == before

    @pytest.mark.parametrize("kind", ["cheb1", "cheb3", "gcn", "gat"])
    def test_checks_scale_and_shift(self, kind):
        graph, layer, _, (x, scale, shift), _, _ = folded_case(
            kind, (4, 7, 5), True, 61)
        for kwargs in ({"scale": scale}, {"shift": shift},
                       {"scale": scale[:4], "shift": shift[:4]}):
            with pytest.raises(ValueError, match="scale and shift"):
                layer.forward(graph, x, **kwargs)
        rows = np.ones((4, 7))
        wide = type(layer)(7, 3, **({"order": layer.order}
                                    if kind.startswith("cheb") else {}),
                           rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="only with dense input"):
            wide.forward(graph, rows, diagonal=True, scale=np.ones(7),
                         shift=np.zeros(7))

    @pytest.mark.parametrize("folded", [True, False], ids=["folded", "plain"])
    @pytest.mark.parametrize("shape", [(4, 7, 5), (7, 5)],
                             ids=["node-batch", "edge-nodes"])
    @pytest.mark.parametrize("kind", ["cheb1", "cheb2", "cheb3", "gcn",
                                      "gat"])
    def test_gradient_sums(self, kind, shape, folded):
        """Before any row of dy, the backward hands its target the column
        sums of dy and of dy * x over all rows, formed from the layer's own
        products, after a folded or a plain forward: each within 1e-12 of
        the sum of its terms' magnitudes of the sums over the arrays."""
        graph, layer, _, (x, scale, shift), y, rng = folded_case(
            kind, shape, True, 62)
        if not folded:
            x, scale, shift = y, None, None
        layer.forward(graph, x, scale=scale, shift=shift)
        up = rng.standard_normal(shape[:-1] + (3,))
        events = []

        class Target:
            def take_sums(self, *sums):
                events.append(sums)

            def backward(self, dy, *, rows, positive):
                events.append((rows, dy.copy()))

        assert layer.backward(up, x=x, bn=Target()) is None
        (dy_sum, dy_x), *handed = events
        dy = np.concatenate([d for _, d in handed])
        assert [r for r, _ in handed] == _sample_blocks(x, 5)
        rows = dy.reshape(-1, 5)
        for got, terms in ((dy_sum, rows), (dy_x, rows * x.reshape(-1, 5))):
            assert got.shape == (5,)
            assert np.all(np.abs(got - terms.sum(axis=0))
                          <= 1e-12 * np.abs(terms).sum(axis=0))


class TestGCNConv:
    def test_single_node_self_loop(self):
        rng = np.random.default_rng(9)
        graph = build_graph_context(np.zeros((1, 1)))
        layer = GCNConv(3, 2, rng=rng)
        x = rng.standard_normal((1, 3))
        # propagation matrix is exactly [1]
        expected = x @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(graph, x), expected)

    def test_forward_keeps_no_input_sized_cache(self):
        """A train-mode forward of an sg-product-sized layer, (372, 80, 80)
        in and (372, 80, 40) out, leaves live only its output and a cache
        of under 1 MiB: y = P (x theta) needs no P x kept for the backward
        (which took 18.2 MiB when it did)."""
        rng = np.random.default_rng(48)
        graph = make_graph(rng, 80)
        layer = GCNConv(80, 40, rng=rng)
        x = rng.standard_normal((372, 80, 80))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = layer.forward(graph, x)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert layer._cache is not None
        assert live - y.nbytes < 2**20

    def test_backward_frees_its_dead_input(self):
        """The forward keeps no P x, so no dead input-sized cache outlives
        it: the backward, handed x back, forms P up one sample block at a
        time as an order-1 ChebConv does, hands dx to the BatchNorm before
        it block by block, allocates above what was live before the call
        at most three sample blocks and no input-sized array, and drops the
        layer's cache."""
        rng = np.random.default_rng(48)
        layer = GCNConv(80, 40, rng=rng)
        assert backward_peak(layer, make_graph(rng, 80), rng) \
            <= 3 * BLOCK_BYTES
        assert layer._cache is None

    @pytest.mark.parametrize("f_in, f_out", [(3, 2), (80, 40), (11, 6)])
    def test_weight_is_one_theta_drawn_as_before(self, f_in, f_out):
        """The weight stays one (F_in, F_out) theta with the bits of a
        Glorot draw of that shape from the same seed, so a gcn checkpoint
        written before GCNConv became an order-1 ChebConv restores."""
        layer = GCNConv(f_in, f_out, rng=np.random.default_rng(f_in))
        want = glorot_uniform(np.random.default_rng(f_in), (f_in, f_out),
                              f_in, f_out)
        assert layer.weight.shape == layer.weight.grad.shape == (f_in, f_out)
        assert same_bits(layer.weight.value, want)
        assert [n for n, _ in layer.parameters()] == ["weight", "bias"]

    def test_propagation_symmetric(self):
        rng = np.random.default_rng(10)
        graph = make_graph(rng, 6)
        prop = graph.propagation()
        np.testing.assert_allclose(prop, prop.T, atol=1e-12)

    def test_path_graph_hand_computed(self):
        # path 0-1-2, unweighted; degrees with self-loops: 2, 3, 2
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        graph = build_graph_context(w)
        rng = np.random.default_rng(11)
        layer = GCNConv(2, 2, rng=rng)
        layer.weight.value[...] = np.eye(2)
        layer.bias.value[...] = 0.0
        x = rng.standard_normal((3, 2))
        d = np.array([2.0, 3.0, 2.0])
        expected = np.zeros_like(x)
        a = w + np.eye(3)
        for i in range(3):
            for j in range(3):
                expected[i] += a[i, j] / np.sqrt(d[i] * d[j]) * x[j]
        np.testing.assert_allclose(layer.forward(graph, x), expected,
                                   atol=1e-12)


def attend(layer, graph, x):
    """The layer's attention rows for dense input x, after checking its
    forward against the node-by-node oracle."""
    alpha, want = gat_attention_oracle(layer, graph, x)
    np.testing.assert_allclose(layer.forward(graph, x), want, rtol=0,
                               atol=1e-12)
    return alpha


class TestGATLayer:
    def test_single_neighbor_attention(self):
        # node 2 has no edges, so its neighborhood is itself alone
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        graph = build_graph_context(w)
        rng = np.random.default_rng(12)
        layer = GATLayer(2, 3, rng=rng)
        alpha = attend(layer, graph, rng.standard_normal((3, 2)))
        assert alpha[2, 2] == pytest.approx(1.0)
        assert (alpha[2, :2] == 0.0).all()

    def test_identical_neighbors_split_evenly(self):
        w = np.array([[0.0, 1.0, 1.0],
                      [1.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0]])
        graph = build_graph_context(w)
        rng = np.random.default_rng(13)
        layer = GATLayer(2, 3, rng=rng)
        x = np.array([[0.4, -1.0], [2.0, 0.3], [2.0, 0.3]])
        alpha = attend(layer, graph, x)
        # node 0's neighbors 1 and 2 share what node 0 leaves for others
        half = (1.0 - alpha[0, 0]) / 2.0
        assert 0.0 < half < 0.5
        assert alpha[0, 1] == pytest.approx(half, abs=1e-12)
        assert alpha[0, 2] == pytest.approx(half, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            graph = make_graph(rng, 5)
            layer = GATLayer(3, 4, rng=rng)
            alpha = attend(layer, graph, rng.standard_normal((5, 3)))
            assert np.abs(alpha.sum(axis=-1) - 1.0).max() < 1e-9

    def test_removing_neighbor_renormalizes(self):
        rng = np.random.default_rng(15)
        w = np.ones((4, 4)) - np.eye(4)
        x = rng.standard_normal((4, 3))
        layer = GATLayer(3, 2, rng=rng)
        full = attend(layer, build_graph_context(w), x)
        w2 = w.copy()
        w2[0, 3] = w2[3, 0] = 0.0
        reduced = attend(layer, build_graph_context(w2), x)
        # remaining coefficients of row 0 (node 0 itself and nodes 1, 2)
        # are the softmax over the reduced set
        kept = full[0, :3] / full[0, :3].sum()
        np.testing.assert_allclose(reduced[0, :3], kept, atol=1e-12)
        assert reduced[0, 3] == 0.0


class TestConv1D:
    def test_box_kernel_sums(self):
        layer = Conv1D(1, 1, rng=np.random.default_rng(17))
        layer.kernels.value[...] = 1.0
        layer.bias.value[...] = 0.0
        y = layer.forward(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]]))
        np.testing.assert_allclose(y, [[[15.0, 20.0]]])

    def test_impulse_kernel_slices(self):
        rng = np.random.default_rng(18)
        layer = Conv1D(1, 1, rng=rng)
        layer.kernels.value[...] = 0.0
        layer.kernels.value[0, 0, 2] = 1.0
        layer.bias.value[...] = 0.0
        x = rng.standard_normal((1, 1, 10))
        y = layer.forward(x)
        np.testing.assert_allclose(y[0, 0], x[0, 0, 2:8])

    def test_output_length(self):
        rng = np.random.default_rng(19)
        layer = Conv1D(3, 7, rng=rng)
        y = layer.forward(rng.standard_normal((1, 3, 10)))
        assert y.shape == (1, 7, 6)

    def test_short_sequence_rejected(self):
        layer = Conv1D(1, 1, rng=np.random.default_rng(20))
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 1, 4)))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(21)
        layer = Conv1D(2, 3, rng=rng)
        x = rng.standard_normal((4, 2, 9))
        batched = layer.forward(x)
        for b in range(4):
            np.testing.assert_allclose(layer.forward(x[b:b + 1])[0],
                                       batched[b])


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(22)
        layer = Linear(3, 3, rng=rng)
        layer.weight.value[...] = np.eye(3)
        layer.bias.value[...] = 0.0
        x = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_edge_head_shapes(self):
        rng = np.random.default_rng(23)
        first = Linear(100, 100, rng=rng)
        for classes in (4, 25):
            second = Linear(100, classes, rng=rng)
            e = 37
            h = second.forward(relu(first.forward(
                rng.standard_normal((e, 100)))))
            assert h.shape == (e, classes)


class TestBatchNorm:
    def test_standardized_input_passthrough(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((200, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        bn = BatchNorm(3)
        y = bn_output(bn, x.copy())  # BatchNorm centres its input in place
        assert np.abs(y - x).max() < 1e-4

    def test_normalizes_batch(self):
        rng = np.random.default_rng(25)
        bn = BatchNorm(4)
        y = bn_output(bn, rng.standard_normal((32, 4)) * 7 + 3)
        assert np.abs(y.mean(axis=0)).max() < 1e-6
        assert np.abs(y.var(axis=0) - 1.0).max() < 1e-4

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm(2).forward(np.ones((1, 2)))

    def test_backward_takes_the_sums(self):
        """Handed the column sums of up and of up * xc by ``take_sums``, as
        the next graph layer forms them, and then up's rows in sample
        blocks, the backward uses them in place of its own: with its own
        einsum sums, formed from all of up at once, it keeps every bit, a
        ReLU sign mask applied or not.  Without the sums it refuses a
        block of rows."""
        rng = np.random.default_rng(28)
        x = rng.standard_normal((6, 4, 3)) * 2.0 + 1.0
        up = rng.standard_normal((6, 4, 3))
        for positive in (None, rng.standard_normal((6, 4, 3)) > 0.0):
            results = []
            for given in (False, True):
                bn = BatchNorm(3)
                xc = bn.forward(x.copy())[0]
                if not given:
                    dx = bn.backward(up.copy(), positive=positive).copy()
                else:
                    upf, xf = up.reshape(-1, 3), xc.reshape(-1, 3)
                    bn.take_sums(np.einsum("ij->j", upf),
                                 np.einsum("ij,ij->j", upf, xf))
                    for rows in (slice(0, 2), slice(2, 3), slice(3, 6)):
                        bn.backward(up[rows].copy(), rows=rows,
                                    positive=positive)
                    dx = xc
                results.append((dx, bn.gamma.grad, bn.beta.grad))
            for got, want in zip(*results):
                assert same_bits(got, want)
        bn = BatchNorm(3)
        bn.forward(x.copy())
        with pytest.raises(ValueError, match="take_sums"):
            bn.backward(up[:2].copy(), rows=slice(0, 2))

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(26)
        bn = BatchNorm(2)
        for _ in range(50):
            bn.forward(rng.standard_normal((64, 2)) * 2 + 5)
        bn.training = False
        x = rng.standard_normal((8, 2))
        y = bn_output(bn, x)  # an eval-mode forward makes no pass over x
        expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.EPS)
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_backward_after_eval_forward_rejected(self):
        bn = BatchNorm(2)
        bn.forward(np.arange(8.0).reshape(4, 2))  # train mode caches ...
        bn.training = False
        bn.forward(np.ones((3, 2)))               # ... eval mode does not
        with pytest.raises(InvalidStateError):
            bn.backward(np.ones((3, 2)))

    def test_three_dim_input(self):
        rng = np.random.default_rng(27)
        bn = BatchNorm(3)
        x = rng.standard_normal((6, 4, 3))
        y = bn_output(bn, x)
        assert y.shape == x.shape
        flat = y.reshape(-1, 3)
        assert np.abs(flat.mean(axis=0)).max() < 1e-6

    def test_train_mode_matches_textbook_formulas(self):
        """Output and gradients equal the xhat = (x - mean) / std forms of
        Ioffe & Szegedy (2015)."""
        rng = np.random.default_rng(28)
        bn = BatchNorm(3)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, 3)
        bn.beta.value[...] = rng.standard_normal(3)
        x = rng.standard_normal((5, 4, 3)) * 3.0 + 1.0
        up = rng.standard_normal((5, 4, 3))
        # BatchNorm works in place on what it is given: pass copies
        y = bn_output(bn, x.copy())
        dx = bn.backward(up.copy())

        flat, upf = x.reshape(-1, 3), up.reshape(-1, 3)
        n = flat.shape[0]
        inv_std = 1.0 / np.sqrt(flat.var(axis=0) + bn.EPS)
        xhat = (flat - flat.mean(axis=0)) * inv_std
        expected = {
            "y": (xhat * bn.gamma.value + bn.beta.value).reshape(x.shape),
            "dgamma": (upf * xhat).sum(axis=0),
            "dbeta": upf.sum(axis=0),
            "dx": (bn.gamma.value * inv_std / n * (
                n * upf - upf.sum(axis=0)
                - xhat * (upf * xhat).sum(axis=0))).reshape(x.shape),
        }
        got = {"y": y, "dgamma": bn.gamma.grad, "dbeta": bn.beta.grad,
               "dx": dx}
        for key, want in expected.items():
            err = np.abs(got[key] - want).max() / np.abs(want).max()
            assert err < 1e-13, key


def _cache_case(name):
    """A new layer with a backward cache, its train-mode forward and its
    backward (a graph layer's handed back the forward's input; BatchNorm's
    forward formed into its output)."""
    rng = np.random.default_rng(30)
    graph = make_graph(rng, 5)
    x = rng.standard_normal((3, 5, 4))
    rows = rng.standard_normal((3, 5))
    diagonal = {"diagonal": True}
    layer, args, kwargs = {
        "cheb": (ChebConv(4, 2, order=3, rng=rng), (graph, x), {}),
        "cheb-diagonal": (ChebConv(5, 2, order=2, rng=rng), (graph, rows),
                          diagonal),
        "gcn": (GCNConv(4, 2, rng=rng), (graph, x), {}),
        "gcn-diagonal": (GCNConv(5, 2, rng=rng), (graph, rows), diagonal),
        "gat": (GATLayer(4, 2, rng=rng), (graph, x), {}),
        "gat-diagonal": (GATLayer(5, 2, rng=rng), (graph, rows), diagonal),
        "linear": (Linear(4, 2, rng=rng), (x,), {}),
        "batchnorm": (BatchNorm(4), (x,), {}),
        "conv1d": (Conv1D(2, 3, rng=rng), (rng.standard_normal((3, 2, 9)),),
                   {}),
    }[name]
    backward = layer.backward
    if len(args) == 2:
        backward = lambda up: layer.backward(up, x=args[1])  # noqa: E731
    if name == "batchnorm":
        return layer, lambda: bn_output(layer, x.copy()), backward
    return layer, lambda: layer.forward(*args, **kwargs), backward


CACHE_CASES = ("cheb", "cheb-diagonal", "gcn", "gcn-diagonal", "gat",
               "gat-diagonal", "linear", "batchnorm", "conv1d")


class TestCacheLifecycle:
    @pytest.mark.parametrize("name", CACHE_CASES)
    def test_backward_releases_cache(self, name):
        layer, forward, backward = _cache_case(name)
        up = np.ones_like(forward())
        backward(up)
        assert layer._cache is None
        message = (f"{type(layer).__name__}.backward without a train-mode "
                   f"forward")
        with pytest.raises(InvalidStateError,
                           match=f"^{re.escape(message)}$"):
            backward(up)

    @pytest.mark.parametrize("name", CACHE_CASES)
    def test_eval_forward_caches_nothing(self, name):
        layer, forward, backward = _cache_case(name)
        forward()                       # train mode caches ...
        layer.training = False
        up = np.ones_like(forward())    # ... eval mode clears it
        assert layer._cache is None
        with pytest.raises(InvalidStateError):
            backward(up)

    def test_conv1d_without_input_grad(self):
        """``backward(up, input_grad=False)`` returns None and accumulates
        the same parameter gradients as a full backward."""
        layer, forward, _ = _cache_case("conv1d")
        up = np.random.default_rng(31).standard_normal(forward().shape)
        layer.backward(up)
        full = [p.grad.copy() for _, p in layer.parameters()]
        for _, p in layer.parameters():
            p.zero_grad()
        forward()
        assert layer.backward(up, input_grad=False) is None
        for (_, p), want in zip(layer.parameters(), full):
            np.testing.assert_array_equal(p.grad, want)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


class TestBiasGradient:
    @pytest.mark.parametrize("width", [1, 2, 6, 11, 80])
    @pytest.mark.parametrize("kind", ["cheb", "gcn", "linear"])
    def test_bias_grad_is_the_row_sum(self, kind, width):
        rng = np.random.default_rng(width)
        graph = make_graph(rng, 13)
        layer = {"cheb": ChebConv(4, width, order=2, rng=rng),
                 "gcn": GCNConv(4, width, rng=rng),
                 "linear": Linear(4, width, rng=rng)}[kind]
        args = (rng.standard_normal((40, 13, 4)),)
        if kind != "linear":
            args = (graph,) + args
        up = rng.standard_normal(layer.forward(*args).shape)
        layer.backward(up, **({} if kind == "linear" else {"x": args[-1]}))
        assert same_bits(layer.bias.grad, up.reshape(-1, width).sum(axis=0))


def cheb_matrices(graph, order):
    """The basis T_0(Ls), ..., T_{K-1}(Ls) as N x N matrices."""
    return cheb_apply(graph.scaled_laplacian, np.eye(graph.n_nodes), order)


class TestChebDense:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(9, 5), (6, 9, 5)])
    def test_forward_is_the_basis_sum(self, order, shape):
        """The dense forward gives the bits of
        x theta_0 + sum_{k>=1} T_k(Ls) (x theta_k) + bias."""
        rng = np.random.default_rng(30 + order)
        graph = make_graph(rng, shape[-2])
        layer = ChebConv(5, 3, order=order, rng=rng)
        layer.bias.value[...] = rng.standard_normal(3)
        x = rng.standard_normal(shape)
        t = cheb_matrices(graph, order)
        w = layer.weight.value
        want = x @ w[0]
        for k in range(1, order):
            want = want + t[k] @ (x @ w[k])
        assert same_bits(layer.forward(graph, x), want + layer.bias.value)

    def test_basis_built_once_per_graph(self, monkeypatch):
        """Train and eval forwards of two layers on one graph share one
        basis build per order."""
        rng = np.random.default_rng(46)
        graph = make_graph(rng, 9)
        calls = []
        real = graphmod.cheb_apply
        monkeypatch.setattr(graphmod, "cheb_apply",
                            lambda *args: calls.append(args[2]) or real(*args))
        first = ChebConv(9, 4, order=3, rng=rng)
        second = ChebConv(4, 2, order=3, rng=rng)
        x = rng.standard_normal((5, 9))
        for training in (False, True):
            first.training = second.training = training
            h = first.forward(graph, x, diagonal=True)
            second.forward(graph, h)
        second.backward(np.ones((5, 9, 2)), x=h)
        assert calls == [3]

    def test_forward_holds_three_outputs(self):
        """One forward of an sg-product-sized layer, (372, 80, 80) in and
        (372, 80, 40) out at K = 3, allocates at most the output, one
        projection x theta_k and one propagated term at a time."""
        rng = np.random.default_rng(45)
        graph = make_graph(rng, 80)
        layer = ChebConv(80, 40, order=3, rng=rng)
        x = rng.standard_normal((372, 80, 80))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = layer.forward(graph, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * y.nbytes + 2**20

    @pytest.mark.parametrize("order", [3, 7])
    def test_forward_holds_its_output_and_two_blocks(self, order):
        """The dense forward adds its terms T_k(Ls) (x theta_k) in sample
        blocks: above what was live before the call it allocates the
        output and at most two blocks, at any order."""
        rng = np.random.default_rng(49)
        graph = make_graph(rng, 80)
        layer = ChebConv(80, 40, order=order, rng=rng)
        x = rng.standard_normal((372, 80, 80))
        graph.cheb_basis(order)     # built once per graph, not per forward
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = layer.forward(graph, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + 2 * BLOCK_BYTES


class TestChebBackward:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(9, 5), (6, 9, 5)])
    def test_gradients_match_whole_basis(self, order, shape):
        """Term-by-term accumulation gives the bits of the gradients read off
        the whole basis, u_k = T_k(Ls) up."""
        rng = np.random.default_rng(40 + order)
        graph = make_graph(rng, shape[-2])
        layer = ChebConv(5, 3, order=order, rng=rng)
        x = rng.standard_normal(shape)
        up = rng.standard_normal(shape[:-1] + (3,))
        layer.forward(graph, x)
        dx, _ = input_grad(layer, up, x.copy())

        t = cheb_matrices(graph, order)
        u = [up] + [t[k] @ up for k in range(1, order)]
        w = layer.weight.value
        dw = np.stack([x.reshape(-1, 5).T @ u[k].reshape(-1, 3)
                       for k in range(order)])
        want_dx = u[0] @ w[0].T
        for k in range(1, order):
            want_dx += u[k] @ w[k].T
        assert same_bits(layer.weight.grad, dw)
        assert same_bits(dx, want_dx)

    def test_backward_holds_one_propagated_gradient(self):
        """The backward forms each propagated gradient T_k(Ls) up one
        sample block at a time, in each of its two passes, and hands dx to
        the BatchNorm before it block by block: above what was live before
        the call it allocates at most three sample blocks, at any order,
        and no input-sized array (it took dx and two blocks while it formed
        a new dx; at K = 7 56.6 MiB more when it kept all K - 1 u_k, and
        9.5 MiB more, one upstream-sized array, when it formed each
        whole-batch u_k in turn)."""
        rng = np.random.default_rng(47)
        graph = make_graph(rng, 80)
        for order in (1, 3, 5, 7):
            layer = ChebConv(80, 40, order=order, rng=rng)
            assert backward_peak(layer, graph, rng) <= 3 * BLOCK_BYTES, order


def backward_peak(layer, graph, rng, batch=372):
    """tracemalloc peak of one backward of a hidden graph layer above the
    memory live before the call: its (batch, N, F_in) input is a
    BatchNorm's cache, to which the backward hands dx with a ReLU sign
    mask, and which then holds the masked dL/dz."""
    n = graph.n_nodes
    tracemalloc.start()
    try:
        z = rng.standard_normal((batch, n, layer.in_features))
        positive = z > 0.0
        bn = BatchNorm(layer.in_features)
        x, scale, shift = bn.forward(relu(z))
        layer.forward(graph, x, scale=scale, shift=shift)
        up = rng.standard_normal((batch, n, layer.out_features))
        want = x.copy()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert layer.backward(up, x=x, bn=bn, positive=positive) is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert bn._cache is None and bn._grad is None
    assert not np.array_equal(x, want) and (x[~positive] == 0.0).all()
    return peak


def block_sizes(n_rows, row_bytes, budget):
    """The row counts of ``_row_blocks``' blocks, checked to cover
    range(n_rows) in order with no gap or overlap."""
    blocks = _row_blocks(n_rows, row_bytes, budget)
    bounds = [0] + [b.stop for b in blocks]
    assert [b.start for b in blocks] == bounds[:-1]
    assert bounds[-1] == n_rows and all(b.step is None for b in blocks)
    return [b.stop - b.start for b in blocks]


class TestRowBlocks:
    """``_row_blocks`` cuts every row block: a graph layer's sample blocks
    and the eval forward's row blocks."""

    @settings(max_examples=500, deadline=None)
    @given(n_rows=st.integers(0, 3000), row_bytes=st.integers(1, 1 << 12),
           budget=st.integers(1, 1 << 16))
    def test_rule(self, n_rows, row_bytes, budget):
        """Near-equal blocks of two rows or more, each within the budget
        when it holds three rows (a budget of two cannot cut an odd count
        into blocks of two; below that each block holds two or three), and
        the fewest: with one block fewer, one would pass the budget."""
        sizes = block_sizes(n_rows, row_bytes, budget)
        assert max(sizes) - min(sizes) <= 1
        if n_rows >= 2:
            assert min(sizes) >= 2
        if budget >= 3 * row_bytes:
            assert max(sizes) * row_bytes <= budget
        else:
            assert max(sizes) <= 3
        if len(sizes) > 1:
            assert -(-n_rows // (len(sizes) - 1)) * row_bytes > budget

    @settings(max_examples=300, deadline=None)
    @given(n_rows=st.integers(0, 3000), elements=st.integers(1, 1 << 10),
           budget=st.integers(1, 1 << 16))
    def test_narrower_items_give_no_smaller_blocks(self, n_rows, elements,
                                                   budget):
        """Rows of 4-byte items get blocks no smaller than the same rows of
        8-byte items, so float32 arrays need no rule of their own."""
        narrow, wide = (block_sizes(n_rows, itemsize * elements, budget)
                        for itemsize in (4, 8))
        assert min(narrow) >= min(wide) and max(narrow) >= max(wide)

    def test_budget_below_two_rows(self):
        """Past the budget a block still holds two rows, and an odd count
        puts its extra row in the first block; a lone row is one block, and
        no rows one empty block."""
        assert _row_blocks(5, 100, 10) == [slice(0, 3), slice(3, 5)]
        assert _row_blocks(1, 100, 10) == [slice(0, 1)]
        assert _row_blocks(0, 100, 10) == [slice(0, 0)]


# Row counts for the full-width passes: every count below 70 (so every
# count below r = 64 // width for any width), primes, and counts that leave
# remainders for most r.
ROWS = st.one_of(st.integers(2, 70), st.sampled_from([97, 127, 131, 257, 1031]))


def batchnorm_reference(bn, x, up):
    """BatchNorm's forward (train mode when ``up`` is given) and backward
    with plain numpy broadcasts; returns (y, dx, running mean, running
    var, dgamma, dbeta)."""
    flat = x.reshape(-1, bn.width)
    rows = flat.shape[0]
    if up is None:
        scale = bn.gamma.value * (1.0 / np.sqrt(bn.running_var + bn.EPS))
        y = flat * scale + (bn.beta.value - bn.running_mean * scale)
        return y.reshape(x.shape), None, None, None, None, None
    mean = np.einsum("ij->j", flat) / rows
    xc = flat - mean
    var = np.einsum("ij,ij->j", xc, xc) / rows
    running_mean = bn.running_mean * (1.0 - bn.MOMENTUM) + bn.MOMENTUM * mean
    running_var = bn.running_var * (1.0 - bn.MOMENTUM) + bn.MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + bn.EPS)
    y = xc * (bn.gamma.value * inv_std) + bn.beta.value
    upf = up.reshape(-1, bn.width)
    up_sum = np.einsum("ij->j", upf)
    up_xc = np.einsum("ij,ij->j", upf, xc)
    dx = upf - up_sum / rows
    dx -= xc * (np.square(inv_std) * up_xc / rows)
    dx *= bn.gamma.value * inv_std
    return (y.reshape(x.shape), dx.reshape(x.shape), running_mean,
            running_var, up_xc * inv_std, up_sum)


class TestFullWidthPasses:
    """The per-channel passes give the bits of the plain broadcasts at every
    width, whether or not the row count fills the full-width view."""

    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 130), rows=ROWS, batched=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_batchnorm(self, width, rows, batched, seed):
        rng = np.random.default_rng(seed)
        shape = (1, rows, width) if batched else (rows, width)
        x = rng.standard_normal(shape) * 3.0 + 1.0
        up = rng.standard_normal(shape)
        bn = BatchNorm(width)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, width)
        bn.beta.value[...] = rng.standard_normal(width)
        bn.running_mean[...] = rng.standard_normal(width)
        bn.running_var[...] = rng.uniform(0.5, 2.0, width)

        want = batchnorm_reference(bn, x, up)
        # BatchNorm works in place on what it is given: pass copies
        got = (bn_output(bn, x.copy()), bn.backward(up.copy()),
               bn.running_mean,
               bn.running_var, bn.gamma.grad, bn.beta.grad)
        for g, w in zip(got, want):
            assert same_bits(g, w)

        bn.training = False
        x = rng.standard_normal(shape)
        assert same_bits(bn_output(bn, x.copy()),
                         batchnorm_reference(bn, x, None)[0])

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["linear", "cheb", "gcn"]),
           width=st.integers(1, 130), rows=ROWS,
           seed=st.integers(0, 2**32 - 1))
    def test_bias_add(self, kind, width, rows, seed):
        rng = np.random.default_rng(seed)
        graph = make_graph(rng, 3)
        layer = {"cheb": ChebConv(4, width, order=2, rng=rng),
                 "gcn": GCNConv(4, width, rng=rng),
                 "linear": Linear(4, width, rng=rng)}[kind]
        layer.bias.value[...] = rng.standard_normal(width)
        w = layer.weight.value
        if kind == "linear":
            x = rng.standard_normal((rows, 4))
            want = x @ w + layer.bias.value
            got = layer.forward(x)
        else:
            x = rng.standard_normal((rows, 3, 4))
            if kind == "cheb":
                want = x @ w[0] + graph.scaled_laplacian @ (x @ w[1]) \
                    + layer.bias.value
            else:
                want = graph.propagation() @ (x @ w) + layer.bias.value
            got = layer.forward(graph, x)
        assert same_bits(got, want)

    @settings(max_examples=200, deadline=None)
    @given(op=st.sampled_from([np.add, np.subtract, np.multiply]),
           width=st.integers(1, 130), rows=st.integers(0, 300),
           layout=st.sampled_from(["contiguous", "strided", "in-place"]),
           seed=st.integers(0, 2**32 - 1))
    def test_channelwise(self, op, width, rows, layout, seed):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((rows, 2 * width))
        a = base[:, ::2] if layout == "strided" else base[:, :width].copy()
        v = rng.standard_normal(width)
        want = op(a, v)
        out = a if layout == "in-place" else None
        got = _channelwise(op, a, v, out=out)
        assert same_bits(got, want)
        if out is not None:
            assert got is a

