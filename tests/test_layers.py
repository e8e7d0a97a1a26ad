"""Layer forward-pass contracts and activation semantics."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebnet import graph as graphmod
from chebnet.graph import build_graph_context, cheb_apply
from chebnet.layers import (
    BatchNorm,
    ChebConv,
    Conv1D,
    GATLayer,
    GCNConv,
    InvalidStateError,
    Linear,
    _channelwise,
    dropout,
    leaky_relu,
    leaky_relu_backward,
    log_softmax,
    relu,
    relu_backward,
)

from oracles import gat_attention_oracle, spectral_filter_oracle


def make_graph(rng, n, density=0.7):
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = (w + w.T) / 2.0
    return build_graph_context(w)


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
        rng = np.random.default_rng(5)
        bn = BatchNorm(3)
        x, up = rng.standard_normal((2, 4, 5, 3))
        bn.forward(x)
        assert np.shares_memory(bn._cache[0], x)   # xc is x, centred
        assert np.shares_memory(bn.backward(up), up)
        bn.training = False
        x = rng.standard_normal((4, 5, 3))
        assert np.shares_memory(bn.forward(x), x)


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
            layer.backward(np.ones((3, 2)))

    def test_backward_linearity(self):
        rng = np.random.default_rng(7)
        graph = make_graph(rng, 4)
        layer = ChebConv(3, 2, order=3, rng=rng)
        x = rng.standard_normal((4, 3))
        up = rng.standard_normal((4, 2))

        layer.forward(graph, x)
        dx1 = layer.backward(up)
        g1 = layer.weight.grad.copy()

        for _, p in layer.parameters():
            p.zero_grad()
        layer.forward(graph, x)
        dx2 = layer.backward(2.0 * up)
        g2 = layer.weight.grad.copy()

        np.testing.assert_allclose(dx2, 2.0 * dx1, atol=1e-12)
        np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-12)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(8)
        graph = make_graph(rng, 4)
        layer = ChebConv(2, 3, order=2, rng=rng)
        layer.forward(graph, rng.standard_normal((4, 2)))
        dx = layer.backward(np.zeros((4, 3)))
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


class TestGCNConv:
    def test_single_node_self_loop(self):
        rng = np.random.default_rng(9)
        graph = build_graph_context(np.zeros((1, 1)))
        layer = GCNConv(3, 2, rng=rng)
        x = rng.standard_normal((1, 3))
        # propagation matrix is exactly [1]
        expected = x @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(graph, x), expected)

    def test_propagation_symmetric(self):
        rng = np.random.default_rng(10)
        graph = make_graph(rng, 6)
        prop = GCNConv.propagation(graph.adjacency)
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
        y = bn.forward(x.copy())  # BatchNorm centres its input in place
        assert np.abs(y - x).max() < 1e-4

    def test_normalizes_batch(self):
        rng = np.random.default_rng(25)
        bn = BatchNorm(4)
        y = bn.forward(rng.standard_normal((32, 4)) * 7 + 3)
        assert np.abs(y.mean(axis=0)).max() < 1e-6
        assert np.abs(y.var(axis=0) - 1.0).max() < 1e-4

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm(2).forward(np.ones((1, 2)))

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(26)
        bn = BatchNorm(2)
        for _ in range(50):
            bn.forward(rng.standard_normal((64, 2)) * 2 + 5)
        bn.training = False
        x = rng.standard_normal((8, 2))
        y = bn.forward(x.copy())  # an eval-mode forward overwrites its input
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
        y = bn.forward(x)
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
        y = bn.forward(x.copy())
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
    """A new layer with a backward cache, and its train-mode forward."""
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
    return layer, lambda: layer.forward(*args, **kwargs)


CACHE_CASES = ("cheb", "cheb-diagonal", "gcn", "gcn-diagonal", "gat",
               "gat-diagonal", "linear", "batchnorm", "conv1d")


class TestCacheLifecycle:
    @pytest.mark.parametrize("name", CACHE_CASES)
    def test_backward_releases_cache(self, name):
        layer, forward = _cache_case(name)
        up = np.ones_like(forward())
        layer.backward(up)
        assert layer._cache is None
        message = (f"{type(layer).__name__}.backward without a train-mode "
                   f"forward")
        with pytest.raises(InvalidStateError,
                           match=f"^{re.escape(message)}$"):
            layer.backward(up)

    @pytest.mark.parametrize("name", CACHE_CASES)
    def test_eval_forward_caches_nothing(self, name):
        layer, forward = _cache_case(name)
        forward()                       # train mode caches ...
        layer.training = False
        up = np.ones_like(forward())    # ... eval mode clears it
        assert layer._cache is None
        with pytest.raises(InvalidStateError):
            layer.backward(up)

    def test_conv1d_without_input_grad(self):
        """``backward(up, input_grad=False)`` returns None and accumulates
        the same parameter gradients as a full backward."""
        layer, forward = _cache_case("conv1d")
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
        layer.backward(up)
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
            second.forward(graph, first.forward(graph, x, diagonal=True))
        second.backward(np.ones((5, 9, 2)))
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
        dx = layer.backward(up)

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

    def test_backward_holds_two_terms(self):
        """One backward of an sg-product-sized layer, (372, 80, 80) in and
        (372, 80, 40) out at K = 3, allocates at most dx, one product of
        dx's shape and one term of the upstream gradient's shape at a time
        (the whole basis, K terms, is three times that upstream size)."""
        rng = np.random.default_rng(44)
        graph = make_graph(rng, 80)
        layer = ChebConv(80, 40, order=3, rng=rng)
        x = rng.standard_normal((372, 80, 80))
        up = rng.standard_normal((372, 80, 40))
        layer.forward(graph, x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dx = layer.backward(up)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert dx.shape == x.shape
        assert peak <= 2 * x.nbytes + up.nbytes + 2**20


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
        xc = flat - bn.running_mean
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.EPS)
        y = xc * (bn.gamma.value * inv_std) + bn.beta.value
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
        got = (bn.forward(x.copy()), bn.backward(up.copy()), bn.running_mean,
               bn.running_var, bn.gamma.grad, bn.beta.grad)
        for g, w in zip(got, want):
            assert same_bits(g, w)

        bn.training = False
        x = rng.standard_normal(shape)
        assert same_bits(bn.forward(x.copy()),
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
                want = (layer.propagation(graph.adjacency) @ x) @ w \
                    + layer.bias.value
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

