"""The per-epoch passes that take numpy's fast paths, or form their result
block by block, give the bits of their plain forms (kept in ``oracles``)
at the benchmark workloads' shapes and on edge-case values: signed zeros,
NaN, infinities, subnormals and the largest finite values."""

import numpy as np
import pytest

from chebnet import kernels
from chebnet.graph import build_graph_context
from chebnet.layers import (_SHORT_CONTRACTION, ChebConv, GCNConv,
                            _matmul_transposed, _sample_blocks,
                            leaky_relu_backward)
from chebnet.model import _node_mean

from oracles import (broadcast_bias_conv1d, full_cheb_backward,
                     full_cheb_forward, full_gcn_backward, masked_leaky_relu_backward,
                     mean_readout, transposed_view_product)

# the planted infinities and NaNs make overflow and invalid-value warnings
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BIG = np.finfo(np.float64).max
SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                     -5e-324, BIG, -BIG, 1.0, -1.0])


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


def with_specials(rng, shape):
    """Standard normal values with every special value planted many times."""
    a = rng.standard_normal(shape)
    flat = a.reshape(-1)
    at = rng.choice(flat.size, size=min(flat.size, 16 * SPECIALS.size),
                    replace=False)
    flat[at] = np.resize(SPECIALS, at.size)
    return a


class TestLeakyReluPass:
    # dataco-csv's conv activations (20000 rows), GAT's (B, N, N) logits at
    # dataco-csv's 11 nodes, and sg-product's conv activations
    @pytest.mark.parametrize("shape", [(20000, 10, 7), (20000, 2, 3),
                                       (20000, 11, 11), (372, 10, 16),
                                       (372, 3, 12)])
    @pytest.mark.parametrize("slope", [0.1, 0.2])
    def test_matches_masked_multiply(self, shape, slope):
        rng = np.random.default_rng(shape[1] * 100 + shape[2])
        x = with_specials(rng, shape)
        up = with_specials(rng, shape)
        positive = x > 0.0
        # as the backward, and as the activation itself (up is x)
        assert same_bits(leaky_relu_backward(up.copy(), positive, slope),
                         masked_leaky_relu_backward(up, positive, slope))
        assert same_bits(leaky_relu_backward(x.copy(), positive, slope),
                         masked_leaky_relu_backward(x, positive, slope))

    def test_strided_mask(self):
        rng = np.random.default_rng(7)
        x = with_specials(rng, (40, 6))
        up = with_specials(rng, (40, 3))
        positive = (x > 0.0)[:, ::2]
        assert same_bits(leaky_relu_backward(up.copy(), positive, 0.1),
                         masked_leaky_relu_backward(up, positive, 0.1))


class TestStackedProducts:
    # (B, N, contraction, M) of the stacked products up @ W^T that the
    # graph layers' backwards take: dataco-csv (11 nodes, widths 11, 6, 2;
    # final fit and fold fits) and sg-product (80 nodes, widths 80, 40, 3;
    # its 40-term contraction keeps the view)
    @pytest.mark.parametrize("shape", [
        (20000, 11, 6, 11), (20000, 11, 2, 6), (20000, 11, 2, 2),
        (10000, 11, 6, 11), (20000, 11, 11, 11), (372, 80, 40, 80),
        (372, 80, 3, 40), (372, 80, 3, 3), (186, 80, 3, 40)])
    def test_weight_transpose(self, shape):
        b, n, k, m = shape
        rng = np.random.default_rng(k * 100 + m)
        a = with_specials(rng, (b, n, k))
        w = rng.standard_normal((m, k))
        assert same_bits(_matmul_transposed(a, w.T),
                         transposed_view_product(a, w.T))

    # GATLayer's dalpha = dagg @ h^T, with both operands stacked
    @pytest.mark.parametrize("shape", [(20000, 11, 11), (20000, 11, 6),
                                       (20000, 11, 2), (372, 80, 80),
                                       (372, 80, 40), (372, 80, 3)])
    def test_attention_transpose(self, shape):
        rng = np.random.default_rng(shape[2])
        dagg = with_specials(rng, shape)
        h = rng.standard_normal(shape)
        assert same_bits(_matmul_transposed(dagg, h.swapaxes(-1, -2)),
                         transposed_view_product(dagg, h.swapaxes(-1, -2)))

    # 2-D products (edge tasks): the ChebConv and Linear backwards at
    # sg-*-edges widths, (nodes or edges, width) @ W^T
    @pytest.mark.parametrize("shape", [(12, 100, 100), (12, 50, 100),
                                       (12, 100, 12), (400, 2, 100),
                                       (400, 100, 100)])
    def test_two_dimensional_keeps_the_view(self, shape):
        rows, k, m = shape
        rng = np.random.default_rng(rows + k + m)
        a = with_specials(rng, (rows, k))
        w = rng.standard_normal((m, k))
        assert same_bits(_matmul_transposed(a, w.T),
                         transposed_view_product(a, w.T))

    @pytest.mark.parametrize("n", [9, 11, 36, 80])
    def test_every_short_contraction(self, n):
        """Every contraction the contiguous copy takes, at widths up to a
        hundred: the copy's bits are the view's."""
        rng = np.random.default_rng(n)
        for k in range(1, _SHORT_CONTRACTION + 1):
            for m in (1, 2, 3, 6, 11, 16, 40, 80, 100):
                a = rng.standard_normal((3, n, k))
                w = rng.standard_normal((m, k))
                assert same_bits(_matmul_transposed(a, w.T),
                                 transposed_view_product(a, w.T)), (k, m)


class TestNodeMeanReadout:
    # dataco-csv's (final fit and fold fits) and sg-product's readouts, and
    # a width-1 readout, where the plain mean is kept
    @pytest.mark.parametrize("shape", [(20000, 11, 2), (10000, 11, 2),
                                       (372, 80, 3), (186, 80, 3),
                                       (50, 11, 1), (7, 1, 4)])
    def test_matches_mean(self, shape):
        rng = np.random.default_rng(shape[0] + shape[2])
        h = with_specials(rng, shape)
        assert same_bits(_node_mean(h), mean_readout(h))

    def test_signed_zero_columns(self):
        h = np.full((3, 11, 2), -0.0)
        h[1, :, 0] = 0.0
        assert same_bits(_node_mean(h), mean_readout(h))


class TestConvBias:
    # (B, C, L, F) of dataco-csv's two Conv1D layers and sg-product's
    @pytest.mark.parametrize("shape", [(20000, 1, 11, 10), (20000, 10, 7, 2),
                                       (372, 4, 20, 10), (372, 10, 16, 3)])
    def test_matches_broadcast_bias(self, shape):
        b, c, length, f = shape
        rng = np.random.default_rng(c * length + f)
        x = with_specials(rng, (b, c, length))
        w = rng.standard_normal((f, c, 5))
        bias = np.resize([-0.0, np.inf, np.nan, 5e-324, 0.5, -2.0], f)
        assert same_bits(kernels.conv1d_forward(x, w, bias),
                         broadcast_bias_conv1d(x, w, bias))


def random_graph(rng, n):
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    return build_graph_context((w + w.T) / 2.0)


class TestBlockedForward:
    """ChebConv's dense forward adds its terms T_k(Ls) (x theta_k) in
    sample blocks; y keeps the bits of the whole-batch form.  Shapes
    (B, N, F_in -> F_out, K): sg-product's wide layer, a batch whose last
    block is partial, one sample, and an edge task's 2-D (N, F) node
    features."""

    SHAPES = [((372, 80, 80), 40, 3), ((100, 80, 80), 40, 3),
              ((1, 80, 80), 40, 3), ((12, 200), 100, 3)]

    @pytest.mark.parametrize("shape, f_out, order", SHAPES)
    def test_cheb_matches_whole_batch(self, shape, f_out, order):
        rng = np.random.default_rng(shape[0] + f_out)
        graph = random_graph(rng, shape[-2])
        layer = ChebConv(shape[-1], f_out, order=order, rng=rng)
        layer.bias.value[...] = rng.standard_normal(f_out)
        x = rng.standard_normal(shape)
        blocks = _sample_blocks(shape[:-1] + (f_out,))
        if len(shape) == 3 and shape[0] > 1:
            assert len(blocks) > 1
        want = full_cheb_forward(graph.cheb_basis(order), layer.weight.value,
                                 layer.bias.value, x)
        assert same_bits(layer.forward(graph, x), want)


class TestBlockedInputGradient:
    """ChebConv and GCNConv form dx in sample blocks after dropping their
    cached input; dx and the weight gradient keep the bits of the
    whole-batch backward.  Shapes (B, N, F_in -> F_out, K): sg-product's
    wide and narrow layers, dataco-csv's first dense layer, a batch that is
    not a multiple of the block, one sample, and an edge task's 2-D (N, F)
    node features."""

    SHAPES = [((372, 80, 80), 40, 3), ((186, 80, 40), 5, 3),
              ((20000, 11, 11), 6, 1), ((45, 80, 80), 40, 3),
              ((1, 80, 80), 40, 3), ((12, 200), 100, 3)]

    @pytest.mark.parametrize("shape, f_out, order", SHAPES)
    def test_cheb_matches_whole_batch(self, shape, f_out, order):
        rng = np.random.default_rng(shape[0] + shape[-1] + f_out)
        graph = random_graph(rng, shape[-2])
        layer = ChebConv(shape[-1], f_out, order=order, rng=rng)
        x = rng.standard_normal(shape)
        up = rng.standard_normal(shape[:-1] + (f_out,))
        if len(shape) == 2:     # no sample axis: one block
            assert _sample_blocks(shape) == [slice(None)]
        layer.forward(graph, x.copy())
        want_dx, want_dw = full_cheb_backward(graph.cheb_basis(order),
                                              layer.weight.value, x, up)
        assert same_bits(layer.backward(up, x=x), want_dx)
        assert same_bits(layer.weight.grad, 0.0 + want_dw)

    @pytest.mark.parametrize("shape, f_out, order", SHAPES)
    def test_gcn_matches_whole_batch(self, shape, f_out, order):
        rng = np.random.default_rng(shape[0] + shape[-1] + f_out)
        graph = random_graph(rng, shape[-2])
        layer = GCNConv(shape[-1], f_out, rng=rng)
        x = rng.standard_normal(shape)
        up = rng.standard_normal(shape[:-1] + (f_out,))
        layer.forward(graph, x)
        prop = graph.propagation()
        want_dx, want_dw = full_gcn_backward(prop, layer.weight.value,
                                             prop @ x, up)
        assert same_bits(layer.backward(up, x=x), want_dx)
        assert same_bits(layer.weight.grad, 0.0 + want_dw)
