"""Finite-difference validation of every backward pass.

Each layer is wrapped in a closure that projects its output to a scalar with
a fixed random matrix; grad_check then compares the analytic gradients of
parameters and input against central differences.
"""

import numpy as np
import pytest

from chebnet.graph import build_graph_context
from chebnet.layers import (
    BatchNorm,
    ChebConv,
    Conv1D,
    GATLayer,
    GCNConv,
    Linear,
    apply_affine,
    leaky_relu_backward,
    log_softmax,
    log_softmax_backward,
    relu,
    relu_backward,
)
from chebnet.model import EdgeHead, NodeReadout

from oracles import grad_check, input_grad, leaky_relu

TOL = 1e-4


def make_graph(rng, n):
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    w = (w + w.T) / 2.0
    return build_graph_context(w)


def check_graph_layer(layer, graph, x, proj):
    """Scalar-projected forward/backward closure for graph layers, whose
    input gradient is read through a hand-over target that collects the
    rows it is given."""
    arrays = [p.value for _, p in layer.parameters()] + [x]

    def f():
        for _, p in layer.parameters():
            p.zero_grad()
        y = layer.forward(graph, x)
        loss = float((y * proj).sum())
        dx, _ = input_grad(layer, proj, x)
        grads = [p.grad.copy() for _, p in layer.parameters()] + [dx]
        return loss, grads

    return grad_check(f, arrays)


def check_plain_layer(layer, x, proj):
    arrays = [p.value for _, p in layer.parameters()] + [x]

    def f():
        for _, p in layer.parameters():
            p.zero_grad()
        y = layer.forward(x)
        loss = float((y * proj).sum())
        dx = layer.backward(proj)
        grads = [p.grad.copy() for _, p in layer.parameters()] + [dx]
        return loss, grads

    return grad_check(f, arrays)


def check_head(head, h, edges, proj):
    """Scalar-projected forward/backward closure for a graph-branch head:
    its parameters' gradients and the gradient with respect to h."""
    arrays = [p.value for _, p in head.parameters()] + [h]

    def f():
        for _, p in head.parameters():
            p.zero_grad()
        y = head.forward(h, edges)
        loss = float((y * proj).sum())
        dh = head.backward(proj)
        return loss, [p.grad.copy() for _, p in head.parameters()] + [dh]

    return grad_check(f, arrays)


@pytest.mark.parametrize("seed", range(5))
class TestLayerGradients:
    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((6, 4))
        proj = rng.standard_normal((6, 3))
        assert check_plain_layer(layer, x, proj) < 1e-6

    def test_node_readout(self, seed):
        rng = np.random.default_rng(800 + seed)
        h = rng.standard_normal((3, 5, 4))
        proj = rng.standard_normal((3, 4))
        assert check_head(NodeReadout(), h, None, proj) < 1e-6

    def test_edge_head(self, seed):
        """Both Linears' parameters and the input gradient; nodes 0 and 1
        end several edges, one of them a self-loop, so the scatter adds
        more than one edge's gradient into a row."""
        rng = np.random.default_rng(900 + seed)
        head = EdgeHead(6, 5, 3, rng=rng)
        h = rng.standard_normal((4, 3))
        edges = np.array([[0, 1], [1, 2], [0, 0], [3, 1], [2, 0]])
        proj = rng.standard_normal((5, 3))
        assert [name for name, _ in head.parameters()] == \
            ["0.weight", "0.bias", "1.weight", "1.bias"]
        assert check_head(head, h, edges, proj) < TOL

    def test_cheb_conv(self, seed):
        rng = np.random.default_rng(100 + seed)
        graph = make_graph(rng, 4)
        layer = ChebConv(3, 2, order=3, rng=rng)
        x = rng.standard_normal((4, 3))
        proj = rng.standard_normal((4, 2))
        assert check_graph_layer(layer, graph, x, proj) < TOL

    def test_cheb_conv_batched(self, seed):
        rng = np.random.default_rng(200 + seed)
        graph = make_graph(rng, 3)
        layer = ChebConv(2, 2, order=2, rng=rng)
        x = rng.standard_normal((2, 3, 2))
        proj = rng.standard_normal((2, 3, 2))
        assert check_graph_layer(layer, graph, x, proj) < TOL

    def test_gcn(self, seed):
        rng = np.random.default_rng(300 + seed)
        graph = make_graph(rng, 5)
        layer = GCNConv(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))
        proj = rng.standard_normal((5, 2))
        assert check_graph_layer(layer, graph, x, proj) < TOL

    def test_gat(self, seed):
        rng = np.random.default_rng(400 + seed)
        graph = make_graph(rng, 5)
        layer = GATLayer(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))
        proj = rng.standard_normal((5, 2))
        assert check_graph_layer(layer, graph, x, proj) < TOL

    def test_diagonal_modes(self, seed):
        """Parameter gradients of ``diagonal=True``, which computes no
        input gradient."""
        rng = np.random.default_rng(700 + seed)
        graph = make_graph(rng, 5)
        x = rng.standard_normal((3, 5))
        proj = rng.standard_normal((3, 5, 2))
        for layer in (ChebConv(5, 2, order=3, rng=rng), GCNConv(5, 2, rng=rng),
                      GATLayer(5, 2, rng=rng)):
            def f():
                for _, p in layer.parameters():
                    p.zero_grad()
                y = layer.forward(graph, x, diagonal=True)
                assert layer.backward(proj, x=x) is None
                return (float((y * proj).sum()),
                        [p.grad.copy() for _, p in layer.parameters()])

            assert grad_check(f, [p.value for _, p in layer.parameters()]) < TOL

    @pytest.mark.parametrize("kind", ["cheb", "gcn", "gat"])
    @pytest.mark.parametrize("shape", [(2, 4, 3), (4, 3)],
                             ids=["node-batch", "edge-nodes"])
    def test_folded_input(self, seed, kind, shape):
        """A hidden layer handed (x, scale, shift) for its input
        y = x * scale + shift: the parameter gradients, through the dy it
        hands over the gradient of x (dy * scale), and the sums it hands
        over as the gradients of scale (the row sums of dy * x) and shift
        (the row sums of dy)."""
        rng = np.random.default_rng(1000 + seed)
        graph = make_graph(rng, shape[-2])
        layer = {"cheb": lambda: ChebConv(3, 2, order=3, rng=rng),
                 "gcn": lambda: GCNConv(3, 2, rng=rng),
                 "gat": lambda: GATLayer(3, 2, rng=rng)}[kind]()
        x = rng.standard_normal(shape)
        scale = rng.uniform(0.5, 1.5, 3)
        shift = rng.standard_normal(3)
        proj = rng.standard_normal(shape[:-1] + (2,))

        def f():
            for _, p in layer.parameters():
                p.zero_grad()
            y = layer.forward(graph, x, scale=scale, shift=shift)
            dy, (dy_sum, dy_x) = input_grad(layer, proj, x)
            return (float((y * proj).sum()),
                    [p.grad.copy() for _, p in layer.parameters()]
                    + [dy * scale, dy_x, dy_sum])

        arrays = [p.value for _, p in layer.parameters()] + [x, scale, shift]
        assert grad_check(f, arrays) < TOL

    def test_conv1d(self, seed):
        rng = np.random.default_rng(500 + seed)
        layer = Conv1D(2, 3, rng=rng)
        x = rng.standard_normal((2, 2, 9))
        proj = rng.standard_normal((2, 3, 5))
        assert check_plain_layer(layer, x, proj) < TOL

    def test_batchnorm(self, seed):
        rng = np.random.default_rng(600 + seed)
        layer = BatchNorm(3)
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=3)
        layer.beta.value[...] = rng.standard_normal(3)
        x = rng.standard_normal((8, 3))
        proj = rng.standard_normal((8, 3))

        arrays = [p.value for _, p in layer.parameters()] + [x]

        def f():
            for _, p in layer.parameters():
                p.zero_grad()
            # fresh running stats each call so perturbations do not leak
            layer.running_mean[...] = 0.0
            layer.running_var[...] = 1.0
            # BatchNorm works in place on what it is given: pass copies
            y = apply_affine(*layer.forward(x.copy()))
            loss = float((y * proj).sum())
            dx = layer.backward(proj.copy())
            return loss, [p.grad.copy() for _, p in layer.parameters()] + [dx]

        assert grad_check(f, arrays) < TOL


class TestGradCheckHarness:
    def test_detects_corrupted_backward(self):
        # a sign flip in the bias gradient must be flagged
        rng = np.random.default_rng(7)
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        proj = rng.standard_normal((4, 2))
        arrays = [layer.bias.value]

        def f():
            for _, p in layer.parameters():
                p.zero_grad()
            y = layer.forward(x)
            loss = float((y * proj).sum())
            layer.backward(proj)
            return loss, [-layer.bias.grad]

        assert grad_check(f, arrays) > 1e-2

    def test_activation_backwards(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 4)) + 0.05  # keep away from the kink
        proj = rng.standard_normal((5, 4))
        h = 1e-6
        # the activations work in place on what they are given: pass copies
        for fwd, bwd in (
                (relu, lambda u, a: relu_backward(u, a > 0.0)),
                (lambda a: leaky_relu(a, 0.1),
                 lambda u, a: leaky_relu_backward(u, a > 0.0, 0.1)),
                (log_softmax, lambda u, a: log_softmax_backward(u, log_softmax(a)))):
            analytic = bwd(proj.copy(), x)
            numeric = np.zeros_like(x)
            flat = x.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = float((fwd(x.copy()) * proj).sum())
                flat[i] = orig - h
                lo = float((fwd(x.copy()) * proj).sum())
                flat[i] = orig
                nflat[i] = (hi - lo) / (2 * h)
            assert np.abs(analytic - numeric).max() < 1e-4


class TestModelGradient:
    def test_full_ensemble_loss_gradient(self):
        """End-to-end check of the assembled model's backward wiring."""
        from chebnet.data import conv_inputs_node
        from chebnet.model import build_model
        from chebnet.training import nll_loss, nll_loss_grad

        rng = np.random.default_rng(9)
        n, c, classes = 6, 10, 2
        feats = rng.standard_normal((n, c))
        targets = rng.integers(0, classes, size=n)
        graph = make_graph(rng, c)
        model = build_model("node-class", "cheb", width=c, n_classes=classes,
                            conv_shape=(1, c), rng=rng,
                            cheb_orders=(2, 1, 1, 1), dropout_p=0.0,
                            alpha=0.7)
        conv_x = conv_inputs_node(feats, (1, c))

        params = model.parameters()
        arrays = [p.value for p in params]

        def f():
            for p in params:
                p.zero_grad()
            for _, bn in model.blocks:
                bn.running_mean[...] = 0.0
                bn.running_var[...] = 1.0
            glp = model.graph_forward(graph, feats, training=True)
            clp = model.conv_forward(conv_x)
            loss = 0.7 * nll_loss(glp, targets) + 0.3 * nll_loss(clp, targets)
            model.graph_backward(0.7 * nll_loss_grad(glp, targets))
            model.conv_backward(0.3 * nll_loss_grad(clp, targets))
            return loss, [p.grad.copy() for p in params]

        assert grad_check(f, arrays) < TOL

    def test_edge_model_gradient(self):
        assert edge_model_grad_error("cheb") < TOL

    @pytest.mark.parametrize("variant", ["gcn", "gat"])
    def test_edge_baseline_model_gradient(self, variant):
        assert edge_model_grad_error(variant) < TOL


def edge_model_grad_error(variant):
    """grad_check error of an edge model's parameters under the ensemble
    loss; its first graph layer computes no input gradient."""
    from chebnet.data import conv_inputs_edge
    from chebnet.model import build_model
    from chebnet.training import nll_loss, nll_loss_grad

    rng = np.random.default_rng(10)
    n_nodes, f, classes = 5, 6, 3
    feats = rng.standard_normal((n_nodes, f))
    edges = np.array([[0, 1], [2, 3], [4, 0], [1, 2]])
    targets = rng.integers(0, classes, size=len(edges))
    graph = make_graph(rng, n_nodes)
    model = build_model("edge-class", variant, width=f, n_classes=classes,
                        conv_shape=(1, f), rng=rng,
                        cheb_orders=(2, 1, 1), graph_dims=(5, 4, 3),
                        dropout_p=0.0, alpha=0.6)
    conv_x = conv_inputs_edge(feats, edges, (1, f))

    params = model.parameters()
    arrays = [p.value for p in params]

    def f_():
        for p in params:
            p.zero_grad()
        for _, bn in model.blocks:
            bn.running_mean[...] = 0.0
            bn.running_var[...] = 1.0
        glp = model.graph_forward(graph, feats, edges, training=True)
        clp = model.conv_forward(conv_x)
        loss = 0.6 * nll_loss(glp, targets) + 0.4 * nll_loss(clp, targets)
        model.graph_backward(0.6 * nll_loss_grad(glp, targets))
        model.conv_backward(0.4 * nll_loss_grad(clp, targets))
        return loss, [p.grad.copy() for p in params]

    return grad_check(f_, arrays)
