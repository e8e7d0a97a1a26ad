"""Graph construction and spectral machinery tests.

The Chebyshev recurrence is validated against two independent oracles: the
explicit matrix-polynomial expansion of the first few Chebyshev polynomials
and the dense-eigendecomposition spectral filter.
"""

import numpy as np
import pytest

from chebnet import graph as graphmod, training
from chebnet.cli import main
from chebnet.data import synth_generate, zscore_normalize
from chebnet.graph import (
    build_adjacency,
    build_graph_context,
    cheb_apply,
    degree_and_laplacian,
    graph_from_features,
    lambda_max,
    pearson_correlation,
    scale_laplacian,
)
from chebnet.training import SEED_SYNTH, subseed

from oracles import spectral_decomposition, spectral_filter_oracle


def random_adjacency(rng, n, density=0.6):
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = (w + w.T) / 2.0
    return w


class TestPearsonCorrelation:
    def test_duplicated_channel(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(50)
        x = np.stack([a, a.copy(), rng.standard_normal(50)], axis=1)
        corr = pearson_correlation(x)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_channel(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(30)
        corr = pearson_correlation(np.stack([a, -a], axis=1))
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_alternating_columns(self):
        # direct Pearson evaluation: cov = -0.25, var = 0.25 each -> r = -1
        x = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        a, b = x[:, 0], x[:, 1]
        manual = ((a - a.mean()) * (b - b.mean())).mean() / (a.std() * b.std())
        corr = pearson_correlation(x)
        assert manual == pytest.approx(-1.0, abs=1e-12)
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_channel_rules(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        corr = pearson_correlation(x)
        assert corr[0, 1] == 0.0
        assert corr[1, 0] == 0.0
        assert corr[1, 1] == 1.0

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 5))
        scaled = x * rng.uniform(0.5, 3.0, size=5) + rng.uniform(-2, 2, size=5)
        assert np.abs(pearson_correlation(x)
                      - pearson_correlation(scaled)).max() < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones((1, 3)))

    def test_rejects_nan(self):
        x = np.ones((4, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            pearson_correlation(x)

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(3)
        corr = pearson_correlation(rng.standard_normal((25, 6)))
        assert np.array_equal(corr, corr.T)
        assert np.abs(corr).max() <= 1.0


class TestBuildAdjacency:
    def test_sigmoid_of_one(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        w = build_adjacency(corr, threshold=0.7)
        assert w[0, 1] == pytest.approx(0.7310586, abs=1e-7)

    def test_uncorrelated_cut(self):
        # sigma(0) = 0.5 falls below the 0.7 threshold
        corr = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = build_adjacency(corr, threshold=0.7)
        assert w[0, 1] == 0.0
        assert w[1, 0] == 0.0

    def test_zero_threshold_dense(self):
        rng = np.random.default_rng(4)
        corr = pearson_correlation(rng.standard_normal((30, 5)))
        w = build_adjacency(corr, threshold=0.0)
        assert (w > 0).all()
        assert np.abs(w - 1.0 / (1.0 + np.exp(-np.abs(corr)))).max() < 1e-15

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        corr = pearson_correlation(rng.standard_normal((20, 8)))
        previous = None
        for thr in (0.0, 0.3, 0.5, 0.7, 0.72, 0.9):
            edges = set(zip(*np.nonzero(build_adjacency(corr, thr))))
            if previous is not None:
                assert edges <= previous
            previous = edges

    @pytest.mark.parametrize("thr", [-0.1, 1.0, 1.5])
    def test_threshold_range(self, thr):
        with pytest.raises(ValueError):
            build_adjacency(np.eye(2), threshold=thr)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            build_adjacency(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestDegreeAndLaplacian:
    def test_two_node_example(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        d, lap = degree_and_laplacian(w)
        np.testing.assert_array_equal(d, [2.0, 2.0])
        np.testing.assert_array_equal(lap, [[2.0, -2.0], [-2.0, 2.0]])

    def test_empty_graph(self):
        d, lap = degree_and_laplacian(np.zeros((3, 3)))
        assert (d == 0).all() and (lap == 0).all()

    def test_row_sums_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            _, lap = degree_and_laplacian(random_adjacency(rng, 3))
            assert np.abs(lap.sum(axis=1)).max() < 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            degree_and_laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            degree_and_laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestLambdaMax:
    def test_two_node_path(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert lambda_max(lap) == pytest.approx(2.0, rel=1e-8)

    def test_diagonal(self):
        assert lambda_max(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-8)

    def test_edgeless_fallback(self):
        assert lambda_max(np.zeros((4, 4))) == 2.0

    def test_single_node(self):
        assert lambda_max(np.zeros((1, 1))) == 2.0

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8, 12):
            _, lap = degree_and_laplacian(random_adjacency(rng, n))
            dense = np.linalg.eigvalsh(lap).max()
            if dense < 1e-9:
                continue
            assert lambda_max(lap) == pytest.approx(dense, rel=1e-8)

    @pytest.mark.xfail(strict=True, reason="power iteration stops short of "
                       "the largest eigenvalue on the default synthetic graph "
                       "(1.4252247 against 1.4257319)")
    def test_matches_dense_eigensolver_on_default_synthetic_graph(self):
        dataset, _ = synth_generate(400, 10, 2, 3.0, subseed(4, SEED_SYNTH))
        normalized, _, _ = zscore_normalize(dataset.features)
        ctx = graph_from_features(normalized, threshold=0.7)
        dense = np.linalg.eigvalsh(ctx.laplacian)[-1]
        assert lambda_max(ctx.laplacian) == pytest.approx(dense, rel=1e-8)


class TestScaleLaplacian:
    def test_two_node_example(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(scale_laplacian(lap, 2.0),
                                   [[0.0, -1.0], [-1.0, 0.0]])

    def test_diagonal_identity(self):
        np.testing.assert_allclose(scale_laplacian(np.diag([2.0, 2.0]), 2.0),
                                   np.eye(2))

    def test_spectrum_containment(self):
        rng = np.random.default_rng(8)
        for n in (2, 4, 7):
            ctx = build_graph_context(random_adjacency(rng, n))
            evals = np.linalg.eigvalsh(ctx.scaled_laplacian)
            assert evals.min() >= -1.0 - 1e-6
            assert evals.max() <= 1.0 + 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_laplacian(np.eye(2), 0.0)


class TestGraphContext:
    def test_invariants(self):
        rng = np.random.default_rng(9)
        w = random_adjacency(rng, 6)
        ctx = build_graph_context(w)
        np.testing.assert_allclose(ctx.laplacian,
                                   np.diag(w.sum(axis=1)) - w)
        assert np.abs(ctx.laplacian.sum(axis=1)).max() < 1e-9

    def test_from_features(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 4))
        ctx = graph_from_features(x, threshold=0.5,
                                  channel_names=list("abcd"))
        assert ctx.n_nodes == 4
        assert ctx.channel_names == ("a", "b", "c", "d")

    def test_cheb_basis_built_once_per_order(self, monkeypatch):
        """Each order's basis is ``cheb_apply`` on the identity, stacked,
        built on its first request and then returned as the same read-only
        array; so are GCN's propagation matrix and GAT's neighborhood."""
        rng = np.random.default_rng(13)
        w = random_adjacency(rng, 7)
        w[6, :] = w[:, 6] = 0.0  # an isolated node
        ctx = build_graph_context(w)
        orders = []

        def counting(ls, x, order):
            orders.append(order)
            return cheb_apply(ls, x, order)

        monkeypatch.setattr(graphmod, "cheb_apply", counting)
        basis = ctx.cheb_basis(3)
        assert ctx.cheb_basis(3) is basis
        assert ctx.cheb_basis(1).shape == (1, 7, 7)
        assert orders == [3, 1]
        want = np.stack(cheb_apply(ctx.scaled_laplacian, np.eye(7), 3))
        assert basis.tobytes() == want.tobytes()
        a = w + np.eye(7)
        d = a.sum(axis=1)
        prop = ctx.propagation()
        np.testing.assert_allclose(prop, a / np.sqrt(np.outer(d, d)),
                                   rtol=1e-15)
        hood = ctx.neighborhood()
        assert hood.dtype == bool
        np.testing.assert_array_equal(hood, a != 0.0)
        assert hood[6].sum() == 1 and hood[6, 6]
        for op, repeat in ((basis, ctx.cheb_basis(3)),
                           (prop, ctx.propagation()),
                           (hood, ctx.neighborhood())):
            assert repeat is op
            assert not op.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = op[0, 1]

    @pytest.mark.parametrize("variant, operator", [
        ("gcn", "propagation"), ("gat", "neighborhood")])
    def test_baseline_operator_built_once_per_graph(self, tmp_path,
                                                    monkeypatch, variant,
                                                    operator):
        """A 2-fold, 5-epoch default synthetic train builds 3 graphs (one
        per fold and the final fit) and its variant's operator once on
        each, for every layer, epoch and pass.  The count is taken in this
        process, so the fits run here, as they do on one core."""
        monkeypatch.setattr(training, "_usable_cores", lambda: 1)
        graphs, built = [], []
        real_context = graphmod.build_graph_context
        real_operator = graphmod.GraphContext._operator

        def counting(ctx, key, build):
            return real_operator(ctx, key,
                                 lambda: built.append((ctx, key)) or build())

        monkeypatch.setattr(
            graphmod, "build_graph_context",
            lambda *args: graphs.append(real_context(*args)) or graphs[-1])
        monkeypatch.setattr(graphmod.GraphContext, "_operator", counting)
        assert main(["train", "--set", f'variant="{variant}"',
                     "--set", "training.folds=2", "--set", "training.epochs=5",
                     "--set", f'output_dir="{tmp_path}"']) == 0
        assert len(graphs) == 3
        assert built == [(g, operator) for g in graphs]


def cheb_matrix_oracle(ls, k):
    """Explicit matrix polynomial for small k (independent of the recurrence)."""
    eye = np.eye(ls.shape[0])
    p = [np.linalg.matrix_power(ls, i) for i in range(6)]
    table = [
        eye,
        ls,
        2 * p[2] - eye,
        4 * p[3] - 3 * ls,
        8 * p[4] - 8 * p[2] + eye,
        16 * p[5] - 20 * p[3] + 5 * ls,
    ]
    return table[k]


class TestChebApply:
    def test_order_one_is_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 3))
        terms = cheb_apply(np.eye(4) * 0.3, x, 1)
        assert len(terms) == 1
        np.testing.assert_array_equal(terms[0], x)

    def test_scalar_trig_identity(self):
        ls = np.diag([0.5])
        terms = cheb_apply(ls, np.ones((1, 1)), 3)
        assert terms[2][0, 0] == pytest.approx(np.cos(2 * np.arccos(0.5)),
                                               abs=1e-12)
        assert terms[2][0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_matches_matrix_polynomial(self):
        rng = np.random.default_rng(12)
        ctx = build_graph_context(random_adjacency(rng, 6))
        x = rng.standard_normal((6, 2))
        terms = cheb_apply(ctx.scaled_laplacian, x, 4)
        for k in range(4):
            expected = cheb_matrix_oracle(ctx.scaled_laplacian, k) @ x
            assert np.abs(terms[k] - expected).max() < 1e-10

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(13)
        ctx = build_graph_context(random_adjacency(rng, 5))
        x = rng.standard_normal((3, 5, 2))
        batched = cheb_apply(ctx.scaled_laplacian, x, 3)
        for b in range(3):
            single = cheb_apply(ctx.scaled_laplacian, x[b], 3)
            for k in range(3):
                np.testing.assert_allclose(batched[k][b], single[k])

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            cheb_apply(np.eye(2), np.ones((2, 1)), 0)

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            cheb_apply(np.eye(2), np.ones((3, 1)), 2)


class TestSpectralDecomposition:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(30)
        for n in (2, 4, 7):
            _, lap = degree_and_laplacian(random_adjacency(rng, n))
            evals, evecs = spectral_decomposition(lap)
            assert (np.diff(evals) >= 0).all()          # ascending
            assert evals.min() >= -1e-9                 # PSD spectrum
            recon = evecs @ np.diag(evals) @ evecs.T
            assert np.abs(recon - lap).max() < 1e-8
            assert np.abs(evecs.T @ evecs - np.eye(n)).max() < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralFilterOracle:
    def test_identity_coefficients(self):
        rng = np.random.default_rng(14)
        _, lap = degree_and_laplacian(random_adjacency(rng, 5))
        x = rng.standard_normal((5, 3))
        y = spectral_filter_oracle(lap, [1.0, 0.0, 0.0], x)
        np.testing.assert_allclose(y, x, atol=1e-8)

    def test_matches_recurrence_path(self):
        # equivalence of the two filter paths for every order up to 6
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 7))
            ctx = build_graph_context(random_adjacency(rng, n))
            theta = rng.standard_normal(k)
            x = rng.standard_normal((n, 2))
            oracle = spectral_filter_oracle(ctx.laplacian, theta, x)
            terms = cheb_apply(ctx.scaled_laplacian, x, k)
            recurrence = sum(t * term for t, term in zip(theta, terms))
            assert np.abs(oracle - recurrence).max() < 1e-6

    def test_single_edgeless_node(self):
        lap = np.zeros((1, 1))
        theta = np.array([0.3, -0.7, 1.1])
        x = np.array([[2.0]])
        oracle = spectral_filter_oracle(lap, theta, x)
        ctx = build_graph_context(np.zeros((1, 1)))
        terms = cheb_apply(ctx.scaled_laplacian, x, 3)
        recurrence = sum(t * term for t, term in zip(theta, terms))
        np.testing.assert_allclose(oracle, recurrence, atol=1e-10)
        assert np.isfinite(oracle).all()

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spectral_filter_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   [1.0], np.ones((2, 1)))


class TestScalarChebyshevInvariant:
    def test_recurrence_equals_closed_form(self):
        # the recurrence on a diagonal matrix evolves each entry independently
        xs = np.linspace(-1.0, 1.0, 1001)
        ls = np.diag(xs)
        terms = cheb_apply(ls, np.ones((xs.size, 1)), 7)
        for k in range(7):
            expected = np.cos(k * np.arccos(xs))
            assert np.abs(terms[k][:, 0] - expected).max() < 1e-10
