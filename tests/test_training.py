"""Losses, k-fold splitting, the training loop and cross-validation."""

import numpy as np
import pytest

from chebnet.data import Dataset, synth_generate
from chebnet.graph import graph_from_features
from chebnet.model import EnsembleModel, build_model, edge_embed
from chebnet.training import (DivergenceError, TrainingConfig, cross_validate,
                              ensemble_loss, fit_full, kfold_split, nll_loss,
                              nll_loss_grad, predict, train_model)

from oracles import synth_edge_generate


class TestNllLoss:
    def test_perfect_predictions(self):
        lp = np.log(np.array([[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]]))
        assert nll_loss(lp, [0, 1]) < 1e-6

    def test_uniform_two_classes(self):
        lp = np.full((4, 2), np.log(0.5))
        assert nll_loss(lp, [0, 1, 0, 1]) == pytest.approx(np.log(2))
        assert nll_loss(lp, [0, 1, 0, 1]) == pytest.approx(0.693147, abs=1e-6)

    def test_mean_over_batch(self):
        lp = np.log(np.array([[1.0 - 1e-15, 1e-15], [0.5, 0.5]]))
        assert nll_loss(lp, [0, 0]) == pytest.approx(np.log(2) / 2, abs=1e-9)
        assert nll_loss(lp, [0, 0]) == pytest.approx(0.346574, abs=1e-6)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            nll_loss(np.zeros((2, 2)), [0, 2])

    def test_grad_matches_loss(self):
        rng = np.random.default_rng(0)
        lp = np.log(rng.dirichlet(np.ones(3), size=5))
        targets = rng.integers(0, 3, size=5)
        g = nll_loss_grad(lp, targets)
        h = 1e-7
        for i in range(5):
            for j in range(3):
                lp[i, j] += h
                hi = nll_loss(lp, targets)
                lp[i, j] -= 2 * h
                lo = nll_loss(lp, targets)
                lp[i, j] += h
                assert g[i, j] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)


class TestEnsembleLoss:
    def test_alpha_one(self):
        assert ensemble_loss(1.7, 9.9, 1.0) == 1.7

    def test_weighted(self):
        assert ensemble_loss(1.0, 2.0, 0.9) == pytest.approx(1.1)

    def test_equal_losses(self):
        assert ensemble_loss(3.3, 3.3, 0.5) == pytest.approx(3.3)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ensemble_loss(1.0, 1.0, 1.5)


class TestKfoldSplit:
    def test_even_division(self):
        plan = kfold_split(20, folds=10, seed=0)
        sizes = np.bincount(plan, minlength=10)
        assert (sizes == 2).all()

    def test_uneven_division(self):
        plan = kfold_split(23, folds=10, seed=1)
        sizes = np.bincount(plan, minlength=10)
        assert sorted(sizes) == [2] * 7 + [3] * 3

    def test_deterministic(self):
        a = kfold_split(57, folds=10, seed=42)
        b = kfold_split(57, folds=10, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_plan(self):
        a = kfold_split(57, folds=10, seed=1)
        b = kfold_split(57, folds=10, seed=2)
        assert (a != b).any()

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            kfold_split(5, folds=10, seed=0)


class TestEdgeEmbed:
    def test_self_loop_repeats(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = edge_embed(emb, [[1, 1]])
        np.testing.assert_array_equal(out, [[3.0, 4.0, 3.0, 4.0]])

    def test_concat_order(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = edge_embed(emb, [[0, 1]])
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0, 4.0]])

    def test_head_input_width(self):
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((9, 50))
        edges = rng.integers(0, 9, size=(31, 2))
        assert edge_embed(emb, edges).shape == (31, 100)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            edge_embed(np.ones((2, 3)), [[0, 2]])


def quick_config(**kw):
    base = dict(epochs=40, folds=2, seed=0, dropout=0.0, early_stop=False,
                threshold=0.6)
    base.update(kw)
    return TrainingConfig(**base)


def tiny_dataset(seed=0, n=16):
    dataset, _ = synth_generate(n, 10, 2, separation=4.0, seed=seed)
    return dataset


class TestTrainModel:
    def test_zero_epochs(self):
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        model, history = train_model(dataset, graph, quick_config(epochs=0))
        assert history == []
        assert model is not None

    def test_identical_seeds_identical_histories(self):
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        _, h1 = train_model(dataset, graph, quick_config(dropout=0.5))
        _, h2 = train_model(dataset, graph, quick_config(dropout=0.5))
        assert h1 == h2

    def test_reproducible_final_parameters(self):
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        m1, _ = train_model(dataset, graph, quick_config())
        m2, _ = train_model(dataset, graph, quick_config())
        for (n1, a1), (n2, a2) in zip(m1.named_arrays(), m2.named_arrays()):
            assert n1 == n2
            assert np.abs(a1 - a2).max() <= 1e-12

    def test_loss_decreases(self):
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        _, history = train_model(dataset, graph, quick_config(epochs=150))
        first = history[0][3]
        last = history[-1][3]
        assert last < first

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        cfg = quick_config(optimizer_graph="sgd", optimizer_conv="sgd",
                           lr_graph=1e12, lr_conv=1e12, weight_decay=1e12,
                           epochs=50)
        with pytest.raises(DivergenceError):
            train_model(dataset, graph, cfg)

    @pytest.mark.parametrize("branch", ["graph", "conv"])
    def test_divergence_raises_before_backward(self, monkeypatch, branch):
        # the branch whose loss is non-finite must not run its backward
        calls = []

        def spy(name):
            orig = getattr(EnsembleModel, name)

            def wrapper(self, dout):
                calls.append(name)
                return orig(self, dout)
            return wrapper

        for name in ("graph_backward", "conv_backward"):
            monkeypatch.setattr(EnsembleModel, name, spy(name))
        losses = [np.inf] if branch == "graph" else [0.5, np.nan]
        monkeypatch.setattr("chebnet.training.nll_loss",
                            lambda lp, targets: losses.pop(0) if losses else 0.5)
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        with pytest.raises(DivergenceError, match=branch):
            train_model(dataset, graph, quick_config(epochs=3))
        assert calls == ([] if branch == "graph" else ["graph_backward"])

    def test_early_stop_truncates(self):
        dataset = tiny_dataset(n=12)
        graph = graph_from_features(dataset.features, 0.6)
        cfg = quick_config(epochs=400, early_stop=True,
                           early_stop_patience=5)
        _, history = train_model(dataset, graph, cfg)
        assert len(history) < 400
        assert history[-1][4] >= 0.999

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one_rejected(self, patience):
        # patience <= 0 would stop every fit after its first epoch
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        cfg = quick_config(early_stop=True, early_stop_patience=patience)
        with pytest.raises(ValueError, match="early_stop_patience"):
            train_model(dataset, graph, cfg)

    def test_empty_dataset_rejected(self):
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        empty = Dataset(features=np.zeros((0, 10)),
                        targets=np.zeros(0, dtype=int),
                        task="node-class", n_classes=2)
        with pytest.raises(ValueError):
            train_model(empty, graph, quick_config())

    @pytest.mark.parametrize("task", ["node", "edge"])
    def test_returns_model_without_caches(self, task):
        """Each backward releases its forward's cache and the per-epoch
        accuracy pass is eval mode, so the returned model holds none."""
        if task == "node":
            dataset = tiny_dataset()
        else:
            dataset, _ = synth_edge_generate(
                n_nodes=12, n_features=10, n_communities=2, separation=3.0,
                n_edges=40, seed=5)
        model, history, _, _, _ = fit_full(
            dataset, quick_config(epochs=3, dropout=0.5))
        assert len(history) == 3
        layers = [layer for block in model.blocks for layer in block]
        layers += [model.head] + getattr(model.head, "linears", [])
        layers += model.conv_layers
        assert all(layer._cache is None for layer in layers)
        assert model._gcache is None and model._ccache is None


class TestLossDecreaseProperty:
    def test_single_sample_step_decreases_loss(self):
        """One optimizer step at tiny lr strictly decreases a sample's loss."""
        from chebnet.data import conv_inputs_node
        from chebnet.optim import make_optimizer

        rng = np.random.default_rng(3)
        for trial in range(50):
            seed = 1000 + trial
            trial_rng = np.random.default_rng(seed)
            feats = trial_rng.standard_normal((1, 10))
            targets = trial_rng.integers(0, 2, size=1)
            graph = graph_from_features(
                np.random.default_rng(seed + 1).standard_normal((30, 10)), 0.6)
            kind = "sgd" if trial % 2 == 0 else "adam"
            model = build_model("node-class", "cheb", 10, 2, (1, 10),
                                rng=trial_rng, dropout_p=0.0)
            conv_x = conv_inputs_node(feats, (1, 10))
            og = make_optimizer(kind, model.graph_parameters(), 1e-6)
            oc = make_optimizer(kind, model.conv_parameters(), 1e-6)

            def loss_value(training):
                glp = model.graph_forward(graph, feats, training=training)
                clp = model.conv_forward(conv_x)
                return (ensemble_loss(nll_loss(glp, targets),
                                      nll_loss(clp, targets), 0.9), glp, clp)

            before, glp, clp = loss_value(True)
            model.graph_backward(0.9 * nll_loss_grad(glp, targets))
            model.conv_backward(0.1 * nll_loss_grad(clp, targets))
            og.step()
            oc.step()
            # recompute in train mode with frozen stats for a fair comparison
            after, _, _ = loss_value(True)
            assert after < before, f"trial {trial} ({kind})"


class TestAlphaRouting:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_extreme_alpha_zeroes_other_branch(self, alpha):
        from chebnet.data import conv_inputs_node

        rng = np.random.default_rng(4)
        feats = rng.standard_normal((8, 10))
        targets = rng.integers(0, 2, size=8)
        graph = graph_from_features(feats, 0.6)
        model = build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng,
                            dropout_p=0.0, alpha=alpha)
        glp = model.graph_forward(graph, feats, training=True)
        clp = model.conv_forward(conv_inputs_node(feats, (1, 10)))
        model.graph_backward(alpha * nll_loss_grad(glp, targets))
        model.conv_backward((1 - alpha) * nll_loss_grad(clp, targets))
        graph_grads = [p.grad for p in model.graph_parameters()]
        conv_grads = [p.grad for p in model.conv_parameters()]
        if alpha == 1.0:
            assert all((g == 0.0).all() for g in conv_grads)
            assert any((g != 0.0).any() for g in graph_grads)
        else:
            assert all((g == 0.0).all() for g in graph_grads)
            assert any((g != 0.0).any() for g in conv_grads)


class TestCrossValidate:
    def test_partition_and_conservation(self):
        dataset = tiny_dataset(n=24)
        cfg = quick_config(folds=4, epochs=15)
        result = cross_validate(dataset, cfg)
        # every sample tested exactly once
        assert len(result.fold_plan) == 24
        assert sorted(np.bincount(result.fold_plan)) == [6, 6, 6, 6]
        assert result.pooled.confusion.sum() == 24
        per_fold_total = sum(fr.metrics.confusion.sum()
                             for fr in result.fold_results)
        assert per_fold_total == 24

    def test_pooled_is_sum_of_folds(self):
        dataset = tiny_dataset(n=20)
        cfg = quick_config(folds=4, epochs=15)
        result = cross_validate(dataset, cfg)
        summed = sum(fr.metrics.confusion for fr in result.fold_results)
        np.testing.assert_array_equal(result.pooled.confusion, summed)

    def test_edge_task_runs(self):
        dataset, _ = synth_edge_generate(
            n_nodes=12, n_features=10, n_communities=2, separation=3.0,
            n_edges=40, seed=5)
        cfg = quick_config(folds=4, epochs=25)
        result = cross_validate(dataset, cfg)
        assert result.pooled.confusion.sum() == 40


class TestPredict:
    def test_argmax_and_ties(self):
        # predictions are the argmax of log-probabilities; ties pick the
        # lowest class index (numpy argmax semantics)
        assert np.argmax(np.array([0.1, 0.9])) == 1
        assert np.argmax(np.array([0.4, 0.4])) == 0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((40, 5))
        base = np.argmax(logits, axis=-1)
        for g in (lambda z: 3 * z + 1, np.tanh, lambda z: z ** 3,
                  lambda z: np.exp(0.5 * z)):
            np.testing.assert_array_equal(np.argmax(g(logits), axis=-1), base)

    def test_model_predictions_deterministic(self):
        dataset = tiny_dataset()
        graph = graph_from_features(dataset.features, 0.6)
        model, _ = train_model(dataset, graph, quick_config(epochs=20))
        p1 = predict(model, graph, dataset.features)
        p2 = predict(model, graph, dataset.features)
        np.testing.assert_array_equal(p1, p2)
        assert p1.shape == (dataset.n_samples,)
