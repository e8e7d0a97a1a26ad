"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and budgets are fixed here, not calibrated elsewhere.
"""

import os
import time

import numpy as np
import pytest

from chebnet.cli import main
from chebnet.data import (Dataset, conv_inputs_node, load_dataco,
                          synth_generate, write_dataco_csv, zscore_normalize)
from chebnet.graph import (build_adjacency, build_graph_context, cheb_apply,
                           graph_from_features, pearson_correlation)
from chebnet.layers import (BatchNorm, ChebConv, Conv1D, GATLayer, GCNConv,
                            Linear, apply_affine)
from chebnet.model import build_model
from chebnet.training import (SEED_SYNTH, TrainingConfig, cross_validate,
                              kfold_split, nll_loss_grad, subseed,
                              train_model)

from oracles import (grad_check, input_grad, spectral_filter_oracle,
                     synth_edge_generate)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def random_adjacency(rng, n, density=0.6):
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    return (w + w.T) / 2.0


def test_criterion_1_spectral_equivalence():
    """Chebyshev recurrence path vs dense eigendecomposition oracle."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        ctx = build_graph_context(random_adjacency(rng, n))
        theta = rng.standard_normal(k)
        x = rng.standard_normal((n, int(rng.integers(1, 4))))
        oracle = spectral_filter_oracle(ctx.laplacian, theta, x)
        terms = cheb_apply(ctx.scaled_laplacian, x, k)
        recurrence = sum(t * term for t, term in zip(theta, terms))
        worst = max(worst, float(np.abs(oracle - recurrence).max()))
    elapsed = time.perf_counter() - start
    report("criterion 1: spectral equivalence",
           worst < 1e-6 and elapsed < 1.0,
           f"max|diff|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_scalar_chebyshev():
    """Recurrence vs cos(k arccos x) on 1000 points, k <= 6."""
    xs = np.linspace(-1.0, 1.0, 1000)
    terms = cheb_apply(np.diag(xs), np.ones((xs.size, 1)), 7)
    worst = 0.0
    for k in range(7):
        closed = np.cos(k * np.arccos(xs))
        worst = max(worst, float(np.abs(terms[k][:, 0] - closed).max()))
    report("criterion 2: scalar Chebyshev oracle", worst < 1e-10,
           f"max|diff|={worst:.2e}")


def test_criterion_3_gradient_suite():
    """Finite-difference checks for every layer over 20 seeds."""
    start = time.perf_counter()
    worst = {}

    def project_and_check(layer, forward, wrt):
        def f():
            for _, p in layer.parameters():
                p.zero_grad()
            loss, grads = forward()
            return loss, grads
        return grad_check(f, wrt)

    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        graph = build_graph_context(random_adjacency(rng, 4, density=0.8))

        layer = ChebConv(3, 2, order=3, rng=rng)
        x = rng.standard_normal((4, 3))
        proj = rng.standard_normal((4, 2))
        err = project_and_check(
            layer,
            lambda: _run_graph(layer, graph, x, proj),
            [p.value for _, p in layer.parameters()] + [x])
        worst["ChebConv"] = max(worst.get("ChebConv", 0.0), err)

        layer = GCNConv(3, 2, rng=rng)
        err = project_and_check(
            layer,
            lambda: _run_graph(layer, graph, x, proj),
            [p.value for _, p in layer.parameters()] + [x])
        worst["GCN"] = max(worst.get("GCN", 0.0), err)

        layer = GATLayer(3, 2, rng=rng)
        err = project_and_check(
            layer,
            lambda: _run_graph(layer, graph, x, proj),
            [p.value for _, p in layer.parameters()] + [x])
        worst["GAT"] = max(worst.get("GAT", 0.0), err)

        layer = Conv1D(2, 2, rng=rng)
        xc = rng.standard_normal((2, 2, 8))
        pc = rng.standard_normal((2, 2, 4))
        err = project_and_check(
            layer,
            lambda: _run_plain(layer, xc, pc),
            [p.value for _, p in layer.parameters()] + [xc])
        worst["Conv1D"] = max(worst.get("Conv1D", 0.0), err)

        layer = Linear(3, 2, rng=rng)
        xl = rng.standard_normal((5, 3))
        pl = rng.standard_normal((5, 2))
        err = project_and_check(
            layer,
            lambda: _run_plain(layer, xl, pl),
            [p.value for _, p in layer.parameters()] + [xl])
        worst["Linear"] = max(worst.get("Linear", 0.0), err)

        layer = BatchNorm(3)
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, 3)
        layer.beta.value[...] = rng.standard_normal(3)
        xb = rng.standard_normal((8, 3))
        pb = rng.standard_normal((8, 3))
        err = project_and_check(
            layer,
            lambda: _run_batchnorm(layer, xb, pb),
            [p.value for _, p in layer.parameters()] + [xb])
        worst["BatchNorm"] = max(worst.get("BatchNorm", 0.0), err)

    elapsed = time.perf_counter() - start
    overall = max(worst.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report("criterion 3: gradient suite",
           overall < 1e-4 and elapsed < 30.0,
           f"{detail}, {elapsed:.1f}s")


def _run_graph(layer, graph, x, proj):
    y = layer.forward(graph, x)
    loss = float((y * proj).sum())
    dx, _ = input_grad(layer, proj, x)
    return loss, [p.grad.copy() for _, p in layer.parameters()] + [dx]


def _run_plain(layer, x, proj):
    y = layer.forward(x)
    loss = float((y * proj).sum())
    dx = layer.backward(proj)
    return loss, [p.grad.copy() for _, p in layer.parameters()] + [dx]


def _run_batchnorm(layer, x, proj):
    layer.running_mean[...] = 0.0
    layer.running_var[...] = 1.0
    # BatchNorm works in place on what it is given: pass copies
    y = apply_affine(*layer.forward(x.copy()))
    loss = float((y * proj).sum())
    dx = layer.backward(proj.copy())
    return loss, [p.grad.copy() for _, p in layer.parameters()] + [dx]


def test_criterion_4_parameter_counts():
    """Per-row counts of the 10-channel graph branch and edge head shapes."""
    rng = np.random.default_rng(102)
    model = build_model("node-class", "cheb", width=10, n_classes=2,
                        conv_shape=(1, 10), rng=rng, cheb_orders=(1, 1, 1, 1))
    counts = []
    for layer, bn in model.blocks:
        counts.append(sum(p.size for _, p in layer.parameters()))
        counts.append(sum(p.size for _, p in bn.parameters()))
    counts_ok = counts == [110, 20, 55, 10, 12, 4, 6, 4]

    heads_ok = True
    for classes in (4, 25):
        em = build_model("edge-class", "cheb", width=12, n_classes=classes,
                         conv_shape=(1, 12), rng=rng, cheb_orders=(1, 1, 1))
        e = 17
        emb = rng.standard_normal((9, 50))
        edges = rng.integers(0, 9, size=(e, 2))
        from chebnet.model import edge_embed
        h1 = em.head.linears[0].forward(edge_embed(emb, edges))
        h2 = em.head.linears[1].forward(h1)
        heads_ok &= h1.shape == (e, 100) and h2.shape == (e, classes)

    report("criterion 4: parameter-count conformance",
           counts_ok and heads_ok, f"rows={counts}")


def test_criterion_5_kfold_property():
    ok = True
    details = []
    for n in (20, 23, 101):
        a = kfold_split(n, folds=10, seed=7)
        b = kfold_split(n, folds=10, seed=7)
        sizes = np.bincount(a, minlength=10)
        ok &= np.array_equal(a, b)                 # seed-stable
        ok &= len(a) == n and a.min() >= 0 and a.max() < 10
        ok &= sizes.max() - sizes.min() <= 1
        ok &= sizes.sum() == n                     # every index exactly once
        details.append(f"n={n}:{sorted(set(sizes.tolist()))}")
    report("criterion 5: k-fold property", ok, ", ".join(details))


def test_criterion_6_end_to_end_synthetic():
    """Pooled 10-fold accuracy on the fixed synthetic task; lr from the
    published search scope."""
    start = time.perf_counter()
    dataset, _ = synth_generate(400, 10, 2, separation=3.0,
                                seed=subseed(0, SEED_SYNTH))
    cfg = TrainingConfig(epochs=500, folds=10, seed=0, lr_graph=0.01)
    result = cross_validate(dataset, cfg)
    elapsed = time.perf_counter() - start
    report("criterion 6: end-to-end synthetic",
           result.pooled.accuracy >= 0.95 and elapsed < 300.0,
           f"pooled={result.pooled.accuracy:.4f}, {elapsed:.0f}s")


def test_criterion_6b_transaction_csv_pipeline(tmp_path):
    """A transaction-style CSV must run the full pipeline (no accuracy gate)."""
    dataset, _ = synth_generate(60, 10, 2, separation=3.0, seed=33)
    path = tmp_path / "transactions.csv"
    write_dataco_csv(dataset, path, target_column="target")
    loaded = load_dataco(path, target_column="target")
    cfg = TrainingConfig(epochs=20, folds=3, seed=0)
    result = cross_validate(loaded, cfg)
    report("criterion 6b: transaction CSV pipeline completes",
           result.pooled.confusion.sum() == 60,
           f"accuracy={result.pooled.accuracy:.3f} (not gated)")


def test_criterion_7_edge_classification():
    """Four edge-relation classes from node communities, pooled >= 0.90."""
    start = time.perf_counter()
    dataset, _ = synth_edge_generate(
        n_nodes=30, n_features=16, n_communities=2, separation=3.0,
        n_edges=200, seed=subseed(0, SEED_SYNTH, 1))
    cfg = TrainingConfig(epochs=500, folds=10, seed=0, lr_graph=0.01)
    result = cross_validate(dataset, cfg)
    elapsed = time.perf_counter() - start
    report("criterion 7: edge classification end-to-end",
           result.pooled.accuracy >= 0.90 and dataset.n_classes == 4,
           f"pooled={result.pooled.accuracy:.4f}, {elapsed:.0f}s")


def test_criterion_8_overfit_sanity():
    """Each variant drives an 8-sample task below loss 0.01.

    Early stopping and regularizers are disabled; learning rates come from
    the published search scopes.
    """
    dataset, _ = synth_generate(8, 10, 2, separation=2.0, seed=11)
    feats, _, _ = zscore_normalize(dataset.features)
    full = Dataset(feats, dataset.targets, dataset.task, dataset.n_classes)
    graph = graph_from_features(feats, 0.7)
    results = {}
    for variant in ("cheb", "gcn", "gat"):
        cfg = TrainingConfig(variant=variant, epochs=2000, folds=2, seed=0,
                             dropout=0.0, weight_decay=0.0,
                             lr_graph=0.01, lr_conv=0.001, early_stop=False)
        _, history = train_model(full, graph, cfg)
        losses = [h[3] for h in history]
        hit = next((i for i, l in enumerate(losses) if l < 0.01), None)
        results[variant] = (min(losses), hit)
    ok = all(hit is not None for _, hit in results.values())
    detail = ", ".join(f"{v}: min={lo:.4f}@{hit}"
                       for v, (lo, hit) in results.items())
    report("criterion 8: overfit sanity", ok, detail)


def test_criterion_9_ensemble_routing():
    rng = np.random.default_rng(103)
    feats = rng.standard_normal((8, 10))
    targets = rng.integers(0, 2, size=8)
    graph = graph_from_features(rng.standard_normal((40, 10)), 0.6)
    ok = True
    for alpha in (1.0, 0.0):
        model = build_model("node-class", "cheb", 10, 2, (1, 10),
                            rng=rng, dropout_p=0.0, alpha=alpha)
        glp = model.graph_forward(graph, feats, training=True)
        clp = model.conv_forward(conv_inputs_node(feats, (1, 10)))
        model.graph_backward(alpha * nll_loss_grad(glp, targets))
        model.conv_backward((1 - alpha) * nll_loss_grad(clp, targets))
        conv_zero = all((p.grad == 0.0).all()
                        for p in model.conv_parameters())
        graph_zero = all((p.grad == 0.0).all()
                         for p in model.graph_parameters())
        if alpha == 1.0:
            ok &= conv_zero and not graph_zero
        else:
            ok &= graph_zero and not conv_zero
    report("criterion 9: ensemble-loss routing", ok)


def test_criterion_10_determinism(tmp_path):
    args = ["train",
            "--set", "synth.n_samples=60",
            "--set", "training.epochs=25",
            "--set", "training.folds=3",
            "--set", "training.lr_graph=0.01"]
    payloads = []
    for name in ("first", "second"):
        os.environ["CHEBNET_OUTPUT_ROOT"] = str(tmp_path / name)
        try:
            assert main(args) == 0
        finally:
            del os.environ["CHEBNET_OUTPUT_ROOT"]
        run = tmp_path / name / "cheb"
        payloads.append({f: (run / f).read_bytes()
                         for f in ("metrics.txt", "history.csv",
                                   "confusion.csv", "checkpoint.bin",
                                   "fold_plan.csv")})
    same = {f: payloads[0][f] == payloads[1][f] for f in payloads[0]}
    report("criterion 10: determinism", all(same.values()),
           ", ".join(f"{f}={'ok' if v else 'DIFF'}" for f, v in same.items()))


def test_criterion_11_graph_recovery():
    """Ground-truth correlation graph recovered at threshold 0.7."""
    worst = 1.0
    for seed in (0, 1, 2):
        dataset, truth = synth_generate(600, 10, 2, separation=3.0,
                                        seed=seed)
        recovered = build_adjacency(pearson_correlation(dataset.features),
                                    threshold=0.7)
        true_edges = {(i, j) for i, j in zip(*np.nonzero(truth)) if i < j}
        got_edges = {(i, j) for i, j in zip(*np.nonzero(recovered)) if i < j}
        tp = len(true_edges & got_edges)
        prec = tp / max(len(got_edges), 1)
        rec = tp / max(len(true_edges), 1)
        f1 = 2 * prec * rec / max(prec + rec, 1e-12)
        worst = min(worst, f1)
    report("criterion 11: graph recovery", worst >= 0.9,
           f"min F1 over seeds={worst:.3f}")
