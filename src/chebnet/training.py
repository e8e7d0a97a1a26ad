"""Training loop, ensemble loss, k-fold cross-validation.

Each fold normalizes with its own train-fold statistics, builds the
correlation graph from train-fold features only, trains a fresh model and
evaluates the held-out fold; the pooled confusion matrix is the sum over
folds.  All randomness derives from the single config seed through named
sub-seeds (fold split / init / dropout / synthesis), so identical configs
reproduce identical runs bitwise.
"""

from dataclasses import dataclass

import numpy as np

from chebnet.data import EDGE_TASK, Dataset, apply_zscore, zscore_normalize
from chebnet.graph import DEFAULT_THRESHOLD, graph_from_features
from chebnet.metrics import (Metrics, compute_metrics, metrics_from_confusion)
from chebnet.model import (build_model, conv_inputs_edge, conv_inputs_node,
                           edge_embed)
from chebnet.optim import make_optimizer

__all__ = [
    "TrainingConfig", "DivergenceError", "nll_loss", "nll_loss_grad",
    "ensemble_loss", "kfold_split", "train_model", "cross_validate",
    "fit_full", "predict", "edge_embed", "HISTORY_HEADER",
]

# named sub-seed components
SEED_FOLDS = 0
SEED_INIT = 1
SEED_DROPOUT = 2
SEED_SYNTH = 3

HISTORY_HEADER = ("epoch", "loss_graph", "loss_conv", "loss_total",
                  "train_accuracy")


class DivergenceError(RuntimeError):
    """Training reached a non-finite loss."""


def subseed(seed, component, instance=0):
    return np.random.SeedSequence(int(seed), spawn_key=(component, instance))


@dataclass(frozen=True)
class TrainingConfig:
    variant: str = "cheb"
    optimizer_graph: str = "adam"
    optimizer_conv: str = "adam"
    lr_graph: float = 1e-3
    lr_conv: float = 1e-4
    weight_decay: float = 4e-4
    cheb_orders: tuple = (1, 1, 1, 1)
    graph_dims: tuple = None
    conv_kernels: int = 10
    dropout: float = 0.5
    embedding_dim: int = 50
    threshold: float = DEFAULT_THRESHOLD
    window: int = 20
    stride: int = 1
    epochs: int = 500
    folds: int = 10
    seed: int = 0
    alpha: float = 0.9
    early_stop: bool = True
    early_stop_accuracy: float = 0.999
    early_stop_patience: int = 20

    def __post_init__(self):
        if self.lr_graph <= 0 or self.lr_conv <= 0:
            raise ValueError("learning rates must be positive")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")


def nll_loss(log_probs, targets):
    """Mean negative log-likelihood of the target classes."""
    lp = np.asarray(log_probs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() >= lp.shape[-1]):
        raise ValueError(f"targets must lie in [0, {lp.shape[-1]})")
    return float(-lp[np.arange(len(t)), t].mean())


def nll_loss_grad(log_probs, targets):
    lp = np.asarray(log_probs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.int64)
    g = np.zeros_like(lp)
    g[np.arange(len(t)), t] = -1.0 / len(t)
    return g


def ensemble_loss(loss_graph, loss_conv, alpha):
    """Convex combination alpha * graph loss + (1 - alpha) * conv loss."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * loss_graph + (1.0 - alpha) * loss_conv


def kfold_split(n, folds=10, seed=0):
    """Shuffled deterministic partition into folds of near-equal size.

    Returns an array mapping sample index -> fold id; sizes differ by at
    most one.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError(f"cannot split {n} samples into {folds} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sizes = np.full(folds, n // folds, dtype=np.int64)
    sizes[: n % folds] += 1
    plan = np.empty(n, dtype=np.int64)
    start = 0
    for f, size in enumerate(sizes):
        plan[perm[start:start + size]] = f
        start += size
    return plan


def predict(model, graph, features, edges=None):
    """Eval-mode class predictions from the graph branch (ties -> lowest)."""
    log_probs = model.graph_forward(graph, features, edges, training=False)
    return np.argmax(log_probs, axis=-1)


def _conv_inputs(dataset, features):
    if dataset.task == EDGE_TASK:
        return conv_inputs_edge(features, dataset.edges, dataset.conv_shape)
    return conv_inputs_node(features, dataset.conv_shape)


def _build_from_config(dataset, graph, config, init_rng):
    width = graph.n_nodes if dataset.task != EDGE_TASK \
        else dataset.features.shape[1]
    orders = config.cheb_orders
    dims = config.graph_dims
    return build_model(
        task=dataset.task,
        variant=config.variant,
        width=width,
        n_classes=dataset.n_classes,
        conv_shape=dataset.conv_shape,
        rng=init_rng,
        cheb_orders=orders if dims is None or len(orders) >= len(dims)
        else tuple(orders) + (1,) * (len(dims) - len(orders)),
        graph_dims=dims,
        conv_kernels=config.conv_kernels,
        dropout_p=config.dropout,
        alpha=config.alpha,
        embedding_dim=config.embedding_dim,
    )


def train_model(dataset, graph, config, instance=0):
    """Run the two-branch training loop; returns (model, history rows).

    One epoch is a full-batch forward of both branches, the ensemble loss,
    backward with per-branch coefficients, and one optimizer step per
    branch.  The per-epoch accuracy is an eval-mode prediction pass, so it
    matches what a later evaluation of the same data reports.  Training
    stops at the epoch budget or, when enabled, once accuracy has held at
    the early-stop level for the configured patience.
    """
    if dataset.n_samples == 0:
        raise ValueError("dataset is empty")
    init_rng = np.random.default_rng(subseed(config.seed, SEED_INIT, instance))
    drop_rng = np.random.default_rng(
        subseed(config.seed, SEED_DROPOUT, instance))
    model = _build_from_config(dataset, graph, config, init_rng)
    opt_graph = make_optimizer(config.optimizer_graph,
                               model.graph_parameters(),
                               config.lr_graph, config.weight_decay)
    opt_conv = make_optimizer(config.optimizer_conv,
                              model.conv_parameters(),
                              config.lr_conv, config.weight_decay)
    feats = dataset.features
    targets = dataset.targets
    edges = dataset.edges
    conv_x = _conv_inputs(dataset, feats)

    history = []
    streak = 0
    for epoch in range(config.epochs):
        graph_lp = model.graph_forward(graph, feats, edges, training=True,
                                       rng=drop_rng)
        conv_lp = model.conv_forward(conv_x)
        loss_graph = nll_loss(graph_lp, targets)
        loss_conv = nll_loss(conv_lp, targets)
        loss_total = ensemble_loss(loss_graph, loss_conv, config.alpha)
        if not np.isfinite(loss_total):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch}: "
                f"graph={loss_graph} conv={loss_conv}")
        model.graph_backward(config.alpha * nll_loss_grad(graph_lp, targets))
        model.conv_backward(
            (1.0 - config.alpha) * nll_loss_grad(conv_lp, targets))
        opt_graph.step()
        opt_conv.step()
        preds = predict(model, graph, feats, edges)
        accuracy = float((preds == targets).mean())
        history.append((epoch, loss_graph, loss_conv, loss_total, accuracy))
        if config.early_stop:
            streak = streak + 1 if accuracy >= config.early_stop_accuracy else 0
            if streak >= config.early_stop_patience:
                break
    return model, history


@dataclass
class FoldResult:
    fold: int
    metrics: Metrics
    history: list


@dataclass
class CVResult:
    fold_results: list
    pooled: Metrics
    fold_plan: np.ndarray

    @property
    def fold_metrics(self):
        return [fr.metrics for fr in self.fold_results]


def _subset(dataset, features, mask):
    """The training rows of ``dataset`` selected by ``mask``, on ``features``.

    ``mask`` picks targets, and for edge tasks the matching edges as well.
    """
    edges = dataset.edges[mask] if dataset.task == EDGE_TASK else None
    return Dataset(
        features=features,
        targets=dataset.targets[mask],
        task=dataset.task,
        n_classes=dataset.n_classes,
        channel_names=dataset.channel_names,
        edges=edges,
        conv_shape=dataset.conv_shape,
        class_names=dataset.class_names,
    )


def cross_validate(dataset, config):
    """K-fold cross-validation; every sample is tested exactly once.

    Node tasks re-derive normalization statistics and the correlation graph
    from each fold's training rows.  Edge tasks fold the edge list; the
    node-feature matrix (and hence the graph) is not fold-dependent.
    """
    n = dataset.n_samples
    plan = kfold_split(n, config.folds, subseed(config.seed, SEED_FOLDS))
    fold_results = []
    pooled_confusion = np.zeros((dataset.n_classes, dataset.n_classes),
                                dtype=np.int64)

    if dataset.task == EDGE_TASK:
        norm_feats, _, _ = zscore_normalize(dataset.features)
        graph = graph_from_features(norm_feats.T, config.threshold,
                                    [f"n{i}" for i in
                                     range(dataset.features.shape[0])])

    for fold in range(config.folds):
        test = plan == fold
        if dataset.task == EDGE_TASK:
            train_ds = _subset(dataset, norm_feats, ~test)
            model, history = train_model(train_ds, graph, config,
                                         instance=fold)
            preds = predict(model, graph, norm_feats, dataset.edges[test])
        else:
            norm_train, mean, std = zscore_normalize(
                dataset.features[~test])
            graph = graph_from_features(norm_train, config.threshold,
                                        dataset.channel_names)
            train_ds = _subset(dataset, norm_train, ~test)
            model, history = train_model(train_ds, graph, config,
                                         instance=fold)
            test_feats = apply_zscore(dataset.features[test], mean, std)
            preds = predict(model, graph, test_feats)
        m = compute_metrics(preds, dataset.targets[test], dataset.n_classes)
        pooled_confusion += m.confusion
        fold_results.append(FoldResult(fold=fold, metrics=m, history=history))

    return CVResult(
        fold_results=fold_results,
        pooled=metrics_from_confusion(pooled_confusion),
        fold_plan=plan,
    )


def fit_full(dataset, config):
    """Train one model on the full dataset (the checkpointed model).

    Returns (model, history, graph, mean, std); the normalization record and
    graph are what a later evaluation of new data must reuse.
    """
    norm_feats, mean, std = zscore_normalize(dataset.features)
    if dataset.task == EDGE_TASK:
        graph = graph_from_features(
            norm_feats.T, config.threshold,
            [f"n{i}" for i in range(dataset.features.shape[0])])
    else:
        graph = graph_from_features(norm_feats, config.threshold,
                                    dataset.channel_names)
    full = _subset(dataset, norm_feats, np.ones(dataset.n_samples, dtype=bool))
    model, history = train_model(full, graph, config, instance=config.folds)
    return model, history, graph, mean, std
