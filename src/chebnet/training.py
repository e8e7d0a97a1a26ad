"""Training loop, ensemble loss, k-fold cross-validation.

Each fold normalizes with its own train-fold statistics, builds the
correlation graph from train-fold features only, trains a fresh model and
evaluates the held-out fold; the pooled confusion matrix is the sum over
folds.  All randomness derives from the single config seed through named
sub-seeds (fold split / init / dropout / synthesis), so identical configs
reproduce identical runs bitwise.

The task layout (a fold's samples, the graph's node axis, the conv
sequences) is ``Dataset``'s; this module never compares task kinds.
"""

from dataclasses import dataclass, replace

import numpy as np

from chebnet.data import apply_zscore, zscore_normalize
from chebnet.graph import DEFAULT_THRESHOLD, graph_from_features
from chebnet.metrics import (Metrics, compute_metrics, metrics_from_confusion)
from chebnet.model import build_model
from chebnet.optim import make_optimizer

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
    epochs: int = 500
    folds: int = 10
    seed: int = 0
    alpha: float = 0.9
    early_stop: bool = True
    early_stop_accuracy: float = 0.999
    early_stop_patience: int = 20


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


def _build_from_config(dataset, config, init_rng):
    return build_model(
        task=dataset.task,
        variant=config.variant,
        width=dataset.features.shape[1],
        n_classes=dataset.n_classes,
        conv_shape=dataset.conv_shape,
        rng=init_rng,
        cheb_orders=config.cheb_orders,
        graph_dims=config.graph_dims,
        conv_kernels=config.conv_kernels,
        dropout_p=config.dropout,
        alpha=config.alpha,
        embedding_dim=config.embedding_dim,
    )


def _check_finite(epoch, branch, loss):
    if not np.isfinite(loss):
        raise DivergenceError(
            f"non-finite loss at epoch {epoch}: {branch}={loss}")


def train_model(dataset, graph, config, instance=0):
    """Run the two-branch training loop; returns (model, history rows).

    One epoch is a full-batch forward and backward of each branch in turn,
    graph branch first, with that branch's coefficient of the ensemble
    loss, and then one optimizer step per branch.  The per-epoch accuracy
    is an eval-mode prediction pass, so it matches what a later evaluation
    of the same data reports.  Training stops at the epoch budget or, when
    enabled, once accuracy has held at the early-stop level for the
    configured patience.
    """
    if dataset.n_samples == 0:
        raise ValueError("dataset is empty")
    if config.early_stop_patience < 1:
        # a patience below 1 would stop every fit after its first epoch
        raise ValueError("early_stop_patience must be >= 1")
    init_rng = np.random.default_rng(subseed(config.seed, SEED_INIT, instance))
    drop_rng = np.random.default_rng(
        subseed(config.seed, SEED_DROPOUT, instance))
    model = _build_from_config(dataset, config, init_rng)
    opt_graph = make_optimizer(config.optimizer_graph,
                               model.graph_parameters(),
                               config.lr_graph, config.weight_decay)
    opt_conv = make_optimizer(config.optimizer_conv,
                              model.conv_parameters(),
                              config.lr_conv, config.weight_decay)
    feats = dataset.features
    targets = dataset.targets
    edges = dataset.edges
    conv_x = dataset.conv_sequences(feats)

    history = []
    streak = 0
    for epoch in range(config.epochs):
        # each branch runs its backward before the other's forward, so the
        # two branches' caches are never held at once; the ensemble loss is
        # non-finite exactly when one branch's loss is, so each branch is
        # checked before its backward runs
        graph_lp = model.graph_forward(graph, feats, edges, training=True,
                                       rng=drop_rng)
        loss_graph = nll_loss(graph_lp, targets)
        _check_finite(epoch, "graph", loss_graph)
        model.graph_backward(config.alpha * nll_loss_grad(graph_lp, targets))
        conv_lp = model.conv_forward(conv_x)
        loss_conv = nll_loss(conv_lp, targets)
        _check_finite(epoch, "conv", loss_conv)
        model.conv_backward(
            (1.0 - config.alpha) * nll_loss_grad(conv_lp, targets))
        loss_total = ensemble_loss(loss_graph, loss_conv, config.alpha)
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


def _fit(dataset, config, instance):
    """Normalize ``dataset``, build its correlation graph and train on it;
    returns (model, history, graph, mean, std).

    An edge task's selection keeps every node, so its statistics and graph
    are the same for every fold.
    """
    norm, mean, std = zscore_normalize(dataset.features)
    graph = graph_from_features(dataset.node_signals(norm), config.threshold,
                                dataset.channel_names)
    model, history = train_model(replace(dataset, features=norm), graph,
                                 config, instance=instance)
    return model, history, graph, mean, std


def cross_validate(dataset, config):
    """K-fold cross-validation; every sample is tested exactly once.

    Each fold is one ``_fit`` on the other folds' samples, then a
    prediction on its own samples z-scored with that fit's statistics.
    """
    n = dataset.n_samples
    plan = kfold_split(n, config.folds, subseed(config.seed, SEED_FOLDS))
    fold_results = []
    pooled_confusion = np.zeros((dataset.n_classes, dataset.n_classes),
                                dtype=np.int64)
    for fold in range(config.folds):
        test = plan == fold
        model, history, graph, mean, std = _fit(dataset.select(~test), config,
                                                fold)
        held = dataset.select(test)
        preds = predict(model, graph, apply_zscore(held.features, mean, std),
                        held.edges)
        m = compute_metrics(preds, held.targets, dataset.n_classes)
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
    return _fit(dataset, config, config.folds)
