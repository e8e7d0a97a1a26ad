"""Training loop, ensemble loss, k-fold cross-validation.

Each fold normalizes with its own train-fold statistics, builds the
correlation graph from train-fold features only, trains a fresh model and
evaluates the held-out fold; the pooled confusion matrix is the sum over
folds.  All randomness derives from the single config seed through named
sub-seeds (fold split / init / dropout / synthesis), so identical configs
reproduce identical runs bitwise.

The task layout (a fold's samples, the graph's node axis, the conv
sequences) is ``Dataset``'s; this module never compares task kinds.

The k fold fits and the final fit are independent jobs, and
``cross_validate_and_fit`` runs them at once, one participant per usable
core (``_run_fits``).  The calling process is participant 0; the others
are forked worker processes.  Jobs are dealt largest training set first,
each to the participant with the fewest rows so far, so the final fit,
the largest, stays in the caller with its model and graph.  Results and
the first error are taken in fold order, so every output and message is
the serial run's.  While the fits run, numpy's OpenBLAS is held at one
thread, the serial run included: the participants already fill the
cores, and a product split over more threads can round differently (an
edge task's do), so a train's bytes do not depend on the core count.
With one core, or no OpenBLAS whose thread count this process can set,
every job runs in the caller, one after another.
"""

import ctypes
import os
from contextlib import contextmanager
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


class WorkerError(RuntimeError):
    """A worker process ended without handing back its fits' results."""


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


def _run_job(dataset, config, plan, job):
    """Job ``job`` of a run: a fold below ``config.folds`` is one ``_fit`` on
    the other folds' samples, then a prediction on its own samples z-scored
    with that fit's statistics, and gives its ``FoldResult``; job
    ``config.folds`` is the final fit on every sample and gives ``_fit``'s
    tuple."""
    if job == config.folds:
        return _fit(dataset, config, job)
    test = plan == job
    model, history, graph, mean, std = _fit(dataset.select(~test), config,
                                            job)
    held = dataset.select(test)
    preds = predict(model, graph, apply_zscore(held.features, mean, std),
                    held.edges)
    return FoldResult(fold=job, history=history,
                      metrics=compute_metrics(preds, held.targets,
                                              dataset.n_classes))


def _run_share(dataset, config, plan, jobs):
    """Run ``jobs`` in order up to the first that raises; returns
    ({job: result}, None), or the results before it and (job, exception,
    its traceback text)."""
    done = {}
    for job in jobs:
        try:
            done[job] = _run_job(dataset, config, plan, job)
        except Exception as exc:
            import traceback
            return done, (job, exc, traceback.format_exc())
    return done, None


def _usable_cores():
    """The number of cores this process may run on; 1 where the OS does
    not say."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS this process
    has loaded, found through ``/proc/self/maps``; None where there is no
    such library or no ``/proc``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _shares(rows, participants):
    """Deal the jobs, whose training sets have ``rows`` rows, to
    ``participants``: largest first, each to the participant with the
    fewest rows so far (the lowest on a tie).  Returns each participant's
    jobs in ascending order."""
    load = [0] * participants
    shares = [[] for _ in range(participants)]
    for job in sorted(range(len(rows)), key=lambda j: -rows[j]):
        p = load.index(min(load))
        shares[p].append(job)
        load[p] += rows[job]
    return [sorted(share) for share in shares]


# a worker's (dataset, config, plan), handed over by fork, never pickled
_WORK = None
# prctl option from linux/prctl.h: the signal sent when the parent ends
_PR_SET_PDEATHSIG = 1


def _start_worker(*work):
    """A worker's initializer: keep the work, and where Linux allows, be
    killed when the caller ends, however it ends."""
    global _WORK
    _WORK = work
    import signal
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def _work_share(jobs):
    return _run_share(*_WORK, jobs)


class _WorkerTraceback(Exception):
    """The traceback text of an exception a worker raised, chained to it."""

    def __str__(self):
        return "\n" + self.args[0]


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block; yields whether it
    could."""
    blas = _blas_threads()
    if blas is None:
        yield False
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(threads)


def _run_pooled(dataset, config, plan, shares):
    """Run ``shares[0]`` here and each other share in a forked worker;
    returns ({job: result}, [(job, exception, traceback text)]).  Every
    worker has ended when it returns.  Fork, not spawn: a spawned worker
    would import numpy and compile chebnet again, 0.15-0.2 s each, and the
    pool forks its workers before it starts a thread of its own."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
            len(shares) - 1, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(dataset, config, plan)) as pool:
        futures = [(share, pool.submit(_work_share, share))
                   for share in shares[1:]]
        done, failure = _run_share(dataset, config, plan, shares[0])
        failures = [failure] if failure else []
        for share, future in futures:
            try:
                results, failure = future.result()
            except BrokenProcessPool as exc:
                lost = WorkerError(f"a training worker process ended "
                                   f"without its results: {exc}")
                results, failure = {}, (share[0], lost, None)
            else:
                if failure:
                    failure[1].__cause__ = _WorkerTraceback(failure[2])
            done.update(results)
            failures += [failure] if failure else []
    return done, failures


def _run_fits(dataset, config, final):
    """Run the k fold fits and, with ``final``, the final fit; returns the
    fold plan and the results in job order (see ``_run_job``).  The
    participants are the usable cores, at most one per job.  OpenBLAS runs
    one thread throughout, so a result does not depend on the core count;
    an error is the one the serial run would meet first."""
    plan = kfold_split(dataset.n_samples, config.folds,
                       subseed(config.seed, SEED_FOLDS))
    jobs = range(config.folds + final)
    # the final fit's job number is in no fold, so it trains on every row
    rows = [dataset.n_samples - int((plan == job).sum()) for job in jobs]
    shares = _shares(rows, min(_usable_cores(), len(jobs)))
    with _one_blas_thread() as pinned:
        if pinned and len(shares) > 1:
            done, failures = _run_pooled(dataset, config, plan, shares)
        else:
            done, failure = _run_share(dataset, config, plan, jobs)
            failures = [failure] if failure else []
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return plan, [done[job] for job in jobs]


def _cv_result(dataset, plan, fold_results):
    pooled = np.zeros((dataset.n_classes, dataset.n_classes), dtype=np.int64)
    for fr in fold_results:
        pooled += fr.metrics.confusion
    return CVResult(fold_results=fold_results,
                    pooled=metrics_from_confusion(pooled), fold_plan=plan)


def cross_validate(dataset, config):
    """K-fold cross-validation; every sample is tested exactly once.

    Each fold is one ``_fit`` on the other folds' samples, then a
    prediction on its own samples z-scored with that fit's statistics; the
    folds run at once, as ``_run_fits`` deals them.
    """
    plan, fold_results = _run_fits(dataset, config, final=False)
    return _cv_result(dataset, plan, fold_results)


def fit_full(dataset, config):
    """Train one model on the full dataset (the checkpointed model).

    Returns (model, history, graph, mean, std); the normalization record and
    graph are what a later evaluation of new data must reuse.  OpenBLAS
    runs one thread, as in ``_run_fits``, so this is the final fit of
    ``cross_validate_and_fit`` on any core count.
    """
    with _one_blas_thread():
        return _fit(dataset, config, config.folds)


def cross_validate_and_fit(dataset, config):
    """``cross_validate`` and ``fit_full`` in one run of their k + 1 fits;
    returns (CVResult, fit_full's tuple)."""
    plan, results = _run_fits(dataset, config, final=True)
    return _cv_result(dataset, plan, results[:-1]), results[-1]
