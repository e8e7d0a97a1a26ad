"""Spans around the layers of ``chebnet`` and the per-layer metrics made from them.

The launcher calls ``install`` inside a ``chebnet`` process: every function
or method named in ``TARGETS`` is replaced by a wrapper that records a span
(name, start, end, parent span, computed counts).  A module function is
replaced wherever a ``chebnet`` module holds a reference to it, because
several modules import functions by name (``training.graph_from_features``,
``layers.cheb_apply``, ``cli._COMMANDS``); a method is replaced on its class.
Spans stay in memory until the command ends.

``iteration_metrics`` turns the spans of one ``train`` process and one
``eval`` process into the per-layer metrics of ``PER_LAYER``.  A layer's self
time is its span durations minus the time covered by their child spans.
Flop and byte counts are computed from array shapes (float64, 8 bytes per
element), not measured: flops count multiply-adds as two, bytes count the
arrays read and written at the call boundary, not temporaries.
"""

import functools
import os
import statistics
import sys
import time

LAYERS = ("data", "graph", "layers", "kernels", "model", "optim", "training",
          "archive", "cli")


# -- computed counts --------------------------------------------------------


def _cheb_apply_cost(args, kwargs, out):
    ls, x, order = args
    n, m = ls.shape[0], x.size
    if order < 2:
        return {"flops": 0, "bytes": 0}
    # one (N, N) @ (N, M/N) product per order above 0, plus 2*T - T' per
    # order above 1
    flops = (order - 1) * 2 * n * m + max(0, order - 2) * 2 * m
    return {"flops": flops, "bytes": 8 * (n * n + order * m)}


def _cheb_fwd_cost(args, kwargs, out):
    conv, _graph, x = args
    fi, fo, k = conv.in_features, conv.out_features, conv.order
    r = x.size // fi
    return {"flops": k * (2 * r * fi * fo + r * fo),
            "bytes": 8 * (k * r * fi + k * fi * fo + r * fo)}


def _cheb_bwd_cost(args, kwargs, out):
    conv, up = args
    fi, fo, k = conv.in_features, conv.out_features, conv.order
    r = up.size // fo
    # weight gradient and input gradient: two GEMMs per order
    return {"flops": 4 * k * r * fi * fo,
            "bytes": 8 * (r * fo + k * r * fi + 2 * k * fi * fo + r * fi)}


def _bn_fwd_cost(args, kwargs, out):
    bn, x = args
    e = x.size
    # train: mean, variance, centre, scale, affine; eval: centre, scale, affine
    return {"flops": (8 if bn.training else 4) * e, "bytes": 8 * 3 * e}


def _bn_bwd_cost(args, kwargs, out):
    bn, up = args
    e = up.size
    return {"flops": (10 if bn.training else 3) * e, "bytes": 8 * 3 * e}


def _conv_fwd_cost(args, kwargs, out):
    conv, x = args
    f, c, t = conv.n_kernels, conv.in_channels, conv.KERNEL_LEN
    length = x.shape[-1]
    b, p = x.size // (c * length), length - t + 1
    return {"flops": 2 * b * f * c * t * p,
            "bytes": 8 * (b * c * length + f * c * t + b * f * p)}


def _conv_bwd_cost(args, kwargs, out):
    conv, up = args
    f, c, t = conv.n_kernels, conv.in_channels, conv.KERNEL_LEN
    p = up.shape[-1]
    b, length = up.size // (f * p), p + t - 1
    # weight gradient and input gradient
    return {"flops": 4 * b * f * c * t * p,
            "bytes": 8 * (b * f * p + 2 * b * c * length + 2 * f * c * t)}


def _graph_edges(args, kwargs, out):
    adj = out.adjacency
    nonzero = int((adj != 0.0).sum())
    return {"edges": nonzero - int((adj.diagonal() != 0.0).sum())}


def _archive_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _graph_forward_name(args, kwargs):
    # EnsembleModel.graph_forward(self, graph, features, edges, training, rng)
    training = kwargs.get("training", args[4] if len(args) > 4 else False)
    return "model.graph_fwd_train" if training else "model.graph_fwd_eval"


# (span name, module, attribute or Class.method, computed counts)
TARGETS = (
    ("cli.cmd_train", "chebnet.cli", "cmd_train", None),
    ("cli.cmd_eval", "chebnet.cli", "cmd_eval", None),
    ("cli.load_task_dataset", "chebnet.cli", "load_task_dataset", None),
    ("cli.resolve_config", "chebnet.config", "resolve_config", None),
    ("data.load_dataco", "chebnet.data", "load_dataco", None),
    ("data.load_supplygraph", "chebnet.data", "load_supplygraph", None),
    ("data.build_sg_node_dataset", "chebnet.data", "build_sg_node_dataset",
     None),
    ("data.synth_generate", "chebnet.data", "synth_generate", None),
    ("data.zscore_normalize", "chebnet.data", "zscore_normalize", None),
    ("data.apply_zscore", "chebnet.data", "apply_zscore", None),
    ("graph.graph_from_features", "chebnet.graph", "graph_from_features",
     _graph_edges),
    ("graph.build_graph_context", "chebnet.graph", "build_graph_context",
     None),
    ("graph.cheb_apply", "chebnet.graph", "cheb_apply", _cheb_apply_cost),
    ("layers.cheb.fwd", "chebnet.layers", "ChebConv.forward", _cheb_fwd_cost),
    ("layers.cheb.bwd", "chebnet.layers", "ChebConv.backward", _cheb_bwd_cost),
    ("layers.batchnorm.fwd", "chebnet.layers", "BatchNorm.forward",
     _bn_fwd_cost),
    ("layers.batchnorm.bwd", "chebnet.layers", "BatchNorm.backward",
     _bn_bwd_cost),
    ("layers.conv1d.fwd", "chebnet.layers", "Conv1D.forward", _conv_fwd_cost),
    ("layers.conv1d.bwd", "chebnet.layers", "Conv1D.backward", _conv_bwd_cost),
    ("kernels.conv1d_fwd", "chebnet.kernels", "conv1d_forward", None),
    ("kernels.conv1d_bwd", "chebnet.kernels", "conv1d_backward", None),
    ("model.build_model", "chebnet.model", "build_model", None),
    (_graph_forward_name, "chebnet.model", "EnsembleModel.graph_forward",
     None),
    ("model.graph_bwd", "chebnet.model", "EnsembleModel.graph_backward", None),
    ("model.conv_fwd", "chebnet.model", "EnsembleModel.conv_forward", None),
    ("model.conv_bwd", "chebnet.model", "EnsembleModel.conv_backward", None),
    ("optim.make_optimizer", "chebnet.optim", "make_optimizer", None),
    ("optim.step", "chebnet.optim", "_Optimizer.step", None),
    ("training.cross_validate", "chebnet.training", "cross_validate", None),
    ("training.fit_full", "chebnet.training", "fit_full", None),
    ("training.train_model", "chebnet.training", "train_model", None),
    ("training.predict", "chebnet.training", "predict", None),
    ("archive.save", "chebnet.archive", "save_archive", _archive_bytes),
    ("archive.load", "chebnet.archive", "load_archive", _archive_bytes),
    ("archive.restore_model", "chebnet.archive", "restore_model", None),
)


# -- recording (inside the chebnet process) ----------------------------------


class Recorder:
    """In-memory span list: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, cost):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if cost is not None:
                span[4] = cost(args, kwargs, out)
            return out

        return wrapper


def _replace_everywhere(original, wrapper):
    """Point every reference a chebnet module holds to ``original`` at
    ``wrapper``; returns how many were replaced."""
    found = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("chebnet"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                found += 1
            elif isinstance(value, dict):
                for k2, v2 in list(value.items()):
                    if v2 is original:
                        value[k2] = wrapper
                        found += 1
    return found


def install(recorder):
    """Wrap every target; returns the targets that could not be found."""
    import chebnet.cli  # noqa: F401  (imports every layer module)

    missing = []
    for name, module, attr, cost in TARGETS:
        mod = sys.modules.get(module)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = vars(owner).get(method) if owner is not None else None
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapper = recorder.wrap(name, original, cost)
        if owner_name:
            setattr(owner, method, wrapper)
        elif not _replace_everywhere(original, wrapper):
            missing.append(f"{module}.{attr}")
    return missing


# -- per-layer metrics (in the benchmark process) ---------------------------


class _Spans:
    """Totals by span name over one process's spans."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s, self.total_s, self.calls, self.counts = {}, {}, {}, {}
        for i, (name, start, end, _, counts) in enumerate(spans):
            self.self_s[name] = self.self_s.get(name, 0.0) + end - start - child[i]
            self.total_s[name] = self.total_s.get(name, 0.0) + end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            for key, value in (counts or {}).items():
                k = (name, key)
                self.counts[k] = self.counts.get(k, 0) + value

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]


def _sum(procs, table, names):
    return sum(getattr(p, table).get(n, 0) for p in procs for n in names)


def _count(procs, names, key):
    return sum(p.counts.get((n, key), 0) for p in procs for n in names)


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * len(s))) - 1))]


def _epochs_ms(train):
    """Epoch lengths: from one training-mode graph forward to the next
    (the last epoch ends with its ``train_model`` span)."""
    out = []
    for i, (name, start, end, _, _) in enumerate(train.spans):
        if name != "training.train_model":
            continue
        starts = [s[1] for s in train.spans
                  if s[0] == "model.graph_fwd_train" and s[3] == i]
        bounds = starts + [end]
        out.extend(1e3 * (b - a) for a, b in zip(bounds, bounds[1:]))
    return out


def _layer_names(prefix):
    return [n for n in _SPAN_NAMES if n.startswith(prefix + ".")]


_SPAN_NAMES = sorted({t[0] for t in TARGETS if isinstance(t[0], str)}
                     | {"model.graph_fwd_train", "model.graph_fwd_eval"})

DATA_LOAD = ("data.load_dataco", "data.load_supplygraph",
             "data.build_sg_node_dataset", "data.synth_generate")
DATA_ZSCORE = ("data.zscore_normalize", "data.apply_zscore")
GRAPH_BUILD = ("graph.graph_from_features", "graph.build_graph_context")
CHEB = ("layers.cheb.fwd", "layers.cheb.bwd")
BATCHNORM = ("layers.batchnorm.fwd", "layers.batchnorm.bwd")
CONV1D = ("layers.conv1d.fwd", "layers.conv1d.bwd")
KERNELS = ("kernels.conv1d_fwd", "kernels.conv1d_bwd")


def iteration_metrics(train_report, eval_report):
    """Per-layer metrics of one traced iteration: a ``train`` process and an
    ``eval`` process of its checkpoint.  Times and counts are summed over
    both processes unless the name says otherwise."""
    train = _Spans(train_report["spans"])
    both = [train, _Spans(eval_report["spans"])]
    fits = train.durations("training.train_model")
    epochs = _epochs_ms(train)
    final_graph = [s[4]["edges"] for s in train.spans
                   if s[0] == "graph.graph_from_features"]
    m = {
        "data.load_s": _sum(both, "self_s", DATA_LOAD),
        "data.rows": train_report["rows"],
        "data.rows_dropped": train_report["rows_dropped"],
        "data.zscore_s": _sum(both, "self_s", DATA_ZSCORE),
        "graph.build_s": _sum(both, "self_s", GRAPH_BUILD),
        "graph.builds": _sum(both, "calls", ["graph.build_graph_context"]),
        "graph.edges": final_graph[-1] if final_graph else 0,
        "graph.cheb_apply_s": _sum(both, "self_s", ["graph.cheb_apply"]),
        "graph.cheb_apply_calls": _sum(both, "calls", ["graph.cheb_apply"]),
        "graph.cheb_apply_flops": _count(both, ["graph.cheb_apply"], "flops"),
        "graph.cheb_apply_bytes": _count(both, ["graph.cheb_apply"], "bytes"),
    }
    for label, names in (("cheb", CHEB), ("batchnorm", BATCHNORM),
                         ("conv1d", CONV1D)):
        fwd, bwd = names
        m[f"layers.{label}.fwd_s"] = _sum(both, "self_s", [fwd])
        m[f"layers.{label}.bwd_s"] = _sum(both, "self_s", [bwd])
        m[f"layers.{label}.calls"] = _sum(both, "calls", names)
        m[f"layers.{label}.flops"] = _count(both, names, "flops")
        m[f"layers.{label}.bytes"] = _count(both, names, "bytes")
    m.update({
        "kernels.conv1d_fwd_s": _sum(both, "self_s", ["kernels.conv1d_fwd"]),
        "kernels.conv1d_bwd_s": _sum(both, "self_s", ["kernels.conv1d_bwd"]),
        "kernels.conv1d_calls": _sum(both, "calls", KERNELS),
        "model.graph_fwd_train_s": _sum(both, "self_s",
                                        ["model.graph_fwd_train"]),
        "model.graph_fwd_eval_s": _sum(both, "self_s",
                                       ["model.graph_fwd_eval"]),
        "model.graph_bwd_s": _sum(both, "self_s", ["model.graph_bwd"]),
        "model.conv_fwd_s": _sum(both, "self_s", ["model.conv_fwd"]),
        "model.conv_bwd_s": _sum(both, "self_s", ["model.conv_bwd"]),
        "optim.step_s": _sum(both, "self_s", ["optim.step"]),
        "optim.steps": _sum(both, "calls", ["optim.step"]),
        "training.fit_s.p50": statistics.median(fits) if fits else 0.0,
        "training.fit_s.max": max(fits, default=0.0),
        "training.fits": len(fits),
        "training.epoch_ms.p50": _quantile(epochs, 0.5),
        "training.epoch_ms.p90": _quantile(epochs, 0.9),
        "training.predict_s": _sum(both, "total_s", ["training.predict"]),
        "training.predict_calls": _sum(both, "calls", ["training.predict"]),
        "archive.save_s": _sum(both, "self_s", ["archive.save"]),
        "archive.load_s": _sum(both, "self_s", ["archive.load"]),
        "archive.bytes": _count(both, ["archive.save", "archive.load"],
                                "bytes"),
    })
    for layer in LAYERS:
        names = _layer_names(layer)
        m[f"{layer}.self_s"] = _sum(both, "self_s", names)
        m[f"{layer}.calls"] = _sum(both, "calls", names)
    m["trace.unattributed_s"] = train.self_s.get("cli.cmd_train", 0.0)
    m["trace.spans"] = sum(len(p.spans) for p in both)
    return m


# metrics whose value is a count of calls or of computed work; they must
# repeat exactly across traced iterations of one seed
COUNT_UNITS = ("count", "flop", "byte")

# (name, unit, better) in the order they are printed
PER_LAYER = (
    ("data.load_s", "s", "lower"),
    ("data.rows", "count", "higher"),
    ("data.rows_dropped", "count", "lower"),
    ("data.zscore_s", "s", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.builds", "count", "lower"),
    ("graph.edges", "count", "lower"),
    ("graph.cheb_apply_s", "s", "lower"),
    ("graph.cheb_apply_calls", "count", "lower"),
    ("graph.cheb_apply_flops", "flop", "lower"),
    ("graph.cheb_apply_bytes", "byte", "lower"),
) + tuple(
    (f"layers.{label}.{suffix}", unit, "lower")
    for label in ("cheb", "batchnorm", "conv1d")
    for suffix, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"),
                         ("flops", "flop"), ("bytes", "byte"))
) + (
    ("kernels.conv1d_fwd_s", "s", "lower"),
    ("kernels.conv1d_bwd_s", "s", "lower"),
    ("kernels.conv1d_calls", "count", "lower"),
    ("model.graph_fwd_train_s", "s", "lower"),
    ("model.graph_fwd_eval_s", "s", "lower"),
    ("model.graph_bwd_s", "s", "lower"),
    ("model.conv_fwd_s", "s", "lower"),
    ("model.conv_bwd_s", "s", "lower"),
    ("optim.step_s", "s", "lower"),
    ("optim.steps", "count", "lower"),
    ("training.fit_s.p50", "s", "lower"),
    ("training.fit_s.max", "s", "lower"),
    ("training.fits", "count", "lower"),
    ("training.epoch_ms.p50", "ms", "lower"),
    ("training.epoch_ms.p90", "ms", "lower"),
    ("training.predict_s", "s", "lower"),
    ("training.predict_calls", "count", "lower"),
    ("archive.save_s", "s", "lower"),
    ("archive.load_s", "s", "lower"),
    ("archive.bytes", "byte", "lower"),
) + tuple(
    (f"{layer}.{suffix}", unit, "lower")
    for layer in LAYERS
    for suffix, unit in (("self_s", "s"), ("calls", "count"))
) + (
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
