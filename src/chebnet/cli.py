"""Command-line interface: train, eval, export, synth.

Exit codes: 0 success, 1 usage/validation/schema errors, an allocation
that does not fit in memory or a training worker process that died, 2
numeric failure (training divergence).  ``CHEBNET_OUTPUT_ROOT`` overrides
where run directories are placed without changing the resolved config.

``main`` first asks glibc's allocator to keep freed memory for reuse (see
``_keep_freed_memory``), so each training epoch reuses the activation blocks
the one before it freed instead of faulting in fresh pages.
"""

import argparse
import ctypes
import os
import sys

import numpy as np

from chebnet import data as datamod
from chebnet.archive import ArchiveError, load_archive, restore_model, save_archive
from chebnet.config import (ConfigError, config_json, resolve_config,
                            training_config)
from chebnet.data import SchemaError, _fmt, write_csv
from chebnet.graph import build_graph_context
from chebnet.metrics import compute_metrics, confusion_table, format_metrics
from chebnet.model import build_model
from chebnet.training import (SEED_SYNTH, DivergenceError, HISTORY_HEADER,
                              WorkerError, cross_validate_and_fit, predict,
                              subseed)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Keep freed heap blocks in this process instead of returning them to
    the kernel.

    By default glibc serves each block above a dynamic threshold with its
    own mmap and trims the heap top as soon as it is free, so every epoch
    takes its activations as fresh zeroed pages.  A fixed mmap threshold of
    32 MiB (glibc's 64-bit maximum) puts every smaller block in the heap,
    and a 1 GiB trim threshold keeps the heap when the blocks are freed.
    Blocks above 32 MiB are still mmapped.  Where libc has no ``mallopt``
    (macOS: AttributeError) or ctypes cannot open the program's own symbols
    (Windows: TypeError), this does nothing; musl's ``mallopt`` ignores its
    arguments.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _output_root(cfg):
    return os.environ.get("CHEBNET_OUTPUT_ROOT", cfg["output_dir"])


def _synth_node_dataset(cfg):
    """The synthetic node dataset and its truth adjacency that cfg's
    ``synth`` section, seed and graph threshold describe."""
    s = cfg["synth"]
    return datamod.synth_generate(
        n_samples=int(s["n_samples"]),
        n_channels=int(s["n_channels"]),
        n_classes=int(s["n_classes"]),
        separation=float(s["separation"]),
        seed=subseed(cfg["seed"], SEED_SYNTH),
        threshold=float(cfg["graph"]["threshold"]),
    )


def load_task_dataset(cfg):
    """Build the Dataset selected by cfg['task']."""
    task = cfg["task"]
    path = cfg["data"]["path"]
    t = cfg["training"]
    if task == "synthetic":
        return _synth_node_dataset(cfg)[0]
    if path is None:
        raise ConfigError(f"task {task!r} needs data.path")
    if task == "dataco-risk":
        return datamod.load_dataco(
            path,
            target_column=cfg["data"]["target_column"],
            feature_columns=cfg["data"]["feature_columns"],
        )
    sg = datamod.load_supplygraph(path)
    if task == "sg-product":
        return datamod.build_sg_node_dataset(
            sg, window=int(t["window"]), stride=int(t["stride"]))
    if task == "sg-product-edges":
        return datamod.build_sg_edge_dataset(sg, "product_group")
    if task == "sg-plant-edges":
        return datamod.build_sg_edge_dataset(sg, "plant")
    raise ConfigError(f"unknown task {task!r}")


def _checkpoint_entries(model, graph, mean, std):
    entries = list(model.named_arrays())
    entries.append(("extra.adjacency", graph.adjacency))
    entries.append(("extra.norm_mean", mean))
    entries.append(("extra.norm_std", std))
    return entries


def _checkpoint_meta(cfg, dataset, model, graph):
    return {
        "task": cfg["task"],
        "architecture": model.architecture,
        "channel_names": list(graph.channel_names),
        "class_names": list(dataset.class_names),
    }


def cmd_train(args):
    cfg = resolve_config(args.config, args.overrides)
    tcfg = training_config(cfg)
    run_dir = os.path.join(_output_root(cfg), tcfg.variant)
    os.makedirs(run_dir, exist_ok=True)
    _write(os.path.join(run_dir, "resolved_config.json"), config_json(cfg))

    dataset = load_task_dataset(cfg)
    result, (model, history, graph, mean, std) = cross_validate_and_fit(
        dataset, tcfg)

    report = format_metrics(result.pooled, dataset.class_names)
    report += "\nfold\taccuracy\n"
    for fr in result.fold_results:
        report += f"{fr.fold}\t{fr.metrics.accuracy!r}\n"
    _write(os.path.join(run_dir, "metrics.txt"), report)
    write_csv(os.path.join(run_dir, "confusion.csv"),
              *confusion_table(result.pooled, dataset.class_names))
    write_csv(os.path.join(run_dir, "history.csv"), HISTORY_HEADER,
              ([epoch, *map(_fmt, values)] for epoch, *values in history))
    write_csv(os.path.join(run_dir, "fold_plan.csv"), ["sample_index", "fold"],
              enumerate(result.fold_plan.tolist()))
    save_archive(os.path.join(run_dir, "checkpoint.bin"),
                 _checkpoint_entries(model, graph, mean, std),
                 _checkpoint_meta(cfg, dataset, model, graph))
    print(f"wrote {run_dir} (pooled accuracy {result.pooled.accuracy:.4f})")
    return 0


def _require(entries, names, path):
    missing = [name for name in names if name not in entries]
    if missing:
        raise ArchiveError(f"{path}: no {', '.join(missing)}; retrain to "
                           f"write a complete checkpoint")


def _is_names(value, count):
    return (isinstance(value, list) and len(value) == count
            and all(isinstance(v, str) for v in value))


def _stored_graph(entries, meta, path):
    """The archived adjacency matrix and its channel names, checked."""
    _require(entries, ("extra.adjacency",), path)
    adjacency = entries["extra.adjacency"]
    n = len(adjacency) if adjacency.ndim else 0
    if adjacency.shape != (n, n):
        raise ArchiveError(f"{path}: extra.adjacency is not a square matrix")
    names = meta.get("channel_names")
    if not _is_names(names, n):
        raise ArchiveError(f"{path}: meta.channel_names is not a list of "
                           f"{n} names")
    return adjacency, names


def _restore_and_load(args, cfg):
    """Rebuild the model from the archive's own architecture record, then
    load cfg's dataset and z-score it with the archived statistics; returns
    (model, graph, dataset, normalized features, class names).  The data
    must fit the checkpoint: same task kind and feature width, and the
    graph's nodes in order, which are a node task's channels and an edge
    task's products.  Its targets are relabelled by class name to the
    checkpoint's class order, and a class the checkpoint lacks is an error.
    An archived standard deviation or BatchNorm variance must not be
    negative."""
    path = args.checkpoint
    entries, meta = load_archive(path)
    adjacency, channel_names = _stored_graph(entries, meta, path)
    _require(entries, ("extra.norm_mean", "extra.norm_std"), path)
    for name, arr in entries.items():
        if ((name == "extra.norm_std" or name.endswith(".bn.running_var"))
                and (arr < 0.0).any()):
            raise ArchiveError(f"{path}: {name} holds a negative value")
    record = meta.get("architecture")
    if not isinstance(record, dict):
        raise ArchiveError(f"{path}: no architecture record in the header; "
                           f"retrain to write one")
    try:
        model = build_model(**record, rng=np.random.default_rng(0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"{path}: bad architecture record: {exc}") from None
    class_names = meta.get("class_names")
    if not _is_names(class_names, model.n_classes):
        raise ArchiveError(f"{path}: meta.class_names is not a list of "
                           f"{model.n_classes} names")
    restore_model(model, {k: v for k, v in entries.items()
                          if not k.startswith("extra.")})
    graph = build_graph_context(adjacency, channel_names)
    dataset = load_task_dataset(cfg)
    if record["task"] != dataset.task:
        raise ArchiveError(f"{path}: the checkpoint is for {record['task']} "
                           f"data but task {cfg['task']!r} is {dataset.task}")
    mean, std = entries["extra.norm_mean"], entries["extra.norm_std"]
    width = dataset.features.shape[1]
    if mean.shape != (width,) or std.shape != (width,):
        raise ArchiveError(f"{path}: the checkpoint normalizes {mean.size} "
                           f"feature columns but the data has {width}")
    if dataset.n_nodes != graph.n_nodes:
        raise ArchiveError(f"{path}: the checkpoint's graph has "
                           f"{graph.n_nodes} nodes but the data has "
                           f"{dataset.n_nodes}")
    # the checkpoint's node i is the data's node i: a node task's channel i,
    # an edge task's product i
    node = "product" if dataset.task == datamod.EDGE_TASK else "channel"
    for i, (want, got) in enumerate(zip(graph.channel_names,
                                        dataset.channel_names)):
        if want != got:
            raise ArchiveError(f"{path}: {node} {i} of the checkpoint's "
                               f"graph is {want!r} but the data's is "
                               f"{got!r}")
    try:
        dataset = dataset.relabel(class_names)
    except ValueError as exc:
        raise ArchiveError(f"{path}: {exc}") from None
    feats = datamod.apply_zscore(dataset.features, mean, std)
    return model, graph, dataset, feats, class_names


def cmd_eval(args):
    cfg = resolve_config(args.config, args.overrides)
    model, graph, dataset, feats, class_names = _restore_and_load(args, cfg)
    preds = predict(model, graph, feats, dataset.edges)
    metrics = compute_metrics(preds, dataset.targets, model.n_classes)

    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "eval_metrics.txt"),
           format_metrics(metrics, class_names))
    write_csv(os.path.join(args.out, "eval_confusion.csv"),
              *confusion_table(metrics, class_names))
    print(f"accuracy {metrics.accuracy!r}")
    return 0


def cmd_export(args):
    cfg = resolve_config(args.config, args.overrides)
    os.makedirs(args.out, exist_ok=True)
    if args.what == "graph":
        entries, meta = load_archive(args.checkpoint)
        adjacency, names = _stored_graph(entries, meta, args.checkpoint)
        datamod.write_adjacency_csv(
            os.path.join(args.out, "adjacency.csv"), adjacency, names)
        print(f"wrote {args.out}/adjacency.csv")
        return 0
    model, graph, dataset, feats, _ = _restore_and_load(args, cfg)
    acts = model.layer_activations(graph, feats)
    labels = ["input"] + [f"layer{i + 1}" for i in range(len(acts) - 1)]
    for label, act in zip(labels, acts):
        write_csv(os.path.join(args.out, f"embeddings_{label}.csv"),
                  [f"f{j}" for j in range(act.shape[1])],
                  (map(_fmt, row) for row in act))
    print(f"wrote {len(acts)} embedding files to {args.out}")
    return 0


def cmd_synth(args):
    cfg = resolve_config(args.config, args.overrides)
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "node":
        dataset, truth = _synth_node_dataset(cfg)
        datamod.write_dataco_csv(dataset,
                                 os.path.join(args.out, "synthetic.csv"),
                                 target_column="target")
        datamod.write_adjacency_csv(
            os.path.join(args.out, "truth_adjacency.csv"), truth,
            dataset.channel_names)
        print(f"wrote {args.out}/synthetic.csv")
    else:
        directory = datamod.write_supplygraph_dir(
            os.path.join(args.out, "supplygraph"),
            seed=int(cfg["seed"]))
        print(f"wrote {directory}")
    return 0


def _add_common(sub):
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a config key, e.g. training.epochs=50")


def build_parser():
    parser = _Parser(prog="chebnet",
                     description="Chebyshev ensemble graph network toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="cross-validate, fit and report")
    _add_common(p_train)

    p_eval = subs.add_parser("eval", help="evaluate a checkpoint on data")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", default=os.path.join("runs", "eval"))

    p_export = subs.add_parser("export", help="export graph or embeddings")
    _add_common(p_export)
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--what", required=True,
                          choices=("graph", "embeddings"))
    p_export.add_argument("--out", default=os.path.join("runs", "export"))

    p_synth = subs.add_parser("synth", help="write a synthetic dataset")
    _add_common(p_synth)
    p_synth.add_argument("--kind", default="node", choices=("node", "edges"),
                         help="node (transaction CSV) or edges "
                              "(supply-graph directory)")
    p_synth.add_argument("--out", default=os.path.join("runs", "synth"))
    return parser


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "export": cmd_export,
             "synth": cmd_synth}


def main(argv=None):
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except (_CliError, ConfigError, SchemaError, ArchiveError, ValueError,
            OSError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
