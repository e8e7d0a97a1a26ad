"""Run configuration: documented defaults, JSON file, flag overrides.

Precedence is flags > file > defaults.  Unknown keys anywhere in the nested
document are rejected, and the fully resolved config is echoed into the run
directory so a run can be reproduced from its own output.
"""

import copy
import json
import math

from chebnet.training import TrainingConfig

TASKS = ("dataco-risk", "sg-product", "sg-product-edges", "sg-plant-edges",
         "synthetic")


# Largest edge weight sigmoid(|corr|) can take; any higher threshold empties
# the adjacency, self-loops included.
MAX_THRESHOLD = 1.0 / (1.0 + math.exp(-1.0))


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value."""


# Every key has a default; see README for the full reference.
DEFAULTS = {
    "task": "synthetic",
    "variant": "cheb",
    "seed": 0,
    "output_dir": "runs",
    "data": {
        "path": None,                 # transaction CSV or supply-graph dir
        "target_column": "Late_delivery_risk",
        "feature_columns": None,      # null -> schema default
    },
    "synth": {
        "n_samples": 400,
        "n_channels": 10,
        "n_classes": 2,
        "separation": 3.0,
    },
    "graph": {
        "threshold": 0.7,
    },
    "model": {
        "cheb_orders": [1, 1, 1, 1],
        "graph_dims": None,           # null -> task default
        "conv_kernels": 10,
        "dropout": 0.5,
        "embedding_dim": 50,
    },
    "training": {
        "epochs": 500,
        "folds": 10,
        "alpha": 0.9,
        "optimizer_graph": "adam",
        "optimizer_conv": "adam",
        "lr_graph": 0.001,
        "lr_conv": 0.0001,
        "weight_decay": 0.0004,
        "window": 20,
        "stride": 1,
        "early_stop": True,
        "early_stop_accuracy": 0.999,
        "early_stop_patience": 20,
    },
}


def _merge(base, override, prefix=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path!r} must be a mapping")
            out[key] = _merge(base[key], value, prefix=f"{path}.")
        else:
            out[key] = value
    return out


def _validate(cfg):
    def bad(key, why):
        raise ConfigError(f"invalid config value for {key!r}: {why}")

    if cfg["task"] not in TASKS:
        bad("task", f"must be one of {TASKS}")
    if cfg["variant"] not in ("cheb", "gcn", "gat"):
        bad("variant", "must be cheb, gcn or gat")
    if not isinstance(cfg["seed"], int):
        bad("seed", "must be an integer")
    g = cfg["graph"]
    if not (0.0 <= g["threshold"] <= MAX_THRESHOLD):
        bad("graph.threshold",
            f"must lie in [0, sigmoid(1) = {MAX_THRESHOLD:.4f}], got "
            f"{g['threshold']}; edge weights are sigmoid(|corr|), so a "
            f"higher threshold removes every edge and self-loop")
    m = cfg["model"]
    if not (0.0 <= m["dropout"] < 1.0):
        bad("model.dropout", "must lie in [0, 1)")
    if any(int(k) < 1 for k in m["cheb_orders"]):
        bad("model.cheb_orders", "orders must be >= 1")
    t = cfg["training"]
    if not (0.0 <= t["alpha"] <= 1.0):
        bad("training.alpha", "must lie in [0, 1]")
    if t["folds"] < 2:
        bad("training.folds", "must be >= 2")
    if t["epochs"] < 0:
        bad("training.epochs", "must be >= 0")
    if t["lr_graph"] <= 0 or t["lr_conv"] <= 0:
        bad("training.lr_graph", "learning rates must be positive")
    if t["weight_decay"] < 0:
        bad("training.weight_decay", "must be >= 0")
    if t["window"] < 1 or t["stride"] < 1:
        bad("training.window", "window and stride must be >= 1")
    for key in ("optimizer_graph", "optimizer_conv"):
        if t[key] not in ("adam", "sgd"):
            bad(f"training.{key}", "must be adam or sgd")
    s = cfg["synth"]
    if s["separation"] < 0:
        bad("synth.separation", "must be >= 0")
    return cfg


def parse_override(text):
    """Parse a ``dotted.key=json_value`` command-line override."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings stay strings
    node = value
    for part in reversed(key.strip().split(".")):
        node = {part: node}
    return node


def resolve_config(path=None, overrides=()):
    """defaults <- config file <- overrides; returns the validated dict."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be an object")
        cfg = _merge(cfg, loaded)
    for ov in overrides:
        cfg = _merge(cfg, ov if isinstance(ov, dict) else parse_override(ov))
    return _validate(cfg)


def config_json(cfg):
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def training_config(cfg):
    """Bridge the nested document to the training module's config."""
    m = cfg["model"]
    t = cfg["training"]
    return TrainingConfig(
        variant=cfg["variant"],
        optimizer_graph=t["optimizer_graph"],
        optimizer_conv=t["optimizer_conv"],
        lr_graph=float(t["lr_graph"]),
        lr_conv=float(t["lr_conv"]),
        weight_decay=float(t["weight_decay"]),
        cheb_orders=tuple(int(k) for k in m["cheb_orders"]),
        graph_dims=None if m["graph_dims"] is None
        else tuple(int(d) for d in m["graph_dims"]),
        conv_kernels=int(m["conv_kernels"]),
        dropout=float(m["dropout"]),
        embedding_dim=int(m["embedding_dim"]),
        threshold=float(cfg["graph"]["threshold"]),
        window=int(t["window"]),
        stride=int(t["stride"]),
        epochs=int(t["epochs"]),
        folds=int(t["folds"]),
        seed=int(cfg["seed"]),
        alpha=float(t["alpha"]),
        early_stop=bool(t["early_stop"]),
        early_stop_accuracy=float(t["early_stop_accuracy"]),
        early_stop_patience=int(t["early_stop_patience"]),
    )
