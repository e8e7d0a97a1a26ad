"""Run configuration: documented defaults, JSON file, flag overrides.

Precedence is flags > file > defaults.  Unknown keys anywhere in the nested
document are rejected, every value must have the JSON type of its default,
and the fully resolved config is echoed into the run directory so a run can
be reproduced from its own output.
"""

import copy
import dataclasses
import json
import math
import sys

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


def _is_int(value):
    return type(value) is int


def _is_number(value):
    # finite, and (for an int) within float range, so float() cannot fail
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


# What a leaf must hold, by the type of its default value.
_LEAF_TYPES = {
    bool: ("a boolean", lambda value: type(value) is bool),
    int: ("an integer", _is_int),
    float: ("a finite number", _is_number),
    str: ("a string", lambda value: isinstance(value, str)),
    list: ("a list of integers", _is_list_of(_is_int)),
}

# What a leaf whose default is null must hold when it is not null.
_NULLABLE_TYPES = {
    "data.path": _LEAF_TYPES[str],
    "data.feature_columns": ("a list of strings",
                             _is_list_of(lambda value: isinstance(value, str))),
    "model.graph_dims": _LEAF_TYPES[list],
}


def _check_types(cfg, defaults=DEFAULTS, prefix=""):
    """Raise ConfigError naming the first leaf whose value has the wrong type.

    The merge has already checked the nesting, so every key is present and
    every mapping is a dict.
    """
    for key, default in defaults.items():
        path, value = prefix + key, cfg[key]
        if isinstance(default, dict):
            _check_types(value, default, f"{path}.")
            continue
        if default is None and value is None:
            continue
        what, ok = (_NULLABLE_TYPES[path] if default is None
                    else _LEAF_TYPES[type(default)])
        if not ok(value):
            raise ConfigError(f"invalid config value for {path!r}: must be "
                              f"{what}, got {value!r}")


def _validate(cfg):
    def bad(key, why):
        raise ConfigError(f"invalid config value for {key!r}: {why}")

    _check_types(cfg)
    if cfg["task"] not in TASKS:
        bad("task", f"must be one of {TASKS}")
    if cfg["variant"] not in ("cheb", "gcn", "gat"):
        bad("variant", "must be cheb, gcn or gat")
    if cfg["seed"] < 0:
        bad("seed", "must be >= 0")
    g = cfg["graph"]
    if not (0.0 <= g["threshold"] <= MAX_THRESHOLD):
        bad("graph.threshold",
            f"must lie in [0, sigmoid(1) = {MAX_THRESHOLD:.4f}], got "
            f"{g['threshold']}; edge weights are sigmoid(|corr|), so a "
            f"higher threshold removes every edge and self-loop")
    m = cfg["model"]
    if not (0.0 <= m["dropout"] < 1.0):
        bad("model.dropout", "must lie in [0, 1)")
    if any(k < 1 for k in m["cheb_orders"]):
        bad("model.cheb_orders", "orders must be >= 1")
    if m["graph_dims"] is not None and any(d < 1 for d in m["graph_dims"]):
        bad("model.graph_dims", "widths must be >= 1")
    for key in ("conv_kernels", "embedding_dim"):
        if m[key] < 1:
            bad(f"model.{key}", "must be >= 1")
    t = cfg["training"]
    if not (0.0 <= t["alpha"] <= 1.0):
        bad("training.alpha", "must lie in [0, 1]")
    if t["folds"] < 2:
        bad("training.folds", "must be >= 2")
    if t["epochs"] < 0:
        bad("training.epochs", "must be >= 0")
    if t["early_stop_patience"] < 1:
        bad("training.early_stop_patience", "must be >= 1")
    for key in ("lr_graph", "lr_conv"):
        if t[key] <= 0:
            bad(f"training.{key}", "must be > 0")
    if t["weight_decay"] < 0:
        bad("training.weight_decay", "must be >= 0")
    for key in ("window", "stride"):
        if t[key] < 1:
            bad(f"training.{key}", "must be >= 1")
    for key in ("optimizer_graph", "optimizer_conv"):
        if t[key] not in ("adam", "sgd"):
            bad(f"training.{key}", "must be adam or sgd")
    s = cfg["synth"]
    for key in ("n_samples", "n_channels", "n_classes"):
        if s[key] < 1:
            bad(f"synth.{key}", "must be >= 1")
    if s["n_channels"] < s["n_classes"]:
        bad("synth.n_channels", "must be >= synth.n_classes")
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
    """Bridge the nested document to the training module's config: each
    ``TrainingConfig`` field takes the same-named key of the top level or
    the ``graph``, ``model`` or ``training`` section, cast to the field's
    type (lists become tuples)."""
    flat = {**cfg, **cfg["graph"], **cfg["model"], **cfg["training"]}
    return TrainingConfig(**{
        f.name: None if flat[f.name] is None else f.type(flat[f.name])
        for f in dataclasses.fields(TrainingConfig)})
