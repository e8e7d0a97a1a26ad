"""Run configuration: documented defaults, JSON file, flag overrides.

Precedence is flags > file > defaults.  ``KEYS`` declares every key of the
nested document once: its default and the rule its value must pass.
Unknown keys are rejected, a value that breaks its key's rule is rejected
with a message naming the key and the rule, and the fully resolved config
is echoed into the run directory so a run can be reproduced from its own
output.
"""

import copy
import dataclasses
import json
import math
import sys

from chebnet.data import DATACO_TARGET
from chebnet.model import VARIANTS
from chebnet.optim import OPTIMIZERS
from chebnet.training import TrainingConfig

TASKS = ("dataco-risk", "sg-product", "sg-product-edges", "sg-plant-edges",
         "synthetic")


# Largest edge weight sigmoid(|corr|) can take; any higher threshold empties
# the adjacency, self-loops included.
MAX_THRESHOLD = 1.0 / (1.0 + math.exp(-1.0))


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value."""


# A rule is (what a value must be, test of a value).
_BOOLEAN = ("a boolean", lambda value: type(value) is bool)
_STRING = ("a string", lambda value: isinstance(value, str))


def _integer(low):
    return (f"an integer >= {low}",
            lambda value: type(value) is int and value >= low)


def _number(bounds, within):
    # finite, and (for an int) within float range, so float() cannot fail
    return (f"a finite number {bounds}",
            lambda value: (type(value) in (int, float)
                           and abs(value) <= sys.float_info.max
                           and within(value)))


def _one_of(names):
    return (f"one of {', '.join(names)}",
            lambda value: isinstance(value, str) and value in names)


def _list_of(plural, rule):
    _, ok = rule
    return (f"a list of {plural}",
            lambda value: isinstance(value, list) and all(map(ok, value)))


def _or_null(rule):
    what, ok = rule
    return (f"null or {what}", lambda value: value is None or ok(value))


# The default of the TrainingConfig field named by the key's last part,
# which is the field training_config() fills from that key.
_FIELD = object()

# dotted key -> (default, rule)
KEYS = {
    "task": ("synthetic", _one_of(TASKS)),
    "variant": (_FIELD, _one_of(VARIANTS)),
    "seed": (_FIELD, _integer(0)),
    "output_dir": ("runs", _STRING),
    # transaction CSV or supply-graph dir
    "data.path": (None, _or_null(_STRING)),
    "data.target_column": (DATACO_TARGET, _STRING),
    # null -> schema default
    "data.feature_columns": (None, _or_null(_list_of("strings", _STRING))),
    "synth.n_samples": (400, _integer(1)),
    "synth.n_channels": (10, _integer(1)),
    "synth.n_classes": (2, _integer(1)),
    "synth.separation": (3.0, _number(">= 0", lambda v: v >= 0)),
    "graph.threshold": (_FIELD, _number(
        f"in [0, sigmoid(1) = {MAX_THRESHOLD:.4f}] (edge weights are "
        f"sigmoid(|corr|), so a higher threshold removes every edge and "
        f"self-loop)", lambda v: 0 <= v <= MAX_THRESHOLD)),
    "model.cheb_orders": (_FIELD, _list_of("integers >= 1", _integer(1))),
    # null -> task default
    "model.graph_dims": (_FIELD,
                         _or_null(_list_of("integers >= 1", _integer(1)))),
    "model.conv_kernels": (_FIELD, _integer(1)),
    "model.dropout": (_FIELD, _number("in [0, 1)", lambda v: 0 <= v < 1)),
    "model.embedding_dim": (_FIELD, _integer(1)),
    "training.epochs": (_FIELD, _integer(0)),
    "training.folds": (_FIELD, _integer(2)),
    "training.alpha": (_FIELD, _number("in [0, 1]", lambda v: 0 <= v <= 1)),
    "training.optimizer_graph": (_FIELD, _one_of(OPTIMIZERS)),
    "training.optimizer_conv": (_FIELD, _one_of(OPTIMIZERS)),
    "training.lr_graph": (_FIELD, _number("> 0", lambda v: v > 0)),
    "training.lr_conv": (_FIELD, _number("> 0", lambda v: v > 0)),
    "training.weight_decay": (_FIELD, _number(">= 0", lambda v: v >= 0)),
    "training.window": (20, _integer(1)),
    "training.stride": (1, _integer(1)),
    "training.early_stop": (_FIELD, _BOOLEAN),
    "training.early_stop_accuracy": (_FIELD, _number("in [0, 1]",
                                                    lambda v: 0 <= v <= 1)),
    "training.early_stop_patience": (_FIELD, _integer(1)),
}


def _defaults():
    fields = {f.name: f.default for f in dataclasses.fields(TrainingConfig)}
    doc = {}
    for key, (default, _) in KEYS.items():
        section, _, name = key.rpartition(".")
        if default is _FIELD:
            default = fields[name]
        node = doc.setdefault(section, {}) if section else doc
        node[name] = list(default) if isinstance(default, tuple) else default
    return doc


DEFAULTS = _defaults()


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
    """Raise ConfigError naming the first key whose value breaks its rule.

    The merge has already checked the nesting, so every key is present and
    every section is a dict.
    """
    for key, (_, (what, ok)) in KEYS.items():
        section, _, name = key.rpartition(".")
        value = (cfg[section] if section else cfg)[name]
        if not ok(value):
            raise ConfigError(f"invalid config value for {key!r}: must be "
                              f"{what}, got {value!r}")
    s = cfg["synth"]
    if s["n_channels"] < s["n_classes"]:
        raise ConfigError(f"invalid config value for 'synth.n_channels': "
                          f"must be >= synth.n_classes = {s['n_classes']}, "
                          f"got {s['n_channels']!r}")
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
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
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
