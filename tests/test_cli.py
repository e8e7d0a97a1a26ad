"""Command-line pipeline: train/eval/export/synth with real files."""

import csv
import json
import os
import struct
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebnet import cli, training
from chebnet.archive import load_archive, save_archive
from chebnet.cli import main
from chebnet.config import (DEFAULTS, ConfigError, parse_override,
                            resolve_config, training_config)
from chebnet.data import write_supplygraph_dir
from chebnet.training import TrainingConfig

from oracles import live_children, read_adjacency_csv

FAST = [
    "--set", "synth.n_samples=60",
    "--set", "training.epochs=30",
    "--set", "training.folds=3",
    "--set", "training.lr_graph=0.01",
]

TRAIN_FILES = ("resolved_config.json", "metrics.txt", "confusion.csv",
               "history.csv", "fold_plan.csv", "checkpoint.bin")


def run_train(tmp_path, extra=(), variant="cheb"):
    out = str(tmp_path / "runs")
    code = main(["train", "--set", f'output_dir="{out}"',
                 "--set", f'variant="{variant}"', *FAST, *extra])
    assert code == 0
    return os.path.join(out, variant)


def rewrite_meta(path, update):
    """Apply ``update`` to the meta dict in an archive's JSON header."""
    raw = open(path, "rb").read()
    hlen = struct.unpack("<I", raw[12:16])[0]
    header = json.loads(raw[16:16 + hlen])
    update(header["meta"])
    body = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(raw[:12] + struct.pack("<I", len(body)) + body
                 + raw[16 + hlen:])


def reverse_products(directory, out):
    """Copy of a supply-graph directory with its products in reverse order:
    every signal file's product columns and every edge index reversed, so
    it holds the same data under another product order."""
    os.makedirs(out)
    with open(os.path.join(directory, "production.csv"), newline="") as fh:
        last = len(next(csv.reader(fh))) - 2  # a date column, then products
    for entry in os.listdir(directory):
        with open(os.path.join(directory, entry), newline="") as fh:
            rows = list(csv.reader(fh))
        if entry.startswith("edges_"):
            rows = rows[:1] + [[str(last - int(s)), str(last - int(d)), lab]
                               for s, d, lab in rows[1:]]
        elif entry != "products.csv":
            rows = [r[:1] + r[:0:-1] for r in rows]
        with open(os.path.join(out, entry), "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return out


def last_train_accuracy(run_dir):
    with open(os.path.join(run_dir, "history.csv")) as fh:
        return float(list(csv.reader(fh))[-1][4])


def eval_accuracy(out):
    text = open(os.path.join(out, "eval_metrics.txt")).read()
    return float(text.splitlines()[0].split()[1])


def leaf_keys(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config()
        assert cfg["task"] == "synthetic"
        assert cfg["training"]["folds"] == 10
        assert cfg["training"]["alpha"] == 0.9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            resolve_config(overrides=["training.bogus=1"])

    def test_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"training": {"epochs": 77}, "seed": 5}))
        cfg = resolve_config(str(path), overrides=["training.epochs=88"])
        assert cfg["training"]["epochs"] == 88  # flag wins
        assert cfg["seed"] == 5                 # file wins over default

    def test_invalid_threshold_names_key(self):
        with pytest.raises(ConfigError, match="graph.threshold"):
            resolve_config(overrides=["graph.threshold=1.5"])

    def test_threshold_that_empties_graph_rejected(self):
        # edge weights are sigmoid(|corr|) <= sigmoid(1) ~ 0.7311
        with pytest.raises(ConfigError, match="graph.threshold"):
            resolve_config(overrides=["graph.threshold=0.74"])

    @pytest.mark.parametrize("override", [
        'graph.threshold="a"', 'training.epochs="a"',
        "model.conv_kernels=null", "model.dropout=[1]",
        "model.cheb_orders=3", "model.cheb_orders=[2.5]",
        "training.early_stop=1", "seed=true", "training.lr_graph=NaN",
        "training.lr_conv=1e400", "model.graph_dims=[4,\"x\"]",
        "data.feature_columns=[1]", "synth.separation={}",
        "model.conv_kernels=0", "model.embedding_dim=-1",
        "model.graph_dims=[10,5,0,2]", "seed=-1",
        "synth.n_samples=0", "synth.n_samples=-5", "synth.n_channels=0",
        "synth.n_channels=1", "synth.n_classes=0", "synth.n_classes=11",
        "training.lr_conv=0", "training.stride=0",
        "training.early_stop_accuracy=-1", "training.early_stop_accuracy=7",
    ])
    def test_bad_value_names_key(self, override):
        key = override.split("=", 1)[0]
        with pytest.raises(ConfigError, match=key):
            resolve_config(overrides=[override])

    def test_wrong_type_exits_one(self, capsys):
        assert main(["train", "--set", 'graph.threshold="a"']) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "graph.threshold" in err

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(leaf_keys(DEFAULTS))),
                              JSON_VALUES), min_size=1, max_size=3))
    def test_any_leaf_value_resolves_or_raises_config_error(self, pairs):
        overrides = [f"{key}={json.dumps(value)}" for key, value in pairs]
        try:
            cfg = resolve_config(overrides=overrides)
        except ConfigError:
            return
        training_config(cfg)  # whatever validates also converts

    def test_default_document_bridges_to_default_training_config(self):
        # the document takes these defaults from TrainingConfig's fields,
        # and training_config must hand them back unchanged
        assert training_config(resolve_config()) == TrainingConfig()

    def test_config_file_not_utf8_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes('{"output_dir": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(ConfigError) as err:
            resolve_config(str(path))
        assert str(err.value).startswith(f"{path}: ")

    def test_readme_table_documents_every_key_and_default(self):
        # rows such as `training.lr_graph/lr_conv` | `0.001/0.0001` stand
        # for one key per name; a single default is shared by every name
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = open(readme, encoding="utf-8").read()
        table = text.split("## Configuration reference", 1)[1]
        rows = [line for line in table.split("\n## ", 1)[0].splitlines()
                if line.startswith("| `")]
        documented = {}
        for row in rows:
            key_cell, default_cell = (cell.strip().strip("`")
                                      for cell in row.split("|")[1:3])
            first, *rest = key_cell.split("/")
            section = first.rpartition(".")[0]
            keys = [first] + [f"{section}.{name}" for name in rest]
            defaults = default_cell.split("/") if rest else [default_cell]
            if len(defaults) == 1:
                defaults *= len(keys)
            assert len(defaults) == len(keys), row
            for key, default in zip(keys, defaults):
                try:
                    documented[key] = json.loads(default)
                except json.JSONDecodeError:
                    documented[key] = default
        assert sorted(documented) == LEAVES
        for key, default in documented.items():
            assert json.dumps(default) == json.dumps(default_of(key)), key

    def test_parse_override_json_values(self):
        assert parse_override("model.cheb_orders=[2,2,1,1]") == {
            "model": {"cheb_orders": [2, 2, 1, 1]}}
        assert parse_override('variant="gat"') == {"variant": "gat"}


class FakeLibc:
    """Stands in for ``ctypes.CDLL(None)``; records mallopt calls when it
    has one."""

    def __init__(self, with_mallopt):
        self.calls = []
        if with_mallopt:
            def mallopt(param, value):
                self.calls.append((param, value))
                return 1
            self.mallopt = mallopt


class TestAllocatorPolicy:
    def test_main_sets_glibc_thresholds(self, monkeypatch):
        libc = FakeLibc(with_mallopt=True)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert main(["synth", "--kind", "nonsense"]) == 1
        assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_quiet_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: FakeLibc(with_mallopt=False))
        assert cli._keep_freed_memory() is None

    def test_quiet_without_libc(self, monkeypatch):
        def no_library(name):
            raise OSError("no such library")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        assert cli._keep_freed_memory() is None


class TestTrainCommand:
    def test_writes_all_outputs(self, tmp_path):
        run_dir = run_train(tmp_path)
        for name in TRAIN_FILES:
            assert os.path.exists(os.path.join(run_dir, name)), name
        # every output parses
        cfg = json.loads(open(os.path.join(run_dir,
                                           "resolved_config.json")).read())
        assert cfg["task"] == "synthetic"
        with open(os.path.join(run_dir, "history.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss_graph", "loss_conv", "loss_total",
                           "train_accuracy"]
        assert len(rows) > 1
        with open(os.path.join(run_dir, "fold_plan.csv")) as fh:
            plan_rows = list(csv.reader(fh))[1:]
        assert len(plan_rows) == 60
        assert os.path.getsize(os.path.join(run_dir, "checkpoint.bin")) > 64

    def test_variant_tagged_subdirectory(self, tmp_path):
        run_dir = run_train(tmp_path, variant="gat")
        assert run_dir.endswith("gat")
        assert os.path.exists(os.path.join(run_dir, "metrics.txt"))

    def test_invalid_threshold_exits_one(self, tmp_path, capsys):
        code = main(["train", "--set", "graph.threshold=1.5"])
        assert code == 1
        assert "graph.threshold" in capsys.readouterr().err

    def test_threshold_that_empties_graph_exits_one(self, tmp_path, capsys):
        code = main(["train", "--set", "graph.threshold=0.74"])
        assert code == 1
        assert "graph.threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one_exits_one(self, tmp_path, capsys, patience):
        code = main(["train", "--set", f'output_dir="{tmp_path}"',
                     "--set", f"training.early_stop_patience={patience}",
                     *FAST])
        assert code == 1
        assert "training.early_stop_patience" in capsys.readouterr().err

    def test_target_among_feature_columns_exits_one(self, tmp_path, capsys):
        assert main(["synth", *FAST, "--out", str(tmp_path)]) == 0
        path = tmp_path / "synthetic.csv"
        code = main(["train", "--set", f'output_dir="{tmp_path}"', *FAST,
                     "--set", 'task="dataco-risk"',
                     "--set", f"data.path={json.dumps(str(path))}",
                     "--set", 'data.target_column="target"',
                     "--set", 'data.feature_columns=["ch0","target"]'])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: target column 'target' is also a feature "
            f"column\n")

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        code = main(["train", "--set", "nonsense=1"])
        assert code == 1

    def test_orders_past_the_last_cheb_layer_exit_one(self, tmp_path,
                                                       capsys):
        code = main(["train", "--set", f'output_dir="{tmp_path}"', *FAST,
                     "--set", "model.cheb_orders=[1,1,1,1,7]"])
        assert code == 1
        assert "cheb_orders" in capsys.readouterr().err

    def test_allocation_failure_exits_one(self, tmp_path, monkeypatch,
                                          capsys):
        def refuse(cfg):
            raise MemoryError("Unable to allocate 3.64 TiB for an array")

        monkeypatch.setattr("chebnet.cli.load_task_dataset", refuse)
        code = main(["train", "--set", f'output_dir="{tmp_path}"'])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: not enough memory: Unable to allocate 3.64 TiB")

    def test_env_root_override(self, tmp_path, monkeypatch):
        env_root = str(tmp_path / "elsewhere")
        monkeypatch.setenv("CHEBNET_OUTPUT_ROOT", env_root)
        code = main(["train", *FAST])
        assert code == 0
        assert os.path.exists(os.path.join(env_root, "cheb", "metrics.txt"))
        # the echoed config keeps its own output_dir value
        cfg = json.loads(open(os.path.join(env_root, "cheb",
                                           "resolved_config.json")).read())
        assert cfg["output_dir"] == "runs"


def default_of(key):
    node = DEFAULTS
    for part in key.split("."):
        node = node[part]
    return node


# Override keys: every leaf of DEFAULTS, a section and an unknown key.  A
# value is any JSON value or, more often than chance, one of the key's own
# type; integers stay at 40 or below, so that no example allocates much.
# Names include the variants and lists of small integers serve as
# Chebyshev orders; each example also starts from a drawn variant, so that
# every graph layer's first-layer path runs.
LEAVES = sorted(leaf_keys(DEFAULTS))
FUZZ_KEYS = LEAVES + ["training", "bogus"]
SMALL_INTS = st.integers(min_value=-40, max_value=40)
NAMES = st.sampled_from(["cheb", "gcn", "gat", "synthetic", "sg-product",
                         "adam", "sgd", "x"])
ORDERS = st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                  max_size=4)
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | SMALL_INTS
    | st.floats(min_value=-40.0, max_value=40.0)
    | st.sampled_from([float("nan"), float("inf")]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["epochs", "folds", "x"]), inner,
                      max_size=2),
    max_leaves=6)
OWN_TYPE = {bool: st.booleans(), int: st.integers(min_value=0, max_value=40),
            float: st.floats(min_value=0.0, max_value=1.0), str: NAMES,
            list: ORDERS}


def fuzz_value(key):
    """(key, value) pairs; a section, the unknown key and a leaf whose
    default is null take null or an order list as their own type."""
    own = st.none() | ORDERS
    if key in LEAVES:
        own = OWN_TYPE.get(type(default_of(key)), own)
    return st.tuples(st.just(key), own | own | ANY_VALUE)


class TestOverrideFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["cheb", "gcn", "gat"]),
           st.lists(st.sampled_from(FUZZ_KEYS).flatmap(fuzz_value),
                    min_size=1, max_size=4))
    def test_train_exits_zero_or_one(self, tmp_path_factory, variant, pairs):
        base = ["--set", "training.epochs=1", "--set", "training.folds=2",
                "--set", "synth.n_samples=40", "--set", f'variant="{variant}"']
        drawn = [a for key, value in pairs
                 for a in ("--set", f"{key}={json.dumps(value)}")]
        with pytest.MonkeyPatch.context() as mp:
            # wherever a drawn output_dir points, runs land here
            mp.setenv("CHEBNET_OUTPUT_ROOT",
                      str(tmp_path_factory.mktemp("fuzz")))
            assert main(["train", *base, *drawn]) in (0, 1)


class TestDeterminism:
    def test_bitwise_identical_reruns(self, tmp_path, monkeypatch):
        roots = []
        for name in ("a", "b"):
            monkeypatch.setenv("CHEBNET_OUTPUT_ROOT", str(tmp_path / name))
            assert main(["train", *FAST]) == 0
            roots.append(tmp_path / name / "cheb")
        for fname in ("metrics.txt", "confusion.csv", "history.csv",
                      "checkpoint.bin", "fold_plan.csv"):
            a = (roots[0] / fname).read_bytes()
            b = (roots[1] / fname).read_bytes()
            assert a == b, fname

    def test_rerun_from_echoed_config(self, tmp_path, monkeypatch):
        """The resolved config echoed by one run reproduces it bitwise."""
        monkeypatch.setenv("CHEBNET_OUTPUT_ROOT", str(tmp_path / "first"))
        assert main(["train", *FAST]) == 0
        first = tmp_path / "first" / "cheb"
        monkeypatch.setenv("CHEBNET_OUTPUT_ROOT", str(tmp_path / "second"))
        assert main(["train", "--config",
                     str(first / "resolved_config.json")]) == 0
        second = tmp_path / "second" / "cheb"
        for fname in ("metrics.txt", "confusion.csv", "history.csv",
                      "checkpoint.bin", "fold_plan.csv",
                      "resolved_config.json"):
            assert (first / fname).read_bytes() == \
                (second / fname).read_bytes(), fname


class TestParallelTrain:
    """``chebnet train`` runs its fits in the caller and a forked worker
    (the ``pooled`` fixture) and writes the bytes of a one-core run; a
    failure exits as the one-core run does, and no worker outlives it."""

    DETERMINISTIC = ("metrics.txt", "confusion.csv", "history.csv",
                     "fold_plan.csv", "checkpoint.bin")

    @staticmethod
    def inputs(tmp_path, case):
        if case.startswith("synthetic"):
            return [f'variant="{case.split("-")[1]}"', "training.epochs=5"]
        data = write_supplygraph_dir(str(tmp_path / "supplygraph"), seed=0)
        if case == "sg-product":
            return ['task="sg-product"', f'data.path="{data}"',
                    "model.cheb_orders=[3,3,3,3]", "training.folds=2",
                    "training.epochs=2"]
        return ['task="sg-plant-edges"', f'data.path="{data}"',
                "training.epochs=5"]

    @staticmethod
    def train(out, overrides):
        args = [a for o in overrides + [f'output_dir="{out}"']
                for a in ("--set", o)]
        return main(["train", *args])

    @pytest.mark.parametrize("case", ["synthetic-cheb", "synthetic-gcn",
                                      "synthetic-gat", "sg-product",
                                      "sg-plant-edges"])
    def test_same_bytes_as_one_core(self, tmp_path, monkeypatch, pooled,
                                    case):
        overrides = self.inputs(tmp_path, case)
        assert self.train(tmp_path / "pooled", overrides) == 0
        assert live_children() == []
        monkeypatch.setattr(training, "_usable_cores", lambda: 1)
        assert self.train(tmp_path / "one", overrides) == 0
        for run in os.listdir(tmp_path / "one"):
            for name in self.DETERMINISTIC:
                assert ((tmp_path / "pooled" / run / name).read_bytes()
                        == (tmp_path / "one" / run / name).read_bytes()), name

    def test_divergence_in_a_worker_exits_two(self, tmp_path, monkeypatch,
                                              capsys, pooled):
        """Folds 1 and 2 diverge; fold 1 runs in the worker, and its
        message is the one the one-core run prints."""
        real = training._fit

        def diverging(dataset, config, instance):
            if instance in (1, 2):
                raise training.DivergenceError(
                    f"non-finite loss at epoch 0: graph=nan (fit {instance})")
            return real(dataset, config, instance)

        monkeypatch.setattr(training, "_fit", diverging)
        overrides = ["training.folds=4", "training.epochs=2"]
        messages = []
        for cores in (2, 1):
            monkeypatch.setattr(training, "_usable_cores", lambda: cores)
            assert self.train(tmp_path / str(cores), overrides) == 2
            assert live_children() == []
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] == (
            "error: non-finite loss at epoch 0: graph=nan (fit 1)\n")

    def test_dead_worker_exits_one(self, tmp_path, monkeypatch, capsys,
                                   pooled):
        caller = os.getpid()
        real = training._run_job

        def dying(*args):
            if os.getpid() != caller:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(training, "_run_job", dying)
        assert self.train(tmp_path, ["training.epochs=2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a training worker process ended "
                              "without its results")
        assert "Traceback" not in err
        assert live_children() == []


class TestEvalCommand:
    def test_eval_matches_final_training_accuracy(self, tmp_path):
        run_dir = run_train(tmp_path)
        with open(os.path.join(run_dir, "history.csv")) as fh:
            last = list(csv.reader(fh))[-1]
        final_acc = float(last[4])
        out = str(tmp_path / "eval")
        code = main(["eval", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--out", out, *FAST])
        assert code == 0
        text = open(os.path.join(out, "eval_metrics.txt")).read()
        acc = float(text.splitlines()[0].split()[1])
        assert acc >= final_acc - 1e-9

    def test_eval_deterministic(self, tmp_path):
        run_dir = run_train(tmp_path)
        outs = []
        for name in ("e1", "e2"):
            out = str(tmp_path / name)
            assert main(["eval", "--checkpoint",
                         os.path.join(run_dir, "checkpoint.bin"),
                         "--out", out, *FAST]) == 0
            outs.append(open(os.path.join(out, "eval_metrics.txt")).read())
        assert outs[0] == outs[1]

    def test_padded_orders_restore(self, tmp_path):
        """Training pads short cheb_orders; eval rebuilds the padded model."""
        flags = ["--set", "model.graph_dims=[10,5,2,2]",
                 "--set", "model.cheb_orders=[2,2,2]"]
        run_dir = run_train(tmp_path, extra=flags)
        out = str(tmp_path / "eval")
        assert main(["eval", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--out", out, *FAST, *flags]) == 0
        assert eval_accuracy(out) == last_train_accuracy(run_dir)

    def test_short_orders_padded_with_order_one(self, tmp_path):
        """Layers past the end of cheb_orders get order 1."""
        run_dir = run_train(tmp_path, extra=["--set", "model.cheb_orders=[3]"])
        path = os.path.join(run_dir, "checkpoint.bin")
        _, meta = load_archive(path)
        assert meta["architecture"]["cheb_orders"] == [3, 1, 1, 1]
        out = str(tmp_path / "eval")
        assert main(["eval", "--checkpoint", path, "--out", out, *FAST]) == 0
        assert eval_accuracy(out) == last_train_accuracy(run_dir)

    def test_variant_comes_from_checkpoint(self, tmp_path):
        run_dir = run_train(tmp_path, variant="gcn")
        out = str(tmp_path / "eval")
        assert main(["eval", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--out", out, *FAST]) == 0
        assert eval_accuracy(out) == last_train_accuracy(run_dir)

    def test_record_that_mismatches_weights_exits_one(self, tmp_path,
                                                      capsys):
        run_dir = run_train(
            tmp_path, extra=["--set", "model.cheb_orders=[3,1,1,1]"])
        path = os.path.join(run_dir, "checkpoint.bin")

        def shrink_order(meta):
            assert meta["architecture"]["cheb_orders"] == [3, 1, 1, 1]
            meta["architecture"]["cheb_orders"] = [2, 1, 1, 1]

        rewrite_meta(path, shrink_order)
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *FAST]) == 1
        assert "shape mismatch" in capsys.readouterr().err

    def test_archive_without_model_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "x.bin")
        save_archive(path, [("x", np.zeros(3))])
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "e")]) == 1
        assert main(["export", "--checkpoint", path, "--what", "graph",
                     "--out", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 2 and "extra.adjacency" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("update", [
        lambda meta: meta.pop("architecture"),
        lambda meta: meta.update(architecture=[1, 2]),
        lambda meta: meta["architecture"].update(conv_kernels="ten"),
        lambda meta: meta["architecture"].update(conv_shape=5),
        lambda meta: meta["architecture"].update(depth=4),
        lambda meta: meta["architecture"].update(
            graph_dims=[float("inf"), 5, 2, 2]),
        lambda meta: meta["architecture"].update(cheb_orders=[float("inf")]),
        lambda meta: meta["architecture"].update(embedding_dim=float("nan")),
    ], ids=["missing", "not-a-dict", "wrong-type", "not-a-pair",
            "unknown-key", "infinite-dim", "infinite-order", "nan-embedding"])
    def test_bad_architecture_record_exits_one(self, tmp_path, capsys,
                                               update):
        run_dir = run_train(tmp_path)
        path = os.path.join(run_dir, "checkpoint.bin")
        rewrite_meta(path, update)
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *FAST]) == 1
        err = capsys.readouterr().err
        assert f"{path}: " in err and "architecture record" in err

    def test_fewer_feature_columns_exit_one(self, tmp_path, capsys):
        run_dir = run_train(tmp_path)
        path = os.path.join(run_dir, "checkpoint.bin")
        synth = str(tmp_path / "synth")
        assert main(["synth", "--kind", "node", "--out", synth, *FAST]) == 0
        data = ["--set", 'task="dataco-risk"',
                "--set", 'data.target_column="target"',
                "--set", 'data.feature_columns=["ch0","ch1","ch2"]',
                "--set", "data.path=" + json.dumps(
                    os.path.join(synth, "synthetic.csv"))]
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *data]) == 1
        assert main(["export", "--checkpoint", path, "--what", "embeddings",
                     "--out", str(tmp_path / "export"), *data]) == 1
        err = capsys.readouterr().err
        assert err.count(f"{path}: the checkpoint normalizes 10 feature "
                         f"columns but the data has 3") == 2
        assert "Traceback" not in err

    def test_reordered_feature_columns_exit_one(self, tmp_path, capsys):
        """Right width, wrong order: the graph's channels must match the
        data's in order, or the model is scored on permuted inputs."""
        run_dir = run_train(tmp_path)
        path = os.path.join(run_dir, "checkpoint.bin")
        synth = str(tmp_path / "synth")
        assert main(["synth", "--kind", "node", "--out", synth, *FAST]) == 0
        columns = [f"ch{i}" for i in reversed(range(10))]
        data = ["--set", 'task="dataco-risk"',
                "--set", 'data.target_column="target"',
                "--set", f"data.feature_columns={json.dumps(columns)}",
                "--set", "data.path=" + json.dumps(
                    os.path.join(synth, "synthetic.csv"))]
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *data]) == 1
        assert main(["export", "--checkpoint", path, "--what", "embeddings",
                     "--out", str(tmp_path / "export"), *data]) == 1
        err = capsys.readouterr().err
        assert err.count(f"{path}: channel 0 of the checkpoint's graph is "
                         f"'ch0' but the data's is 'ch9'") == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("variant", ["cheb", "gat"])
    def test_edge_data_with_fewer_products_exits_one(self, tmp_path, capsys,
                                                     variant):
        """An edge checkpoint's graph has one node per product."""
        dirs = {n: write_supplygraph_dir(str(tmp_path / f"sg{n}"),
                                         n_products=n)
                for n in (12, 10)}
        task = ["--set", 'task="sg-plant-edges"']
        assert main(["train", "--set", f'output_dir="{tmp_path / "runs"}"',
                     "--set", f'variant="{variant}"', *task,
                     "--set", f"data.path={json.dumps(dirs[12])}",
                     "--set", "training.epochs=2",
                     "--set", "training.folds=2"]) == 0
        path = str(tmp_path / "runs" / variant / "checkpoint.bin")
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *task,
                     "--set", f"data.path={json.dumps(dirs[10])}"]) == 1
        err = capsys.readouterr().err
        assert (f"{path}: the checkpoint's graph has 12 nodes but the data "
                f"has 10") in err
        assert "Traceback" not in err

    def test_reordered_products_exit_one(self, tmp_path, capsys):
        """Same products in another order: an edge checkpoint's graph nodes
        are its products, so they must match the data's in order."""
        sg = write_supplygraph_dir(str(tmp_path / "sg"))
        flipped = reverse_products(sg, str(tmp_path / "flipped"))
        task = ["--set", 'task="sg-plant-edges"']
        assert main(["train", "--set", f'output_dir="{tmp_path / "runs"}"',
                     "--set", 'variant="gcn"', *task,
                     "--set", f"data.path={json.dumps(sg)}",
                     "--set", "training.epochs=2",
                     "--set", "training.folds=2"]) == 0
        path = str(tmp_path / "runs" / "gcn" / "checkpoint.bin")
        assert load_archive(path)[1]["channel_names"][:2] == ["P00", "P01"]
        data = [*task, "--set", f"data.path={json.dumps(flipped)}"]
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *data]) == 1
        assert main(["export", "--checkpoint", path, "--what", "embeddings",
                     "--out", str(tmp_path / "export"), *data]) == 1
        err = capsys.readouterr().err
        assert err.count(f"{path}: product 0 of the checkpoint's graph is "
                         f"'P00' but the data's is 'P11'") == 2
        assert "Traceback" not in err

    def test_node_graph_of_other_size_exits_one(self, tmp_path, capsys):
        """A node checkpoint's graph has one node per feature column."""
        run_dir = run_train(tmp_path)
        path = os.path.join(run_dir, "checkpoint.bin")
        entries, meta = load_archive(path)
        entries["extra.adjacency"] = entries["extra.adjacency"][:9, :9]
        meta["channel_names"] = meta["channel_names"][:9]
        save_archive(path, entries.items(), meta)
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *FAST]) == 1
        err = capsys.readouterr().err
        assert (f"{path}: the checkpoint's graph has 9 nodes but the data "
                f"has 10") in err
        assert "Traceback" not in err

    def test_edge_checkpoint_on_node_task_exits_one(self, tmp_path, capsys):
        sg = os.path.join(str(tmp_path / "synth"), "supplygraph")
        assert main(["synth", "--kind", "edges",
                     "--out", str(tmp_path / "synth")]) == 0
        assert main(["train", "--set", f'output_dir="{tmp_path / "runs"}"',
                     "--set", 'task="sg-plant-edges"',
                     "--set", f"data.path={json.dumps(sg)}",
                     "--set", "training.epochs=2",
                     "--set", "training.folds=2"]) == 0
        path = str(tmp_path / "runs" / "cheb" / "checkpoint.bin")
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *FAST]) == 1
        err = capsys.readouterr().err
        assert (f"{path}: the checkpoint is for edge-class data but task "
                f"'synthetic' is node-class") in err
        assert "Traceback" not in err

    def test_node_checkpoint_on_edge_task_exits_one(self, tmp_path, capsys):
        run_dir = run_train(tmp_path)
        path = os.path.join(run_dir, "checkpoint.bin")
        sg = os.path.join(str(tmp_path / "synth"), "supplygraph")
        assert main(["synth", "--kind", "edges",
                     "--out", str(tmp_path / "synth")]) == 0
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"),
                     "--set", 'task="sg-product-edges"',
                     "--set", f"data.path={json.dumps(sg)}"]) == 1
        err = capsys.readouterr().err
        assert (f"{path}: the checkpoint is for node-class data but task "
                f"'sg-product-edges' is edge-class") in err
        assert "Traceback" not in err

    def test_classes_matched_by_name(self, tmp_path):
        """A file holding only the target-1 rows is scored under class
        '1.0', the checkpoint's class of that name, not under the file's
        own first class."""
        synth = str(tmp_path / "synth")
        assert main(["synth", "--kind", "node", "--out", synth]) == 0
        full, ones = (os.path.join(synth, f"{name}.csv")
                      for name in ("synthetic", "ones"))
        with open(full, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(ones, "w", newline="") as fh:
            csv.writer(fh).writerows(
                rows[:1] + [r for r in rows[1:] if r[-1] == "1"])
        task = ["--set", 'task="dataco-risk"',
                "--set", 'data.target_column="target"']
        assert main(["train", *task, "--set", f"data.path={json.dumps(full)}",
                     "--set", "training.epochs=30",
                     "--set", "training.folds=2",
                     "--set", f'output_dir="{tmp_path / "runs"}"']) == 0
        path = str(tmp_path / "runs" / "cheb" / "checkpoint.bin")
        for name, data in (("full", full), ("ones", ones)):
            assert main(["eval", *task, "--set",
                         f"data.path={json.dumps(data)}",
                         "--checkpoint", path,
                         "--out", str(tmp_path / name)]) == 0
        with open(tmp_path / "full" / "eval_confusion.csv") as fh:
            full_rows = list(csv.reader(fh))
        with open(tmp_path / "ones" / "eval_confusion.csv") as fh:
            ones_rows = list(csv.reader(fh))
        assert full_rows[2] == ["1.0", "23", "177"]
        assert ones_rows == [full_rows[0], ["0.0", "0", "0"], full_rows[2]]
        assert eval_accuracy(str(tmp_path / "ones")) == 0.885

    def test_class_the_checkpoint_lacks_exits_one(self, tmp_path, capsys):
        synth = str(tmp_path / "synth")
        assert main(["synth", "--kind", "node", "--out", synth, *FAST]) == 0
        data = os.path.join(synth, "synthetic.csv")
        task = ["--set", 'task="dataco-risk"',
                "--set", 'data.target_column="target"',
                "--set", f"data.path={json.dumps(data)}"]
        assert main(["train", *task, *FAST,
                     "--set", f'output_dir="{tmp_path / "runs"}"']) == 0
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][-1] = "7"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        path = str(tmp_path / "runs" / "cheb" / "checkpoint.bin")
        assert main(["eval", *task, "--checkpoint", path,
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert (f"{path}: the data's class '7.0' is not one of "
                f"['0.0', '1.0']") in err
        assert "Traceback" not in err

    def test_latin1_transaction_csv_trains_and_evaluates(self, tmp_path):
        """A transaction CSV saved as latin-1, with an accented word in a
        text column the model does not use, trains, and its checkpoint
        evaluates it."""
        synth = str(tmp_path / "synth")
        assert main(["synth", "--kind", "node", "--out", synth, *FAST]) == 0
        with open(os.path.join(synth, "synthetic.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        channels = rows[0][:-1]
        rows = [r + (["note"] if i == 0 else ["caf\xe9" if i == 1 else "ok"])
                for i, r in enumerate(rows)]
        data = str(tmp_path / "latin1.csv")
        with open(data, "w", newline="", encoding="latin-1") as fh:
            csv.writer(fh).writerows(rows)
        task = ["--set", 'task="dataco-risk"',
                "--set", 'data.target_column="target"',
                "--set", f"data.feature_columns={json.dumps(channels)}",
                "--set", f"data.path={json.dumps(data)}"]
        assert main(["train", *task, *FAST,
                     "--set", f'output_dir="{tmp_path / "runs"}"']) == 0
        run_dir = str(tmp_path / "runs" / "cheb")
        out = str(tmp_path / "eval")
        assert main(["eval", *task, "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--out", out]) == 0
        assert eval_accuracy(out) == last_train_accuracy(run_dir)

    def test_latin1_products_file_trains_and_evaluates(self, tmp_path):
        """A supply-graph directory whose products.csv is saved as latin-1,
        with a group named Caf\xe9, trains sg-product, the group is named
        in metrics.txt, and its checkpoint evaluates the directory."""
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=6,
                                  n_dates=30, seed=4)
        path = os.path.join(d, "products.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [[c.replace("G0", "Caf\xe9") for c in r]
                    for r in csv.reader(fh)]
        with open(path, "w", newline="", encoding="latin-1") as fh:
            csv.writer(fh).writerows(rows)
        task = ["--set", 'task="sg-product"',
                "--set", f"data.path={json.dumps(d)}"]
        assert main(["train", *task, "--set", "training.epochs=3",
                     "--set", "training.folds=2",
                     "--set", "training.window=10",
                     "--set", f'output_dir="{tmp_path / "runs"}"']) == 0
        run_dir = str(tmp_path / "runs" / "cheb")
        with open(os.path.join(run_dir, "metrics.txt"),
                  encoding="utf-8") as fh:
            assert "Caf\xe9" in fh.read()
        out = str(tmp_path / "eval")
        assert main(["eval", *task, "--set", "training.window=10",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                     "--out", out]) == 0
        assert eval_accuracy(out) == last_train_accuracy(run_dir)

    def test_group_name_with_comma_and_quotes_reads_back(self, tmp_path):
        """A product group named with a comma and quotes keeps its name as
        one cell of confusion.csv and eval_confusion.csv."""
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=6,
                                  n_dates=30, seed=4)
        path = os.path.join(d, "products.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [[c.replace("G0", 'G0, "north"') for c in r]
                    for r in csv.reader(fh)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        task = ["--set", 'task="sg-product"', "--set", "training.window=10",
                "--set", f"data.path={json.dumps(d)}"]
        out = str(tmp_path / "runs")
        assert main(["train", *task, "--set", "training.epochs=3",
                     "--set", "training.folds=2",
                     "--set", f"output_dir={json.dumps(out)}"]) == 0
        checkpoint = os.path.join(out, "cheb", "checkpoint.bin")
        names = load_archive(checkpoint)[1]["class_names"]
        assert sorted(names) == ['G0, "north"', "G1"]
        assert main(["eval", *task, "--checkpoint", checkpoint,
                     "--out", str(tmp_path / "eval")]) == 0
        for table in (os.path.join(out, "cheb", "confusion.csv"),
                      str(tmp_path / "eval" / "eval_confusion.csv")):
            with open(table, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["true\\pred", *names]
            assert [r[0] for r in rows[1:]] == names
            assert all(len(r) == 3 for r in rows)

    def test_missing_checkpoint_exits_one(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_short_checkpoint_exits_one(self, tmp_path, capsys):
        path = tmp_path / "short.bin"
        path.write_bytes(b"CHEB")
        assert main(["eval", "--checkpoint", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "too short" in capsys.readouterr().err


    @pytest.mark.parametrize("update", [
        lambda meta: meta.update(class_names=5),
        lambda meta: meta.update(class_names=["only-one"]),
        lambda meta: meta.update(channel_names=7),
        lambda meta: meta.update(channel_names=["a"]),
        lambda meta: meta.pop("channel_names"),
    ], ids=["classes-not-a-list", "classes-short", "channels-not-a-list",
            "channels-short", "channels-missing"])
    def test_bad_names_exit_one(self, tmp_path, capsys, update):
        run_dir = run_train(tmp_path)
        path = os.path.join(run_dir, "checkpoint.bin")
        rewrite_meta(path, update)
        assert main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval"), *FAST]) == 1
        assert "names" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The bytes of a briefly trained checkpoint and a scratch directory."""
    work = tmp_path_factory.mktemp("fuzz")
    out = str(work / "runs")
    assert main(["train", "--set", f'output_dir="{out}"', *FAST,
                 "--set", "training.epochs=2"]) == 0
    with open(os.path.join(out, "cheb", "checkpoint.bin"), "rb") as fh:
        return fh.read(), work


class TestCheckpointFuzz:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_corrupt_checkpoint_exits_zero_or_one(self, small_checkpoint,
                                                  data):
        raw, work = small_checkpoint
        n = len(raw)
        corrupt = data.draw(
            st.integers(0, n - 1).map(lambda k: raw[:k])
            | st.tuples(st.integers(0, n - 1), st.integers(0, 255)).map(
                lambda t: raw[:t[0]] + bytes([t[1]]) + raw[t[0] + 1:]),
            label="checkpoint")
        path = work / "corrupt.bin"
        path.write_bytes(corrupt)
        assert main(["eval", "--checkpoint", str(path),
                     "--out", str(work / "eval"), *FAST]) in (0, 1)


def rewrite_entry(raw, path, name, corrupt):
    """Write the archive bytes ``raw`` to ``path`` with ``corrupt`` applied
    in place to its entry ``name`` (no entry when None)."""
    path.write_bytes(raw)
    entries, meta = load_archive(path)
    if name is not None:
        corrupt(entries[name])
    save_archive(path, entries.items(), meta)


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("name, corrupt, fault", [
        ("extra.adjacency", lambda a: np.put(a, 0, np.inf), "non-finite"),
        ("extra.norm_std", lambda a: np.put(a, 0, np.nan), "non-finite"),
        ("extra.norm_mean", lambda a: np.put(a, 0, np.inf), "non-finite"),
        ("graph.0.layer.weight", lambda a: np.put(a, 0, np.nan),
         "non-finite"),
        ("graph.0.bn.running_var", lambda a: np.put(a, 0, -1.0), "negative"),
        ("extra.norm_std", lambda a: np.negative(a, out=a), "negative"),
    ], ids=["inf-adjacency", "nan-std", "inf-mean", "nan-weight",
            "negative-variance", "negated-std"])
    def test_bad_value_exits_one(self, small_checkpoint, capsys, name,
                                 corrupt, fault):
        raw, work = small_checkpoint
        path = work / "bad-value.bin"
        rewrite_entry(raw, path, name, corrupt)
        assert main(["eval", "--checkpoint", str(path),
                     "--out", str(work / "eval-bad"), *FAST]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {name} holds a {fault} value" in err
        assert "Traceback" not in err

    def test_rewritten_intact_checkpoint_evaluates_the_same(
            self, small_checkpoint):
        raw, work = small_checkpoint
        (work / "intact.bin").write_bytes(raw)
        rewrite_entry(raw, work / "rewritten.bin", None, None)
        accuracies = []
        for name in ("intact", "rewritten"):
            out = str(work / f"eval-{name}")
            assert main(["eval", "--checkpoint", str(work / f"{name}.bin"),
                         "--out", out, *FAST]) == 0
            accuracies.append(eval_accuracy(out))
        assert accuracies[0] == accuracies[1]


class TestExportCommand:
    def test_graph_export_roundtrips(self, tmp_path):
        run_dir = run_train(tmp_path)
        out = str(tmp_path / "export")
        assert main(["export", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--what", "graph", "--out", out]) == 0
        adj, names = read_adjacency_csv(os.path.join(out, "adjacency.csv"))
        assert adj.shape == (10, 10)
        np.testing.assert_array_equal(adj, adj.T)
        # round-trip is exact against the stored adjacency
        from chebnet.archive import load_archive
        entries, _ = load_archive(os.path.join(run_dir, "checkpoint.bin"))
        np.testing.assert_array_equal(adj, entries["extra.adjacency"])

    def test_embeddings_export(self, tmp_path):
        run_dir = run_train(tmp_path)
        out = str(tmp_path / "emb")
        assert main(["export", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--what", "embeddings", "--out", out, *FAST]) == 0
        files = sorted(os.listdir(out))
        assert files == ["embeddings_input.csv", "embeddings_layer1.csv",
                         "embeddings_layer2.csv", "embeddings_layer3.csv",
                         "embeddings_layer4.csv"]
        for name in files:
            with open(os.path.join(out, name)) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1 + 10  # header + one row per node

    def test_bad_stored_graph_exits_one(self, tmp_path, capsys):
        run_dir = run_train(tmp_path)
        path = os.path.join(run_dir, "checkpoint.bin")
        rewrite_meta(path, lambda meta: meta.update(channel_names=7))
        assert main(["export", "--checkpoint", path, "--what", "graph",
                     "--out", str(tmp_path / "g")]) == 1
        assert "channel_names" in capsys.readouterr().err
        odd = str(tmp_path / "odd.bin")
        save_archive(odd, [("extra.adjacency", np.zeros(3))],
                     {"channel_names": ["a", "b", "c"]})
        assert main(["export", "--checkpoint", odd, "--what", "graph",
                     "--out", str(tmp_path / "g")]) == 1
        assert "square" in capsys.readouterr().err

    def test_unknown_what_exits_one(self, tmp_path):
        run_dir = run_train(tmp_path)
        assert main(["export", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--what", "weights", "--out", str(tmp_path / "x")]) == 1


class TestSynthCommand:
    def test_node_export_feeds_dataco_pipeline(self, tmp_path):
        out = str(tmp_path / "synth")
        assert main(["synth", "--kind", "node", "--out", out,
                     "--set", "synth.n_samples=40"]) == 0
        csv_path = os.path.join(out, "synthetic.csv")
        assert os.path.exists(csv_path)
        assert os.path.exists(os.path.join(out, "truth_adjacency.csv"))
        # the emitted CSV drives the transaction-CSV task end to end
        code = main([
            "train",
            "--set", f'output_dir="{tmp_path / "runs2"}"',
            "--set", 'task="dataco-risk"',
            "--set", f'data.path="{csv_path}"',
            "--set", 'data.target_column="target"',
            "--set", "training.epochs=10",
            "--set", "training.folds=2",
        ])
        assert code == 0
        assert os.path.exists(tmp_path / "runs2" / "cheb" / "metrics.txt")

    def test_synthetic_checkpoint_evaluates_its_node_export(self, tmp_path):
        """A ``synthetic`` checkpoint evaluates the CSV that ``synth --kind
        node`` writes of the same data: both name class c
        ``str(float(c))``, so eval matches every class and scores the final
        fit's own training rows."""
        out = str(tmp_path / "synth")
        assert main(["synth", "--kind", "node", "--out", out]) == 0
        runs = tmp_path / "runs"
        assert main(["train", "--set", f'output_dir="{runs}"',
                     "--set", "training.folds=2",
                     "--set", "training.epochs=3"]) == 0
        ev = str(tmp_path / "eval")
        assert main(["eval", "--checkpoint", str(runs / "cheb" /
                                                 "checkpoint.bin"),
                     "--out", ev, "--set", 'task="dataco-risk"',
                     "--set", 'data.target_column="target"',
                     "--set",
                     f'data.path="{os.path.join(out, "synthetic.csv")}"']) == 0
        assert eval_accuracy(ev) == last_train_accuracy(str(runs / "cheb"))

    def test_edges_export_feeds_sg_product_task(self, tmp_path):
        out = str(tmp_path / "synth")
        assert main(["synth", "--kind", "edges", "--out", out]) == 0
        sg_dir = os.path.join(out, "supplygraph")
        code = main([
            "train",
            "--set", f'output_dir="{tmp_path / "runs4"}"',
            "--set", 'task="sg-product"',
            "--set", f'data.path="{sg_dir}"',
            "--set", "training.epochs=8",
            "--set", "training.folds=3",
            "--set", "training.window=10",
        ])
        assert code == 0
        text = open(tmp_path / "runs4" / "cheb" / "metrics.txt").read()
        assert text.startswith("accuracy ")
        assert "np.float64" not in text

    def test_edge_checkpoint_evaluates_without_model_flags(self, tmp_path):
        out = str(tmp_path / "synth")
        assert main(["synth", "--kind", "edges", "--out", out]) == 0
        data = ["--set", 'task="sg-plant-edges"',
                "--set", f'data.path="{os.path.join(out, "supplygraph")}"']
        assert main(["train", "--set", f'output_dir="{tmp_path / "runs"}"',
                     *data, "--set", "model.embedding_dim=20",
                     "--set", "training.epochs=4",
                     "--set", "training.folds=2"]) == 0
        run_dir = str(tmp_path / "runs" / "cheb")
        ev = str(tmp_path / "eval")
        assert main(["eval", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--out", ev, *data]) == 0
        assert eval_accuracy(ev) == last_train_accuracy(run_dir)

    def test_edges_export_feeds_sg_pipeline(self, tmp_path):
        out = str(tmp_path / "synth")
        assert main(["synth", "--kind", "edges", "--out", out]) == 0
        sg_dir = os.path.join(out, "supplygraph")
        assert os.path.exists(os.path.join(sg_dir, "production.csv"))
        code = main([
            "train",
            "--set", f'output_dir="{tmp_path / "runs3"}"',
            "--set", 'task="sg-product-edges"',
            "--set", f'data.path="{sg_dir}"',
            "--set", "training.epochs=15",
            "--set", "training.folds=3",
            "--set", "training.lr_graph=0.01",
        ])
        assert code == 0
        assert os.path.exists(tmp_path / "runs3" / "cheb" / "metrics.txt")

    @pytest.mark.parametrize("task", ["sg-product", "sg-plant-edges"])
    def test_signal_dates_that_differ_exit_one(self, tmp_path, capsys, task):
        """production.csv's dates moved by 400 days: the signals no longer
        line up in time, so the directory is rejected."""
        out = str(tmp_path / "synth")
        assert main(["synth", "--kind", "edges", "--out", out]) == 0
        path = os.path.join(out, "supplygraph", "production.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for r in rows[1:]:
            r[0] = str(date.fromisoformat(r[0]) + timedelta(days=400))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["train", "--set", f'output_dir="{tmp_path / "runs"}"',
                     "--set", f'task="{task}"',
                     "--set", f'data.path="{os.path.dirname(path)}"',
                     "--set", "training.epochs=1",
                     "--set", "training.folds=2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "production.csv: dates differ" in err
        assert "2024-02-05 where it has 2023-01-01" in err

    @pytest.mark.parametrize("task", ["sg-product", "sg-plant-edges"])
    def test_repeated_date_exits_one(self, tmp_path, capsys, task):
        """Every signal file lists its sixth date twice: the directory is
        rejected with a message naming the file and the date."""
        out = str(tmp_path / "synth")
        assert main(["synth", "--kind", "edges", "--out", out]) == 0
        sg_dir = os.path.join(out, "supplygraph")
        for name in ("delivery_to_distributor", "factory_issue",
                     "production", "sales_order"):
            path = os.path.join(sg_dir, f"{name}.csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            with open(path, "a", newline="") as fh:
                csv.writer(fh).writerow(rows[6])
        code = main(["train", "--set", f'output_dir="{tmp_path / "runs"}"',
                     "--set", f'task="{task}"',
                     "--set", f'data.path="{sg_dir}"',
                     "--set", "training.epochs=1",
                     "--set", "training.folds=2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "delivery_to_distributor.csv: date 2023-01-06 is listed in " \
               "more than one row" in err
        assert "Traceback" not in err

    def test_bad_kind_exits_one(self, tmp_path):
        assert main(["synth", "--kind", "tabular",
                     "--out", str(tmp_path / "x")]) == 1
