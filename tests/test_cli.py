"""Command-line pipeline: train/eval/export/synth with real files."""

import csv
import json
import os

import numpy as np
import pytest

from chebnet.cli import main
from chebnet.config import ConfigError, parse_override, resolve_config
from chebnet.data import read_adjacency_csv

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

    def test_parse_override_json_values(self):
        assert parse_override("model.cheb_orders=[2,2,1,1]") == {
            "model": {"cheb_orders": [2, 2, 1, 1]}}
        assert parse_override('variant="gat"') == {"variant": "gat"}


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

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        code = main(["train", "--set", "nonsense=1"])
        assert code == 1

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

    def test_order_mismatch_exits_one(self, tmp_path, capsys):
        run_dir = run_train(
            tmp_path, extra=["--set", "model.cheb_orders=[3,1,1,1]"])
        code = main(["eval", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.bin"),
                     "--out", str(tmp_path / "eval"),
                     "--set", "model.cheb_orders=[2,1,1,1]", *FAST])
        assert code == 1

    def test_missing_checkpoint_exits_one(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_short_checkpoint_exits_one(self, tmp_path, capsys):
        path = tmp_path / "short.bin"
        path.write_bytes(b"CHEB")
        assert main(["eval", "--checkpoint", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "too short" in capsys.readouterr().err


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

    def test_bad_kind_exits_one(self, tmp_path):
        assert main(["synth", "--kind", "tabular",
                     "--out", str(tmp_path / "x")]) == 1
