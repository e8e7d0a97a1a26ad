"""Loaders, windowing, normalization, synthetic generators."""

import csv
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebnet import data as datamod
from chebnet.cli import main
from chebnet.data import (DATACO_FEATURES, DATACO_TARGET, SchemaError,
                          apply_zscore, build_sg_edge_dataset,
                          build_sg_node_dataset, load_dataco,
                          load_supplygraph, synth_generate, window_series,
                          write_adjacency_csv, write_dataco_csv,
                          write_supplygraph_dir, zscore_normalize)
from chebnet.graph import build_adjacency, pearson_correlation

from oracles import read_adjacency_csv, synth_edge_generate


def write_csv(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TestLoadDataco:
    def test_first_appearance_encoding(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "Type,Amount,Late_delivery_risk",
            "DEBIT,1.0,0",
            "TRANSFER,2.0,1",
            "DEBIT,3.0,0",
        ])
        ds = load_dataco(path)
        type_col = ds.features[:, list(ds.channel_names).index("Type")]
        np.testing.assert_array_equal(type_col, [0.0, 1.0, 0.0])

    def test_binary_late_flag_preserved(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,Late_delivery_risk",
            "1.0,1",
            "2.0,0",
            "3.0,1",
        ])
        ds = load_dataco(path)
        np.testing.assert_array_equal(ds.targets, [1, 0, 1])
        assert ds.n_classes == 2
        assert ds.class_names == ("0.0", "1.0")

    def test_bad_row_dropped_with_count(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "Latitude,B,Late_delivery_risk",
            "10.5,1.0,0",
            "not_a_number,2.0,1",
            "11.5,3.0,0",
            "12.0,4.0,1",
        ])
        ds = load_dataco(path)
        assert ds.n_dropped == 1
        assert len(ds.targets) == 3

    def test_stable_reload(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "Type,V,Late_delivery_risk",
            "A,1.0,0",
            "B,,1",
            "C,3.0,1",
            "A,4.0,0",
        ])
        d1 = load_dataco(path)
        d2 = load_dataco(path)
        np.testing.assert_array_equal(d1.features, d2.features)
        assert d1.n_dropped == d2.n_dropped == 1

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["A,B", "1,2"])
        with pytest.raises(SchemaError):
            load_dataco(path)

    def test_empty_after_cleaning(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["A,Late_delivery_risk", ",0"])
        with pytest.raises(ValueError):
            load_dataco(path)

    def test_explicit_feature_subset(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,B,C,Late_delivery_risk",
            "1,2,3,0",
            "4,5,6,1",
        ])
        ds = load_dataco(path, feature_columns=["C", "A"])
        assert ds.channel_names == ("C", "A")
        np.testing.assert_array_equal(ds.features, [[3.0, 1.0], [6.0, 4.0]])

    def test_word_target(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,Status",
            "1.0,late",
            "2.0,on_time",
            "3.0,late",
        ])
        ds = load_dataco(path, target_column="Status")
        np.testing.assert_array_equal(ds.targets, [0, 1, 0])
        assert ds.class_names == ("late", "on_time")

    def test_nonfinite_target_drops_row(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = [",".join([f"f{j}" for j in range(10)] + ["target"])]
        for i in range(40):
            target = "nan" if i in (5, 17, 33) else str(i % 2)
            lines.append(",".join([repr(v) for v in rng.standard_normal(10)]
                                  + [target]))
        path = tmp_path / "t.csv"
        write_csv(path, lines)
        ds = load_dataco(path, target_column="target")
        assert ds.class_names == ("0.0", "1.0")
        assert ds.n_dropped == 3
        assert ds.n_samples == 37

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_feature_drops_only_its_row(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,B,Late_delivery_risk",
            "1.0,2.0,0",
            f"{cell},3.0,1",
            "4.0,5.0,1",
            "6.0,7.0,0",
        ])
        ds = load_dataco(path)
        assert ds.n_dropped == 1
        np.testing.assert_array_equal(ds.features,
                                      [[1.0, 2.0], [4.0, 5.0], [6.0, 7.0]])
        np.testing.assert_array_equal(ds.targets, [0, 1, 0])

    def test_word_feature_codes_count_dropped_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "Type,V,Late_delivery_risk",
            "X,1.0,",
            "Y,2.0,0",
            "X,3.0,1",
        ])
        ds = load_dataco(path)
        assert ds.n_dropped == 1
        np.testing.assert_array_equal(ds.features[:, 0], [1.0, 0.0])

    def test_word_target_codes_count_kept_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,Status",
            ",on_time",
            "1.0,late",
            "2.0,on_time",
        ])
        ds = load_dataco(path, target_column="Status")
        assert ds.n_dropped == 1
        assert ds.class_names == ("late", "on_time")
        np.testing.assert_array_equal(ds.targets, [0, 1])

    def test_short_row_reads_as_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,B,Late_delivery_risk",
            "1,2,0",
            "3",
            "4,5,1",
            "6,7",
        ])
        ds = load_dataco(path)
        assert ds.n_dropped == 2
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])

    def test_half_parsed_column_is_numeric(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,B,Late_delivery_risk",
            "1.0,1,0",
            "x,2,1",
            "2.0,3,1",
            "y,4,0",
        ])
        ds = load_dataco(path)
        assert ds.n_dropped == 2
        np.testing.assert_array_equal(ds.features, [[1.0, 1.0], [2.0, 3.0]])

    def test_minority_parsed_column_is_word_coded(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "A,B,Late_delivery_risk",
            "1.0,1,0",
            "x,2,1",
            "y,3,1",
        ])
        ds = load_dataco(path)
        assert ds.n_dropped == 0
        np.testing.assert_array_equal(ds.features[:, 0], [0.0, 1.0, 2.0])


NAMES = tuple("ABCDEFGHIJK") + ("Type", "Late_delivery_risk")
NUMBERS = st.integers(-3, 3).map(str) | st.floats(-1e6, 1e6).map(repr)
WORDS = st.sampled_from(["x", "late", "on time"])
MESSY = st.sampled_from(["x", "", " ", "nan", "inf", "-0", "1e400"])


@st.composite
def csv_grids(draw):
    """A header, a target column name and rows of numbers and words, with
    messy cells and ragged row lengths sprinkled in."""
    header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=12))
    target = draw(st.sampled_from(header + ["missing"]))
    kinds = [draw(st.sampled_from((NUMBERS, NUMBERS, WORDS))) for _ in header]
    rows = draw(st.lists(st.tuples(*kinds).map(list), max_size=16))
    width = len(header)
    for r, c, cell in draw(st.lists(st.tuples(
            st.integers(0, 15), st.integers(0, width - 1), MESSY), max_size=8)):
        if r < len(rows):
            rows[r][c] = cell
    for r, n in draw(st.lists(st.tuples(
            st.integers(0, 15), st.integers(0, width + 1)), max_size=3)):
        if r < len(rows):
            rows[r] = (rows[r] + ["1"])[:n]
    return header, target, rows


def write_grid(directory, header, rows):
    path = os.path.join(directory, "grid.csv")
    write_csv(path, [",".join(header)] + [",".join(r) for r in rows])
    return path


class TestCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(csv_grids())
    def test_load_returns_clean_dataset_or_raises(self, grid):
        header, target, rows = grid
        non_blank = sum(any(c.strip() for c in r) for r in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_grid(tmp, header, rows)
            try:
                ds = load_dataco(path, target_column=target)
            except ValueError:  # SchemaError included
                return
        assert np.isfinite(ds.features).all()
        assert ds.n_samples + ds.n_dropped == non_blank
        assert ((ds.targets >= 0) & (ds.targets < ds.n_classes)).all()
        assert len(set(ds.class_names)) == ds.n_classes

    @settings(max_examples=100, deadline=None)
    @given(csv_grids())
    def test_train_exits_zero_or_one(self, grid):
        header, target, rows = grid
        with tempfile.TemporaryDirectory() as tmp:
            path = write_grid(tmp, header, rows)
            code = main([
                "train",
                "--set", 'task="dataco-risk"',
                "--set", f"data.path={json.dumps(path)}",
                "--set", f"data.target_column={json.dumps(target)}",
                "--set", f"output_dir={json.dumps(tmp)}",
                "--set", "training.epochs=1",
                "--set", "training.folds=2",
            ])
        assert code in (0, 1)


class PerCellCalled(Exception):
    """Raised by a stand-in for the per-cell parse."""


def outcome(path, **kwargs):
    """``load_dataco``'s Dataset, or the type of the exception it raised."""
    try:
        return load_dataco(path, **kwargs)
    except Exception as exc:
        return type(exc)


def per_cell_outcome(path, **kwargs):
    """The outcome with numpy's reader declining every file."""
    with mock.patch.object(datamod, "_parse_numeric", return_value=None):
        return outcome(path, **kwargs)


def numpy_served(path, **kwargs):
    """Whether ``load_dataco`` returns without the per-cell parse."""
    with mock.patch.object(datamod, "_parse_cells",
                           side_effect=PerCellCalled):
        return outcome(path, **kwargs) is not PerCellCalled


def assert_same_outcome(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a is b
        return
    assert a.features.shape == b.features.shape
    assert a.features.tobytes() == b.features.tobytes()
    np.testing.assert_array_equal(a.targets, b.targets)
    assert a.class_names == b.class_names
    assert a.channel_names == b.channel_names
    assert a.n_dropped == b.n_dropped


# Cells that stress the two readers' tokenizers and number syntax: quotes,
# delimiters and line breaks inside cells, padding, digit separators and
# non-ASCII digits.
ODD_CELLS = st.text(alphabet=' \t"\x1c_.,-+019eainf\r\n\xa0١１',
                    max_size=5)


@st.composite
def raw_csv_texts(draw):
    """A header line, then lines of mostly numeric cells joined raw (no
    quoting) with odd cells, blank lines and mixed line endings."""
    n_cols = draw(st.integers(1, 4))
    cells = NUMBERS | NUMBERS | ODD_CELLS
    lines = draw(st.lists(
        st.lists(cells, min_size=0, max_size=n_cols + 1).map(",".join),
        max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    header = ",".join(f"c{j}" for j in range(n_cols))
    return header + "\n" + "".join(a + b for a, b in zip(lines, ends))


class TestNumpyPathEquivalence:
    """Wherever numpy's C reader takes a file, ``load_dataco`` returns what
    the per-cell path returns: features bit for bit, targets, class names
    and dropped-row count, or the same exception type."""

    @settings(max_examples=300, deadline=None)
    @given(csv_grids())
    def test_grids_match_per_cell(self, grid):
        header, target, rows = grid
        with tempfile.TemporaryDirectory() as tmp:
            path = write_grid(tmp, header, rows)
            assert_same_outcome(outcome(path, target_column=target),
                                per_cell_outcome(path, target_column=target))

    @settings(max_examples=300, deadline=None)
    @given(raw_csv_texts(), st.data())
    def test_raw_text_matches_per_cell(self, text, data):
        target = data.draw(st.sampled_from(text.split("\n")[0].split(",")))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "raw.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert_same_outcome(outcome(path, target_column=target),
                                per_cell_outcome(path, target_column=target))

    @pytest.mark.parametrize("content, numpy_reads", [
        # spellings float() takes and numpy does not
        pytest.param("A,T\n1_000,0\n2,1\n", False, id="underscore"),
        pytest.param("A,T\n0_1,0\n2,1\n", False, id="leading-zero-underscore"),
        pytest.param("A,T\n١٢,0\n2,1\n", False, id="arabic-indic"),
        pytest.param("A,T\n１２,0\n2,1\n", False, id="fullwidth"),
        # a separator numpy strips and float() does not
        pytest.param("A,T\n\x1c2,0\n2,1\n", False, id="file-separator"),
        # spellings both take
        pytest.param("A,T\n 1.5 ,0\n2,1\n", True, id="padded"),
        pytest.param("A,T\n\t2\t,0\n2,1\n", True, id="tabs"),
        pytest.param('A,T\n"1.5",0\n2,1\n', True, id="quoted"),
        pytest.param("A,T\ninfinity,0\n2,1\n3,0\n", True, id="infinity"),
        pytest.param("A,T\n-nan,0\n2,1\n3,0\n", True, id="negative-nan"),
        pytest.param("A,T\n1e400,0\n2,1\n3,0\n", True, id="overflow"),
        pytest.param("A,T\n1e-400,0\n2,1\n", True, id="underflow"),
        pytest.param("A,T\n.5,0\n2,1\n", True, id="bare-fraction"),
        pytest.param("A,T\n-0,0\n2,1\n", True, id="negative-zero"),
        # file shapes
        pytest.param("A,T\r\n1,0\r\n2,1\r\n", True, id="crlf"),
        pytest.param("﻿A,T\n1,0\n2,1\n", True, id="bom"),
        pytest.param("A,T\n\n1,0\n\n2,1\n\n", True, id="blank-lines"),
        pytest.param("A,T\n1,0\n  \t\n2,1\n", False, id="whitespace-line"),
        pytest.param("A,T\n1,0\n2\n3,1\n", False, id="short-row"),
        pytest.param("A,T\n1,0,9,9\n2,1\n", True, id="long-row"),
        pytest.param("A,T\n", None, id="header-only"),
        pytest.param("A,T\n1,0\n\xe9,1\n".encode("latin-1"), None,
                     id="latin-1"),
        pytest.param(("A,T\n" + "1,0\n" * 3000 + "\xe9,1\n").encode("latin-1"),
                     None, id="latin-1-after-first-block"),
        pytest.param('"A\nB",T\n1,0\n2,1\n', True, id="header-newline"),
    ])
    def test_table_matches_per_cell(self, tmp_path, content, numpy_reads):
        path = tmp_path / "t.csv"
        if isinstance(content, str):
            content = content.encode("utf-8")
        path.write_bytes(content)
        got = outcome(path, target_column="T")
        assert_same_outcome(got, per_cell_outcome(path, target_column="T"))
        if numpy_reads is not None:
            assert not isinstance(got, type)
            assert numpy_served(path, target_column="T") is numpy_reads

    def test_header_newline_keeps_every_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('"A\nB",T\n1,0\n2,1\n3,0\n', encoding="utf-8")
        ds = load_dataco(path, target_column="T")
        assert ds.channel_names == ("A\nB",)
        np.testing.assert_array_equal(ds.features[:, 0], [1.0, 2.0, 3.0])

    def test_synthetic_export_takes_numpy_path(self, tmp_path):
        ds, _ = synth_generate(1000, 11, 2, 1.0, seed=3)
        path = tmp_path / "synth.csv"
        write_dataco_csv(ds, path, target_column="target")
        assert path.stat().st_size > csv.field_size_limit()
        with mock.patch.object(datamod, "_parse_cells",
                               side_effect=PerCellCalled):
            fast = load_dataco(path, target_column="target")
        assert fast.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(fast.targets, ds.targets)
        assert_same_outcome(fast,
                            per_cell_outcome(path, target_column="target"))

    def test_word_type_column_takes_per_cell_path(self, tmp_path):
        types = ["TRANSFER", "CASH", "TRANSFER", "DEBIT", "PAYMENT", "CASH"]
        lines = [",".join(DATACO_FEATURES + (DATACO_TARGET,))]
        for i, t in enumerate(types):
            lines.append(",".join([t] + [str(i + j) for j in range(10)]
                                  + [str(i % 2)]))
        path = tmp_path / "dataco.csv"
        write_csv(path, lines)
        assert not numpy_served(path)
        ds = load_dataco(path)
        np.testing.assert_array_equal(ds.features[:, 0], [0, 1, 0, 2, 3, 1])
        np.testing.assert_array_equal(ds.features[:, 1], range(6))


LONG_FIELD = "9" * 200_000


class TestOverlongField:
    """A field past csv's field limit (131072 characters) is refused by
    both paths: numpy's reader has no such limit, so such a file is left
    to the per-cell path, whose csv.Error becomes a SchemaError."""

    @pytest.mark.parametrize("cell", [
        pytest.param(LONG_FIELD, id="one-line"),
        pytest.param('"1' + "\n" * 200_000 + '"', id="quoted-across-lines"),
    ])
    def test_both_paths_refuse(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_csv(path, ["A,T", "1,0", f"{cell},1", "2,0"])
        with pytest.raises(SchemaError, match="t.csv"):
            load_dataco(path, target_column="T")
        assert per_cell_outcome(path, target_column="T") is SchemaError

    def test_train_exits_one_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv(path, ["A,B,Late_delivery_risk", "1,2,0",
                         f"{LONG_FIELD},3,1", "4,5,1"])
        code = main(["train", "--set", 'task="dataco-risk"',
                     "--set", f"data.path={json.dumps(str(path))}",
                     "--set", f"output_dir={json.dumps(str(tmp_path))}"])
        err = capsys.readouterr().err
        assert code == 1
        assert "field larger than field limit" in err
        assert "Traceback" not in err

    def test_supplygraph_file_refused(self, tmp_path):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=4,
                                  n_dates=25, seed=1)
        with open(os.path.join(d, "sales_order.csv"), "a",
                  encoding="utf-8") as fh:
            fh.write(f"2024-01-01,{LONG_FIELD},1,1,1\n")
        with pytest.raises(SchemaError, match="sales_order.csv"):
            load_supplygraph(d)


class TestWindowSeries:
    def test_window_count(self):
        series = np.arange(221 * 2, dtype=float).reshape(221, 2)
        assert window_series(series, window=20).shape == (202, 2, 20)

    def test_full_series_single_window(self):
        series = np.arange(20 * 3, dtype=float).reshape(20, 3)
        w = window_series(series, window=20)
        assert w.shape == (1, 3, 20)
        np.testing.assert_array_equal(w[0], series.T)

    def test_nonoverlapping_stride(self):
        series = np.arange(17 * 2, dtype=float).reshape(17, 2)
        w = window_series(series, window=5, stride=5)
        assert w.shape == (3, 2, 5)
        # stride=window windows reconstruct a prefix of the series exactly
        rebuilt = np.concatenate([w[i].T for i in range(3)], axis=0)
        np.testing.assert_array_equal(rebuilt, series[:15])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            window_series(np.zeros((4, 2)), window=5)


class TestZscore:
    def test_hand_example(self):
        x = np.array([[2.0], [4.0], [6.0]])
        normed, mean, std = zscore_normalize(x)
        assert mean[0] == pytest.approx(4.0)
        np.testing.assert_allclose(normed[:, 0], [-1.2247449, 0.0, 1.2247449],
                                   atol=1e-6)

    def test_constant_channel_zeroed(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        normed, _, std = zscore_normalize(x)
        assert std[0] == 0.0
        np.testing.assert_array_equal(normed[:, 0], [0.0, 0.0, 0.0])

    def test_train_stats_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4)) * 3 + 1
        normed, mean, std = zscore_normalize(x)
        np.testing.assert_allclose(apply_zscore(x, mean, std), normed)
        assert np.abs(normed.mean(axis=0)).max() < 1e-9
        assert np.abs(normed.std(axis=0) - 1.0).max() < 1e-9


class TestSynthGenerate:
    def test_deterministic(self):
        a, ta = synth_generate(50, 8, 2, 3.0, seed=7)
        b, tb = synth_generate(50, 8, 2, 3.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(ta, tb)

    def test_zero_separation_means_coincide(self):
        ds, _ = synth_generate(4000, 6, 2, 0.0, seed=1)
        m0 = ds.features[ds.targets == 0].mean(axis=0)
        m1 = ds.features[ds.targets == 1].mean(axis=0)
        assert np.abs(m0 - m1).max() < 0.2  # sampling noise only

    def test_nearest_centroid_oracle(self):
        ds, _ = synth_generate(200, 10, 2, 5.0, seed=2)
        centroids = np.stack([ds.features[ds.targets == c].mean(axis=0)
                              for c in range(2)])
        d = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = (np.argmin(d, axis=1) == ds.targets).mean()
        assert acc >= 0.99

    def test_balanced_classes(self):
        ds, _ = synth_generate(103, 8, 3, 2.0, seed=3)
        counts = np.bincount(ds.targets, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_graph_recovery(self):
        """build_adjacency on generated data recovers the generating graph."""
        for seed in (0, 1, 2):
            ds, truth = synth_generate(600, 10, 2, 3.0, seed=seed)
            recovered = build_adjacency(pearson_correlation(ds.features), 0.7)
            true_edges = {(i, j) for i, j in zip(*np.nonzero(truth)) if i < j}
            got_edges = {(i, j) for i, j in zip(*np.nonzero(recovered))
                         if i < j}
            tp = len(true_edges & got_edges)
            prec = tp / max(len(got_edges), 1)
            rec = tp / max(len(true_edges), 1)
            f1 = 2 * prec * rec / max(prec + rec, 1e-12)
            assert f1 >= 0.9, f"seed {seed}: f1={f1:.3f}"

    def test_rejects_negative_separation(self):
        with pytest.raises(ValueError):
            synth_generate(10, 4, 2, -1.0, seed=0)

    def test_rejects_zero_classes(self):
        with pytest.raises(ValueError, match="class"):
            synth_generate(10, 4, 0, 1.0, seed=0)


class TestSynthEdgeGenerate:
    def test_deterministic_and_shaped(self):
        a, ta = synth_edge_generate(20, 12, 2, 3.0, 60, seed=4)
        b, _ = synth_edge_generate(20, 12, 2, 3.0, 60, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.edges, b.edges)
        assert a.task == "edge-class"
        assert a.n_classes == 4
        assert a.edges.shape == (60, 2)
        assert (a.edges[:, 0] != a.edges[:, 1]).all()

    def test_labels_follow_communities(self):
        ds, _ = synth_edge_generate(16, 10, 2, 3.0, 50, seed=5)
        # recover communities from the label of a self-consistent edge set
        # label = comm(src) * 2 + comm(dst)
        for (s, d), lab in zip(ds.edges, ds.targets):
            assert 0 <= lab < 4

    def test_community_graph_recovered(self):
        ds, truth = synth_edge_generate(16, 40, 2, 3.0, 50, seed=6)
        corr = pearson_correlation(ds.features.T)
        recovered = build_adjacency(corr, 0.7)
        true_edges = {(i, j) for i, j in zip(*np.nonzero(truth)) if i < j}
        got_edges = {(i, j) for i, j in zip(*np.nonzero(recovered)) if i < j}
        tp = len(true_edges & got_edges)
        f1 = 2 * tp / max(len(true_edges) + len(got_edges), 1)
        assert f1 >= 0.9


class TestSupplyGraphLoader:
    def test_synth_roundtrip(self, tmp_path):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=8,
                                  n_dates=30, n_communities=2, n_plants=3,
                                  n_edges=40, seed=0)
        sg = load_supplygraph(d)
        assert len(sg.products) == 8
        assert sg.series["production"].shape == (30, 8)
        assert set(sg.edges) == {"product_group", "plant"}
        assert sg.groups is not None
        assert len(sg.group_names) == 2

    def test_toy_directory_shapes(self, tmp_path):
        d = tmp_path / "sg"
        d.mkdir()
        dates = ["2023-01-0%d" % (i + 1) for i in range(5)]
        for name in ("delivery_to_distributor", "factory_issue",
                     "production", "sales_order"):
            write_csv(d / f"{name}.csv",
                      ["date,p0,p1,p2"]
                      + [f"{dates[i]},{i},{i + 1},{i + 2}" for i in range(5)])
        sg = load_supplygraph(str(d))
        assert sg.series["production"].shape == (5, 3)
        assert sg.products == ("p0", "p1", "p2")

    def test_slash_dates_sorted(self, tmp_path):
        """Rows sort by date, and both spellings of a day are one date."""
        d = tmp_path / "sg"
        d.mkdir()
        rows = ["date,p0", "2023/01/03,3.0", "2023/01/01,1.0", "2023/01/02,2.0"]
        for name in ("delivery_to_distributor", "factory_issue",
                     "production", "sales_order"):
            write_csv(d / f"{name}.csv", rows)
        write_csv(d / "production.csv", [r.replace("/", "-") for r in rows])
        sg = load_supplygraph(str(d))
        np.testing.assert_array_equal(sg.series["production"][:, 0],
                                      [1.0, 2.0, 3.0])

    def test_repeated_date_rejected(self, tmp_path):
        """All four signal files list their sixth date twice: a window
        would span that day as if it were two, so the first file read is
        rejected, naming the date."""
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=4,
                                  n_dates=30, seed=0)
        for name in ("delivery_to_distributor", "factory_issue",
                     "production", "sales_order"):
            path = os.path.join(d, f"{name}.csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            with open(path, "a", newline="") as fh:
                csv.writer(fh).writerow(rows[6])
        with pytest.raises(SchemaError) as err:
            load_supplygraph(d)
        assert "delivery_to_distributor.csv: date 2023-01-06 is listed in " \
               "more than one row" in str(err.value)

    def test_both_spellings_of_one_day_repeat_it(self, tmp_path):
        d = tmp_path / "sg"
        d.mkdir()
        for name in ("delivery_to_distributor", "factory_issue",
                     "production", "sales_order"):
            write_csv(d / f"{name}.csv",
                      ["date,p0", "2023-01-01,1.0", "2023/01/01,2.0"])
        with pytest.raises(SchemaError, match="date 2023-01-01 is listed"):
            load_supplygraph(str(d))

    def test_product_set_mismatch(self, tmp_path):
        d = tmp_path / "sg"
        d.mkdir()
        write_csv(d / "delivery_to_distributor.csv",
                  ["date,p0,p1", "2023-01-01,1,2"])
        for name in ("factory_issue", "production", "sales_order"):
            write_csv(d / f"{name}.csv", ["date,p0,pX", "2023-01-01,1,2"])
        with pytest.raises(SchemaError):
            load_supplygraph(str(d))

    def test_edge_index_out_of_range(self, tmp_path):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=4,
                                  n_dates=25, seed=1)
        write_csv(os.path.join(d, "edges_bad.csv"),
                  ["src,dst,label", "0,9,0"])
        with pytest.raises(SchemaError):
            load_supplygraph(d)

    @pytest.mark.parametrize("name", ["production.csv", "edges_plant.csv",
                                      "products.csv"])
    def test_empty_file_exits_one(self, tmp_path, capsys, name):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=4,
                                  n_dates=25, seed=1)
        open(os.path.join(d, name), "w").close()
        code = main(["train", "--set", 'task="sg-product"',
                     "--set", f"data.path={json.dumps(d)}",
                     "--set", f"output_dir={json.dumps(str(tmp_path))}"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{name}: empty file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("task", ["sg-product", "sg-plant-edges"])
    @pytest.mark.parametrize("name", ["delivery_to_distributor.csv",
                                      "production.csv"])
    def test_header_only_signal_exits_one(self, tmp_path, capsys, name,
                                          task):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=4,
                                  n_dates=25, seed=1)
        path = os.path.join(d, name)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
        code = main(["train", "--set", f"task={json.dumps(task)}",
                     "--set", f"data.path={json.dumps(d)}",
                     "--set", f"output_dir={json.dumps(str(tmp_path))}"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{name}: no data rows" in err
        assert "Traceback" not in err

    def test_repeated_product_column_exits_one(self, tmp_path, capsys):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=4,
                                  n_dates=25, seed=1)
        for name in datamod.SG_SIGNALS:
            path = os.path.join(d, f"{name}.csv")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace("date,P00,P01,", "date,P00,P00,", 1))
        code = main(["train", "--set", 'task="sg-product"',
                     "--set", f"data.path={json.dumps(d)}",
                     "--set", f"output_dir={json.dumps(str(tmp_path))}"])
        err = capsys.readouterr().err
        assert code == 1
        assert ("delivery_to_distributor.csv: product 'P00' has more than "
                "one column") in err
        assert "Traceback" not in err

    def test_short_product_row(self, tmp_path):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=4,
                                  n_dates=25, seed=1)
        with open(os.path.join(d, "products.csv"), "a",
                  encoding="utf-8") as fh:
            fh.write("P00,G0\n")
        with pytest.raises(SchemaError, match="products.csv: short row"):
            load_supplygraph(d)

    def test_missing_temporal_file(self, tmp_path):
        d = tmp_path / "sg"
        d.mkdir()
        with pytest.raises(SchemaError):
            load_supplygraph(str(d))


class TestSgDatasets:
    def test_node_dataset_windows(self, tmp_path):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=6,
                                  n_dates=30, n_communities=2, seed=2)
        sg = load_supplygraph(d)
        ds = build_sg_node_dataset(sg, window=10, stride=1)
        n_starts = 30 - 10 + 1
        assert ds.features.shape == (6 * n_starts, 4 * 10)
        assert ds.conv_shape == (4, 10)
        assert ds.task == "node-class"
        # product-major ordering: first block of rows shares product 0's label
        assert len(set(ds.targets[:n_starts])) == 1

    def test_edge_dataset_shapes(self, tmp_path):
        d = write_supplygraph_dir(str(tmp_path / "sg"), n_products=6,
                                  n_dates=30, n_communities=2, n_edges=30,
                                  seed=3)
        sg = load_supplygraph(d)
        ds = build_sg_edge_dataset(sg, "product_group")
        assert ds.features.shape == (6, 4 * 30)
        assert ds.edges.shape == (30, 2)
        assert ds.task == "edge-class"
        with pytest.raises(SchemaError):
            build_sg_edge_dataset(sg, "nonexistent")

    def test_node_dataset_needs_groups(self, tmp_path):
        d = tmp_path / "sg"
        d.mkdir()
        for name in ("delivery_to_distributor", "factory_issue",
                     "production", "sales_order"):
            write_csv(d / f"{name}.csv",
                      ["date,p0,p1", "2023-01-01,1,2", "2023-01-02,3,4"])
        sg = load_supplygraph(str(d))
        with pytest.raises(SchemaError):
            build_sg_node_dataset(sg, window=2)


class TestAdjacencyCsv:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        corr = pearson_correlation(rng.standard_normal((40, 5)))
        adj = build_adjacency(corr, 0.6)
        path = tmp_path / "adj.csv"
        write_adjacency_csv(path, adj, [f"c{i}" for i in range(5)])
        loaded, names = read_adjacency_csv(path)
        np.testing.assert_array_equal(loaded, adj)  # repr round-trips floats
        assert names == tuple(f"c{i}" for i in range(5))


class TestDatacoExport:
    def test_synth_csv_loads_back(self, tmp_path):
        ds, _ = synth_generate(30, 10, 2, 3.0, seed=9)
        path = tmp_path / "synth.csv"
        write_dataco_csv(ds, path, target_column="target")
        loaded = load_dataco(path, target_column="target")
        np.testing.assert_allclose(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.targets, ds.targets)
