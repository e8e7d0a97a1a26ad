"""Parameter archive format: roundtrip, manifest checks, corruption."""

import json
import struct

import numpy as np
import pytest

from chebnet.archive import (ArchiveError, load_archive, restore_model,
                             save_archive)
from chebnet.model import build_model


def make_model(order=2, seed=0):
    rng = np.random.default_rng(seed)
    return build_model("node-class", "cheb", 10, 2, (1, 10), rng=rng,
                       cheb_orders=(order, 1, 1, 1))


def write_header(path, header):
    """Replace an archive's header with the given JSON document."""
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[12:16])[0]
    body = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(body)) + body
                     + raw[16 + hlen:])


class TestRoundtrip:
    def test_exact_values_and_meta(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = [("a.weight", rng.standard_normal((3, 4))),
                   ("b.bias", rng.standard_normal(5)),
                   ("scalarish", np.array(2.5))]
        meta = {"task": "synthetic", "n_classes": 2}
        path = tmp_path / "ck.bin"
        save_archive(path, entries, meta)
        loaded, got_meta = load_archive(path)
        assert got_meta == meta
        assert list(loaded) == ["a.weight", "b.bias", "scalarish"]
        for name, arr in entries:
            np.testing.assert_array_equal(loaded[name], arr)

    def test_model_restore(self, tmp_path):
        model = make_model(seed=1)
        path = tmp_path / "ck.bin"
        save_archive(path, model.named_arrays(), {})
        entries, _ = load_archive(path)
        fresh = make_model(seed=99)  # different init
        restore_model(fresh, entries)
        for (n1, a1), (n2, a2) in zip(model.named_arrays(),
                                      fresh.named_arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_little_endian_payload(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_archive(path, [("x", np.array([1.0]))], {})
        raw = path.read_bytes()
        assert raw[-8:] == np.array([1.0]).astype("<f8").tobytes()


class TestRejections:
    def test_shape_mismatch(self, tmp_path):
        model = make_model(order=3)
        path = tmp_path / "ck.bin"
        save_archive(path, model.named_arrays(), {})
        entries, _ = load_archive(path)
        other = make_model(order=2)  # different Chebyshev order
        with pytest.raises(ArchiveError):
            restore_model(other, entries)

    def test_name_mismatch(self, tmp_path):
        model = make_model()
        entries = dict(model.named_arrays())
        entries["bogus"] = np.zeros(3)
        with pytest.raises(ArchiveError):
            restore_model(model, entries)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ArchiveError):
            load_archive(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_archive(path, [("x", np.ones((4, 4)))], {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ArchiveError):
            load_archive(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"CHEBARCH\x01")
        with pytest.raises(ArchiveError, match="too short"):
            load_archive(path)

    def test_header_without_entries(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_archive(path, [], {})
        write_header(path, {"meta": {}})
        with pytest.raises(ArchiveError, match="entries"):
            load_archive(path)

    def test_entry_without_shape(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_archive(path, [], {})
        write_header(path, {"entries": [{"name": "x"}], "meta": {}})
        with pytest.raises(ArchiveError, match="entries"):
            load_archive(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_archive(path, [("x", np.ones(2))], {})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ArchiveError):
            load_archive(path)
