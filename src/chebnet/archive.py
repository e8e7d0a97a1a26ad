"""Versioned flat-file parameter archive.

Layout (all integers little-endian):

    bytes 0..7    magic ``CHEBARCH``
    bytes 8..11   format version (uint32, currently 1)
    bytes 12..15  header length in bytes (uint32)
    header        UTF-8 JSON: {"entries": [{"name", "shape"}...], "meta": {...}}
    payload       float64 little-endian values, concatenated in entry order

The manifest lists every array by name and shape; loading rejects an
entry that holds NaN or an infinity, and any mismatch against the model
being restored.
"""

import json
import struct

import numpy as np

MAGIC = b"CHEBARCH"
VERSION = 1


class ArchiveError(ValueError):
    """Malformed archive or manifest mismatch."""


def save_archive(path, entries, meta=None):
    """Write (name, array) pairs plus a metadata dict."""
    manifest = []
    blobs = []
    for name, arr in entries:
        a = np.asarray(arr, dtype=np.float64)
        manifest.append({"name": name, "shape": list(a.shape)})
        blobs.append(a.astype("<f8").tobytes())
    header = json.dumps({"entries": manifest, "meta": meta or {}},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _valid_header(header):
    """True for {"entries": [{"name": str, "shape": [int >= 0, ...]}...]}
    with an optional object "meta"."""
    if not isinstance(header, dict) or not isinstance(
            header.get("entries"), list) or not isinstance(
            header.get("meta", {}), dict):
        return False
    for item in header["entries"]:
        if not (isinstance(item, dict)
                and isinstance(item.get("name"), str)
                and isinstance(item.get("shape"), list)):
            return False
        if not all(type(d) is int and d >= 0 for d in item["shape"]):
            return False
    return True


def load_archive(path):
    """Read an archive; returns (ordered name -> array dict, meta dict)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ArchiveError(f"{path}: {len(raw)} bytes, too short for an "
                           f"archive preamble")
    if raw[:8] != MAGIC:
        raise ArchiveError(f"{path}: bad magic, not a parameter archive")
    version, hlen = struct.unpack("<II", raw[8:16])
    if version != VERSION:
        raise ArchiveError(f"{path}: unsupported archive version {version}")
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"{path}: corrupt header: {exc}") from None
    if not _valid_header(header):
        raise ArchiveError(f"{path}: header is not an object with an "
                           f"'entries' list of {{name, shape}} items and "
                           f"an optional 'meta' object")
    offset = 16 + hlen
    entries = {}
    for item in header["entries"]:
        shape = tuple(item["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise ArchiveError(f"{path}: truncated payload at {item['name']}")
        arr = np.frombuffer(raw[offset:offset + nbytes],
                            dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ArchiveError(f"{path}: {item['name']} holds a non-finite "
                               f"value")
        entries[item["name"]] = arr
        offset += nbytes
    if offset != len(raw):
        raise ArchiveError(f"{path}: trailing bytes after payload")
    return entries, header.get("meta", {})


def restore_model(model, entries):
    """Copy archived values into a model; names and shapes must match."""
    named = model.named_arrays()
    names = [n for n, _ in named]
    if set(names) != set(entries):
        missing = sorted(set(names) - set(entries))
        extra = sorted(set(entries) - set(names))
        raise ArchiveError(
            f"manifest mismatch: missing {missing[:4]}, unexpected {extra[:4]}")
    for name, arr in named:
        src = entries[name]
        if src.shape != arr.shape:
            raise ArchiveError(
                f"shape mismatch for {name}: archive {src.shape} "
                f"vs model {arr.shape}")
        arr[...] = src
