"""Dataset ingestion, preprocessing and synthetic generation.

Two on-disk schemas are supported: transaction CSVs (header row, one sample
per row, word-valued columns integer-encoded) and supply-graph directories
(four temporal CSVs ``<signal>.csv`` with a leading date column and one
column per product, edge CSVs ``edges_<kind>.csv`` with ``src,dst,label``
rows, and an optional ``products.csv`` with ``product,group,plant`` labels).
Synthetic generators emit the same shapes so the whole pipeline can be
exercised without the proprietary datasets.
"""

import csv
import os
import warnings
from dataclasses import dataclass, field
from datetime import date, timedelta
from itertools import zip_longest

import numpy as np

from chebnet.graph import DEFAULT_THRESHOLD, build_adjacency


class SchemaError(ValueError):
    """Input file does not match the expected schema."""


NODE_TASK = "node-class"
EDGE_TASK = "edge-class"

# Transaction-table feature columns (selected when all are present).
DATACO_FEATURES = (
    "Type",
    "Days for shipping (real)",
    "Days for shipment (scheduled)",
    "Benefit per order",
    "Sales per customer",
    "Latitude",
    "Longitude",
    "Order Item Discount",
    "Order Item Discount Rate",
    "Order Item Total",
    "Order Profit Per Order",
)
DATACO_TARGET = "Late_delivery_risk"

SG_SIGNALS = (
    "delivery_to_distributor",
    "factory_issue",
    "production",
    "sales_order",
)


@dataclass
class Dataset:
    """Feature windows plus targets for one classification task.

    ``features`` is (samples x channels) for node tasks and
    (nodes x node_features) for edge tasks, where ``targets`` then labels
    the rows of ``edges``.  ``channel_names`` names the nodes of the graph
    built from the features: a node task's channels (``ch<i>`` by default)
    or an edge task's nodes, the feature rows (``n<i>`` by default; products
    for supply-graph data).  ``conv_shape`` is the (channels, length) layout
    the convolutional branch reshapes one feature row into.
    """

    features: np.ndarray
    targets: np.ndarray
    task: str
    n_classes: int
    channel_names: tuple = ()
    edges: np.ndarray = None
    conv_shape: tuple = None
    n_dropped: int = 0
    class_names: tuple = ()

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if self.task not in (NODE_TASK, EDGE_TASK):
            raise ValueError(f"unknown task kind {self.task!r}")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain NaN or Inf")
        if self.task == EDGE_TASK:
            if self.edges is None:
                raise ValueError("edge-class dataset needs an edge list")
            self.edges = np.asarray(self.edges, dtype=np.int64)
            if self.edges.ndim != 2 or self.edges.shape[1] != 2:
                raise ValueError("edges must be an (E, 2) index array")
            n = self.features.shape[0]
            if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= n):
                raise ValueError("edge endpoint index out of range")
            if len(self.targets) != len(self.edges):
                raise ValueError("targets must label the edges")
        else:
            if len(self.targets) != len(self.features):
                raise ValueError("targets must label the samples")
        if self.targets.size and (
                self.targets.min() < 0 or self.targets.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        if not self.channel_names and self.task == EDGE_TASK:
            self.channel_names = tuple(
                f"n{i}" for i in range(self.features.shape[0]))
        elif not self.channel_names:
            self.channel_names = tuple(
                f"ch{i}" for i in range(self.features.shape[1]))
        if self.conv_shape is None:
            self.conv_shape = (1, self.features.shape[1])
        if self.conv_shape[0] * self.conv_shape[1] != self.features.shape[1]:
            raise ValueError("conv_shape must factor the feature width")
        if not self.class_names:
            self.class_names = tuple(f"class_{i}" for i in range(self.n_classes))

    @property
    def n_samples(self):
        return len(self.targets)


# ---------------------------------------------------------------------------
# normalization and windowing


def zscore_normalize(features):
    """Per-channel standardization with population std.

    Returns (normalized, mean, std); constant channels map to all zeros.
    The (mean, std) record reapplies the training statistics to test folds
    via ``apply_zscore``.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] < 2:
        raise ValueError("normalization needs at least 2 samples")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    return apply_zscore(x, mean, std), mean, std


def apply_zscore(features, mean, std):
    x = np.asarray(features, dtype=np.float64)
    safe = np.where(std > 0.0, std, 1.0)
    out = (x - mean) / safe
    out[:, std == 0.0] = 0.0
    return out


def window_series(series, window=20, stride=1):
    """Contiguous windows of a (T x P) series: returns (n, P, window).

    n = floor((T - window) / stride) + 1; windows are ordered by start index.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("series must be (time x products)")
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be positive")
    if x.shape[0] < window:
        raise ValueError(
            f"series length {x.shape[0]} shorter than window {window}")
    views = np.lib.stride_tricks.sliding_window_view(x, window, axis=0)
    return np.ascontiguousarray(views[::stride])


# ---------------------------------------------------------------------------
# transaction CSV loading


def _is_missing(value):
    return value is None or value.strip() == ""


def _read_csv(path, header_only=False):
    """Read a CSV file: (header, rows, header_lines).

    ``rows`` holds every record after the header that has a non-missing
    cell (none when ``header_only``); ``header_lines`` is the number of
    lines the header record spans.  An empty file, or a record csv cannot
    read (one with a field longer than ``csv.field_size_limit()``, say),
    raises SchemaError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            header_lines = reader.line_num
            rows = [] if header_only else [
                r for r in reader if any(not _is_missing(c) for c in r)]
    except csv.Error as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return header, rows, header_lines


def _parse_column(values):
    """Parse a column's cells, calling ``float()`` once per cell.

    Returns (parsed, numeric): ``parsed`` is a float array with NaN where a
    cell is missing or does not parse, and ``numeric`` says whether the
    column has a non-missing cell and at least half of those cells parse.
    """
    parsed = np.full(len(values), np.nan)
    seen = ok = 0
    for i, v in enumerate(values):
        if _is_missing(v):
            continue
        seen += 1
        try:
            parsed[i] = float(v)
            ok += 1
        except ValueError:
            pass
    return parsed, seen > 0 and ok * 2 >= seen


def _encode_first_appearance(values):
    codes = {}
    out = []
    for v in values:
        if v not in codes:
            codes[v] = len(codes)
        out.append(codes[v])
    return out, codes


# Bytes on which numpy's reader and the per-cell path disagree: numpy strips
# the separators \x1c-\x1f around a number and ``float()`` does not, and
# csv before Python 3.11 refuses NUL.
_PER_CELL_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _numpy_may_read(path):
    """Whether numpy's reader may parse the file without disagreeing with
    the per-cell path.

    Not when the file holds a byte of ``_PER_CELL_BYTES``, nor when a field
    could be longer than csv's field limit, which the per-cell path refuses
    and numpy does not: a field is that long only in a file that is, and
    within one line unless quoted.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if any(b in raw for b in _PER_CELL_BYTES):
        return False
    limit = csv.field_size_limit()
    if len(raw) <= limit:
        return True
    if b'"' in raw:
        return False
    start = 0     # a line start; every line before it is short enough
    while len(raw) - start > limit:
        end = max(raw.rfind(b"\n", start, start + limit + 1),
                  raw.rfind(b"\r", start, start + limit + 1))
        if end < 0:
            return False
        start = end + 1
    return True


def _parse_numeric(path, skiprows, usecols):
    """The ``usecols`` cells of every data row as one float array, parsed by
    numpy's C reader; None where the per-cell path must read the file.

    That is when ``_numpy_may_read`` says so, a cell does not parse as a
    number (a word, a missing cell, a spelling such as ``1_000`` that only
    ``float()`` takes), a row is too short, or the file has no data row or
    is not UTF-8.
    """
    if not _numpy_may_read(path):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # a header-only file warns
            return np.loadtxt(path, delimiter=",", usecols=usecols,
                              comments=None, quotechar='"',
                              encoding="utf-8-sig", ndmin=2,
                              skiprows=skiprows)
    except (ValueError, Warning):
        return None


def _parse_cells(path, usecols):
    """Per-cell parse of a transaction CSV: (features, targets, numeric, rows).

    Each feature column is parsed with ``_parse_column`` and, unless
    numeric, coded by first appearance.  ``targets`` is the parsed target
    column when ``numeric``, else its raw cells; ``rows`` counts the
    non-blank data rows.
    """
    _, rows, _ = _read_csv(path)

    def column(i):
        return [r[i] if i < len(r) else "" for r in rows]

    feats = np.empty((len(rows), len(usecols) - 1))
    for j, i in enumerate(usecols[:-1]):
        cells = column(i)
        parsed, numeric = _parse_column(cells)
        if not numeric:
            _, codes = _encode_first_appearance(
                v for v in cells if not _is_missing(v))
            parsed = [codes.get(v, np.nan) for v in cells]
        feats[:, j] = parsed
    raw_targets = column(usecols[-1])
    target_values, numeric = _parse_column(raw_targets)
    return (feats, target_values if numeric else raw_targets, numeric,
            len(rows))


def load_dataco(path, target_column=DATACO_TARGET, feature_columns=None):
    """Load a transaction CSV into a node-classification dataset.

    A column is numeric when at least half its non-missing cells parse as
    numbers; other columns become dense integer codes by first appearance.
    A row is dropped (count recorded on the dataset) when any feature cell
    or its target is missing, or, in a numeric column, unparseable or
    non-finite.  Numeric targets are remapped to dense labels by sorted
    value, so a 0/1 late-delivery flag keeps 1 = late.

    When every feature and target cell is a number that numpy's C reader
    parses, one ``np.loadtxt`` call reads the file; ``write_dataco_csv``
    output is such a file.  Any other file (a word column such as the real
    DataCo export's ``Type``, a missing cell, a ragged row, a spelling only
    Python's ``float()`` takes) is read cell by cell.  Both give the same
    dataset, bit for bit.
    """
    header, _, header_lines = _read_csv(path, header_only=True)
    header = [h.strip() for h in header]
    if target_column not in header:
        raise SchemaError(f"{path}: missing target column {target_column!r}")
    if feature_columns is None:
        if all(c in header for c in DATACO_FEATURES):
            feature_columns = list(DATACO_FEATURES)
        else:
            feature_columns = [c for c in header if c != target_column]
    missing = [c for c in feature_columns if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing feature columns {missing}")
    if not feature_columns:
        raise SchemaError(f"{path}: no feature columns")

    usecols = [header.index(c) for c in [*feature_columns, target_column]]
    table = _parse_numeric(path, header_lines, usecols)
    if table is None:
        feats, targets, target_numeric, n_rows = _parse_cells(path, usecols)
    else:
        feats, targets, target_numeric, n_rows = (
            table[:, :-1], table[:, -1], True, len(table))
    if target_numeric:
        usable = np.isfinite(targets)
    else:
        usable = np.array([not _is_missing(v) for v in targets], dtype=bool)
    keep = np.isfinite(feats).all(axis=1) & usable
    if not keep.any():
        raise ValueError(f"{path}: no rows left after cleaning")

    if target_numeric:
        values = targets[keep].tolist()
        uniq = sorted(set(values))
        remap = {v: i for i, v in enumerate(uniq)}
        labels = [remap[v] for v in values]
        class_names = tuple(str(v) for v in uniq)
    else:
        labels, codes = _encode_first_appearance(
            targets[i] for i in np.flatnonzero(keep))
        class_names = tuple(codes)
    return Dataset(
        features=feats[keep],
        targets=np.array(labels, dtype=np.int64),
        task=NODE_TASK,
        n_classes=len(class_names),
        channel_names=tuple(feature_columns),
        n_dropped=int(n_rows - keep.sum()),
        class_names=class_names,
    )


# ---------------------------------------------------------------------------
# supply-graph directory loading


def _parse_date(text):
    text = text.strip()
    for sep in ("-", "/"):
        parts = text.split(sep)
        if len(parts) == 3:
            try:
                return date(int(parts[0]), int(parts[1]), int(parts[2]))
            except ValueError:
                continue
    raise SchemaError(f"unparseable date {text!r}")


@dataclass
class SupplyGraphData:
    products: tuple
    series: dict                      # signal name -> (T x P) array
    edges: dict = field(default_factory=dict)   # kind -> (E x 2, E labels)
    groups: np.ndarray = None         # per-product group label or None
    group_names: tuple = ()


def _load_temporal_csv(path):
    header, rows, _ = _read_csv(path)
    products = tuple(h.strip() for h in header[1:])
    if not products:
        raise SchemaError(f"{path}: no product columns")
    repeated = [p for i, p in enumerate(products) if p in products[:i]]
    if repeated:
        raise SchemaError(f"{path}: product {repeated[0]!r} has more than "
                          f"one column")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    dated = []
    for r in rows:
        if len(r) != len(header):
            raise SchemaError(f"{path}: ragged row {r!r}")
        try:
            values = [float(v) for v in r[1:]]
        except ValueError:
            raise SchemaError(f"{path}: non-numeric value in row {r[0]!r}") from None
        dated.append((_parse_date(r[0]), values))
    dated.sort(key=lambda t: t[0])
    dates = [d for d, _ in dated]
    repeated = next((d for d, e in zip(dates, dates[1:]) if d == e), None)
    if repeated is not None:
        raise SchemaError(f"{path}: date {repeated} is listed in more than "
                          f"one row")
    return products, dates, np.array([v for _, v in dated], dtype=np.float64)


def _load_edge_csv(path, n_products):
    header, rows, _ = _read_csv(path)
    if [h.strip().lower() for h in header[:3]] != ["src", "dst", "label"]:
        raise SchemaError(f"{path}: expected header src,dst,label")
    edges, labels = [], []
    for r in rows:
        try:
            s, d, lab = int(r[0]), int(r[1]), int(r[2])
        except (ValueError, IndexError):
            raise SchemaError(f"{path}: bad edge row {r!r}") from None
        if not (0 <= s < n_products and 0 <= d < n_products):
            raise SchemaError(
                f"{path}: edge ({s},{d}) references a product index "
                f">= {n_products}")
        edges.append((s, d))
        labels.append(lab)
    if not edges:
        raise SchemaError(f"{path}: no edges")
    labels = np.array(labels, dtype=np.int64)
    uniq = np.unique(labels)
    remap = {v: i for i, v in enumerate(uniq.tolist())}
    dense = np.array([remap[v] for v in labels.tolist()], dtype=np.int64)
    return np.array(edges, dtype=np.int64), dense, tuple(str(v) for v in uniq)


def load_supplygraph(directory):
    """Load the four temporal CSVs plus any edge CSVs and product metadata.

    The four temporal files must agree on the product set and list the
    same dates; columns are realigned to the first file's order and rows
    are sorted by date.
    """
    series = {}
    products = None
    for name in SG_SIGNALS:
        path = os.path.join(directory, f"{name}.csv")
        if not os.path.exists(path):
            raise SchemaError(f"missing temporal file {path}")
        prods, dates, matrix = _load_temporal_csv(path)
        if products is None:
            products, first_dates = prods, dates
        else:
            if set(prods) != set(products):
                raise SchemaError(
                    f"{path}: product set differs from {SG_SIGNALS[0]}.csv")
            order = [prods.index(p) for p in products]
            matrix = matrix[:, order]
            if dates != first_dates:
                # the first sorted position where the dates differ
                here, there = next((d, r) for d, r in
                                   zip_longest(dates, first_dates) if d != r)
                raise SchemaError(
                    f"{path}: dates differ from {SG_SIGNALS[0]}.csv: "
                    f"{here or 'no row'} where it has {there or 'no row'}")
        series[name] = matrix

    data = SupplyGraphData(products=products, series=series)

    for entry in sorted(os.listdir(directory)):
        if entry.startswith("edges_") and entry.endswith(".csv"):
            kind = entry[len("edges_"):-len(".csv")]
            data.edges[kind] = _load_edge_csv(
                os.path.join(directory, entry), len(products))

    meta_path = os.path.join(directory, "products.csv")
    if os.path.exists(meta_path):
        header, meta_rows, _ = _read_csv(meta_path)
        if ([h.strip().lower() for h in header[:3]]
                != ["product", "group", "plant"]):
            raise SchemaError(f"{meta_path}: expected header product,group,plant")
        meta_rows = [r for r in meta_rows if not _is_missing(r[0])]
        short = [r for r in meta_rows if len(r) < 3]
        if short:
            raise SchemaError(f"{meta_path}: short row {short[0]!r}")
        groups = {r[0].strip(): r[1].strip() for r in meta_rows}
        missing = [p for p in products if p not in groups]
        if missing:
            raise SchemaError(f"{meta_path}: missing products {missing[:5]}")
        codes, names = _encode_first_appearance([groups[p] for p in products])
        data.groups = np.array(codes, dtype=np.int64)
        data.group_names = tuple(names)
    return data


def build_sg_node_dataset(sg, window=20, stride=1):
    """Product-group classification samples: one per (product, window start).

    Each sample concatenates the four signals' windows for one product
    (signal-major channel layout); the target is the product's group.
    """
    if sg.groups is None:
        raise SchemaError(
            "product-group task needs products.csv with group labels")
    windows = [window_series(sg.series[name], window, stride)
               for name in SG_SIGNALS]      # each (starts, products, window)
    n_starts = windows[0].shape[0]
    # (starts, products, signals, window) -> product-major rows
    feats = np.stack(windows, axis=2).transpose(1, 0, 2, 3).reshape(
        -1, len(SG_SIGNALS) * window)
    targets = np.repeat(sg.groups, n_starts)
    names = tuple(f"{sig}_t{j}" for sig in SG_SIGNALS for j in range(window))
    return Dataset(
        features=feats,
        targets=targets,
        task=NODE_TASK,
        n_classes=len(sg.group_names),
        channel_names=names,
        conv_shape=(len(SG_SIGNALS), window),
        class_names=sg.group_names,
    )


def build_sg_edge_dataset(sg, kind):
    """Edge-relation classification over products; node features are the
    concatenated temporal signals, and the products name the nodes."""
    if kind not in sg.edges:
        raise SchemaError(
            f"edge kind {kind!r} not found (have {sorted(sg.edges)})")
    edges, labels, label_names = sg.edges[kind]
    t = sg.series[SG_SIGNALS[0]].shape[0]
    feats = np.concatenate(
        [sg.series[name].T for name in SG_SIGNALS], axis=1)  # (P, 4T)
    return Dataset(
        features=feats,
        targets=labels,
        task=EDGE_TASK,
        n_classes=len(label_names),
        channel_names=sg.products,
        edges=edges,
        conv_shape=(len(SG_SIGNALS), t),
        class_names=label_names,
    )


# ---------------------------------------------------------------------------
# synthetic generation


def _orthonormal_directions(rng, n_channels, n_classes):
    if n_channels < n_classes:
        raise ValueError("need n_channels >= n_classes for separated means")
    q, _ = np.linalg.qr(rng.standard_normal((n_channels, n_classes)))
    return q[:, :n_classes]


def synth_generate(n_samples, n_channels, n_classes, separation, seed,
                   block_correlation=0.9, threshold=DEFAULT_THRESHOLD):
    """Class-conditional Gaussian dataset with a known channel graph.

    The leading channels are correlated in adjacent pairs at
    ``block_correlation`` (these carry the graph structure); class means of
    magnitude ``separation`` live on the trailing unpaired channels, so the
    class signal does not disturb the pair correlations.  The second return
    value is the adjacency built from the analytic correlation of the
    generating mixture, the ground truth for graph-recovery tests.
    """
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    if n_classes < 1:
        raise ValueError("need at least one class")
    rng = np.random.default_rng(seed)
    n_free = max(n_classes, (n_channels + 2) // 3)
    if n_free > n_channels:
        raise ValueError("need n_channels >= n_classes")
    n_pairs = (n_channels - n_free) // 2
    cov = np.eye(n_channels)
    for p in range(n_pairs):
        i = 2 * p
        cov[i, i + 1] = cov[i + 1, i] = block_correlation

    directions = np.zeros((n_channels, n_classes))
    directions[n_channels - n_free:] = _orthonormal_directions(
        rng, n_free, n_classes)
    means = separation * directions.T  # (n_classes, n_channels)

    counts = np.full(n_classes, n_samples // n_classes, dtype=np.int64)
    counts[: n_samples % n_classes] += 1

    # analytic mixture correlation: within-class cov + between-class cov
    w = counts / n_samples
    mbar = w @ means
    centered = means - mbar
    total_cov = cov + (centered.T * w) @ centered
    scale = 1.0 / np.sqrt(np.diag(total_cov))
    truth_corr = np.clip(total_cov * np.outer(scale, scale), -1.0, 1.0)
    np.fill_diagonal(truth_corr, 1.0)
    truth_adjacency = build_adjacency(truth_corr, threshold)

    chol = np.linalg.cholesky(cov)
    feats = np.empty((n_samples, n_channels))
    targets = np.empty(n_samples, dtype=np.int64)
    row = 0
    for c in range(n_classes):
        z = rng.standard_normal((counts[c], n_channels))
        feats[row:row + counts[c]] = means[c] + z @ chol.T
        targets[row:row + counts[c]] = c
        row += counts[c]
    order = rng.permutation(n_samples)
    dataset = Dataset(
        features=feats[order],
        targets=targets[order],
        task=NODE_TASK,
        n_classes=n_classes,
    )
    return dataset, truth_adjacency


# ---------------------------------------------------------------------------
# synthetic export (same formats the loaders read)


def _fmt(x):
    return repr(float(x))


def write_dataco_csv(dataset, path, target_column="target"):
    """Write a node dataset as a transaction-style CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.channel_names) + [target_column])
        for row, target in zip(dataset.features, dataset.targets):
            writer.writerow([_fmt(v) for v in row] + [int(target)])


def write_adjacency_csv(path, adjacency, channel_names):
    """Dense adjacency CSV with a header row of channel names."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(channel_names))
        for row in adjacency:
            writer.writerow([_fmt(v) for v in row])


def write_supplygraph_dir(directory, n_products=12, n_dates=40,
                          n_communities=2, n_plants=5, n_edges=80, seed=0):
    """Emit a synthetic supply-graph directory.

    Products in the same community share a latent signal per temporal file,
    so the loader-side correlation graph recovers the communities.  Edge
    labels are ordered community pairs (product-group file) and ordered
    plant pairs (plant file, n_plants**2 classes at most).
    """
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    comm = np.arange(n_products) % n_communities
    rng.shuffle(comm)
    plants = np.arange(n_products) % n_plants
    rng.shuffle(plants)
    products = [f"P{i:02d}" for i in range(n_products)]
    start = date(2023, 1, 1)
    dates = [(start + timedelta(days=t)).strftime("%Y-%m-%d")
             for t in range(n_dates)]

    for name in SG_SIGNALS:
        latent = np.cumsum(rng.standard_normal((n_communities, n_dates)),
                           axis=1)
        noise = 0.3 * rng.standard_normal((n_dates, n_products))
        matrix = latent[comm].T + noise
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date"] + products)
            for t in range(n_dates):
                writer.writerow([dates[t]] + [_fmt(v) for v in matrix[t]])

    with open(os.path.join(directory, "products.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product", "group", "plant"])
        for i, p in enumerate(products):
            writer.writerow([p, f"G{comm[i]}", f"PL{plants[i]}"])

    for kind, labels_of in (
            ("product_group", lambda s, d: comm[s] * n_communities + comm[d]),
            ("plant", lambda s, d: plants[s] * n_plants + plants[d])):
        src = rng.integers(0, n_products, size=n_edges)
        dst = rng.integers(0, n_products - 1, size=n_edges)
        dst = np.where(dst >= src, dst + 1, dst)
        path = os.path.join(directory, f"edges_{kind}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["src", "dst", "label"])
            for s, d in zip(src, dst):
                writer.writerow([int(s), int(d), int(labels_of(s, d))])
    return directory
