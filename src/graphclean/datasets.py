"""Dataset containers, CSV bundle IO, synthetic SBM generation and node splits.

A *bundle* is a directory with three UTF-8 files whose rows end in LF or
CRLF (a lone CR is part of its row):

- ``edges.csv``    header ``src,dst,weight``; rows ``u,v,w`` with 0-based ids,
  ``u < v`` and decimal weight > 0; each undirected edge appears once.
- ``features.csv`` no header; line i holds the d comma-separated features of
  node i.  The number of lines defines the node count.
- ``labels.csv``   header ``node,label``; one row per node, covering every
  node exactly once.
- ``splits.json``  optional; object with ``train``/``val``/``test`` id arrays.

A bare 0/1 features.csv is read straight from its bytes.  Any other CSV file
goes through :func:`_table`, which parses it into an array and then runs each
of the file's checks once, on the whole array; the error names the first bad
row with the first check it fails, or why it does not parse.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .operators import (WeightVector, _read_only, pair_count, pair_nodes, pair_positions,
                        same_label_pairs)
from .rng import SplitMix64

__all__ = [
    "Dataset",
    "Split",
    "SbmParams",
    "InputError",
    "BundleFormatError",
    "load_bundle",
    "save_bundle",
    "load_splits",
    "save_splits",
    "generate_sbm",
    "check_finite",
    "features_are_binary",
    "check_fractions",
    "check_weight_threshold",
    "split_nodes",
]


class InputError(ValueError):
    """A value from outside the program (a flag, a config file, a report or a
    bundle) that the program refuses; the message says which and why."""


class BundleFormatError(InputError):
    """Malformed or inconsistent bundle contents; message carries file and row."""


def check_finite(**values) -> None:
    """Refuse a NaN or infinite value, named by its keyword."""
    for key, value in values.items():
        if not math.isfinite(value):
            raise InputError(f"{key} must be finite, got {value}")


def features_are_binary(X: np.ndarray) -> bool:
    """Whether every feature is 0 or 1.  Then
    :func:`graphclean.denoise.pairwise_p_distances` is the Hamming distance
    for every p, computed exactly from the Gram matrix, and
    :func:`save_bundle` writes the features as bare digits."""
    return bool(((X == 0.0) | (X == 1.0)).all())


@dataclass(frozen=True)
class Dataset:
    """Node features, labels and the graph, immutable after construction."""

    features: np.ndarray
    labels: np.ndarray
    graph: WeightVector
    num_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.num_classes:
            raise ValueError("labels must lie in [0, num_classes)")
        if self.graph.n != n:
            raise ValueError(
                f"graph has {self.graph.n} nodes but features have {n} rows"
            )
        object.__setattr__(self, "features", _read_only(features))
        object.__setattr__(self, "labels", _read_only(labels))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @cached_property
    def sparse_features(self):
        """The features as a :class:`graphclean.gcn.CsrMatrix` when at most
        one entry in 32 is nonzero, else None.  The GCN multiplies X before
        A_hat exactly when this is not None, and otherwise forms A_hat X once.
        Built on first use and kept, so every arm and repetition that trains
        on this dataset shares one."""
        from .gcn import _sparse  # gcn imports this module
        return _sparse(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Split:
    """Disjoint train/val/test node id sets, stored sorted."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            arr = np.sort(np.asarray(getattr(self, name), dtype=np.int64))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        combined = np.concatenate([self.train, self.val, self.test])
        if combined.size != np.unique(combined).size:
            raise ValueError("split parts must be pairwise disjoint")
        if combined.size and combined.min() < 0:
            raise ValueError("split contains negative node ids")

    def validate_for(self, n: int) -> None:
        for name in ("train", "val", "test"):
            arr = getattr(self, name)
            if arr.size and arr.max() >= n:
                raise ValueError(f"{name} split references node >= n={n}")

    def to_dict(self) -> dict:
        return {
            "train": self.train.tolist(),
            "val": self.val.tolist(),
            "test": self.test.tolist(),
        }


@dataclass(frozen=True)
class SbmParams:
    """Stochastic block model with label-aligned blocks and noisy one-hot features.

    Class c nodes get centroid ``feature_signal * e_c`` plus i.i.d. uniform
    noise in [-feature_noise, feature_noise] per coordinate.  The defaults
    are the command line's.
    """

    nodes_per_block: int = 50
    blocks: int = 2
    p_in: float = 0.2
    p_out: float = 0.01
    feature_dim: int = 8
    feature_signal: float = 2.0
    feature_noise: float = 0.5

    def __post_init__(self):
        check_finite(feature_signal=self.feature_signal, feature_noise=self.feature_noise)
        if self.nodes_per_block < 1 or self.blocks < 1:
            raise InputError("nodes_per_block and blocks must be positive")
        if self.nodes_per_block * self.blocks < 2:
            raise InputError("SBM needs at least 2 nodes in total")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise InputError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )
        if self.feature_dim < self.blocks:
            raise InputError(
                "feature_dim must be >= blocks so each class has a one-hot centroid"
            )
        if self.feature_noise < 0:
            raise InputError("feature_noise must be >= 0")


def _read_bytes(path: Path) -> bytes:
    if not path.is_file():
        raise BundleFormatError(f"missing bundle file: {path}")
    return path.read_bytes()


def _lines(data: bytes, name: str) -> list[str]:
    """The rows of the bundle file ``name``, whose bytes are ``data``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the whole file is decoded at once, so exc.start is a file offset
        row = exc.object.count(b"\n", 0, exc.start) + 1
        raise BundleFormatError(f"{name} row {row}: not UTF-8 text") from None
    # rows end at "\n" or "\r\n"; a lone "\r" stays inside its row
    lines = text.replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _binary_features(data: bytes) -> np.ndarray | None:
    """features.csv read straight from its bytes, or None unless every field
    is one digit 0 or 1, fields are separated by ",", every row ends in "\n"
    and has the first row's width, and there are at least 2 rows.

    Such a file holds 2d bytes per row of d features, so it is an (n, 2d)
    byte matrix whose even columns are the digits and whose odd columns are
    "," but for the last, "\n".  Any other file, CRLF, ``1.0`` or a missing
    final newline included, returns None and takes :func:`_table`.
    """
    width = data.find(b"\n") + 1
    if width < 2 or width % 2 or len(data) % width or len(data) < 2 * width:
        return None
    rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
    digits = rows[:, 0::2] - ord("0")  # uint8, so any byte below "0" wraps past 1
    ends = rows[:, 1::2]
    if ((digits > 1).any() or (ends[:, :-1] != ord(",")).any()
            or (ends[:, -1] != ord("\n")).any()):
        return None
    return digits.astype(np.float64)


def _row(line: str, kinds) -> list:
    """One row's fields through ``kinds``, int or float for each; a
    ValueError says what is wrong with the row."""
    fields = line.split(",")
    if len(fields) != len(kinds):
        raise ValueError(f"expected {len(kinds)} fields, got {len(fields)}")
    values = []
    for kind, text in zip(kinds, fields):
        try:
            values.append(kind(text))
        except ValueError:
            what = "an integer" if kind is int else "a decimal number"
            raise ValueError(f"not {what}: {text!r}") from None
    return values


# float64 holds every integer up to this exactly, and no id beyond it is in range
_EXACT_IDS = 2**53


def _table(lines: list[str], name: str, kinds, first_row: int, checks) -> np.ndarray:
    """The rows of the bundle file ``name`` as a float64 table with a column
    for each of ``kinds``: int for an id, float for a value.

    np.loadtxt parses a well-formed file, the ids through int().  It converts
    each value with CPython's string-to-double routine, so wherever float()
    accepts the same text the bits agree.  Any other file, one it refuses or
    one whose blank rows it skips, is read by :func:`_row` one row at a time
    up to the first row that does not parse.

    ``checks(table)`` gives (mask, message) pairs, each mask marking the rows
    that fail one check.  The error names the first bad row, numbered from
    ``first_row``, with the first check it fails, or else why it does not
    parse.  The message is formatted with that row's fields read again by
    :func:`_row`, so an id prints exactly.  The checks see ids as float64,
    which holds them exactly up to 2**53.  An id beyond that is out of range
    for any node count, but float64 can round two such ids alike, so a file
    with one is read by the row loop, where each such id becomes
    +-2**53 (2 + r), r its rank by magnitude: the checks order and compare
    those ids exactly.
    """
    ids = [i for i, kind in enumerate(kinds) if kind is int]
    try:
        with warnings.catch_warnings():
            # loadtxt warns when every row is blank; the shape check catches that
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64,
                               ndmin=2, converters={i: int for i in ids})
    except (ValueError, OverflowError):
        table = None
    refused = None
    if (table is None or table.shape != (len(lines), len(kinds))
            or (np.abs(table[:, ids]) >= _EXACT_IDS).any()):
        rows = []
        for line in lines:
            try:
                rows.append(_row(line, kinds))
            except ValueError as exc:
                refused = str(exc)
                break
        table = np.array(rows, dtype=object).reshape(len(rows), len(kinds))
        big = sorted({abs(x) for x in table[:, ids].flat if abs(x) > _EXACT_IDS})
        if big:
            stand_in = {x: float(_EXACT_IDS * (2 + r)) for r, x in enumerate(big)}
            for i in ids:
                table[:, i] = [x if abs(x) <= _EXACT_IDS else
                               stand_in[x] if x > 0 else -stand_in[-x] for x in table[:, i]]
        table = table.astype(np.float64)
    results = checks(table)
    failed = [(int(mask.argmax()), i) for i, (mask, _) in enumerate(results) if mask.any()]
    if failed:
        row, i = min(failed)
        message = results[i][1].format(*_row(lines[row], kinds))
    elif refused is not None:
        row, message = len(table), refused
    else:
        return table
    raise BundleFormatError(f"{name} row {row + first_row}: {message}")


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Whether each key equals one before it."""
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(keys.shape, dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return repeat


def _parse_labels(rows: list[str], n: int) -> np.ndarray:
    """labels.csv's rows after the header as the label of each of n nodes,
    -1 where a node has none."""
    def checks(table):
        node, label = table.T
        return [(~((0 <= node) & (node < n)), "node {0} out of range"),
                (_repeats(node), "node {0} labeled twice"),
                # a label >= n would mean more classes than nodes
                (~((0 <= label) & (label < n)), f"label {{1}} outside [0, {n}) for {n} nodes")]
    node, label = _table(rows, "labels.csv", (int, int), 2, checks).T.astype(np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    labels[node] = label
    return labels


def _parse_edges(rows: list[str], n: int) -> np.ndarray:
    """edges.csv's rows after the header as the pair vector of n nodes."""
    def positions(u, v):
        # a row without 0 <= u < v < n fails an earlier check and gets -1
        ok = (0 <= u) & (u < v) & (v < n)
        k = np.full(u.shape, -1, dtype=np.int64)
        k[ok] = pair_positions(u[ok].astype(np.int64), v[ok].astype(np.int64), n)
        return k

    def checks(table):
        u, v, w = table.T
        return [(u == v, "self-loop on node {0}"),
                (u > v, "require src < dst, got {0},{1}"),
                (~((0 <= u) & (u < n) & (0 <= v) & (v < n)), f"endpoint out of range (n={n})"),
                (~((w > 0) & np.isfinite(w)), "weight must be > 0, got {2}"),
                (_repeats(positions(u, v)), "duplicate edge {0},{1}")]
    u, v, w = _table(rows, "edges.csv", (int, int, float), 2, checks).T
    weights = np.zeros(pair_count(n), dtype=np.float64)
    weights[positions(u, v)] = w
    return weights


def load_bundle(path) -> Dataset:
    """Load a bundle directory into a :class:`Dataset`.

    The node count comes from features.csv, so isolated nodes are fine.
    Raises :class:`BundleFormatError` with file and 1-based row number of the
    first malformed row, non-finite feature, out-of-range endpoint, duplicate
    edge or self-loop.
    """
    root = Path(path)

    data = _read_bytes(root / "features.csv")
    features = _binary_features(data)
    if features is None:
        lines = _lines(data, "features.csv")
        if len(lines) < 2:
            raise BundleFormatError(f"features.csv: need at least 2 nodes, got {len(lines)}")
        features = _table(lines, "features.csv", (float,) * (lines[0].count(",") + 1), 1,
                          lambda X: [(~np.isfinite(X).all(axis=1), "non-finite feature value")])
    # read-only and owning its data, so the Dataset keeps it without a copy
    features.flags.writeable = False
    n = features.shape[0]

    label_lines = _lines(_read_bytes(root / "labels.csv"), "labels.csv")
    if not label_lines or label_lines[0] != "node,label":
        raise BundleFormatError('labels.csv row 1: header must be "node,label"')
    labels = _parse_labels(label_lines[1:], n)
    unlabeled = np.flatnonzero(labels == -1)
    if unlabeled.size:
        raise BundleFormatError(f"labels.csv: node {int(unlabeled[0])} has no label")
    num_classes = int(labels.max()) + 1

    edge_lines = _lines(_read_bytes(root / "edges.csv"), "edges.csv")
    if not edge_lines or edge_lines[0] != "src,dst,weight":
        raise BundleFormatError('edges.csv row 1: header must be "src,dst,weight"')
    weights = _parse_edges(edge_lines[1:], n)
    # read-only and owning its data, so the WeightVector keeps it without a copy
    weights.flags.writeable = False

    return Dataset(
        features=features,
        labels=labels,
        graph=WeightVector(n=n, values=weights),
        num_classes=num_classes,
    )


def save_bundle(dataset: Dataset, path, split: Split | None = None,
                weight_threshold: float = 0.0) -> None:
    """Write a dataset back out as a bundle; inverse of :func:`load_bundle`.

    Floats are written with ``repr`` so a reload reproduces the dataset
    bit-for-bit; features that are all 0 or 1, none of them -0.0, are
    written as bare digits, which :func:`load_bundle` reads straight from
    their bytes.  Pairs with weight <= ``weight_threshold`` are treated as
    absent edges; see :func:`check_weight_threshold`.
    """
    check_weight_threshold(weight_threshold)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    values = dataset.graph.values
    kept = np.flatnonzero(values > weight_threshold)
    rows, cols = pair_nodes(kept, dataset.n)
    with open(root / "edges.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst,weight\n")
        # Python ints and floats format as numpy scalars do, at a third of the cost
        for u, v, w in zip(rows.tolist(), cols.tolist(), values[kept].tolist()):
            fh.write(f"{u},{v},{w!r}\n")

    X = dataset.features
    with open(root / "features.csv", "wb") as fh:
        if features_are_binary(X) and not np.signbit(X).any():
            # each feature as its digit and a "," or, after a row's last, "\n"
            text = np.full(X.shape + (2,), ord(","), dtype=np.uint8)
            text[:, :, 0] = X + ord("0")
            text[:, -1:, 1] = ord("\n")
            fh.write(text.tobytes())
        else:
            for row in X:
                fh.write((",".join(repr(x) for x in row.tolist()) + "\n").encode())

    with open(root / "labels.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,label\n")
        for node, label in enumerate(dataset.labels.tolist()):
            fh.write(f"{node},{label}\n")

    if split is not None:
        save_splits(split, root / "splits.json")


def check_weight_threshold(threshold: float) -> float:
    """The threshold, if finite and >= 0: below 0, :func:`save_bundle` would
    write zero weights, which :func:`load_bundle` refuses."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise InputError(f"weight threshold must be finite and >= 0, got {threshold}")
    return threshold


def load_splits(path, n: int) -> Split | None:
    """Read splits.json if present; validates ids against the node count.

    Raises :class:`BundleFormatError` naming the file on invalid JSON, a
    missing part, an id that is not an integer, overlapping parts or an id
    out of range.
    """
    file = Path(path)
    if file.is_dir():
        file = file / "splits.json"
    if not file.is_file():
        return None
    try:
        payload = json.loads(file.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleFormatError(f"{file.name}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise BundleFormatError(
            f"{file.name}: expected an object with train, val and test lists")
    parts = {}
    for name in ("train", "val", "test"):
        if name not in payload:
            raise BundleFormatError(f"{file.name}: missing key {name!r}")
        ids = payload[name]
        # type(i) is int also refuses bools, which json gives for true/false
        if not isinstance(ids, list) or not all(type(i) is int for i in ids):
            raise BundleFormatError(f"{file.name}: {name} must be a list of integer node ids")
        parts[name] = ids
    try:
        split = Split(**parts)
        split.validate_for(n)
    except (ValueError, OverflowError) as exc:
        raise BundleFormatError(f"{file.name}: {exc}") from None
    return split


def save_splits(split: Split, path) -> None:
    Path(path).write_text(json.dumps(split.to_dict()) + "\n", encoding="utf-8")


def generate_sbm(params: SbmParams, seed: int) -> Dataset:
    """Sample a block-structured dataset; node labels are block ids.

    Deterministic for a fixed seed: pair Bernoulli draws happen in canonical
    pair order, then feature noise row by row, all from one SplitMix64 stream.
    """
    n = params.nodes_per_block * params.blocks
    labels = np.arange(n, dtype=np.int64) // params.nodes_per_block
    rng = SplitMix64(seed)

    prob = np.where(same_label_pairs(labels), params.p_in, params.p_out)
    values = (rng.uniforms(prob.shape[0]) < prob).astype(np.float64)

    features = np.zeros((n, params.feature_dim), dtype=np.float64)
    features[np.arange(n), labels] = params.feature_signal
    noise = rng.uniforms(n * params.feature_dim).reshape(n, params.feature_dim)
    features += 2.0 * params.feature_noise * (noise - 0.5)
    # fresh arrays, so the Dataset and WeightVector keep them without a copy
    for arr in (labels, values, features):
        arr.flags.writeable = False

    return Dataset(
        features=features,
        labels=labels,
        graph=WeightVector(n=n, values=values),
        num_classes=params.blocks,
    )


def check_fractions(fractions) -> list[float]:
    """The (train, val, test) fractions as floats: each finite and >= 0, summing to <= 1."""
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3:
        raise InputError("fractions must be (train, val, test)")
    if not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise InputError(f"fractions must be non-negative and finite, got {fractions}")
    if sum(fractions) > 1.0 + 1e-12:
        raise InputError(f"fractions sum to {sum(fractions)} > 1")
    return fractions


def _largest_remainder_sizes(n: int, fractions) -> list[int]:
    """Integer sizes for the requested fractions by the largest-remainder rule.

    Total = floor(n * sum(fractions) + 0.5); each part starts at
    floor(n * f_i) and leftovers go to the largest fractional remainders,
    ties broken by position.
    """
    fractions = check_fractions(fractions)
    ideals = [n * f for f in fractions]
    sizes = [math.floor(x) for x in ideals]
    total = math.floor(n * sum(fractions) + 0.5)
    leftovers = total - sum(sizes)
    order = sorted(range(len(fractions)), key=lambda i: (-(ideals[i] - sizes[i]), i))
    for i in order[:leftovers]:
        sizes[i] += 1
    return sizes


def split_nodes(n: int, fractions, seed: int) -> Split:
    """Uniformly random disjoint train/val/test subsets of the requested sizes."""
    if n < 0:
        raise ValueError("node count must be >= 0")
    sizes = _largest_remainder_sizes(n, fractions)
    perm = np.arange(n, dtype=np.int64)
    SplitMix64(seed).shuffle(perm)
    a, b, c = sizes
    return Split(train=perm[:a], val=perm[a:a + b], test=perm[a + b:a + b + c])
