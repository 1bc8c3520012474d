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
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .operators import WeightVector, pair_count, pair_index, _triu
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
        # a read-only array that owns its data has been handed over, as
        # load_bundle hands over its parsed features: keep it; copy any other
        for name, arr in (("features", features), ("labels", labels)):
            if arr.flags.writeable or not arr.flags.owndata:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

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


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise BundleFormatError(f"{where}: not a decimal number: {text!r}") from None


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BundleFormatError(f"{where}: not an integer: {text!r}") from None


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise BundleFormatError(f"missing bundle file: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # the whole file is decoded at once, so exc.start is a file offset
        row = exc.object.count(b"\n", 0, exc.start) + 1
        raise BundleFormatError(f"{path.name} row {row}: not UTF-8 text") from None
    # rows end at "\n" or "\r\n"; a lone "\r" stays inside its row
    lines = text.replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_features(lines: list[str]) -> np.ndarray:
    """The rows of features.csv as an (n, d) float64 array.

    numpy parses a well-formed file.  It converts each value with CPython's
    string-to-double routine, so wherever float() accepts the same text the
    bits agree.  It skips blank lines, hence the row count check.  Whatever it
    refuses goes through the row loop, which accepts what float() accepts
    (``1_0`` is 10.0) and names the row of the first bad value.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt warns when every line is blank; the row count catches that
            warnings.simplefilter("ignore", UserWarning)
            features = np.loadtxt(lines, delimiter=",", comments=None,
                                  dtype=np.float64, ndmin=2)
    except ValueError:
        pass
    else:
        if features.shape[0] == len(lines):
            return features
    rows = []
    dim = None
    for ln, line in enumerate(lines, start=1):
        parts = line.split(",")
        if dim is None:
            dim = len(parts)
        elif len(parts) != dim:
            raise BundleFormatError(
                f"features.csv row {ln}: expected {dim} values, got {len(parts)}"
            )
        rows.append([_parse_float(p, f"features.csv row {ln}") for p in parts])
    return np.asarray(rows, dtype=np.float64)


def load_bundle(path) -> Dataset:
    """Load a bundle directory into a :class:`Dataset`.

    The node count comes from features.csv, so isolated nodes are fine.
    Raises :class:`BundleFormatError` with file and 1-based row number on any
    malformed row, non-finite feature, out-of-range endpoint, duplicate edge
    or self-loop.
    """
    root = Path(path)

    feat_lines = _read_lines(root / "features.csv")
    n = len(feat_lines)
    if n < 2:
        raise BundleFormatError(f"features.csv: need at least 2 nodes, got {n}")
    features = _parse_features(feat_lines)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise BundleFormatError(f"features.csv row {bad[0] + 1}: non-finite feature value")
    # read-only and owning its data, so the Dataset keeps it without a copy
    features.flags.writeable = False

    label_lines = _read_lines(root / "labels.csv")
    if not label_lines or label_lines[0] != "node,label":
        raise BundleFormatError('labels.csv row 1: header must be "node,label"')
    labels = np.full(n, -1, dtype=np.int64)
    for ln, line in enumerate(label_lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise BundleFormatError(f"labels.csv row {ln}: expected 2 fields")
        node = _parse_int(parts[0], f"labels.csv row {ln}")
        label = _parse_int(parts[1], f"labels.csv row {ln}")
        if not 0 <= node < n:
            raise BundleFormatError(f"labels.csv row {ln}: node {node} out of range")
        if labels[node] != -1:
            raise BundleFormatError(f"labels.csv row {ln}: node {node} labeled twice")
        # a label >= n would mean more classes than nodes
        if not 0 <= label < n:
            raise BundleFormatError(
                f"labels.csv row {ln}: label {label} outside [0, {n}) for {n} nodes")
        labels[node] = label
    unlabeled = np.flatnonzero(labels == -1)
    if unlabeled.size:
        raise BundleFormatError(f"labels.csv: node {int(unlabeled[0])} has no label")
    num_classes = int(labels.max()) + 1

    edge_lines = _read_lines(root / "edges.csv")
    if not edge_lines or edge_lines[0] != "src,dst,weight":
        raise BundleFormatError('edges.csv row 1: header must be "src,dst,weight"')
    weights = np.zeros(pair_count(n), dtype=np.float64)
    for ln, line in enumerate(edge_lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise BundleFormatError(f"edges.csv row {ln}: expected 3 fields")
        u = _parse_int(parts[0], f"edges.csv row {ln}")
        v = _parse_int(parts[1], f"edges.csv row {ln}")
        wgt = _parse_float(parts[2], f"edges.csv row {ln}")
        if u == v:
            raise BundleFormatError(f"edges.csv row {ln}: self-loop on node {u}")
        if u > v:
            raise BundleFormatError(f"edges.csv row {ln}: require src < dst, got {u},{v}")
        if not 0 <= u < n or not 0 <= v < n:
            raise BundleFormatError(f"edges.csv row {ln}: endpoint out of range (n={n})")
        if not math.isfinite(wgt) or wgt <= 0:
            raise BundleFormatError(f"edges.csv row {ln}: weight must be > 0, got {wgt}")
        k = pair_index(v + 1, u + 1, n)
        if weights[k - 1] != 0.0:
            raise BundleFormatError(f"edges.csv row {ln}: duplicate edge {u},{v}")
        weights[k - 1] = wgt

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
    bit-for-bit.  Pairs with weight <= ``weight_threshold`` are treated as
    absent edges; see :func:`check_weight_threshold`.
    """
    check_weight_threshold(weight_threshold)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    n = dataset.n

    rows, cols = _triu(n)
    values = dataset.graph.values
    with open(root / "edges.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst,weight\n")
        for k in np.flatnonzero(values > weight_threshold):
            fh.write(f"{rows[k]},{cols[k]},{float(values[k])!r}\n")

    with open(root / "features.csv", "w", encoding="utf-8", newline="\n") as fh:
        for row in dataset.features:
            fh.write(",".join(repr(x) for x in row.tolist()) + "\n")

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

    rows, cols = _triu(n)
    prob = np.where(labels[rows] == labels[cols], params.p_in, params.p_out)
    values = (rng.uniforms(prob.shape[0]) < prob).astype(np.float64)

    features = np.zeros((n, params.feature_dim), dtype=np.float64)
    features[np.arange(n), labels] = params.feature_signal
    noise = rng.uniforms(n * params.feature_dim).reshape(n, params.feature_dim)
    features += 2.0 * params.feature_noise * (noise - 0.5)

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
