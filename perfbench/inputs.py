"""Seeded inputs for the benchmark workloads, made with numpy alone.

Nothing here imports graphclean: the program receives only the files (or,
for the SBM pipeline, only the seed and sizes) that these functions produce.
Every function is a pure function of its seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Cora's class sizes (2708 nodes); the Cora-shaped bundle keeps these shares
CORA_CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)


def _class_labels(rng, n: int, sizes) -> np.ndarray:
    """Labels with class counts proportional to ``sizes``, in random order."""
    shares = np.asarray(sizes, dtype=np.float64) / sum(sizes)
    counts = np.floor(shares * n).astype(np.int64)
    remainder = shares * n - counts
    counts[np.argsort(-remainder, kind="stable")[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(sizes)), counts))


def _bag_of_words(rng, labels: np.ndarray, dim: int, words_per_row: float,
                  vocab_size: int, in_vocab: float) -> np.ndarray:
    """0/1 rows; most ones fall in a vocabulary that depends on the class."""
    classes = int(labels.max()) + 1
    vocab = [rng.choice(dim, vocab_size, replace=False) for _ in range(classes)]
    X = np.zeros((labels.size, dim), dtype=np.float64)
    for i, c in enumerate(labels):
        k = int(np.clip(rng.poisson(words_per_row), 4, 3 * words_per_row))
        k_in = rng.binomial(k, in_vocab)
        X[i, rng.choice(vocab[c], k_in, replace=False)] = 1.0
        X[i, rng.choice(dim, k - k_in, replace=False)] = 1.0
    return X


def _homophilous_edges(rng, labels: np.ndarray, m: int,
                       homophily: float) -> np.ndarray:
    """``m`` distinct undirected edges (u < v); a share ``homophily`` of the
    draws joins same-class nodes.  Node activity is heavy-tailed, so degrees
    spread the way citation graphs do."""
    n = labels.size
    activity = rng.pareto(2.5, n) + 1.0
    same = [np.flatnonzero(labels == c) for c in range(int(labels.max()) + 1)]
    other = [np.flatnonzero(labels != c) for c in range(len(same))]
    p_all = activity / activity.sum()
    edges = {}
    while len(edges) < m:
        u = int(rng.choice(n, p=p_all))
        pool = same[labels[u]] if rng.random() < homophily else other[labels[u]]
        weights = activity[pool]
        v = int(rng.choice(pool, p=weights / weights.sum()))
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), None)
    return np.array(list(edges), dtype=np.int64)


def _planetoid_split(rng, labels: np.ndarray, per_class: int, val: int,
                     test: int) -> dict:
    train = []
    for c in range(int(labels.max()) + 1):
        train.extend(rng.permutation(np.flatnonzero(labels == c))[:per_class].tolist())
    rest = rng.permutation(np.setdiff1d(np.arange(labels.size), train))
    return {"train": sorted(train), "val": sorted(rest[:val].tolist()),
            "test": sorted(rest[val:val + test].tolist())}


def write_bundle(path: Path, features: np.ndarray, labels: np.ndarray,
                 edges: np.ndarray, binary_features: bool = False,
                 split: dict | None = None) -> None:
    """Write the CSV bundle format the program reads (see its README)."""
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "features.csv", "w", encoding="utf-8", newline="\n") as fh:
        if binary_features:
            # '0'/'1' digits joined by commas, built as one byte array
            n, d = features.shape
            buf = np.full((n, 2 * d), ord(","), dtype=np.uint8)
            buf[:, 0::2] = features.astype(np.uint8) + ord("0")
            buf[:, -1] = ord("\n")
            fh.write(buf.tobytes().decode("ascii"))
        else:
            for row in features.tolist():
                fh.write(",".join(repr(x) for x in row) + "\n")
    with open(path / "labels.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,label\n")
        fh.writelines(f"{i},{c}\n" for i, c in enumerate(labels.tolist()))
    with open(path / "edges.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst,weight\n")
        fh.writelines(f"{u},{v},1.0\n" for u, v in edges.tolist())
    if split is not None:
        (path / "splits.json").write_text(json.dumps(split) + "\n", encoding="utf-8")


def cora_shape(seed: int) -> dict:
    """Cora-shaped dataset: 2485 nodes, 7 classes, 1433 sparse 0/1 features
    with about 18 ones per row, about 5.1k edges with homophily about 0.8,
    and a Planetoid split (20 per class / 500 / 1000)."""
    rng = np.random.default_rng([seed, 1])
    labels = _class_labels(rng, 2485, CORA_CLASS_SIZES)
    features = _bag_of_words(rng, labels, 1433, 18.0, vocab_size=150, in_vocab=0.7)
    edges = _homophilous_edges(rng, labels, 5069, homophily=0.8)
    split = _planetoid_split(rng, labels, 20, 500, 1000)
    return {"features": features, "labels": labels, "edges": edges, "split": split}


def poisoned_sbm(seed: int) -> dict:
    """2-block SBM, 150 nodes per block, with noisy one-hot features in d=8
    (average degree about 20), plus cross-block edges worth 25% of the clean
    edge count."""
    rng = np.random.default_rng([seed, 2])
    n, dim = 300, 8
    labels = np.repeat(np.arange(2), n // 2)
    rows, cols = np.triu_indices(n, 1)
    same = labels[rows] == labels[cols]
    clean = rng.random(rows.size) < np.where(same, 0.13, 0.003)
    absent_cross = np.flatnonzero(~same & ~clean)
    added = rng.choice(absent_cross, int(0.25 * clean.sum()), replace=False)
    present = clean.copy()
    present[added] = True
    features = 2.0 * np.eye(dim)[labels] + rng.uniform(-0.5, 0.5, (n, dim))
    edges = np.stack([rows[present], cols[present]], axis=1)
    return {"features": features, "labels": labels, "edges": edges}
