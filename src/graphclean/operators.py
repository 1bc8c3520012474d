"""Pair vectors, and the pair layout that only this module computes.

Pair k of n nodes is pair k of ``numpy.triu_indices(n, 1)`` and pair k+1 of
:func:`pair_index`; each row's pairs (i, j > i) form one contiguous block.
:func:`pair_nodes` inverts this order for a few pairs, and
:func:`same_label_pairs` fills a pair mask row block by row block; code that
reads every pair builds ``triu_indices`` itself, which ``take`` and
``bincount`` use without a copy.  No pair-length array is cached, and no
n x n matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "WeightVector",
    "pair_count",
    "node_count_for_pairs",
    "pair_index",
    "pair_nodes",
    "same_label_pairs",
]


def pair_count(n: int) -> int:
    """Number of unordered node pairs, n(n-1)/2."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return n * (n - 1) // 2


def node_count_for_pairs(num_pairs: int) -> int:
    """Inverse of :func:`pair_count`; rejects lengths that are not triangular."""
    disc = 1 + 8 * num_pairs
    root = math.isqrt(disc)
    if root * root != disc:
        raise ValueError(f"{num_pairs} is not n(n-1)/2 for any integer n")
    n = (1 + root) // 2
    if n < 2 or pair_count(n) != num_pairs:
        raise ValueError(f"{num_pairs} is not n(n-1)/2 for any n >= 2")
    return n


def pair_index(i: int, j: int, n: int) -> int:
    """Canonical 1-based index k of the node pair (i, j) with i > j.

    k = i - j + (j-1)(2n-j)/2, a bijection from {(i,j) : 1 <= j < i <= n}
    onto {1, ..., n(n-1)/2}.
    """
    if n < 2:
        raise ValueError(f"node count must be >= 2, got {n}")
    if not (1 <= j < i <= n):
        raise ValueError(f"require 1 <= j < i <= n, got i={i}, j={j}, n={n}")
    return (i - j) + ((j - 1) * (2 * n - j)) // 2


@lru_cache(maxsize=64)
def _row_starts(n: int) -> np.ndarray:
    """Where the pairs (i, j > i) of each row i = 0 .. n-2 start; in pair
    order they form one contiguous, non-empty block per row."""
    i = np.arange(n - 1)
    starts = i * (n - 1) - i * (i - 1) // 2
    starts.flags.writeable = False
    return starts


def pair_nodes(k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes (i, j), i < j, of pair positions ``k`` in [0, n(n-1)/2), in the
    order of ``k``; O(|k| log n), with no pair-length scratch."""
    k = np.asarray(k, dtype=np.int64)
    starts = _row_starts(n)
    i = np.searchsorted(starts, k, "right") - 1
    return i, k - starts[i] + i + 1


def same_label_pairs(labels: np.ndarray) -> np.ndarray:
    """Boolean pair vector: whether the two nodes of each pair share a label.

    Filled row block by row block, so no pair index is built.
    """
    n = labels.shape[0]
    out = np.empty(pair_count(n), dtype=bool)
    for i, start in enumerate(_row_starts(n).tolist()):
        np.equal(labels[i + 1:], labels[i], out=out[start:start + n - 1 - i])
    return out


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only and owns its data, as a producer hands over
    a fresh array; else a read-only copy, which no other name can write to."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WeightVector:
    """Non-negative pair weights of an undirected graph on ``n`` nodes.

    ``values[k]`` is the weight of the pair with canonical 1-based index k+1;
    zero means the edge is absent.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"node count must be >= 2, got {self.n}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] != pair_count(self.n):
            raise ValueError(
                f"weight vector for n={self.n} must have length {pair_count(self.n)}, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("weight vector contains non-finite entries")
        if np.any(values < 0):
            raise ValueError("weight vector contains negative entries")
        object.__setattr__(self, "values", _read_only(values))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.values))


def _weight_array(w) -> np.ndarray:
    if isinstance(w, WeightVector):
        return w.values
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"weights must be a 1-D vector, got shape {arr.shape}")
    return arr
