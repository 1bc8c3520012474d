"""Pair vectors: a weighted graph stored as its n(n-1)/2 pair weights.

The canonical pair enumeration is column-major over the lower triangle:
(2,1), (3,1), ..., (n,1), (3,2), ..., (n,n-1) in 1-based node ids, which
coincides with ``numpy.triu_indices(n, 1)`` order on the transpose.  The
denoiser works on pair vectors directly; the only dense matrix built here
is the adjacency the GCN normalises.
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
    "adjacency_from_weights",
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
def _triu(n: int):
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


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
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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


def adjacency_from_weights(w) -> np.ndarray:
    """Symmetric non-negative adjacency with zero diagonal from pair weights."""
    values = _weight_array(w)
    if np.any(values < 0):
        raise ValueError("adjacency weights must be non-negative")
    n = node_count_for_pairs(values.shape[0])
    rows, cols = _triu(n)
    W = np.zeros((n, n), dtype=np.float64)
    W[rows, cols] = values
    W += W.T
    return W
