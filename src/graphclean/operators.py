"""Pair vectors, and the pair layout that only this module computes.

Pair k of n nodes is pair k of ``numpy.triu_indices(n, 1)`` and pair k+1 of
:func:`pair_index`; each row's pairs (i, j > i) form one contiguous block,
and no other module computes a pair position.  :func:`_rows` gives each
row's slice of pairs, :func:`pair_nodes` and :func:`pair_positions` map
positions to nodes and back, and :func:`_degrees` sums the values of listed
pairs into their nodes.  Code that reads every pair goes through
:func:`_block_layout`, which describes each block of consecutive pairs by
the row segments it holds, in O(n) memory; code that reads a list of pairs
goes through :func:`_listed_blocks`.  No pair index is built, and no n x n
matrix.
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
    "pair_positions",
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


def _rows(n: int):
    """Each row i = 0 .. n-2 with the slice of its pairs (i, j > i), in pair order."""
    for i, start in enumerate(_row_starts(n).tolist()):
        yield i, slice(start, start + n - 1 - i)


def pair_nodes(k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes (i, j), i < j, of pair positions ``k`` in [0, n(n-1)/2), in the
    order of ``k``; O(|k| log n), with no pair-length scratch."""
    k = np.asarray(k, dtype=np.int64)
    starts = _row_starts(n)
    i = np.searchsorted(starts, k, "right") - 1
    return i, k - starts[i] + i + 1


def pair_positions(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """The positions of the pairs (i, j), i < j, given as int64 node arrays;
    the inverse of :func:`pair_nodes`.  Allocates only the result."""
    # the pair (i, j) sits at j - i - 1 in row i's block
    k = _row_starts(n)[i]
    k += j
    k -= i
    k -= 1
    return k


class _Segments:
    """A block of consecutive pairs, held as the segments of the rows it spans:
    segment s holds the block's pairs ``edges[s]`` to ``edges[s + 1] - 1``,
    which are (nodes_of[s], j) with j in ``cols[s]``."""

    __slots__ = ("rows", "lens", "cols", "edges", "nodes_of", "shift")

    def __init__(self, rows, lens, cols, edges, nodes_of, shift):
        self.rows, self.lens, self.cols = rows, lens, cols
        self.edges, self.nodes_of, self.shift = edges, nodes_of, shift

    def sums(self, x, out, scratch=None):
        """x_i + x_j for the block's pairs (i, j), in ``out``: the column
        slices, then each row's entry repeated over its segment."""
        np.concatenate([x[c] for c in self.cols], out=out)
        out += np.repeat(x[self.rows], self.lens)
        return out

    def nodes(self, on):
        """The nodes (i, j), as int32, of the block's pairs at the sorted
        int32 positions ``on``."""
        at = np.searchsorted(on, self.edges)
        counts = at[1:] - at[:-1]
        return np.repeat(self.nodes_of, counts), on + np.repeat(self.shift, counts)


class _Listed:
    """A block of listed pairs, held as their nodes."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows, cols):
        self.rows, self.cols = rows, cols

    def sums(self, x, out, scratch):
        """x_i + x_j for the block's pairs (i, j), in ``out``, with ``scratch``
        as workspace (``take`` buffers ``out`` in any mode but clip)."""
        x.take(self.rows, out=out, mode="clip")
        out += x.take(self.cols, out=scratch, mode="clip")
        return out

    def nodes(self, on):
        """The nodes (i, j), as int32, of the block's pairs at the positions ``on``."""
        return self.rows[on], self.cols[on]


@lru_cache(maxsize=16)
def _block_layout(n: int, block: int) -> tuple[_Segments, ...]:
    """Every pair of n nodes in blocks of ``block`` consecutive pairs, each
    held as its row segments; O(n + m / block) in all, so kept per (n, block)."""
    m = pair_count(n)
    starts = _row_starts(n)
    # a segment starts at each row's first pair and at each block's
    cuts = np.sort(np.concatenate([starts, np.arange(0, m, block)]))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
    rows, cols = pair_nodes(cuts, n)
    lens = np.diff(cuts, append=m)
    offsets = cuts % block
    shift, nodes_of = (cols - offsets).astype(np.int32), rows.astype(np.int32)
    spans = tuple(slice(c, c + k) for c, k in zip(cols.tolist(), lens.tolist()))
    bounds = np.searchsorted(cuts, np.arange(0, m + block, block)).tolist()
    # each block's segment offsets followed by its length, so block b's edges
    # are edges[bounds[b] + b : bounds[b + 1] + b + 1]
    ends = np.minimum(m - np.arange(0, m, block), block)
    edges = np.insert(offsets, bounds[1:], ends).astype(np.int32)
    for shared in (lens, shift, nodes_of, edges):
        shared.flags.writeable = False  # every caller of the cache shares them
    first = rows.tolist()
    return tuple(_Segments(slice(first[a], first[e - 1] + 1), lens[a:e], spans[a:e],
                           edges[a + b:e + b + 1], nodes_of[a:e], shift[a:e])
                 for b, (a, e) in enumerate(zip(bounds, bounds[1:])))


def _listed_blocks(k, n: int, block: int) -> list[_Listed]:
    """The pairs at positions ``k`` in blocks of ``block``, each held as its nodes."""
    rows, cols = (side.astype(np.int32) for side in pair_nodes(k, n))
    return [_Listed(rows[k0:k0 + block], cols[k0:k0 + block])
            for k0 in range(0, rows.size, block)]


def same_label_pairs(labels: np.ndarray) -> np.ndarray:
    """Boolean pair vector: whether the two nodes of each pair share a label.

    Filled row block by row block, so no pair index is built.
    """
    n = labels.shape[0]
    out = np.empty(pair_count(n), dtype=bool)
    for i, row in _rows(n):
        np.equal(labels[i + 1:], labels[i], out=out[row])
    return out


def _degrees(values, rows, cols, out: np.ndarray) -> np.ndarray:
    """Adds S w into ``out`` and returns it, for the pairs (rows[k], cols[k])
    of weight values[k]: a bincount over the rows, in the order of ``values``,
    then one over the cols.  The program's one sum of pair values into nodes."""
    out += np.bincount(rows, values, out.size)
    out += np.bincount(cols, values, out.size)
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
