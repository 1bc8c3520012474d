"""Synthetic graph-poisoning generators and perturbation reporting.

Both attacks only *add* unit-weight edges (the random and heterophilic
poisoning models studied here never remove structure).  Added pairs are
sampled uniformly among the eligible absent pairs: by rejection sampling
while the graph stays sparse, falling back to explicit enumeration of the
eligible set once more than half of all pairs would be in play.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .operators import WeightVector, _triu
from .rng import SplitMix64

__all__ = [
    "AttackBudgetError",
    "PerturbationReport",
    "random_add",
    "heterophilic_add",
    "perturbation_report",
]


class AttackBudgetError(ValueError):
    """An attack asks for more edges than there are eligible absent pairs."""


@dataclass(frozen=True)
class PerturbationReport:
    """Symmetric-difference statistics between a clean and a perturbed graph."""

    edges_added: int
    edges_removed: int
    added_cross_label_fraction: float
    mean_p_distance_added: float
    mean_p_distance_original: float


def _sample_absent(values: np.ndarray, count: int, rng: SplitMix64,
                   eligible: np.ndarray | None = None) -> np.ndarray:
    """``count`` distinct pair indices with zero weight, uniform over the
    eligible set (all absent pairs, or ``eligible & absent`` when a mask is
    given)."""
    total = values.shape[0]
    absent = values == 0.0
    if eligible is not None:
        absent &= eligible
    available = int(absent.sum())
    if count > available:
        raise AttackBudgetError(
            f"cannot add {count} edges: only {available} eligible absent pairs"
        )
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if available - count >= 0.5 * total:
        # sparse regime: rejection sampling stays cheap and allocation-free
        chosen: set[int] = set()
        picks = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            k = rng.bounded(total)
            if absent[k] and k not in chosen:
                chosen.add(k)
                picks[filled] = k
                filled += 1
        return picks
    candidates = np.flatnonzero(absent)
    return rng.choose(candidates, count)


def random_add(graph: WeightVector, rate: float, seed: int) -> WeightVector:
    """Add floor(rate * |E|) unit-weight edges uniformly among absent pairs.

    Original edges are untouched; deterministic for a fixed seed.
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    # tiny epsilon so exact products like 0.3 * 10 do not floor to 2
    count = int(rate * graph.edge_count + 1e-9)
    rng = SplitMix64(seed)
    picks = _sample_absent(graph.values, count, rng)
    values = graph.values.copy()
    values[picks] = 1.0
    return WeightVector(n=graph.n, values=values)


def heterophilic_add(dataset: Dataset, budget: int, seed: int) -> WeightVector:
    """Add ``budget`` unit-weight edges between differently labeled nodes.

    Pairs are sampled uniformly among absent cross-label pairs, mimicking
    poisoning that wires together nodes with distinct features.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    graph = dataset.graph
    rows, cols = _triu(graph.n)
    cross = dataset.labels[rows] != dataset.labels[cols]
    rng = SplitMix64(seed)
    picks = _sample_absent(graph.values, budget, rng, eligible=cross)
    values = graph.values.copy()
    values[picks] = 1.0
    return WeightVector(n=graph.n, values=values)


def _mean_p_distance(X: np.ndarray, pair_idx: np.ndarray, rows: np.ndarray,
                     cols: np.ndarray, p: float) -> float:
    if pair_idx.size == 0:
        return 0.0
    diffs = np.abs(X[cols[pair_idx]] - X[rows[pair_idx]])
    return float(np.mean((diffs**p).sum(axis=1)))


def perturbation_report(clean: WeightVector, perturbed: WeightVector,
                        dataset: Dataset, p: float = 2.0) -> PerturbationReport:
    """Exact added/removed counts plus label and feature-distance statistics."""
    if clean.n != perturbed.n or clean.n != dataset.n:
        raise ValueError(
            f"size mismatch: clean n={clean.n}, perturbed n={perturbed.n}, "
            f"dataset n={dataset.n}"
        )
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    added = np.flatnonzero((clean.values == 0.0) & (perturbed.values != 0.0))
    removed = np.flatnonzero((clean.values != 0.0) & (perturbed.values == 0.0))
    original = np.flatnonzero(clean.values != 0.0)

    rows, cols = _triu(clean.n)
    if added.size:
        cross = dataset.labels[rows[added]] != dataset.labels[cols[added]]
        cross_fraction = float(cross.mean())
    else:
        cross_fraction = 0.0

    return PerturbationReport(
        edges_added=int(added.size),
        edges_removed=int(removed.size),
        added_cross_label_fraction=cross_fraction,
        mean_p_distance_added=_mean_p_distance(dataset.features, added, rows, cols, p),
        mean_p_distance_original=_mean_p_distance(dataset.features, original, rows, cols, p),
    )
