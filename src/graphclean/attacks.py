"""Synthetic graph-poisoning generators and perturbation reporting.

Both attacks only *add* unit-weight edges (the random and heterophilic
poisoning models studied here never remove structure).  Added pairs are
drawn uniformly among the eligible absent pairs by :meth:`SplitMix64.choose`
(Floyd's algorithm): exactly one draw per added edge at any density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, InputError
from .operators import WeightVector, pair_nodes, same_label_pairs
from .rng import SplitMix64

__all__ = [
    "PerturbationReport",
    "rate_budget",
    "random_add",
    "heterophilic_add",
    "perturbation_report",
]


@dataclass(frozen=True)
class PerturbationReport:
    """Symmetric-difference statistics between a clean and a perturbed graph."""

    edges_added: int
    edges_removed: int
    added_cross_label_fraction: float
    mean_p_distance_added: float
    mean_p_distance_original: float


def _add_absent(graph: WeightVector, count: int, seed: int,
                eligible: np.ndarray | None = None) -> WeightVector:
    """``graph`` with unit weight on ``count`` distinct pairs of zero weight,
    drawn uniformly over the eligible set (all absent pairs, or
    ``eligible & absent`` when a mask is given)."""
    absent = graph.values == 0.0
    if eligible is not None:
        absent &= eligible
    candidates = np.flatnonzero(absent)
    if count > candidates.size:
        raise InputError(
            f"cannot add {count} edges: only {candidates.size} eligible absent pairs"
        )
    picks = SplitMix64(seed).choose(candidates, count)
    del absent, candidates  # the candidate list is as large as the copy
    values = graph.values.copy()
    values[picks] = 1.0
    values.flags.writeable = False  # fresh, so the WeightVector keeps it
    return WeightVector(n=graph.n, values=values)


def rate_budget(graph: WeightVector, rate: float) -> int:
    """floor(rate * |E|), the number of edges an attack at ``rate`` adds."""
    # tiny epsilon so exact products like 0.3 * 10 do not floor to 2
    budget = rate * graph.edge_count + 1e-9
    if not math.isfinite(budget):
        raise InputError(f"budget is not finite: rate {rate} of {graph.edge_count} edges")
    return int(budget)


def random_add(graph: WeightVector, rate: float, seed: int) -> WeightVector:
    """Add floor(rate * |E|) unit-weight edges uniformly among absent pairs.

    Original edges are untouched; deterministic for a fixed seed.
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    return _add_absent(graph, rate_budget(graph, rate), seed)


def heterophilic_add(dataset: Dataset, budget: int, seed: int) -> WeightVector:
    """Add ``budget`` unit-weight edges between differently labeled nodes.

    Pairs are sampled uniformly among absent cross-label pairs, mimicking
    poisoning that wires together nodes with distinct features.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return _add_absent(dataset.graph, budget, seed, eligible=~same_label_pairs(dataset.labels))


def _mean(d_p: np.ndarray, pair_idx: np.ndarray) -> float:
    return float(np.mean(d_p[pair_idx])) if pair_idx.size else 0.0


def perturbation_report(clean: WeightVector, perturbed: WeightVector,
                        dataset: Dataset, d_p: np.ndarray) -> PerturbationReport:
    """Exact added/removed counts plus label and feature-distance statistics.

    The mean distances are means of ``d_p``, the denoiser's pair vector of
    feature distances, over the added pairs and over the clean edges.
    """
    if not clean.n == perturbed.n == dataset.n or d_p.shape != clean.values.shape:
        raise ValueError(
            f"size mismatch: clean n={clean.n}, perturbed n={perturbed.n}, "
            f"dataset n={dataset.n}, d_p shape {d_p.shape}"
        )
    added = np.flatnonzero((clean.values == 0.0) & (perturbed.values != 0.0))
    removed = np.flatnonzero((clean.values != 0.0) & (perturbed.values == 0.0))
    original = np.flatnonzero(clean.values != 0.0)

    if added.size:
        rows, cols = pair_nodes(added, clean.n)
        cross = dataset.labels[rows] != dataset.labels[cols]
        cross_fraction = float(cross.mean())
    else:
        cross_fraction = 0.0

    return PerturbationReport(
        edges_added=int(added.size),
        edges_removed=int(removed.size),
        added_cross_label_fraction=cross_fraction,
        mean_p_distance_added=_mean(d_p, added),
        mean_p_distance_original=_mean(d_p, original),
    )
