"""Experiment orchestration: attack/denoise/train pipelines and sweeps.

Every repetition derives its own seeds from the base seed and the repetition
index, then runs three arms on the same split with the same classifier init:
``clean`` (original graph), ``poisoned`` (attacked graph) and ``denoised``
(Stage 1 output of the attacked graph).  ``sweep`` keeps those seeds fixed
across parameter values so the resulting curves are paired.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .attacks import heterophilic_add, perturbation_report, random_add, rate_budget
from .datasets import (
    Dataset,
    InputError,
    SbmParams,
    Split,
    _largest_remainder_sizes,
    check_finite,
    check_fractions,
    features_are_binary,
    generate_sbm,
    load_bundle,
    load_splits,
    split_nodes,
)
from .denoise import DenoiseConfig, denoise, pairwise_p_distances
from .gcn import TrainConfig, normalize_adjacency, train
from .operators import WeightVector
from .rng import derive_seed

__all__ = [
    "AttackSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "PipelineStageError",
    "ARMS",
    "apply_attack",
    "run_configs",
    "run_pipeline",
    "sweep",
    "sweep_configs",
    "write_report_json",
    "write_report_csv",
]

ARMS = ("clean", "poisoned", "denoised")

# stream ids for per-repetition seed derivation; 4 belonged to the denoiser,
# which takes no seed, and stays unused so training seeds keep their values
_DATASET, _SPLIT, _ATTACK, _TRAIN = 1, 2, 3, 5

# each sweepable parameter and the config section that holds it
SWEEPABLE = {"rate": "attack", "beta": "denoise", "p": "denoise"}


class PipelineStageError(RuntimeError):
    """Wraps a failure with the stage name and repetition index."""

    def __init__(self, stage: str, repetition: int, cause: Exception):
        super().__init__(f"repetition {repetition}, stage {stage}: {cause}")
        self.stage = stage
        self.repetition = repetition
        self.__cause__ = cause


@dataclass(frozen=True)
class AttackSpec:
    """Poisoning applied to each repetition's graph.

    ``random`` adds floor(rate * |E|) edges.  ``heterophilic`` adds ``budget``
    cross-label edges, or floor(rate * |E|) of them when budget == 0, so
    intensity can be stated relative to the clean edge count.  A rate or a
    budget that the kind ignores is refused.
    """

    kind: str = "none"
    rate: float = 0.0
    budget: int = 0

    def __post_init__(self):
        check_finite(rate=self.rate)
        if self.kind not in ("none", "random", "heterophilic"):
            raise InputError(f"unknown attack kind {self.kind!r}")
        if self.rate < 0:
            raise InputError(f"rate must be >= 0, got {self.rate}")
        if self.budget < 0:
            raise InputError(f"budget must be >= 0, got {self.budget}")
        if self.budget and self.kind != "heterophilic":
            raise InputError(f"budget applies to the heterophilic attack only, "
                             f"got budget {self.budget} with kind {self.kind!r}")
        if self.rate and (self.kind == "none" or self.budget):
            raise InputError(f"rate applies to the random attack and to the heterophilic "
                             f"attack without a budget, got rate {self.rate} with kind "
                             f"{self.kind!r} and budget {self.budget}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run needs; exactly one dataset source is set."""

    bundle: str | None = None
    sbm: SbmParams | None = None
    attack: AttackSpec = field(default_factory=AttackSpec)
    denoise: DenoiseConfig = field(default_factory=DenoiseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    fractions: tuple = (0.8, 0.1, 0.1)
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if (self.bundle is None) == (self.sbm is None):
            raise InputError("exactly one of bundle or sbm must be set")
        if self.repetitions < 1:
            raise InputError(f"repetitions must be >= 1, got {self.repetitions}")
        check_fractions(self.fractions)


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    repetitions: list
    aggregates: dict


def _aggregate(records: list, arms=ARMS) -> dict:
    out = {}
    for arm in arms:
        values = np.array([r["accuracy"][arm] for r in records], dtype=np.float64)
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        out[arm] = {"mean": float(values.mean()), "std": std}
    return out


def apply_attack(dataset: Dataset, attack: AttackSpec, seed: int) -> WeightVector:
    """Poison ``dataset``'s graph as :class:`AttackSpec` describes."""
    if attack.kind == "none":
        return dataset.graph
    if attack.kind == "random":
        return random_add(dataset.graph, attack.rate, seed)
    budget = attack.budget or rate_budget(dataset.graph, attack.rate)
    return heterophilic_add(dataset, budget, seed)


def _stage(stage: str, repetition: int, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineStageError(stage, repetition, exc) from exc


def run_repetition(config: ExperimentConfig, r: int,
                   bundle_dataset: Dataset | None = None,
                   bundle_split: Split | None = None,
                   shared_d_p: np.ndarray | None = None) -> dict:
    """One repetition: build data, poison, run the three arms, record results.

    A bundle config takes its data from ``bundle_dataset``, its distances
    from ``shared_d_p`` and, when the bundle pins one, its split from
    ``bundle_split``; the caller supplies all three.  The one ``d_p`` feeds
    the attack report and the denoiser.
    """
    rep_seed = derive_seed(config.seed, r)

    if config.sbm is not None:
        dataset = _stage("dataset", r, generate_sbm, config.sbm,
                         derive_seed(rep_seed, _DATASET))
    else:
        dataset = bundle_dataset

    if bundle_split is not None:
        split = bundle_split
    else:
        split = _stage("split", r, split_nodes, dataset.n, config.fractions,
                       derive_seed(rep_seed, _SPLIT))

    poisoned = _stage("attack", r, apply_attack, dataset, config.attack,
                      derive_seed(rep_seed, _ATTACK))

    d_p = shared_d_p
    if d_p is None:
        d_p = _stage("distances", r, pairwise_p_distances, dataset.features,
                     config.denoise.p)
    attack_stats = perturbation_report(dataset.graph, poisoned, dataset, d_p)
    result = _stage("denoise", r, denoise, poisoned, dataset.features,
                    config.denoise, d_p=d_p)

    train_seed = derive_seed(rep_seed, _TRAIN)
    accuracies, training = {}, {}
    for arm, weights in (("clean", dataset.graph), ("poisoned", poisoned),
                         ("denoised", result.weights)):
        a_hat = normalize_adjacency(weights)
        _, report = _stage(f"train[{arm}]", r, train, dataset, a_hat, split,
                           config.train, train_seed)
        accuracies[arm] = report.test_accuracy
        training[arm] = {"epochs": len(report.loss_trace),
                         "best_val_epoch": report.best_val_epoch}

    clean_edges = dataset.graph.edge_count
    return {
        "repetition": r,
        "seed": rep_seed,
        "attack": {
            **asdict(attack_stats),
            "added_fraction_of_clean": (
                attack_stats.edges_added / clean_edges if clean_edges else 0.0
            ),
        },
        "denoise": {**result.summary(),
                    "final_objective": float(result.objective_trace[-1])},
        "train": training,
        "accuracy": accuracies,
    }


def _check_split_sizes(config: ExperimentConfig, bundle_dataset: Dataset | None,
                       bundle_split: Split | None) -> None:
    """Refuse a split that leaves a part empty, as training would."""
    parts = ("train", "val", "test")
    if bundle_split is not None:
        sizes = [getattr(bundle_split, name).size for name in parts]
        source = "splits.json has"
    else:
        n = (bundle_dataset.n if bundle_dataset is not None
             else config.sbm.nodes_per_block * config.sbm.blocks)
        sizes = _largest_remainder_sizes(n, config.fractions)
        source = f"fractions {list(config.fractions)} of {n} nodes give"
    for name, size in zip(parts, sizes):
        if size == 0:
            raise InputError(f"{name} split must be non-empty: {source} "
                             f"{'/'.join(map(str, sizes))} train/val/test nodes")


def run_configs(configs: list) -> list[ExperimentReport]:
    """Run each config in turn; all share one dataset source.

    A bundle is loaded once, and its distances are computed once for each
    run of consecutive configs with the same ``p``, or once in all when its
    features are all 0 or 1, since ``d_p`` is then the same for every ``p``.
    A split with an empty part is refused before any repetition runs.
    """
    bundle_dataset = bundle_split = None
    if configs[0].bundle is not None:
        bundle_dataset = load_bundle(configs[0].bundle)
        bundle_split = load_splits(configs[0].bundle, bundle_dataset.n)
    for config in configs:
        _check_split_sizes(config, bundle_dataset, bundle_split)
    # (p, d_p) of the last distances computed, so one pair vector is held
    distances = (None, None)
    reports = []
    for config in configs:
        if bundle_dataset is not None and distances[0] != config.denoise.p and (
                distances[1] is None or not features_are_binary(bundle_dataset.features)):
            distances = (config.denoise.p,
                         pairwise_p_distances(bundle_dataset.features, config.denoise.p))
        records = [
            run_repetition(config, r, bundle_dataset, bundle_split, distances[1])
            for r in range(config.repetitions)
        ]
        reports.append(ExperimentReport(
            config=asdict(config),
            repetitions=records,
            aggregates=_aggregate(records),
        ))
    return reports


def run_pipeline(config: ExperimentConfig) -> ExperimentReport:
    """Run all repetitions and aggregate mean +- sample std per arm."""
    return run_configs([config])[0]


def sweep_configs(config: ExperimentConfig, parameter: str, values) -> list[ExperimentConfig]:
    """One config per value with unchanged seeds, so curves are paired.

    Every config is built, and so checked, before any of them runs.
    """
    if parameter not in SWEEPABLE:
        raise InputError(f"parameter must be one of {tuple(SWEEPABLE)}, got {parameter!r}")
    values = list(values)
    if not values:
        raise InputError("sweep needs at least one value")
    section = SWEEPABLE[parameter]
    held = getattr(config, section)
    return [dataclasses.replace(
                config, **{section: dataclasses.replace(held, **{parameter: float(value)})})
            for value in values]


def sweep(config: ExperimentConfig, parameter: str, values) -> list[ExperimentReport]:
    """One report per value of ``parameter``; see :func:`sweep_configs`."""
    return run_configs(sweep_configs(config, parameter, values))


def report_json_text(report) -> str:
    """Stable JSON rendering for a report, a list of reports or a dict, which
    is rendered as it is."""
    if isinstance(report, list):
        payload = [asdict(r) for r in report]
    else:
        payload = report if isinstance(report, dict) else asdict(report)
    return json.dumps(payload, indent=2) + "\n"


def write_report_json(report, path) -> None:
    Path(path).write_text(report_json_text(report), encoding="utf-8")


def write_report_csv(report, path) -> None:
    """One row per (arm, repetition) for external plotting tools."""
    reports = report if isinstance(report, list) else [report]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["report", "arm", "repetition", "seed", "test_accuracy"])
        for idx, rep in enumerate(reports):
            for record in rep.repetitions:
                for arm in ARMS:
                    writer.writerow([
                        idx, arm, record["repetition"], record["seed"],
                        repr(record["accuracy"][arm]),
                    ])
