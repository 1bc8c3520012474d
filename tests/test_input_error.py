"""Refusals of input from outside the program raise InputError; internal
invariants keep raising plain ValueError."""

import math

import numpy as np
import pytest

from graphclean.attacks import heterophilic_add, random_add
from graphclean.datasets import (
    BundleFormatError,
    InputError,
    SbmParams,
    Split,
    check_finite,
    check_fractions,
    check_weight_threshold,
    load_bundle,
)
from graphclean.denoise import DenoiseConfig, pairwise_p_distances
from graphclean.gcn import GcnParams, TrainConfig, normalize_adjacency, train
from graphclean.operators import WeightVector
from graphclean.pipeline import AttackSpec, ExperimentConfig, sweep_configs

SBM = dict(nodes_per_block=5, blocks=2, p_in=0.5, p_out=0.1, feature_dim=4,
           feature_signal=1.0, feature_noise=0.5)
OLD_REPORT = {"sbm": SBM, "attack": {}, "train": {}, "fractions": [0.8, 0.1, 0.1],
              "repetitions": 1, "seed": 0, "denoise": {"step_mode": "fixed"}}
REPORT = {**OLD_REPORT, "denoise": {}}


def _train_on_empty_test_split(dataset):
    split = Split(train=[0, 1, 3, 4], val=[2, 5], test=[])
    train(dataset, normalize_adjacency(dataset.graph), split, TrainConfig(epochs=1))


# each takes the 6-node dataset of conftest
REFUSALS = {
    "sbm-params": lambda ds: SbmParams(**{**SBM, "blocks": 0}),
    "sbm-nan-noise": lambda ds: SbmParams(**{**SBM, "feature_noise": math.nan}),
    "attack-spec": lambda ds: AttackSpec(kind="bogus"),
    "attack-inf-rate": lambda ds: AttackSpec(kind="random", rate=math.inf),
    "denoise-config": lambda ds: DenoiseConfig(alpha=0.0),
    "denoise-nan-tol": lambda ds: DenoiseConfig(tol=math.nan),
    "train-config": lambda ds: TrainConfig(epochs=0),
    "train-nan-lr": lambda ds: TrainConfig(learning_rate=math.nan),
    "experiment-config": lambda ds: ExperimentConfig(),
    "from-dict": lambda ds: ExperimentConfig.from_dict(OLD_REPORT),
    "from-dict-unknown-key": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "extra": 1}),
    "from-dict-missing-section": lambda ds: ExperimentConfig.from_dict(
        {k: v for k, v in REPORT.items() if k != "train"}),
    "from-dict-unknown-section-key": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "attack": {"strength": 1.0}}),
    "from-dict-section-not-object": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "train": 5}),
    "from-dict-fractions-not-list": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "fractions": 3}),
    "from-dict-string-epochs": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "train": {"epochs": "ten"}}),
    "from-dict-string-repetitions": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "repetitions": "two"}),
    "from-dict-string-tol": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "denoise": {"tol": "x"}}),
    "from-dict-fractional-max-iters": lambda ds: ExperimentConfig.from_dict(
        {**REPORT, "denoise": {"max_iters": 2.5}}),
    "check-finite": lambda ds: check_finite(x=-math.inf),
    "check-fractions": lambda ds: check_fractions((0.5, 0.6, 0.1)),
    "check-weight-threshold": lambda ds: check_weight_threshold(-1.0),
    "sweep-configs": lambda ds: sweep_configs(
        ExperimentConfig(sbm=SbmParams(**SBM)), "alpha", [1.0]),
    "p-distances": lambda ds: pairwise_p_distances(np.eye(3), 0.5),
    "p-distances-nan": lambda ds: pairwise_p_distances(np.eye(3), math.nan),
    "random-budget": lambda ds: random_add(ds.graph, 100.0, 0),
    "heterophilic-budget": lambda ds: heterophilic_add(ds, 100, 0),
    "empty-split": _train_on_empty_test_split,
    "bundle": lambda ds: load_bundle("/nonexistent"),
}


@pytest.mark.parametrize("refusal", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_is_an_input_error_and_a_value_error(small_dataset, refusal):
    with pytest.raises(ValueError) as raised:
        refusal(small_dataset)
    assert isinstance(raised.value, InputError)


@pytest.mark.parametrize("refusal, message", [
    ("from-dict-unknown-key", "^config: unknown key 'extra'$"),
    ("from-dict-missing-section", "^config: missing key 'train'$"),
    ("from-dict-unknown-section-key", "^attack: unknown key 'strength'$"),
    ("from-dict-section-not-object", "^train must be an object, got 5$"),
    ("from-dict-fractions-not-list", "^fractions must be a list of numbers, got 3$"),
    ("from-dict-string-epochs", "^train.epochs must be an integer, got 'ten'$"),
    ("from-dict-string-repetitions", "^repetitions must be an integer, got 'two'$"),
    ("from-dict-string-tol", "^denoise.tol must be a number, got 'x'$"),
    ("from-dict-fractional-max-iters", "^denoise.max_iters must be an integer, got 2.5$"),
])
def test_from_dict_names_the_section_and_the_key(small_dataset, refusal, message):
    with pytest.raises(InputError, match=message):
        REFUSALS[refusal](small_dataset)


def test_from_dict_keeps_an_old_zero_tol():
    # tol = 0.0, the old default, now runs all max_iters
    config = ExperimentConfig.from_dict({**REPORT, "denoise": {"tol": 0.0, "max_iters": 7}})
    assert (config.denoise.tol, config.denoise.max_iters) == (0.0, 7)


def test_bundle_format_error_is_an_input_error():
    assert issubclass(BundleFormatError, InputError)


def test_check_finite_names_the_value():
    with pytest.raises(InputError, match="^alpha must be finite, got nan$"):
        check_finite(alpha=math.nan)
    check_finite(alpha=1.0, beta=0)


@pytest.mark.parametrize("invariant", [
    lambda: WeightVector(n=3, values=np.array([1.0, -1.0, 0.0])),
    lambda: GcnParams(W1=np.zeros((4, 3)), W2=np.zeros((2, 2))),
], ids=["negative-weight", "gcn-shape-mismatch"])
def test_internal_invariant_stays_a_plain_value_error(invariant):
    with pytest.raises(ValueError) as raised:
        invariant()
    assert type(raised.value) is ValueError
