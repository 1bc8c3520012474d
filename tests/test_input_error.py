"""Refusals of input from outside the program raise InputError; internal
invariants keep raising plain ValueError."""

import math

import numpy as np
import pytest

from graphclean.attacks import heterophilic_add, random_add
from graphclean.datasets import (
    BundleFormatError,
    Dataset,
    InputError,
    SbmParams,
    Split,
    check_finite,
    check_fractions,
    check_weight_threshold,
    load_bundle,
    load_splits,
    split_nodes,
)
from graphclean.denoise import DenoiseConfig, denoise, gradient, objective, pairwise_p_distances
from graphclean.gcn import GcnParams, TrainConfig, accuracy, normalize_adjacency, train
from graphclean.operators import WeightVector, node_count_for_pairs, pair_count, pair_index
from graphclean.pipeline import AttackSpec, ExperimentConfig, sweep_configs

SBM = dict(nodes_per_block=5, blocks=2, p_in=0.5, p_out=0.1, feature_dim=4,
           feature_signal=1.0, feature_noise=0.5)


def _train_on_empty_test_split(dataset):
    split = Split(train=[0, 1, 3, 4], val=[2, 5], test=[])
    train(dataset, normalize_adjacency(dataset.graph), split, TrainConfig(epochs=1), 0)


# each takes the 6-node dataset of conftest
REFUSALS = {
    "sbm-params": lambda ds: SbmParams(**{**SBM, "blocks": 0}),
    "sbm-nan-noise": lambda ds: SbmParams(**{**SBM, "feature_noise": math.nan}),
    "attack-spec": lambda ds: AttackSpec(kind="bogus"),
    "attack-inf-rate": lambda ds: AttackSpec(kind="random", rate=math.inf),
    "attack-ignored-rate": lambda ds: AttackSpec(rate=0.5),
    "denoise-config": lambda ds: DenoiseConfig(alpha=0.0),
    "denoise-nan-tol": lambda ds: DenoiseConfig(tol=math.nan),
    "train-config": lambda ds: TrainConfig(epochs=0),
    "train-nan-lr": lambda ds: TrainConfig(learning_rate=math.nan),
    "experiment-config": lambda ds: ExperimentConfig(),
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


def _edit_line(path, row, text):
    """Replace line ``row`` (0-based) of the text file ``path``."""
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[row] = text
    path.write_text("\n".join(lines), encoding="utf-8")


def _load_with_line(name, row, text):
    def load(bundle):
        _edit_line(bundle / name, row, text)
        return load_bundle(bundle)
    return load


def _load_splits(payload):
    def load(bundle):
        (bundle / "splits.json").write_text(payload, encoding="utf-8")
        return load_splits(bundle, 6)
    return load


# each takes the directory of conftest's 6-node bundle
NAMED_REFUSALS = {
    "labels-header": (_load_with_line("labels.csv", 0, "id,label"), BundleFormatError,
                      'labels.csv row 1: header must be "node,label"'),
    "edges-header": (_load_with_line("edges.csv", 0, "u,v,w"), BundleFormatError,
                     'edges.csv row 1: header must be "src,dst,weight"'),
    "splits-missing-part": (_load_splits('{"train": [0, 1], "val": [2]}'), BundleFormatError,
                            "splits.json: missing key 'test'"),
    "splits-negative-id": (_load_splits('{"train": [0, -1], "val": [2], "test": [3]}'),
                           BundleFormatError, "splits.json: split contains negative node ids"),
    "sbm-one-node": (lambda _: SbmParams(**{**SBM, "nodes_per_block": 1, "blocks": 1}),
                     InputError, "SBM needs at least 2 nodes in total"),
    "sbm-narrow-features": (lambda _: SbmParams(**{**SBM, "feature_dim": 1}), InputError,
                            "feature_dim must be >= blocks so each class has a one-hot "
                            "centroid"),
    "sbm-negative-noise": (lambda _: SbmParams(**{**SBM, "feature_noise": -0.5}), InputError,
                           "feature_noise must be >= 0"),
    "train-hidden-0": (lambda _: TrainConfig(hidden=0), InputError,
                       "hidden width must be >= 1, got 0"),
    "train-negative-lr": (lambda _: TrainConfig(learning_rate=-0.01), InputError,
                          "learning_rate must be >= 0, got -0.01"),
    "train-negative-decay": (lambda _: TrainConfig(weight_decay=-0.5), InputError,
                             "weight_decay must be >= 0, got -0.5"),
    "attack-negative-rate": (lambda _: AttackSpec(kind="random", rate=-0.5), InputError,
                             "rate must be >= 0, got -0.5"),
    "attack-negative-budget": (lambda _: AttackSpec(kind="heterophilic", budget=-3),
                               InputError, "budget must be >= 0, got -3"),
    "experiment-no-repetitions": (
        lambda _: ExperimentConfig(sbm=SbmParams(**SBM), repetitions=0), InputError,
        "repetitions must be >= 1, got 0"),
}


@pytest.mark.parametrize("refusal, error, message", NAMED_REFUSALS.values(),
                         ids=NAMED_REFUSALS.keys())
def test_refusal_names_what_is_wrong(bundle_dir, refusal, error, message):
    with pytest.raises(error) as raised:
        refusal(bundle_dir)
    assert type(raised.value) is error
    assert str(raised.value) == message


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


def _dataset(ds, **fields):
    return Dataset(**{"features": ds.features, "labels": ds.labels, "graph": ds.graph,
                      "num_classes": ds.num_classes, **fields})


# each takes the 6-node dataset of conftest; all are plain ValueErrors
INVARIANT_REFUSALS = {
    "random-negative-rate": (lambda ds: random_add(ds.graph, -0.5, 0),
                             "rate must be >= 0, got -0.5"),
    "heterophilic-negative-budget": (lambda ds: heterophilic_add(ds, -1, 0),
                                     "budget must be >= 0, got -1"),
    "dataset-1d-features": (lambda ds: _dataset(ds, features=np.zeros(6)),
                            "features must be 2-D, got shape (6,)"),
    "dataset-label-shape": (lambda ds: _dataset(ds, labels=np.zeros((6, 1))),
                            "labels must have shape (6,), got (6, 1)"),
    "dataset-no-classes": (lambda ds: _dataset(ds, num_classes=0),
                           "num_classes must be >= 1"),
    "dataset-label-range": (lambda ds: _dataset(ds, labels=[0, 0, 0, 1, 1, 2]),
                            "labels must lie in [0, num_classes)"),
    "dataset-graph-size": (lambda ds: _dataset(ds, graph=WeightVector(n=5, values=np.zeros(10))),
                           "graph has 5 nodes but features have 6 rows"),
    "split-negative-count": (lambda ds: split_nodes(-1, (0.5, 0.25, 0.25), 0),
                             "node count must be >= 0"),
    "p-distances-1d": (lambda ds: pairwise_p_distances(np.ones(3), 2.0),
                       "features must be 2-D, got shape (3,)"),
    "objective-lengths": (lambda ds: objective(ds.graph, np.zeros(10), np.zeros(15), 1.0, 1.0),
                          "expected pair vector of length 15 for n=6, got shape (10,)"),
    "gradient-lengths": (lambda ds: gradient(ds.graph, np.zeros(10), 1.0),
                         "expected pair vector of length 15 for n=6, got shape (10,)"),
    "denoise-feature-rows": (lambda ds: denoise(ds.graph, ds.features[:5], DenoiseConfig()),
                             "features must have 6 rows, got shape (5, 2)"),
    "gcn-nan-params": (lambda ds: GcnParams(W1=np.full((2, 3), math.nan), W2=np.zeros((3, 2))),
                       "parameters contain non-finite entries"),
    "accuracy-mask-range": (lambda ds: accuracy(np.zeros((6, 2)), ds.labels, [0, 6]),
                            "mask references nodes outside [0, 6)"),
    "pair-count-0": (lambda ds: pair_count(0), "node count must be >= 1, got 0"),
    "node-count-for-0-pairs": (lambda ds: node_count_for_pairs(0),
                               "0 is not n(n-1)/2 for any n >= 2"),
    "pair-index-one-node": (lambda ds: pair_index(2, 1, 1), "node count must be >= 2, got 1"),
    "weight-vector-one-node": (lambda ds: WeightVector(n=1, values=np.zeros(0)),
                               "node count must be >= 2, got 1"),
    "weight-vector-nan": (lambda ds: WeightVector(n=3, values=[1.0, math.nan, 0.0]),
                          "weight vector contains non-finite entries"),
    "weights-2d": (lambda ds: objective(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 1.0, 1.0),
                   "weights must be a 1-D vector, got shape (3, 3)"),
}


@pytest.mark.parametrize("refusal, message", INVARIANT_REFUSALS.values(),
                         ids=INVARIANT_REFUSALS.keys())
def test_invariant_refusal_names_what_is_wrong(small_dataset, refusal, message):
    with pytest.raises(ValueError) as raised:
        refusal(small_dataset)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message
