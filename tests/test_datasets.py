"""Bundle IO, SBM generation and node splits."""

import math

import numpy as np
import pytest

from graphclean.datasets import (
    BundleFormatError,
    Dataset,
    SbmParams,
    Split,
    generate_sbm,
    load_bundle,
    load_splits,
    save_bundle,
    split_nodes,
)
from graphclean.operators import WeightVector, _triu, pair_count
from graphclean.rng import SplitMix64


def rewrite_edges(bundle, rows):
    (bundle / "edges.csv").write_text(
        "src,dst,weight\n" + "".join(r + "\n" for r in rows), encoding="utf-8")


class TestLoadBundle:
    def test_round_trip_identity(self, tmp_path, small_dataset, bundle_dir):
        loaded = load_bundle(bundle_dir)
        save_bundle(loaded, tmp_path / "again")
        reloaded = load_bundle(tmp_path / "again")
        np.testing.assert_array_equal(loaded.features, reloaded.features)
        np.testing.assert_array_equal(loaded.labels, reloaded.labels)
        np.testing.assert_array_equal(loaded.graph.values, reloaded.graph.values)
        assert loaded.num_classes == reloaded.num_classes

    def test_loads_expected_stats(self, bundle_dir):
        ds = load_bundle(bundle_dir)
        assert ds.n == 6
        assert ds.feature_dim == 2
        assert ds.num_classes == 2
        assert ds.graph.edge_count == 7

    def test_missing_file(self, bundle_dir):
        (bundle_dir / "labels.csv").unlink()
        with pytest.raises(BundleFormatError, match="labels.csv"):
            load_bundle(bundle_dir)

    def test_self_loop_reports_row(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,1.0", "5,5,1.0"])
        with pytest.raises(BundleFormatError, match="row 3.*self-loop"):
            load_bundle(bundle_dir)

    def test_duplicate_edge_reports_row(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,1.0", "0,1,2.0"])
        with pytest.raises(BundleFormatError, match="row 3.*duplicate"):
            load_bundle(bundle_dir)

    def test_endpoint_out_of_range(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,9,1.0"])
        with pytest.raises(BundleFormatError, match="row 2.*out of range"):
            load_bundle(bundle_dir)

    def test_reversed_endpoints_rejected(self, bundle_dir):
        rewrite_edges(bundle_dir, ["3,1,1.0"])
        with pytest.raises(BundleFormatError, match="row 2.*src < dst"):
            load_bundle(bundle_dir)

    def test_malformed_weight(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,heavy"])
        with pytest.raises(BundleFormatError, match="row 2"):
            load_bundle(bundle_dir)

    def test_nonpositive_weight(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,0.0"])
        with pytest.raises(BundleFormatError, match="row 2.*> 0"):
            load_bundle(bundle_dir)

    def test_label_missing_node(self, bundle_dir):
        (bundle_dir / "labels.csv").write_text(
            "node,label\n0,0\n1,0\n2,0\n3,1\n4,1\n", encoding="utf-8")
        with pytest.raises(BundleFormatError, match="no label"):
            load_bundle(bundle_dir)

    def test_ragged_features(self, bundle_dir):
        (bundle_dir / "features.csv").write_text(
            "1.0,2.0\n3.0\n" + "0.0,0.0\n" * 4, encoding="utf-8")
        with pytest.raises(BundleFormatError, match="features.csv row 2"):
            load_bundle(bundle_dir)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_row(self, tmp_path, value):
        params = SbmParams(nodes_per_block=150, blocks=2, p_in=0.05, p_out=0.005,
                           feature_dim=4, feature_signal=1.0, feature_noise=0.5)
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(params, 17), bundle)
        lines = (bundle / "features.csv").read_text(encoding="utf-8").split("\n")
        cells = lines[216].split(",")
        cells[2] = value
        lines[216] = ",".join(cells)
        (bundle / "features.csv").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(BundleFormatError, match="features.csv row 217: non-finite"):
            load_bundle(bundle)

    def test_splits_json_round_trip(self, bundle_dir, small_dataset):
        split = Split(train=np.array([0, 3]), val=np.array([1, 4]),
                      test=np.array([2, 5]))
        save_bundle(small_dataset, bundle_dir, split=split)
        loaded = load_splits(bundle_dir, 6)
        np.testing.assert_array_equal(loaded.train, [0, 3])
        np.testing.assert_array_equal(loaded.test, [2, 5])

    def test_splits_absent_returns_none(self, bundle_dir):
        assert load_splits(bundle_dir, 6) is None

    @pytest.mark.parametrize("text, message", [
        ('{"train": [0, 1], "val": [2]', "invalid JSON"),
        ('[[0, 1], [2], [3]]', "expected an object"),
        ('{"train": [0, 1], "val": [1], "test": [3]}', "split parts must be .* disjoint"),
        ('{"train": [0, 1.7], "val": [2], "test": [3]}', "train must be .* integer node ids"),
        ('{"train": [0, 1], "val": [2], "test": [99999999999999999999]}', "Python int too large"),
    ], ids=["invalid-json", "top-level-list", "overlapping-parts", "non-integer-id",
            "id-beyond-int64"])
    def test_bad_splits_name_the_file(self, bundle_dir, text, message):
        (bundle_dir / "splits.json").write_text(text, encoding="utf-8")
        with pytest.raises(BundleFormatError, match=f"splits.json: {message}"):
            load_splits(bundle_dir, 6)

    def test_splits_out_of_range_rejected(self, bundle_dir):
        (bundle_dir / "splits.json").write_text(
            '{"train": [0, 1], "val": [2], "test": [99]}', encoding="utf-8")
        with pytest.raises(ValueError, match="references node"):
            load_splits(bundle_dir, 6)


def loop_sbm(params, seed):
    """Oracle: the SBM sampler one scalar draw at a time, pair Bernoullis in
    canonical pair order, then feature noise row by row."""
    n = params.nodes_per_block * params.blocks
    labels = np.arange(n, dtype=np.int64) // params.nodes_per_block
    rng = SplitMix64(seed)
    rows, cols = _triu(n)
    values = np.zeros(pair_count(n), dtype=np.float64)
    for k in range(values.shape[0]):
        prob = params.p_in if labels[rows[k]] == labels[cols[k]] else params.p_out
        if rng.uniform() < prob:
            values[k] = 1.0
    features = np.zeros((n, params.feature_dim), dtype=np.float64)
    features[np.arange(n), labels] = params.feature_signal
    scale = 2.0 * params.feature_noise
    for i in range(n):
        for m in range(params.feature_dim):
            features[i, m] += scale * (rng.uniform() - 0.5)
    return Dataset(features=features, labels=labels,
                   graph=WeightVector(n=n, values=values), num_classes=params.blocks)


class TestGenerateSbm:
    def params(self, **overrides):
        base = dict(nodes_per_block=50, blocks=2, p_in=0.2, p_out=0.0,
                    feature_dim=4, feature_signal=2.0, feature_noise=0.5)
        base.update(overrides)
        return SbmParams(**base)

    def test_no_inter_edges_when_p_out_zero(self):
        ds = generate_sbm(self.params(), seed=1)
        rows, cols = _triu(ds.n)
        cross = ds.labels[rows] != ds.labels[cols]
        assert np.all(ds.graph.values[cross] == 0.0)

    def test_complete_blocks_when_p_in_one(self):
        ds = generate_sbm(self.params(p_in=1.0), seed=2)
        rows, cols = _triu(ds.n)
        intra = ds.labels[rows] == ds.labels[cols]
        # each 50-clique holds C(50,2) = 1225 edges
        assert int(np.count_nonzero(ds.graph.values[intra])) == 2 * 1225

    def test_intra_count_within_3_sigma(self):
        # Binomial(2450, 0.2): mean 490, sigma = sqrt(2450*0.2*0.8) ~= 19.8
        ds = generate_sbm(self.params(p_out=0.01), seed=3)
        rows, cols = _triu(ds.n)
        intra = ds.labels[rows] == ds.labels[cols]
        count = int(np.count_nonzero(ds.graph.values[intra]))
        assert abs(count - 490) <= 3 * math.sqrt(2450 * 0.2 * 0.8)

    def test_labels_exactly_block_sized(self):
        ds = generate_sbm(self.params(nodes_per_block=17, blocks=3), seed=4)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.tolist() == [17, 17, 17]

    def test_deterministic(self):
        a = generate_sbm(self.params(p_out=0.01), seed=5)
        b = generate_sbm(self.params(p_out=0.01), seed=5)
        np.testing.assert_array_equal(a.graph.values, b.graph.values)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("seed,overrides", [
        (0, {}),
        (5, {"p_out": 0.01}),
        (2**64 - 1, {"nodes_per_block": 17, "blocks": 3, "p_out": 0.05}),
        (123, {"feature_noise": 1.7, "feature_dim": 6}),
    ])
    def test_matches_scalar_loop(self, seed, overrides):
        params = self.params(**overrides)
        fast, slow = generate_sbm(params, seed), loop_sbm(params, seed)
        np.testing.assert_array_equal(fast.graph.values, slow.graph.values)
        np.testing.assert_array_equal(fast.features, slow.features)
        np.testing.assert_array_equal(fast.labels, slow.labels)

    def test_feature_centroids(self):
        ds = generate_sbm(self.params(feature_noise=0.0), seed=6)
        assert ds.features[0, 0] == 2.0
        assert ds.features[-1, 1] == 2.0
        assert ds.features[0, 1] == 0.0

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            SbmParams(nodes_per_block=0, blocks=2, p_in=0.5, p_out=0.1,
                      feature_dim=4, feature_signal=1.0, feature_noise=0.1)
        with pytest.raises(ValueError):
            self.params(p_in=0.1, p_out=0.5)


class TestSplitNodes:
    def test_exact_fractions(self):
        split = split_nodes(100, (0.8, 0.1, 0.1), seed=0)
        assert (split.train.size, split.val.size, split.test.size) == (80, 10, 10)
        combined = np.concatenate([split.train, split.val, split.test])
        assert np.unique(combined).size == 100

    def test_all_train(self):
        split = split_nodes(10, (1.0, 0.0, 0.0), seed=1)
        np.testing.assert_array_equal(split.train, np.arange(10))
        assert split.val.size == 0 and split.test.size == 0

    def test_deterministic(self):
        a = split_nodes(57, (0.6, 0.2, 0.2), seed=12)
        b = split_nodes(57, (0.6, 0.2, 0.2), seed=12)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.test, b.test)

    def test_fraction_sum_above_one_rejected(self):
        with pytest.raises(ValueError):
            split_nodes(10, (0.8, 0.3, 0.1), seed=0)

    def test_largest_remainder_rule(self):
        # recompute the documented rule independently for random inputs
        fracs = [(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.33, 0.33, 0.33),
                 (0.7, 0.15, 0.1), (1.0, 0.0, 0.0)]
        for n in (7, 10, 57, 100):
            for f in fracs:
                split = split_nodes(n, f, seed=3)
                ideals = [n * x for x in f]
                sizes = [math.floor(x) for x in ideals]
                total = math.floor(n * sum(f) + 0.5)
                order = sorted(range(3), key=lambda i: (-(ideals[i] - sizes[i]), i))
                for i in order[:total - sum(sizes)]:
                    sizes[i] += 1
                got = [split.train.size, split.val.size, split.test.size]
                assert got == sizes, (n, f)

    def test_split_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Split(train=np.array([0, 1]), val=np.array([1]), test=np.array([2]))
