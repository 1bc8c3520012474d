"""Poisoning generators and perturbation reporting."""

import tracemalloc

import numpy as np
import pytest

from graphclean.attacks import heterophilic_add, perturbation_report, random_add
from graphclean.datasets import Dataset, InputError, SbmParams, generate_sbm
from graphclean.denoise import pairwise_p_distances
from graphclean.operators import WeightVector, pair_count
from graphclean.rng import SplitMix64


def sbm(seed=0, p_out=0.0, noise=0.5):
    params = SbmParams(nodes_per_block=50, blocks=2, p_in=0.2, p_out=p_out,
                       feature_dim=4, feature_signal=2.0, feature_noise=noise)
    return generate_sbm(params, seed)


def random_graph(n, edges, seed=0):
    rng = SplitMix64(seed)
    values = np.zeros(pair_count(n))
    picks = rng.choose(np.arange(pair_count(n)), edges)
    values[picks] = 1.0
    return WeightVector(n=n, values=values)


class TestRandomAdd:
    def test_rate_zero_is_identity(self):
        g = random_graph(20, 30)
        out = random_add(g, 0.0, seed=5)
        np.testing.assert_array_equal(out.values, g.values)

    def test_adds_exact_count_of_new_edges(self):
        g = random_graph(30, 100, seed=1)
        out = random_add(g, 0.2, seed=2)
        added = (g.values == 0) & (out.values > 0)
        assert int(added.sum()) == 20
        # original edges untouched
        np.testing.assert_array_equal(out.values[g.values > 0], g.values[g.values > 0])

    def test_rate_one_doubles_edge_count(self):
        g = random_graph(25, 50, seed=3)
        out = random_add(g, 1.0, seed=4)
        assert out.edge_count == 100

    def test_no_duplicates_or_self_loops_possible(self):
        # pair indexing cannot express self-loops; check added weights are unit
        g = random_graph(15, 20, seed=5)
        out = random_add(g, 0.5, seed=6)
        added = (g.values == 0) & (out.values > 0)
        assert np.all(out.values[added] == 1.0)
        assert out.edge_count == g.edge_count + int(added.sum())

    def test_insufficient_absent_pairs(self):
        n = 5
        g = WeightVector(n=n, values=np.ones(pair_count(n)))
        with pytest.raises(ValueError, match="eligible absent"):
            random_add(g, 1.0, seed=0)

    def test_budget_that_overflows(self):
        g = random_graph(5, 3)
        with pytest.raises(InputError, match=r"^budget is not finite: rate 1e\+308 of 3 edges$"):
            random_add(g, 1e308, seed=0)

    def test_deterministic(self):
        g = random_graph(30, 80, seed=7)
        a = random_add(g, 0.3, seed=8)
        b = random_add(g, 0.3, seed=8)
        np.testing.assert_array_equal(a.values, b.values)

    def test_dense_fallback_path(self):
        # 4 nodes, 5 of 6 pairs present: only enumeration can serve this
        values = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        g = WeightVector(n=4, values=values)
        out = random_add(g, 0.2, seed=9)
        assert out.edge_count == 6


class TestHeterophilicAdd:
    def test_budget_zero_is_identity(self):
        ds = sbm()
        out = heterophilic_add(ds, 0, seed=1)
        np.testing.assert_array_equal(out.values, ds.graph.values)

    def test_added_edges_all_cross_block(self):
        ds = sbm()
        out = heterophilic_add(ds, 10, seed=2)
        added = np.flatnonzero((ds.graph.values == 0) & (out.values > 0))
        assert added.size == 10
        rows, cols = np.triu_indices(ds.n, 1)
        assert np.all(ds.labels[rows[added]] != ds.labels[cols[added]])

    def test_builds_no_pair_index(self):
        # a full triu_indices index and its two label gathers would peak at
        # 4.1 float64 pair vectors here; the values copy and the
        # WeightVector's copy of it are 2
        params = SbmParams(nodes_per_block=500, blocks=3, p_in=0.02, p_out=0.001,
                           feature_dim=4, feature_signal=1.0, feature_noise=0.5)
        ds = generate_sbm(params, 3)
        tracemalloc.start()
        try:
            out = heterophilic_add(ds, 500, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.edge_count == ds.graph.edge_count + 500
        assert peak < 2.5 * ds.graph.values.nbytes

    def test_added_pairs_previously_absent(self):
        ds = sbm(p_out=0.02)
        out = heterophilic_add(ds, 25, seed=3)
        changed = out.values != ds.graph.values
        assert np.all(ds.graph.values[changed] == 0.0)

    def test_added_edges_have_larger_mean_p_distance(self):
        # feature_signal = 2 > 2 * feature_noise, so cross pairs are far apart
        ds = sbm(seed=4)
        out = heterophilic_add(ds, 50, seed=5)
        rows, cols = np.triu_indices(ds.n, 1)
        added = np.flatnonzero((ds.graph.values == 0) & (out.values > 0))
        intra = np.flatnonzero((ds.graph.values > 0)
                               & (ds.labels[rows] == ds.labels[cols]))
        X = ds.features
        dist = lambda idx: np.mean(
            ((X[cols[idx]] - X[rows[idx]]) ** 2).sum(axis=1))
        assert dist(added) >= dist(intra)

    def test_budget_exceeding_pairs_rejected(self):
        ds = sbm()
        with pytest.raises(ValueError, match="eligible absent"):
            heterophilic_add(ds, 50 * 50 + 1, seed=0)

    def test_deterministic(self):
        ds = sbm(seed=6)
        a = heterophilic_add(ds, 40, seed=7)
        b = heterophilic_add(ds, 40, seed=7)
        np.testing.assert_array_equal(a.values, b.values)


def gather_mean(X, pair_idx, p):
    """The report's mean distance by gathering feature rows: the oracle."""
    if pair_idx.size == 0:
        return 0.0
    rows, cols = np.triu_indices(X.shape[0], 1)
    diffs = np.abs(X[cols[pair_idx]] - X[rows[pair_idx]])
    return float(np.mean((diffs**p).sum(axis=1)))


def binary_dataset(n, d, density, edges, seed):
    rng = SplitMix64(seed)
    features = (rng.uniforms(n * d) < density).astype(np.float64).reshape(n, d)
    labels = np.array([k % 3 for k in range(n)], dtype=np.int64)
    return Dataset(features=features, labels=labels,
                   graph=random_graph(n, edges, seed), num_classes=3)


def report_for(ds, perturbed, p=2.0):
    return perturbation_report(ds.graph, perturbed, ds,
                               pairwise_p_distances(ds.features, p))


class TestPerturbationReport:
    def test_identity_comparison(self):
        ds = sbm()
        report = report_for(ds, ds.graph)
        assert report.edges_added == 0
        assert report.edges_removed == 0
        assert report.added_cross_label_fraction == 0.0
        assert report.mean_p_distance_added == 0.0

    def test_random_attack_counts(self):
        g = random_graph(30, 100, seed=1)
        ds_graph = g
        # build a dataset around this graph for the report
        rng = SplitMix64(2)
        features = np.array([[rng.uniform() for _ in range(3)] for _ in range(30)])
        labels = np.zeros(30, dtype=np.int64)
        ds = Dataset(features=features, labels=labels, graph=ds_graph, num_classes=1)
        perturbed = random_add(g, 0.2, seed=3)
        report = report_for(ds, perturbed)
        assert report.edges_added == 20
        assert report.edges_removed == 0

    def test_heterophilic_cross_fraction_is_one(self):
        ds = sbm(seed=8)
        perturbed = heterophilic_add(ds, 30, seed=9)
        report = report_for(ds, perturbed)
        assert report.added_cross_label_fraction == 1.0
        assert report.mean_p_distance_added > report.mean_p_distance_original

    def test_size_mismatch_rejected(self):
        ds = sbm()
        other = random_graph(10, 5)
        with pytest.raises(ValueError, match="size mismatch"):
            perturbation_report(ds.graph, other, ds, np.zeros(pair_count(10)))

    def test_d_p_of_wrong_length_rejected(self):
        ds = sbm()
        with pytest.raises(ValueError, match=r"size mismatch: .*d_p shape \(4949,\)"):
            perturbation_report(ds.graph, ds.graph, ds, np.zeros(pair_count(ds.n) - 1))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_binary_features_match_the_gather_exactly(self, p):
        # every distance is an integer, so both forms sum exact values
        ds = binary_dataset(60, 40, 0.2, 150, seed=12)
        perturbed = random_add(ds.graph, 0.25, seed=13)
        report = report_for(ds, perturbed, p)
        added = np.flatnonzero((ds.graph.values == 0) & (perturbed.values > 0))
        original = np.flatnonzero(ds.graph.values > 0)
        assert report.mean_p_distance_added == gather_mean(ds.features, added, p)
        assert report.mean_p_distance_original == gather_mean(ds.features, original, p)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_real_features_match_the_gather(self, p):
        ds = sbm(seed=14, p_out=0.02)
        perturbed = heterophilic_add(ds, 40, seed=15)
        report = report_for(ds, perturbed, p)
        added = np.flatnonzero((ds.graph.values == 0) & (perturbed.values > 0))
        original = np.flatnonzero(ds.graph.values > 0)
        np.testing.assert_allclose(report.mean_p_distance_added,
                                   gather_mean(ds.features, added, p), rtol=1e-12)
        np.testing.assert_allclose(report.mean_p_distance_original,
                                   gather_mean(ds.features, original, p), rtol=1e-12)

    def test_reads_the_added_pairs_without_a_pair_index(self):
        # the masks over the pair vectors take a few bytes per pair; a
        # pair-length int64 index would take 16
        n, edges = 1523, 3000  # an n no other test uses, so nothing is cached
        ds = binary_dataset(n, 4, 0.3, edges, seed=18)
        perturbed = random_add(ds.graph, 0.25, seed=19)
        d_p = pairwise_p_distances(ds.features, 2.0)
        tracemalloc.start()
        try:
            report = perturbation_report(ds.graph, perturbed, ds, d_p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.edges_added == perturbed.edge_count - edges
        assert peak <= 4 * pair_count(n) + 1024 * (edges + n)

    def test_reads_d_p_without_gathering_features(self):
        # the gather held (|E| + added) x d feature differences: 61 MB here
        ds = binary_dataset(300, 2000, 0.01, 2000, seed=16)
        perturbed = random_add(ds.graph, 0.25, seed=17)
        d_p = pairwise_p_distances(ds.features, 2.0)
        expected = perturbation_report(ds.graph, perturbed, ds, d_p)
        tracemalloc.start()
        try:
            report = perturbation_report(ds.graph, perturbed, ds, d_p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == expected
        assert peak < 1_000_000
