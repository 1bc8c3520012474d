"""GCN forward/backward, CSR normalization against its dense oracle, training behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from graphclean import gcn
from graphclean.datasets import SbmParams, Split, generate_sbm, split_nodes
from graphclean.gcn import (
    GcnParams,
    SparseAdjacency,
    TrainConfig,
    accuracy,
    cross_entropy,
    forward,
    loss_and_gradients,
    normalize_adjacency,
    softmax,
    train,
    xavier_params,
)
from graphclean.operators import WeightVector, pair_count
from graphclean.rng import SplitMix64

from test_operators import adjacency_from_weights


def forward_oracle(params, A_hat, X):
    """Oracle: the same composition written with explicit loops per product."""
    def matmul(A, B):
        out = np.zeros((A.shape[0], B.shape[1]))
        for i in range(A.shape[0]):
            for j in range(B.shape[1]):
                out[i, j] = sum(A[i, k] * B[k, j] for k in range(A.shape[1]))
        return out

    hidden = matmul(matmul(A_hat, X), params.W1)
    hidden[hidden < 0] = 0.0
    return matmul(matmul(A_hat, hidden), params.W2)


def normalize_oracle(W):
    """Oracle: D^{-1/2} (W + I) D^{-1/2} through the n x n temporaries."""
    with_loops = W + np.eye(W.shape[0])
    inv_sqrt = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return inv_sqrt[:, None] * with_loops * inv_sqrt[None, :]


def training_loss(params, A_hat, X, labels, mask, weight_decay):
    loss = cross_entropy(forward(params, A_hat, X), labels, mask)
    loss += 0.5 * weight_decay * (np.sum(params.W1 ** 2) + np.sum(params.W2 ** 2))
    return loss


def fd_parameter_gradient(params, A_hat, X, labels, mask, weight_decay):
    """Oracle: central differences over every entry of W1 and W2."""
    grads = []
    for name in ("W1", "W2"):
        W = getattr(params, name)
        grad = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            h = 1e-5 * (1.0 + abs(W[idx]))
            Wp = W.copy()
            Wp[idx] += h
            Wm = W.copy()
            Wm[idx] -= h
            pp = GcnParams(W1=Wp if name == "W1" else params.W1.copy(),
                           W2=Wp if name == "W2" else params.W2.copy())
            pm = GcnParams(W1=Wm if name == "W1" else params.W1.copy(),
                           W2=Wm if name == "W2" else params.W2.copy())
            grad[idx] = (training_loss(pp, A_hat, X, labels, mask, weight_decay)
                         - training_loss(pm, A_hat, X, labels, mask, weight_decay)) / (2 * h)
        grads.append(grad)
    return grads


def reference_train(dataset, A_hat, split, config, class_width=True):
    """Oracle: the training loop with A_hat @ X recomputed in every product
    and a separate forward pass for validation.

    With ``class_width`` the other products with A_hat take the class-width
    operands hidden @ W2 and d_logits, as :func:`train` does; without it they
    take the hidden-width operands relu(A_hat X W1) and d_logits @ W2.T.
    """
    params = xavier_params(dataset.feature_dim, config.hidden,
                           dataset.num_classes, config.seed)
    X, y = dataset.features, dataset.labels

    def logits_of(p):
        hidden = np.maximum(A_hat @ X @ p.W1, 0.0)
        return A_hat @ (hidden @ p.W2) if class_width else (A_hat @ hidden) @ p.W2

    loss_trace, val_trace = [], []
    best_acc, best_epoch, best_params = -1.0, 0, params.copy()
    mask = split.train
    for epoch in range(config.epochs):
        XW = A_hat @ X @ params.W1
        hidden = np.maximum(XW, 0.0)
        logits = logits_of(params)
        probs = softmax(logits)
        loss = cross_entropy(logits, y, mask) + 0.5 * config.weight_decay * (
            float(np.sum(params.W1 * params.W1)) + float(np.sum(params.W2 * params.W2)))
        d_logits = np.zeros_like(probs)
        d_logits[mask] = probs[mask]
        d_logits[mask, y[mask]] -= 1.0
        d_logits /= mask.size
        if class_width:
            prop_d = A_hat @ d_logits
            g2 = hidden.T @ prop_d
            d_hidden = (prop_d @ params.W2.T) * (XW > 0.0)
        else:
            g2 = (A_hat @ hidden).T @ d_logits
            d_hidden = (A_hat @ (d_logits @ params.W2.T)) * (XW > 0.0)
        g2 = g2 + config.weight_decay * params.W2
        g1 = (A_hat @ X).T @ d_hidden + config.weight_decay * params.W1
        loss_trace.append(loss)
        params.W1 = params.W1 - config.learning_rate * g1
        params.W2 = params.W2 - config.learning_rate * g2
        val_acc = accuracy(logits_of(params), y, split.val)
        val_trace.append(val_acc)
        if val_acc > best_acc:
            best_acc, best_epoch, best_params = val_acc, epoch, params.copy()
    return best_params, loss_trace, val_trace, best_epoch, accuracy(
        logits_of(best_params), y, split.test)


class SpyAdjacency:
    """Wraps an A_hat and records the width of every operand it multiplies."""

    def __init__(self, A_hat):
        self.A_hat = A_hat
        self.widths = []

    def __matmul__(self, H):
        self.widths.append(H.shape[1])
        return self.A_hat @ H


def random_gcn_instance(seed, n=5, d=3, h=2, C=2, adjacency=normalize_adjacency):
    rng = SplitMix64(seed)
    w = np.array([1.0 if rng.uniform() < 0.5 else 0.0 for _ in range(pair_count(n))])
    A_hat = adjacency(w)
    X = np.array([[rng.uniform() - 0.5 for _ in range(d)] for _ in range(n)])
    labels = np.array([rng.bounded(C) for _ in range(n)], dtype=np.int64)
    params = xavier_params(d, h, C, seed=seed + 1)
    mask = np.arange(n - 1)
    return params, A_hat, X, labels, mask


def dense_a_hat(w) -> np.ndarray:
    return normalize_oracle(adjacency_from_weights(w))


def sparse_weights(seed, n, edges):
    """Pair weights with ``edges`` positive pairs, unit and real, none on
    node 0, which stays isolated."""
    rng = SplitMix64(seed)
    w = np.zeros(pair_count(n))
    picked = (n - 1) + np.argsort(rng.uniforms(pair_count(n) - (n - 1)))[:edges]
    w[picked] = np.where(rng.uniforms(edges) < 0.5, 1.0, 0.1 + 2.0 * rng.uniforms(edges))
    return w


def close_to(got, want):
    """The relative bound of sparse products against the dense oracle."""
    return np.max(np.abs(got - want)) <= 1e-15 * (1.0 + np.max(np.abs(want)))


class TestNormalizeAdjacency:
    """Unit weights give exact degree sums, so those tests match the oracle
    with ``array_equal``; real weights are summed in another order than the
    oracle's, so those tests use :func:`close_to`."""

    def test_two_node_graph(self):
        np.testing.assert_array_equal(normalize_adjacency([1.0]) @ np.eye(2),
                                      dense_a_hat(np.array([1.0])))

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_bytes_match_oracle(self, seed):
        rng = SplitMix64(seed)
        n = 40 + rng.bounded(60)
        u = rng.uniforms(pair_count(n))
        # unit and real weights, isolated node 0, and a -0.0 weight
        w = np.where(u < 0.1, 1.0, np.where(u < 0.2, 3.0 * u, 0.0))
        w[:n - 1] = 0.0
        w[n] = -0.0
        expected = dense_a_hat(w)
        for weights in (w, WeightVector(n=n, values=w)):
            A_hat = normalize_adjacency(weights)
            assert A_hat.data.size == n + 2 * np.count_nonzero(w > 0)
            assert close_to(A_hat @ np.eye(n), expected)

    def test_isolated_nodes_get_unit_self_loop(self):
        np.testing.assert_array_equal(normalize_adjacency([0.0]) @ np.eye(2),
                                      dense_a_hat(np.array([0.0])))

    def test_spectral_radius_at_most_one(self):
        rng = SplitMix64(51)
        for _ in range(10):
            n = 3 + rng.bounded(10)
            w = np.array([rng.uniform() if rng.uniform() < 0.5 else 0.0
                          for _ in range(pair_count(n))])
            A_hat = normalize_adjacency(w) @ np.eye(n)
            assert close_to(A_hat, dense_a_hat(w))
            radius = np.max(np.abs(np.linalg.eigvalsh(A_hat)))
            assert radius <= 1.0 + 1e-9

    def test_symmetric_non_negative(self):
        rng = SplitMix64(53)
        w = np.array([rng.uniform() for _ in range(pair_count(7))])
        A_hat = normalize_adjacency(w) @ np.eye(7)
        assert close_to(A_hat, dense_a_hat(w))
        np.testing.assert_allclose(A_hat, A_hat.T, rtol=1e-12)
        assert np.all(A_hat >= 0.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            normalize_adjacency([-1.0])


class TestSparseAdjacency:
    def test_csr_rows(self):
        n = 300
        A_hat = normalize_adjacency(sparse_weights(67, n, 500))
        assert A_hat.shape == (n, n)
        assert A_hat.indptr[0] == 0
        assert A_hat.indptr[-1] == A_hat.indices.size == 2 * 500 + n
        for i in range(n):
            row = A_hat.indices[A_hat.indptr[i]:A_hat.indptr[i + 1]]
            assert np.all(np.diff(row) > 0) and i in row
        # node 0 is isolated: its row is the unit self-loop
        assert A_hat.indptr[1] == 1 and A_hat.data[0] == 1.0

    @pytest.mark.parametrize("seed, n, edges, width, pass_values", [
        (68, 300, 500, 16, None),
        (69, 400, 1500, 150, None),  # nnz = 3400: two passes, the last partial
        (70, 40, 0, 3, None),  # no edges: the identity
        (68, 300, 500, 16, 1),  # one column per pass
        (69, 400, 1500, 150, 7 * 3400),  # 7 columns per pass, the last pass 3
    ], ids=["68-300-500-16", "69-400-1500-150", "70-40-0-3", "68-300-500-16-one-column",
            "69-400-1500-150-partial-pass"])
    def test_products_match_dense_oracle(self, monkeypatch, seed, n, edges, width,
                                         pass_values):
        if pass_values is not None:
            monkeypatch.setattr(gcn, "_PASS_VALUES", pass_values)
        w = sparse_weights(seed, n, edges)
        A_hat = normalize_adjacency(w)
        dense = dense_a_hat(w)
        H = SplitMix64(seed + 100).uniforms(n * width).reshape(n, width) - 0.5
        for got, want in ((A_hat @ np.eye(n), dense), (A_hat @ H, dense @ H)):
            assert close_to(got, want)

    def test_product_scratch_is_bounded(self):
        """A pass holds at most _PASS_VALUES gathered products, whatever the
        operand's width, on a graph with nnz = n^2 / 5."""
        n = 600
        A_hat = normalize_adjacency(sparse_weights(82, n, (n * n // 5 - n) // 2))
        assert A_hat.data.size <= gcn._PASS_VALUES
        for width in (2, 64, 150):
            H = np.ones((n, width))
            tracemalloc.start()
            try:
                out = A_hat @ H
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 3 * gcn._PASS_VALUES * 8, width

    def test_shape_mismatch(self):
        A_hat = normalize_adjacency(sparse_weights(71, 300, 100))
        with pytest.raises(ValueError):
            A_hat @ np.zeros((299, 2))

    def test_forward_and_gradients_match_dense(self):
        n, d = 300, 5
        w = sparse_weights(72, n, 600)
        A_hat, dense = normalize_adjacency(w), dense_a_hat(w)
        rng = SplitMix64(73)
        X = rng.uniforms(n * d).reshape(n, d) - 0.5
        labels = (rng.uniforms(n) < 0.5).astype(np.int64)
        params = xavier_params(d, 4, 2, seed=74)
        np.testing.assert_allclose(forward(params, A_hat, X), forward(params, dense, X),
                                   rtol=1e-12, atol=1e-15)
        mask = np.arange(0, n, 3)
        got = loss_and_gradients(params, A_hat, X, labels, mask, 0.01)
        want = loss_and_gradients(params, dense, X, labels, mask, 0.01)
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
        for g, h in zip(got[1:], want[1:]):
            np.testing.assert_allclose(g, h, rtol=1e-12, atol=1e-15)

    def test_train_matches_dense(self):
        ds = generate_sbm(SbmParams(nodes_per_block=100, blocks=4, p_in=0.02,
                                    p_out=0.001, feature_dim=12, feature_signal=1.0,
                                    feature_noise=0.8), 75)
        split = split_nodes(ds.n, (0.6, 0.2, 0.2), seed=76)
        A_hat = normalize_adjacency(ds.graph)
        assert isinstance(A_hat, SparseAdjacency)
        config = TrainConfig(hidden=16, epochs=60, learning_rate=0.05, seed=77)
        _, sparse = train(ds, A_hat, split, config)
        _, dense = train(ds, dense_a_hat(ds.graph), split, config)
        np.testing.assert_allclose(sparse.loss_trace, dense.loss_trace, rtol=1e-12)
        assert sparse.val_accuracy_trace == dense.val_accuracy_trace
        assert sparse.best_val_epoch == dense.best_val_epoch
        assert sparse.test_accuracy == dense.test_accuracy


class TestForward:
    def test_dead_first_layer(self):
        params, A_hat, X, _, _ = random_gcn_instance(seed=1)
        params.W1 = np.zeros_like(params.W1)
        np.testing.assert_array_equal(forward(params, A_hat, X),
                                      np.zeros((X.shape[0], params.W2.shape[1])))

    def test_identity_propagation_is_mlp(self):
        params = xavier_params(3, 4, 2, seed=2)
        X = np.array([[0.3, -0.2, 0.9]])
        logits = forward(params, np.eye(1), X)
        expected = np.maximum(X @ params.W1, 0.0) @ params.W2
        np.testing.assert_allclose(logits, expected, rtol=1e-12)

    def test_matches_loop_oracle(self):
        for seed in (3, 4, 5):
            params, A_hat, X, _, _ = random_gcn_instance(seed)
            dense = random_gcn_instance(seed, adjacency=dense_a_hat)[1]
            np.testing.assert_allclose(forward(params, A_hat, X),
                                       forward_oracle(params, dense, X), atol=1e-10)

    def test_shape_mismatch(self):
        params = xavier_params(3, 4, 2, seed=6)
        with pytest.raises(ValueError):
            forward(params, np.eye(2), np.zeros((2, 5)))


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((3, 4))
        labels = np.array([0, 1, 2])
        assert abs(cross_entropy(logits, labels, [0, 1, 2]) - math.log(4)) < 1e-12

    def test_saturated_softmax(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        assert cross_entropy(logits, np.array([1, 2]), [0, 1]) < 1e-9

    def test_shift_invariance(self):
        rng = SplitMix64(57)
        logits = np.array([[rng.uniform() for _ in range(4)] for _ in range(5)])
        labels = np.array([rng.bounded(4) for _ in range(5)], dtype=np.int64)
        mask = [0, 2, 4]
        shifted = logits + np.array([[7.5], [-3.0], [0.0], [100.0], [-50.0]])
        a = cross_entropy(logits, labels, mask)
        b = cross_entropy(shifted, labels, mask)
        assert abs(a - b) <= 1e-12

    def test_softmax_rows_sum_to_one(self):
        rng = SplitMix64(59)
        logits = np.array([[10.0 * (rng.uniform() - 0.5) for _ in range(6)]
                           for _ in range(8)])
        np.testing.assert_allclose(softmax(logits).sum(axis=1), np.ones(8),
                                   atol=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int), [])


class TestAccuracy:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2])
        logits = np.eye(3)
        assert accuracy(logits, labels, [0, 1, 2]) == 1.0

    def test_rotated_predictions(self):
        labels = np.array([0, 1, 2])
        logits = np.eye(3)[:, [2, 0, 1]]
        assert accuracy(logits, labels, [0, 1, 2]) == 0.0

    def test_tie_break_to_lowest_class(self):
        logits = np.zeros((4, 3))
        assert accuracy(logits, np.zeros(4, dtype=int), [0, 1, 2, 3]) == 1.0
        assert accuracy(logits, np.ones(4, dtype=int), [0, 1, 2, 3]) == 0.0


class TestGradients:
    @pytest.mark.parametrize("sparse", [True, False])
    def test_finite_differences_with_distinct_widths(self, sparse):
        """h = 4 and C = 3, so a W2 / W2.T mix-up cannot pass."""
        n, d, h, C = 80, 3, 4, 3
        w = sparse_weights(78, n, 20)
        A_hat = normalize_adjacency(w) if sparse else dense_a_hat(w)
        assert isinstance(A_hat, SparseAdjacency) == sparse
        rng = SplitMix64(79)
        X = rng.uniforms(n * d).reshape(n, d) - 0.5
        labels = np.array([rng.bounded(C) for _ in range(n)], dtype=np.int64)
        params = xavier_params(d, h, C, seed=80)
        mask = np.arange(0, n, 2)
        loss, g1, g2 = loss_and_gradients(params, A_hat, X, labels, mask, 0.05)
        fd1, fd2 = fd_parameter_gradient(params, A_hat, X, labels, mask, 0.05)
        assert g1.shape == (d, h) and g2.shape == (h, C)
        assert np.max(np.abs(g1 - fd1)) <= 1e-4 * (1.0 + np.max(np.abs(fd1)))
        assert np.max(np.abs(g2 - fd2)) <= 1e-4 * (1.0 + np.max(np.abs(fd2)))
        assert abs(loss - training_loss(params, A_hat, X, labels, mask, 0.05)) < 1e-12

    def test_matches_finite_differences(self):
        for seed in range(20):
            params, A_hat, X, labels, mask = random_gcn_instance(seed)
            wd = 0.05 if seed % 2 else 0.0
            loss, g1, g2 = loss_and_gradients(params, A_hat, X, labels, mask, wd)
            fd1, fd2 = fd_parameter_gradient(params, A_hat, X, labels, mask, wd)
            scale1 = 1.0 + np.max(np.abs(fd1))
            scale2 = 1.0 + np.max(np.abs(fd2))
            assert np.max(np.abs(g1 - fd1)) <= 1e-4 * scale1
            assert np.max(np.abs(g2 - fd2)) <= 1e-4 * scale2
            assert abs(loss - training_loss(params, A_hat, X, labels, mask, wd)) < 1e-12


def separable_dataset(seed=3):
    params = SbmParams(nodes_per_block=50, blocks=2, p_in=0.25, p_out=0.01,
                       feature_dim=6, feature_signal=3.0, feature_noise=0.3)
    return generate_sbm(params, seed)


LOOP_INSTANCES = [
    (50, 2, 6, 60),
    (60, 3, 20, 40),
    (50, 4, 1433, 15),  # Cora's feature width
]


def loop_instance(size, blocks, dim, epochs):
    """Dataset, A_hat, split and config of one reference-loop comparison."""
    ds = generate_sbm(SbmParams(nodes_per_block=size, blocks=blocks, p_in=0.2,
                                p_out=0.02, feature_dim=dim, feature_signal=1.0,
                                feature_noise=0.8), 13)
    split = split_nodes(ds.n, (0.6, 0.2, 0.2), seed=14)
    config = TrainConfig(hidden=16, epochs=epochs, learning_rate=0.05, seed=15)
    return ds, normalize_adjacency(ds.graph), split, config


class TestTrain:
    def test_zero_learning_rate_freezes_parameters(self):
        ds = separable_dataset()
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=1)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=8, epochs=10, learning_rate=0.0, seed=2)
        params, report = train(ds, A_hat, split, config)
        init = xavier_params(ds.feature_dim, 8, ds.num_classes, seed=2)
        np.testing.assert_array_equal(params.W1, init.W1)
        assert len(set(report.loss_trace)) == 1

    def test_separable_sbm_reaches_high_accuracy(self):
        ds = separable_dataset(seed=3)
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=4)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=16, epochs=250, learning_rate=1e-2, seed=5)
        _, report = train(ds, A_hat, split, config)
        assert report.test_accuracy > 0.9

    def test_deterministic_reports(self):
        ds = separable_dataset(seed=6)
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=7)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=8, epochs=30, learning_rate=1e-2, seed=8)
        _, a = train(ds, A_hat, split, config)
        _, b = train(ds, A_hat, split, config)
        assert a.loss_trace == b.loss_trace
        assert a.val_accuracy_trace == b.val_accuracy_trace
        assert a.test_accuracy == b.test_accuracy

    def test_best_epoch_ties_to_earliest(self):
        ds = separable_dataset(seed=9)
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=10)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=8, epochs=40, learning_rate=1e-2, seed=11)
        _, report = train(ds, A_hat, split, config)
        best = report.best_val_epoch
        peak = max(report.val_accuracy_trace)
        assert report.val_accuracy_trace[best] == peak
        assert best == report.val_accuracy_trace.index(peak)

    @pytest.mark.parametrize("size, blocks, dim, epochs", LOOP_INSTANCES)
    def test_bit_identical_to_reference_loop(self, size, blocks, dim, epochs):
        ds, A_hat, split, config = loop_instance(size, blocks, dim, epochs)
        params, report = train(ds, A_hat, split, config)
        ref_params, loss_trace, val_trace, best_epoch, test_acc = reference_train(
            ds, A_hat, split, config)
        np.testing.assert_array_equal(params.W1, ref_params.W1)
        np.testing.assert_array_equal(params.W2, ref_params.W2)
        np.testing.assert_array_equal(report.loss_trace, loss_trace)
        np.testing.assert_array_equal(report.val_accuracy_trace, val_trace)
        assert report.best_val_epoch == best_epoch
        assert report.test_accuracy == test_acc

    @pytest.mark.parametrize("size, blocks, dim, epochs", LOOP_INSTANCES)
    def test_hidden_width_order_agrees(self, size, blocks, dim, epochs):
        """A_hat @ (H W2) and (A_hat @ H) W2 differ only in rounding."""
        ds, A_hat, split, config = loop_instance(size, blocks, dim, epochs)
        params, report = train(ds, A_hat, split, config)
        ref_params, loss_trace, val_trace, best_epoch, test_acc = reference_train(
            ds, A_hat, split, config, class_width=False)
        np.testing.assert_allclose(params.W1, ref_params.W1, rtol=1e-12)
        np.testing.assert_allclose(params.W2, ref_params.W2, rtol=1e-12)
        np.testing.assert_allclose(report.loss_trace, loss_trace, rtol=1e-12)
        assert report.val_accuracy_trace == val_trace
        assert report.best_val_epoch == best_epoch
        assert report.test_accuracy == test_acc

    @pytest.mark.parametrize("sparse", [True, False])
    def test_epoch_products_have_class_width(self, sparse):
        """A_hat multiplies X once and otherwise only operands with one column
        per class: one product to score the start and two per epoch."""
        ds = generate_sbm(SbmParams(nodes_per_block=50, blocks=3, p_in=0.04,
                                    p_out=0.002, feature_dim=6), 16)
        split = split_nodes(ds.n, (0.6, 0.2, 0.2), seed=17)
        A_hat = normalize_adjacency(ds.graph)
        assert isinstance(A_hat, SparseAdjacency)
        spy = SpyAdjacency(A_hat if sparse else dense_a_hat(ds.graph))
        config = TrainConfig(hidden=16, epochs=20, seed=18)
        assert ds.feature_dim != ds.num_classes != config.hidden
        train(ds, spy, split, config)
        assert sorted(spy.widths) == sorted(
            [ds.feature_dim] + [ds.num_classes] * (2 * config.epochs + 1))

    def test_empty_split_part_rejected(self):
        ds = separable_dataset(seed=12)
        split = Split(train=np.arange(70), val=np.array([70]), test=np.array([]))
        A_hat = normalize_adjacency(ds.graph)
        with pytest.raises(ValueError, match="test split"):
            train(ds, A_hat, split, TrainConfig(epochs=1))
