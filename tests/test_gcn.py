"""GCN forward/backward, CSR normalization against its dense oracle, training behavior."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from graphclean import gcn
from graphclean.datasets import Dataset, SbmParams, Split, generate_sbm, split_nodes
from graphclean.gcn import (
    CsrMatrix,
    GcnParams,
    TrainConfig,
    accuracy,
    loss_and_gradients,
    normalize_adjacency,
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


def forward(params, A_hat, X):
    """Oracle: logits = A_hat @ (relu(A_hat @ (X @ W1)) @ W2), so A_hat sees
    only the hidden and class widths."""
    hidden = np.maximum(A_hat @ (X @ params.W1), 0.0)
    return A_hat @ (hidden @ params.W2)


def softmax(logits):
    """Oracle: row-wise softmax with max-shift stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels, mask):
    """Oracle: mean of -log softmax(logits_i)[y_i] over the masked nodes."""
    mask = np.asarray(mask, dtype=np.int64)
    sub = logits[mask]
    shifted = sub - sub.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(mask.size), labels[mask]]
    return float(np.mean(log_norm - picked))


def program_logits(params, A_hat, X):
    """The logits stage 2 computes, in the first-layer order that X sets."""
    AX = gcn._features(A_hat, X, gcn._sparse(X))
    return gcn._propagate(params, A_hat, AX)[2]


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


def features_first_in_train(dataset):
    """The order :func:`train` takes: A_hat @ (X @ W1) exactly when X is held
    in CSR rows, that is, when at most one entry in _ENTRIES_PER_NONZERO is
    nonzero."""
    X = dataset.features
    return gcn._ENTRIES_PER_NONZERO * np.count_nonzero(X) <= X.size


# the stop rule's patience, and Adam's decay rates and epsilon (Kingma & Ba,
# ICLR 2015), as reference_train spells them out
PATIENCE = 50
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


def reference_train(dataset, A_hat, split, config, seed, class_width=True,
                    features_first=False):
    """Oracle: the training loop with A_hat @ X recomputed in every product,
    a separate forward pass for validation, and Adam's update written as in
    its paper: bias-corrected moments m_hat and v_hat, and a step of
    lr * m_hat / (sqrt(v_hat) + eps).  It stops after the epoch that is
    PATIENCE epochs past the best validation accuracy.

    With ``class_width`` the other products with A_hat take the class-width
    operands hidden @ W2 and d_logits, as :func:`train` does; without it they
    take the hidden-width operands relu(A_hat X W1) and d_logits @ W2.T.
    With ``features_first`` the first layer is A_hat @ (X @ W1) and its
    gradient X.T @ (A_hat @ d_hidden); without it, (A_hat @ X) @ W1 and
    (A_hat @ X).T @ d_hidden.
    """
    params = xavier_params(dataset.feature_dim, config.hidden,
                           dataset.num_classes, seed)
    X, y = dataset.features, dataset.labels

    def first_layer(p):
        return A_hat @ (X @ p.W1) if features_first else A_hat @ X @ p.W1

    def logits_of(p):
        hidden = np.maximum(first_layer(p), 0.0)
        return A_hat @ (hidden @ p.W2) if class_width else (A_hat @ hidden) @ p.W2

    loss_trace, val_trace = [], []
    best_acc, best_epoch, best_params = -1.0, 0, params.copy()
    m = {"W1": np.zeros_like(params.W1), "W2": np.zeros_like(params.W2)}
    v = {"W1": np.zeros_like(params.W1), "W2": np.zeros_like(params.W2)}
    mask = split.train
    for epoch in range(config.epochs):
        XW = first_layer(params)
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
        g1 = X.T @ (A_hat @ d_hidden) if features_first else (A_hat @ X).T @ d_hidden
        g1 = g1 + config.weight_decay * params.W1
        loss_trace.append(loss)
        t = epoch + 1
        for name, g in (("W1", g1), ("W2", g2)):
            m[name] = BETA1 * m[name] + (1 - BETA1) * g
            v[name] = BETA2 * v[name] + (1 - BETA2) * g**2
            m_hat = m[name] / (1 - BETA1**t)
            v_hat = v[name] / (1 - BETA2**t)
            setattr(params, name, getattr(params, name)
                    - config.learning_rate * (m_hat / (np.sqrt(v_hat) + EPSILON)))
        val_acc = accuracy(logits_of(params), y, split.val)
        val_trace.append(val_acc)
        if val_acc > best_acc:
            best_acc, best_epoch, best_params = val_acc, epoch, params.copy()
        if epoch - best_epoch >= PATIENCE:
            break
    return best_params, loss_trace, val_trace, best_epoch, accuracy(
        logits_of(best_params), y, split.test)


def spy_feature_products(monkeypatch):
    """The type of X in every first-layer product that takes the
    features-first order (gcn._FeaturesFirst), in call order."""
    held = []
    matmul = gcn._FeaturesFirst.__matmul__

    def spy(self, M):
        held.append(type(self.X))
        return matmul(self, M)

    monkeypatch.setattr(gcn._FeaturesFirst, "__matmul__", spy)
    return held


class SpyAdjacency:
    """Wraps an A_hat and records the width of every operand it multiplies."""

    def __init__(self, A_hat):
        self.A_hat = A_hat
        self.shape = A_hat.shape
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

    def test_reads_the_edges_without_a_pair_index(self):
        # a pair-length int64 index would take 16 bytes per pair; the only
        # pair-length temporary left is the negativity check's boolean mask
        n, edges = 1531, 3000  # an n no other test uses, so nothing is cached
        w = sparse_weights(90, n, edges)
        tracemalloc.start()
        try:
            normalize_adjacency(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * pair_count(n) + 1024 * (edges + n)

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
            assert peak <= out.nbytes + 1.25 * gcn._PASS_VALUES * 8, width

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
        assert isinstance(A_hat, CsrMatrix)
        config = TrainConfig(hidden=16, epochs=60, learning_rate=0.05)
        _, sparse = train(ds, A_hat, split, config, 77)
        _, dense = train(ds, dense_a_hat(ds.graph), split, config, 77)
        np.testing.assert_allclose(sparse.loss_trace, dense.loss_trace, rtol=1e-12)
        assert sparse.val_accuracy_trace == dense.val_accuracy_trace
        assert sparse.best_val_epoch == dense.best_val_epoch
        assert sparse.test_accuracy == dense.test_accuracy


def sparse_features(seed, n, d, density, binary=True):
    """An (n, d) matrix with about ``density * n * d`` nonzeros, 0/1 or real
    of either sign."""
    rng = SplitMix64(seed)
    X = (rng.uniforms(n * d).reshape(n, d) < density).astype(np.float64)
    if not binary:
        X *= rng.uniforms(n * d).reshape(n, d) * 6.0 - 3.0
    return X


def assert_csr_products_match(X, width, seed):
    """X in CSR rows against its dense products X @ W and X.T @ G."""
    n, d = X.shape
    M = CsrMatrix.from_dense(X)
    rng = SplitMix64(seed)
    W = rng.uniforms(d * width).reshape(d, width) - 0.5
    G = rng.uniforms(n * width).reshape(n, width) - 0.5
    assert M.shape == (n, d) and M.T.shape == (d, n) and M.T.T is M
    np.testing.assert_allclose(M @ W, X @ W, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(M.T @ G, X.T @ G, rtol=1e-12, atol=1e-15)


class TestCsrMatrix:
    """A rectangular CsrMatrix, as wide sparse features are held, against
    dense products; A_hat's own products are checked in TestSparseAdjacency."""

    def test_empty_rows_and_columns(self):
        X = sparse_features(83, 120, 90, 0.05)
        X[::7] = 0.0
        X[:, ::5] = 0.0
        X[:, -1] = 0.0
        M = CsrMatrix.from_dense(X)
        assert np.any(np.diff(M.indptr) == 0) and np.any(np.diff(M.T.indptr) == 0)
        assert_csr_products_match(X, 16, 84)

    def test_all_zero(self):
        X = np.zeros((40, 70))
        assert CsrMatrix.from_dense(X).data.size == 0
        assert_csr_products_match(X, 5, 85)

    def test_real_values(self):
        X = sparse_features(86, 150, 300, 0.03, binary=False)
        assert len(np.unique(X)) > 100 and X.min() < 0.0
        assert_csr_products_match(X, 16, 87)

    @pytest.mark.parametrize("pass_values", [1, 2000, 5000])
    def test_several_passes(self, monkeypatch, pass_values):
        """One column per pass, or a few with a partial last pass: X has 263
        nonzeros, so a pass takes _PASS_VALUES // 300 columns of W (300 rows)
        and _PASS_VALUES // 263 of G (100 rows)."""
        monkeypatch.setattr(gcn, "_PASS_VALUES", pass_values)
        X = sparse_features(88, 100, 300, 0.008, binary=False)
        assert np.count_nonzero(X) == 263
        assert_csr_products_match(X, 16, 89)

    def test_product_scratch_is_bounded(self):
        """Each of a pass's two arrays holds at most _PASS_VALUES values.  X
        has 3611 nonzeros and 6000 columns, so the operand's rows set the
        pass of X @ W; the nonzeros set that of X.T @ G."""
        X = sparse_features(90, 600, 6000, 0.001)
        M = CsrMatrix.from_dense(X)
        assert M.data.size == 3611
        for product, rows in ((M, 6000), (M.T, 600)):
            for width in (2, 64, 150):
                H = np.ones((rows, width))
                tracemalloc.start()
                try:
                    out = product @ H
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= out.nbytes + 2.25 * gcn._PASS_VALUES * 8, (rows, width)

    def test_symmetric_transpose_is_itself(self):
        A_hat = normalize_adjacency(sparse_weights(91, 50, 60))
        assert A_hat.T is A_hat and A_hat.shape == (50, 50)

    def test_shape_mismatch(self):
        M = CsrMatrix.from_dense(sparse_features(92, 30, 40, 0.1))
        with pytest.raises(ValueError):
            M @ np.zeros((30, 2))
        with pytest.raises(ValueError):
            M.T @ np.zeros((40, 2))


class TestForward:
    def test_dead_first_layer(self):
        """W1 = 0 gives zero logits: every masked row scores log C, and no
        gradient flows."""
        params, A_hat, X, labels, mask = random_gcn_instance(seed=1)
        params.W1 = np.zeros_like(params.W1)
        loss, g1, g2 = loss_and_gradients(params, A_hat, X, labels, mask, 0.0)
        assert abs(loss - math.log(params.W2.shape[1])) < 1e-12
        np.testing.assert_array_equal(g1, np.zeros_like(g1))
        np.testing.assert_array_equal(g2, np.zeros_like(g2))

    def test_identity_propagation_is_mlp(self):
        params = xavier_params(3, 4, 2, seed=2)
        X = np.array([[0.3, -0.2, 0.9], [-0.5, 0.4, 0.1], [0.8, 0.7, -0.6]])
        labels = np.array([1, 0, 1])
        loss, _, _ = loss_and_gradients(params, np.eye(3), X, labels, [0, 1, 2], 0.0)
        mlp = np.maximum(X @ params.W1, 0.0) @ params.W2
        assert abs(loss - cross_entropy(mlp, labels, [0, 1, 2])) <= 1e-12

    def test_matches_loop_oracle(self):
        for seed in (3, 4, 5):
            params, A_hat, X, _, _ = random_gcn_instance(seed)
            dense = random_gcn_instance(seed, adjacency=dense_a_hat)[1]
            np.testing.assert_allclose(program_logits(params, A_hat, X),
                                       forward_oracle(params, dense, X), atol=1e-10)

    def test_shape_mismatch(self):
        params = xavier_params(3, 4, 2, seed=6)
        with pytest.raises(ValueError):
            loss_and_gradients(params, np.eye(2), np.zeros((2, 5)),
                               np.zeros(2, dtype=np.int64), [0, 1], 0.0)


def logits_instance(logits):
    """Params, A_hat, X whose logits are ``logits``, which must be
    non-negative: X = logits, A_hat = I, W1 = I and W2 = I."""
    n, C = logits.shape
    return GcnParams(W1=np.eye(C), W2=np.eye(C)), np.eye(n), logits


class TestCrossEntropy:
    def test_uniform_logits(self):
        params, A_hat, X = logits_instance(np.zeros((3, 4)))
        loss, _, _ = loss_and_gradients(params, A_hat, X, np.array([0, 1, 2]), [0, 1, 2], 0.0)
        assert abs(loss - math.log(4)) < 1e-12

    def test_saturated_softmax(self):
        """exp(1000) overflows, so only the max shift keeps the loss finite."""
        logits = np.zeros((2, 3))
        logits[0, 1] = 1000.0
        logits[1, 2] = 1000.0
        params, A_hat, X = logits_instance(logits)
        with np.errstate(over="raise", invalid="raise"):
            right = loss_and_gradients(params, A_hat, X, np.array([1, 2]), [0, 1], 0.0)
            wrong = loss_and_gradients(params, A_hat, X, np.array([0, 0]), [0, 1], 0.0)
        assert right[0] < 1e-9
        assert abs(wrong[0] - 1000.0) < 1e-9
        for g in right[1:] + wrong[1:]:
            assert np.all(np.isfinite(g))

    def test_shift_invariance(self):
        """A last feature c routed through one hidden unit to every class adds
        s c_i to each logit of row i."""
        rng = SplitMix64(57)
        base = np.array([[rng.uniform() for _ in range(4)] for _ in range(5)])
        labels = np.array([rng.bounded(4) for _ in range(5)], dtype=np.int64)
        mask = [0, 2, 4]
        c = np.array([[7.5], [3.0], [0.0], [100.0], [50.0]])
        X = np.hstack([base, c])

        def loss_at(s):
            params = GcnParams(W1=np.eye(5), W2=np.vstack([np.eye(4), np.full((1, 4), s)]))
            return loss_and_gradients(params, np.eye(5), X, labels, mask, 0.0)[0]

        a = loss_at(0.0)
        assert abs(a - cross_entropy(base, labels, mask)) <= 1e-12
        for s in (1.0, -1.0):
            assert abs(loss_at(s) - a) <= 1e-12

    def test_softmax_rows_sum_to_one(self):
        """g2 = H^T A_hat (P - Y) / m, so each row of g2 sums to 0 when
        each softmax row of P sums to 1."""
        params, A_hat, X, labels, mask = random_gcn_instance(59, n=8, C=6)
        params.W2 = 10.0 * params.W2
        _, _, g2 = loss_and_gradients(params, A_hat, X, labels, mask, 0.0)
        assert np.max(np.abs(g2)) > 1e-3
        np.testing.assert_allclose(g2.sum(axis=1), np.zeros(g2.shape[0]), atol=1e-12)

    def test_empty_mask_rejected(self):
        params, A_hat, X = logits_instance(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="mask must be non-empty"):
            loss_and_gradients(params, A_hat, X, np.zeros(2, dtype=int), [], 0.0)


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


def check_finite_differences(A_hat, n, d, h, C, X=None):
    rng = SplitMix64(79)
    if X is None:
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


class TestGradients:
    @pytest.mark.parametrize("sparse", [True, False])
    def test_finite_differences_with_distinct_widths(self, sparse):
        """h = 4 and C = 3, so a W2 / W2.T mix-up cannot pass."""
        n = 80
        w = sparse_weights(78, n, 20)
        A_hat = normalize_adjacency(w) if sparse else dense_a_hat(w)
        assert isinstance(A_hat, CsrMatrix) == sparse
        check_finite_differences(A_hat, n, d=3, h=4, C=3)

    def test_finite_differences_with_sparse_wide_features(self, monkeypatch):
        """X has 71 nonzeros of 3200, so it is held in CSR rows, several of
        them empty, and both first-layer products multiply it first."""
        n, d, h, C = 80, 40, 2, 3
        X = sparse_features(93, n, d, 0.02, binary=False)
        assert 0 < gcn._ENTRIES_PER_NONZERO * np.count_nonzero(X) <= X.size
        held = spy_feature_products(monkeypatch)
        check_finite_differences(normalize_adjacency(sparse_weights(78, n, 20)),
                                 n, d, h, C, X=X)
        assert held == [CsrMatrix] * 2

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
    (50, 2, 6, 250),  # stops early, after epoch 57
]


def loop_instance(size, blocks, dim, epochs):
    """Dataset, A_hat, split and config of one reference-loop comparison;
    training takes the seed 15."""
    ds = generate_sbm(SbmParams(nodes_per_block=size, blocks=blocks, p_in=0.2,
                                p_out=0.02, feature_dim=dim, feature_signal=1.0,
                                feature_noise=0.8), 13)
    split = split_nodes(ds.n, (0.6, 0.2, 0.2), seed=14)
    config = TrainConfig(hidden=16, epochs=epochs, learning_rate=0.05)
    return ds, normalize_adjacency(ds.graph), split, config


def with_word_features(ds, d, seed=94):
    """``ds`` with d 0/1 features, about 2% of them ones: words of a node's
    own class (one word in three) are drawn at 3.5%, the others at 1.25%."""
    rng = SplitMix64(seed)
    own = (np.arange(d)[None, :] % 3) == ds.labels[:, None]
    X = (rng.uniforms(ds.n * d).reshape(ds.n, d) < np.where(own, 0.035, 0.0125)).astype(float)
    return Dataset(features=X, labels=ds.labels, graph=ds.graph, num_classes=ds.num_classes)


def sparse_wide_instance():
    """LOOP_INSTANCES's first graph with 400 word features
    (:func:`with_word_features`)."""
    ds, A_hat, split, config = loop_instance(50, 2, 6, 10)
    return with_word_features(ds, 400), A_hat, split, config


def assert_agrees_with(trained, reference):
    """``train``'s result agrees with a :func:`reference_train` that takes
    another order of products: to rounding, and in every accuracy."""
    params, report = trained
    ref_params, loss_trace, val_trace, best_epoch, test_acc = reference
    for got, want in ((params.W1, ref_params.W1), (params.W2, ref_params.W2)):
        # Adam moves every weight by about the learning rate per epoch, so a
        # weight that ends near 0 carries the rounding of steps far larger
        # than itself.  The worst such error seen, on Cora's width in the
        # other feature order, is 9.1e-14 of the largest weight beyond
        # rtol (3.5e-14 with two BLAS threads); atol leaves a factor 2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=2e-13 * np.abs(want).max())
    np.testing.assert_allclose(report.loss_trace, loss_trace, rtol=1e-12)
    assert report.val_accuracy_trace == val_trace
    assert report.best_val_epoch == best_epoch
    assert report.test_accuracy == test_acc


class TestTrain:
    def test_zero_learning_rate_freezes_parameters(self):
        ds = separable_dataset()
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=1)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=8, epochs=10, learning_rate=0.0)
        params, report = train(ds, A_hat, split, config, 2)
        init = xavier_params(ds.feature_dim, 8, ds.num_classes, seed=2)
        np.testing.assert_array_equal(params.W1, init.W1)
        assert len(set(report.loss_trace)) == 1

    def test_separable_sbm_reaches_high_accuracy(self):
        ds = separable_dataset(seed=3)
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=4)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=16, epochs=250, learning_rate=1e-2)
        _, report = train(ds, A_hat, split, config, 5)
        assert report.test_accuracy > 0.9

    def test_deterministic_reports(self):
        ds = separable_dataset(seed=6)
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=7)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=8, epochs=30, learning_rate=1e-2)
        _, a = train(ds, A_hat, split, config, 8)
        _, b = train(ds, A_hat, split, config, 8)
        assert a.loss_trace == b.loss_trace
        assert a.val_accuracy_trace == b.val_accuracy_trace
        assert a.test_accuracy == b.test_accuracy

    def test_best_epoch_ties_to_earliest(self):
        ds = separable_dataset(seed=9)
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=10)
        A_hat = normalize_adjacency(ds.graph)
        config = TrainConfig(hidden=8, epochs=40, learning_rate=1e-2)
        _, report = train(ds, A_hat, split, config, 11)
        best = report.best_val_epoch
        peak = max(report.val_accuracy_trace)
        assert report.val_accuracy_trace[best] == peak
        assert best == report.val_accuracy_trace.index(peak)

    @pytest.mark.parametrize("size, blocks, dim, epochs", LOOP_INSTANCES)
    def test_bit_identical_to_reference_loop(self, size, blocks, dim, epochs):
        ds, A_hat, split, config = loop_instance(size, blocks, dim, epochs)
        params, report = train(ds, A_hat, split, config, 15)
        ref_params, loss_trace, val_trace, best_epoch, test_acc = reference_train(
            ds, A_hat, split, config, 15, features_first=features_first_in_train(ds))
        np.testing.assert_array_equal(params.W1, ref_params.W1)
        np.testing.assert_array_equal(params.W2, ref_params.W2)
        np.testing.assert_array_equal(report.loss_trace, loss_trace)
        np.testing.assert_array_equal(report.val_accuracy_trace, val_trace)
        assert report.best_val_epoch == best_epoch
        assert report.test_accuracy == test_acc

    def test_early_stop_only_truncates(self):
        """The run stops after the epoch PATIENCE past its best, and a run
        capped at that many epochs returns the same bytes."""
        ds, A_hat, split, config = loop_instance(*LOOP_INSTANCES[3])
        params, report = train(ds, A_hat, split, config, 15)
        stop = len(report.loss_trace) - 1
        assert stop - report.best_val_epoch == PATIENCE and stop + 1 < config.epochs
        capped = dataclasses.replace(config, epochs=stop + 1)
        capped_params, capped_report = train(ds, A_hat, split, capped, 15)
        np.testing.assert_array_equal(capped_params.W1, params.W1)
        np.testing.assert_array_equal(capped_params.W2, params.W2)
        np.testing.assert_array_equal(capped_report.loss_trace, report.loss_trace)
        assert capped_report.best_val_epoch == report.best_val_epoch
        assert capped_report.test_accuracy == report.test_accuracy

    def test_cap_only_truncates_at_any_width(self):
        """The first layer's order does not read the cap: with 90 features
        and hidden width 4, runs capped at 10 and 11 epochs, on either side
        of 2 * cap + 1 first-layer products of 4 columns against 90, take
        the same order, so the shorter run is a prefix of the longer."""
        ds = generate_sbm(SbmParams(nodes_per_block=40, blocks=3, p_in=0.1,
                                    p_out=0.01), 96)
        ds = with_word_features(ds, 90)
        split = split_nodes(ds.n, (0.6, 0.2, 0.2), seed=97)
        A_hat = normalize_adjacency(ds.graph)
        _, short = train(ds, A_hat, split, TrainConfig(hidden=4, epochs=10), 98)
        _, long = train(ds, A_hat, split, TrainConfig(hidden=4, epochs=11), 98)
        assert len(short.loss_trace) == 10 and len(long.loss_trace) == 11
        np.testing.assert_array_equal(short.loss_trace, long.loss_trace[:10])
        np.testing.assert_array_equal(short.val_accuracy_trace, long.val_accuracy_trace[:10])

    @pytest.mark.parametrize("size, blocks, dim, epochs", LOOP_INSTANCES)
    def test_hidden_width_order_agrees(self, size, blocks, dim, epochs):
        """A_hat @ (H W2) and (A_hat @ H) W2 differ only in rounding."""
        ds, A_hat, split, config = loop_instance(size, blocks, dim, epochs)
        assert_agrees_with(train(ds, A_hat, split, config, 15), reference_train(
            ds, A_hat, split, config, 15, class_width=False,
            features_first=features_first_in_train(ds)))

    @pytest.mark.parametrize("size, blocks, dim, epochs", LOOP_INSTANCES)
    def test_feature_order_agrees(self, size, blocks, dim, epochs):
        """(A_hat @ X) @ W1 and A_hat @ (X @ W1) differ only in rounding, so
        the order train does not take agrees with it."""
        ds, A_hat, split, config = loop_instance(size, blocks, dim, epochs)
        assert_agrees_with(train(ds, A_hat, split, config, 15), reference_train(
            ds, A_hat, split, config, 15,
            features_first=not features_first_in_train(ds)))

    def test_sparse_features_agree_with_dense_products(self):
        """The CSR products of X reorder only the sums of the dense ones."""
        ds, A_hat, split, config = sparse_wide_instance()
        assert features_first_in_train(ds)
        assert_agrees_with(train(ds, A_hat, split, config, 15), reference_train(
            ds, A_hat, split, config, 15, features_first=True))

    def test_features_held_in_csr_below_the_rule(self, monkeypatch):
        """Every first-layer product, 2 * epochs + 1 of them, multiplies the
        CSR of a sparse X."""
        ds, A_hat, split, config = sparse_wide_instance()
        assert features_first_in_train(ds)
        spy = spy_feature_products(monkeypatch)
        train(ds, A_hat, split, config, 15)
        assert spy == [CsrMatrix] * (2 * config.epochs + 1)

    def test_csr_rule_boundary(self):
        """X is held in CSR rows up to one nonzero in _ENTRIES_PER_NONZERO."""
        A_hat = normalize_adjacency(sparse_weights(95, 40, 30))
        X = np.zeros((40, 64))
        at_rule = 40 * 64 // gcn._ENTRIES_PER_NONZERO
        X.flat[:at_rule] = 1.0
        assert isinstance(gcn._features(A_hat, X, gcn._sparse(X)).X, CsrMatrix)
        X.flat[at_rule] = 1.0
        assert gcn._sparse(X) is None
        assert isinstance(gcn._features(A_hat, X, None), np.ndarray)

    def test_sparse_features_built_once_per_dataset(self, monkeypatch):
        """Every train call on one dataset, as a repetition's three arms and
        a bundle's repetitions make, multiplies the one CSR it keeps."""
        ds, A_hat, split, config = sparse_wide_instance()
        from_dense = CsrMatrix.from_dense
        built = []

        def build(X):
            built.append(X.shape)
            return from_dense(X)
        monkeypatch.setattr(CsrMatrix, "from_dense", build)
        matmul = gcn._FeaturesFirst.__matmul__
        held = []

        def spy(self, M):
            held.append(self.X)
            return matmul(self, M)
        monkeypatch.setattr(gcn._FeaturesFirst, "__matmul__", spy)
        poisoned = normalize_adjacency(np.ones(pair_count(ds.n)))
        runs = [train(ds, a_hat, split, config, seed)
                for a_hat, seed in ((A_hat, 15), (poisoned, 15), (A_hat, 16))]
        assert built == [ds.features.shape]
        assert isinstance(ds.sparse_features, CsrMatrix)
        assert len(held) == 3 * (2 * config.epochs + 1)
        assert all(X is ds.sparse_features for X in held)
        fresh = Dataset(features=ds.features, labels=ds.labels, graph=ds.graph,
                        num_classes=ds.num_classes)
        params, report = train(fresh, A_hat, split, config, 15)
        assert len(built) == 2
        np.testing.assert_array_equal(params.W1, runs[0][0].W1)
        np.testing.assert_array_equal(params.W2, runs[0][0].W2)
        assert report == runs[0][1]

    def test_narrow_features_build_no_csr(self):
        """Dense features are not held in CSR rows, so A_hat X is formed once:
        A_hat multiplies X in one product and otherwise the class width."""
        ds, A_hat, split, config = loop_instance(*LOOP_INSTANCES[0])
        assert not features_first_in_train(ds)
        spy = SpyAdjacency(A_hat)
        train(ds, spy, split, config, 15)
        assert ds.sparse_features is None
        assert spy.widths.count(ds.feature_dim) == 1 and ds.feature_dim != ds.num_classes

    @pytest.mark.parametrize("sparse", [True, False])
    def test_epoch_products_have_class_width(self, sparse):
        """A_hat multiplies X once and otherwise only operands with one column
        per class: one product to score the start and two per epoch."""
        ds = generate_sbm(SbmParams(nodes_per_block=50, blocks=3, p_in=0.04,
                                    p_out=0.002, feature_dim=6), 16)
        split = split_nodes(ds.n, (0.6, 0.2, 0.2), seed=17)
        A_hat = normalize_adjacency(ds.graph)
        assert isinstance(A_hat, CsrMatrix)
        spy = SpyAdjacency(A_hat if sparse else dense_a_hat(ds.graph))
        config = TrainConfig(hidden=16, epochs=20)
        assert ds.feature_dim != ds.num_classes != config.hidden
        train(ds, spy, split, config, 18)
        assert sorted(spy.widths) == sorted(
            [ds.feature_dim] + [ds.num_classes] * (2 * config.epochs + 1))

    @pytest.mark.parametrize("sparse", [True, False])
    def test_wide_features_never_reach_a_hat(self, sparse):
        """200 word features (:func:`with_word_features`) are held in CSR
        rows, so A_hat multiplies the hidden width and the class width once
        each to score the start and twice each per epoch, and never X."""
        ds = generate_sbm(SbmParams(nodes_per_block=50, blocks=3, p_in=0.04,
                                    p_out=0.002), 16)
        ds = with_word_features(ds, 200)
        split = split_nodes(ds.n, (0.6, 0.2, 0.2), seed=17)
        A_hat = normalize_adjacency(ds.graph) if sparse else dense_a_hat(ds.graph)
        spy = SpyAdjacency(A_hat)
        config = TrainConfig(hidden=4, epochs=10)
        assert features_first_in_train(ds)
        train(ds, spy, split, config, 18)
        products = 2 * config.epochs + 1
        assert sorted(spy.widths) == sorted(
            [config.hidden] * products + [ds.num_classes] * products)

    def test_overflowing_logits_raise_train_divergence(self):
        """Adam's first step moves each weight by about the learning rate,
        so at 1e160 the logits that score epoch 0's update, about 1e320,
        overflow, while the loss of epoch 0, at the initial weights, is
        finite."""
        ds = separable_dataset()
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=1)
        A_hat = normalize_adjacency(ds.graph)
        loss, _, _ = loss_and_gradients(xavier_params(ds.feature_dim, 4, ds.num_classes, 2),
                                        A_hat, ds.features, ds.labels, split.train, 5e-4)
        assert np.isfinite(loss)
        with pytest.raises(gcn.TrainDivergence, match="at epoch 0$") as caught:
            train(ds, A_hat, split, TrainConfig(hidden=4, epochs=9, learning_rate=1e160), 2)
        assert caught.value.epoch == 0

    def test_overflowing_loss_raises_train_divergence(self):
        # Adam's first step at learning rate 1e154 moves each of the 32
        # weights by about 1e154, so ||W||^2 overflows in the loss of epoch 1;
        # features of 1e-100 keep the logits, about 1e208, finite
        ds = separable_dataset()
        tiny = Dataset(features=ds.features * 1e-100, labels=ds.labels, graph=ds.graph,
                       num_classes=ds.num_classes)
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=1)
        A_hat = normalize_adjacency(ds.graph)
        with np.errstate(over="ignore"):
            _, report = train(tiny, A_hat, split,
                              TrainConfig(hidden=4, epochs=1, learning_rate=1e154,
                                          weight_decay=1.0), 2)
            assert len(report.loss_trace) == 1 and np.all(np.isfinite(report.loss_trace))
            with pytest.raises(gcn.TrainDivergence, match="at epoch 1$") as caught:
                train(tiny, A_hat, split,
                      TrainConfig(hidden=4, epochs=2, learning_rate=1e154, weight_decay=1.0), 2)
        assert caught.value.epoch == 1

    def test_zero_weight_decay_leaves_out_the_penalty(self):
        """At weight decay 0 an overflowing ||W||^2 is not read, so the loss
        is the finite cross-entropy, not 0 * inf."""
        ds = separable_dataset()
        split = split_nodes(ds.n, (0.8, 0.1, 0.1), seed=1)
        init = xavier_params(ds.feature_dim, 4, ds.num_classes, 2)
        params = GcnParams(W1=init.W1 * 1e154, W2=init.W2 * 1e154)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(params.W1 ** 2) + np.sum(params.W2 ** 2))
            loss, g1, g2 = loss_and_gradients(params, normalize_adjacency(ds.graph),
                                              ds.features * 1e-100, ds.labels, split.train,
                                              0.0)
        assert np.isfinite(loss) and np.isfinite(g1).all() and np.isfinite(g2).all()

    def test_empty_split_part_rejected(self):
        ds = separable_dataset(seed=12)
        split = Split(train=np.arange(70), val=np.array([70]), test=np.array([]))
        A_hat = normalize_adjacency(ds.graph)
        with pytest.raises(ValueError, match="test split"):
            train(ds, A_hat, split, TrainConfig(epochs=1), 0)
