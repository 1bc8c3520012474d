"""Pair vectors and their indexing, plus the dense oracles the pair-space code
is checked against: the adjacency W, the Laplacian operator L, its adjoint
L*, and a validator for membership in the combinatorial Laplacian set."""

from dataclasses import dataclass

import numpy as np
import pytest

from graphclean.denoise import pairwise_p_distances
from graphclean.operators import (
    WeightVector,
    _rows,
    _weight_array,
    node_count_for_pairs,
    pair_count,
    pair_index,
    pair_nodes,
    pair_positions,
    same_label_pairs,
)
from graphclean.rng import SplitMix64


def adjacency_from_weights(w) -> np.ndarray:
    """Oracle: symmetric non-negative adjacency with zero diagonal."""
    values = _weight_array(w)
    if np.any(values < 0):
        raise ValueError("adjacency weights must be non-negative")
    n = node_count_for_pairs(values.shape[0])
    rows, cols = np.triu_indices(n, 1)
    W = np.zeros((n, n), dtype=np.float64)
    W[rows, cols] = values
    W += W.T
    return W


def laplacian_from_weights(w) -> np.ndarray:
    """Oracle: [L w]_ij = -w_k for i != j, rows sum to zero.

    Accepts a WeightVector or a raw vector (which may be negative; the map
    itself is linear, non-negativity is only needed for membership in the
    Laplacian set).
    """
    values = _weight_array(w)
    n = node_count_for_pairs(values.shape[0])
    rows, cols = np.triu_indices(n, 1)
    M = np.zeros((n, n), dtype=np.float64)
    M[rows, cols] = -values
    M += M.T
    np.fill_diagonal(M, -M.sum(axis=1))
    return M


def adjoint_of(Y: np.ndarray) -> np.ndarray:
    """Oracle: [L* Y]_k = Y_ii - Y_ij - Y_ji + Y_jj, so <L w, Y> = <w, L* Y>."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
        raise ValueError(f"adjoint input must be a square matrix, got shape {Y.shape}")
    n = Y.shape[0]
    if n < 2:
        raise ValueError(f"adjoint input must be at least 2x2, got n={n}")
    rows, cols = np.triu_indices(n, 1)
    d = np.diag(Y)
    return d[rows] + d[cols] - Y[rows, cols] - Y[cols, rows]


def dominant_eigenvalue(matvec, dim: int, iters: int = 300,
                        rtol: float = 1e-12, seed: int = 0x5EED) -> float:
    """Rayleigh-quotient estimate of the dominant eigenvalue of a symmetric
    operator by power iteration, from a fixed SplitMix64 start vector."""
    v = SplitMix64(seed).uniforms(dim) - 0.5
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.zeros(dim)
        v[0] = 1.0
    else:
        v /= norm
    lam = 0.0
    for _ in range(iters):
        u = matvec(v)
        unorm = np.linalg.norm(u)
        if unorm == 0.0:
            return 0.0
        lam_new = float(v @ u)
        v = u / unorm
        if abs(lam_new - lam) <= rtol * (1.0 + abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


@dataclass(frozen=True)
class LaplacianCheck:
    symmetric: bool
    max_positive_offdiag: float
    offdiag_signs_ok: bool
    row_sums_ok: bool
    min_eigenvalue: float
    psd_ok: bool

    @property
    def ok(self) -> bool:
        return self.symmetric and self.offdiag_signs_ok and self.row_sums_ok and self.psd_ok


def validate_laplacian(M: np.ndarray, tol: float = 1e-9,
                       psd_tol: float = 1e-8) -> LaplacianCheck:
    """Oracle: symmetry, off-diagonal signs, zero row sums and positive
    semi-definiteness of M.  The smallest eigenvalue is c - lambda_max(cI - M)
    with c the largest diagonal entry, by power iteration."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    off = M.copy()
    np.fill_diagonal(off, -np.inf)
    max_positive_offdiag = float(max(off.max(), 0.0)) if n > 1 else 0.0
    c = float(np.max(np.diag(M)))
    min_eigenvalue = c - dominant_eigenvalue((c * np.eye(n) - M).__matmul__, n)
    return LaplacianCheck(
        symmetric=float(np.max(np.abs(M - M.T))) <= tol,
        max_positive_offdiag=max_positive_offdiag,
        offdiag_signs_ok=max_positive_offdiag <= tol,
        row_sums_ok=float(np.max(np.abs(M.sum(axis=1)))) <= tol,
        min_eigenvalue=min_eigenvalue,
        psd_ok=min_eigenvalue >= -psd_tol,
    )


def enumerate_pairs(n):
    """Oracle: the canonical column-major pair enumeration, 1-based."""
    pairs = []
    for j in range(1, n):
        for i in range(j + 1, n + 1):
            pairs.append((i, j))
    return pairs


def adjoint_oracle(Y):
    """Oracle: the four-term sum evaluated pair by pair."""
    n = Y.shape[0]
    out = np.empty(pair_count(n))
    for k, (i, j) in enumerate(enumerate_pairs(n)):
        out[k] = Y[i - 1, i - 1] - Y[i - 1, j - 1] - Y[j - 1, i - 1] + Y[j - 1, j - 1]
    return out


def random_instance(rng, n):
    w = np.array([rng.uniform() for _ in range(pair_count(n))])
    Y = np.array([[rng.uniform() - 0.5 for _ in range(n)] for _ in range(n)])
    return w, Y


class TestPairIndex:
    def test_first_pair(self):
        assert pair_index(2, 1, 4) == 1

    def test_last_pair(self):
        assert pair_index(4, 3, 4) == 6
        assert pair_index(4, 3, 4) == pair_count(4)

    def test_mid_pair_matches_enumeration_oracle(self):
        # (3,2) is the 4th pair in the column-major enumeration of n=4
        pairs = enumerate_pairs(4)
        assert pairs.index((3, 2)) + 1 == 4
        assert pair_index(3, 2, 4) == 4

    @pytest.mark.parametrize("n", range(2, 13))
    def test_bijection(self, n):
        seen = [pair_index(i, j, n) for (i, j) in enumerate_pairs(n)]
        assert sorted(seen) == list(range(1, pair_count(n) + 1))

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 2), (1, 2), (5, 1), (2, 0)])
    def test_rejects_bad_indices(self, i, j):
        with pytest.raises(ValueError):
            pair_index(i, j, 4)

    def test_pair_nodes_inverts_pair_order(self):
        for n in range(2, 61):
            m = pair_count(n)
            i, j = pair_nodes(np.arange(m), n)
            rows, cols = np.triu_indices(n, 1)
            np.testing.assert_array_equal(i, rows)
            np.testing.assert_array_equal(j, cols)
            # pair_index numbers the transposed pair (j, i) from 1
            index = [pair_index(b + 1, a + 1, n) for a, b in zip(i.tolist(), j.tolist())]
            assert index == list(range(1, m + 1))
            # pair_positions inverts pair_nodes, whatever the order of the pairs
            np.testing.assert_array_equal(pair_positions(i, j, n), np.array(index) - 1)
            k = np.arange(m)[::-1] if n % 2 else (np.arange(m) * 7) % m
            np.testing.assert_array_equal(pair_positions(*pair_nodes(k, n), n), k)
            # _rows tiles [0, m) in order, each row with its own pairs
            spans = list(_rows(n))
            assert [span.start for _, span in spans] == [0] + [span.stop for _, span in spans[:-1]]
            assert spans[-1][1].stop == m
            np.testing.assert_array_equal(
                np.concatenate([np.full(span.stop - span.start, r) for r, span in spans]), rows)

    def test_pair_nodes_of_some_pairs(self):
        i, j = pair_nodes([], 5)
        assert i.shape == j.shape == (0,)
        k = np.array([9, 0, 4, 4, 7, 1])
        rows, cols = np.triu_indices(5, 1)
        i, j = pair_nodes(k, 5)
        np.testing.assert_array_equal(i, rows[k])
        np.testing.assert_array_equal(j, cols[k])

    def test_same_label_pairs_matches_the_pair_index(self):
        rng = SplitMix64(21)
        for n in range(2, 61):
            labels = (rng.uniforms(n) * 3).astype(np.int64)
            rows, cols = np.triu_indices(n, 1)
            mask = same_label_pairs(labels)
            assert mask.dtype == bool
            np.testing.assert_array_equal(mask, labels[rows] == labels[cols])

    def test_node_count_inverse(self):
        for n in range(2, 40):
            assert node_count_for_pairs(pair_count(n)) == n
        with pytest.raises(ValueError):
            node_count_for_pairs(2)


class TestLaplacianFromWeights:
    def test_path_graph(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(laplacian_from_weights([1.0, 0.0, 1.0]), expected)

    def test_empty_graph(self):
        np.testing.assert_array_equal(laplacian_from_weights([0.0, 0.0, 0.0]),
                                      np.zeros((3, 3)))

    def test_complete_graph(self):
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        np.testing.assert_array_equal(laplacian_from_weights([1.0, 1.0, 1.0]), expected)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            laplacian_from_weights([1.0, 2.0])


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_array_equal(adjoint_of(np.eye(3)), [2.0, 2.0, 2.0])

    def test_single_edge_laplacian(self):
        # frozen from the four-term oracle: pairs (2,1), (3,1), (3,2)
        Y = laplacian_from_weights([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(adjoint_oracle(Y), [4.0, 1.0, 1.0])
        np.testing.assert_array_equal(adjoint_of(Y), [4.0, 1.0, 1.0])

    def test_matches_oracle_random(self):
        rng = SplitMix64(11)
        for _ in range(20):
            n = 3 + rng.bounded(10)
            _, Y = random_instance(rng, n)
            np.testing.assert_allclose(adjoint_of(Y), adjoint_oracle(Y), rtol=1e-12)

    def test_adjoint_identity_random(self):
        rng = SplitMix64(23)
        for _ in range(200):
            n = 3 + rng.bounded(10)
            w, Y = random_instance(rng, n)
            lhs = float(np.sum(laplacian_from_weights(w) * Y))
            rhs = float(w @ adjoint_of(Y))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            adjoint_of(np.zeros((2, 3)))


class TestAdjacency:
    def test_path_graph(self):
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(adjacency_from_weights([1.0, 0.0, 1.0]), expected)

    def test_two_node_empty(self):
        np.testing.assert_array_equal(adjacency_from_weights([0.0]), np.zeros((2, 2)))

    def test_laplacian_diagonal_is_degree(self):
        rng = SplitMix64(3)
        w = np.array([rng.uniform() for _ in range(pair_count(6))])
        L = laplacian_from_weights(w)
        W = adjacency_from_weights(w)
        np.testing.assert_allclose(np.diag(L), W.sum(axis=1), rtol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            adjacency_from_weights([1.0, -0.5, 0.0])


class TestValidateLaplacian:
    def test_path_graph_passes(self):
        check = validate_laplacian(laplacian_from_weights([1.0, 0.0, 1.0]), 1e-9)
        assert check.ok

    def test_positive_offdiagonal_fails(self):
        M = laplacian_from_weights([1.0, 0.0, 1.0])
        M = M.copy()
        M[0, 1] = 1.0
        M[1, 0] = 1.0
        check = validate_laplacian(M, 1e-9)
        assert not check.offdiag_signs_ok
        assert check.max_positive_offdiag == 1.0

    def test_random_weight_laplacians_pass(self):
        rng = SplitMix64(5)
        for _ in range(25):
            n = 3 + rng.bounded(10)
            w = np.array([rng.uniform() for _ in range(pair_count(n))])
            check = validate_laplacian(laplacian_from_weights(w), 1e-9)
            assert check.ok, check

    def test_asymmetry_and_row_sums_flagged(self):
        M = np.array([[1.0, -1.0], [-0.5, 1.0]])
        check = validate_laplacian(M, 1e-9)
        assert not check.symmetric
        assert not check.row_sums_ok

    def test_negative_definite_flagged(self):
        check = validate_laplacian(-np.eye(3), 1e-9)
        assert not check.psd_ok
        assert check.min_eigenvalue < -0.5


class TestPDirichletEnergy:
    """The p-Dirichlet energy sum_k w_k |f_i - f_j|^p of a signal f is the
    denoiser's distance term with f as the only feature: w @ d_p(f[:, None])."""

    PATH = np.array([1.0, 0.0, 1.0])
    SIGNAL = np.array([[0.0], [1.0], [3.0]])

    def test_path_quadratic(self):
        assert self.PATH @ pairwise_p_distances(self.SIGNAL, 2.0) == 5.0

    def test_path_absolute(self):
        assert self.PATH @ pairwise_p_distances(self.SIGNAL, 1.0) == 3.0

    def test_constant_signal_is_zero(self):
        rng = SplitMix64(9)
        w = np.array([rng.uniform() for _ in range(pair_count(5))])
        assert w @ pairwise_p_distances(np.full((5, 1), 2.5), 3.0) == 0.0

    def test_quadratic_form_identity(self):
        rng = SplitMix64(13)
        for _ in range(30):
            n = 3 + rng.bounded(10)
            w = np.array([rng.uniform() for _ in range(pair_count(n))])
            f = np.array([rng.uniform() - 0.5 for _ in range(n)])
            energy = float(w @ pairwise_p_distances(f[:, None], 2.0))
            quad = float(f @ laplacian_from_weights(w) @ f)
            assert abs(energy - quad) <= 1e-9 * (1.0 + abs(quad))

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            pairwise_p_distances(np.array([[0.0], [1.0]]), 0.5)


class TestOperatorNorm:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_composed_map_bounded_by_2n(self, n):
        matvec = lambda v: adjoint_of(laplacian_from_weights(v))
        lam = dominant_eigenvalue(matvec, dim=pair_count(n), iters=500)
        assert lam <= 2 * n * (1 + 1e-9)
        # the constant weight vector attains the bound, so the estimate is tight
        assert lam >= 2 * n * (1 - 1e-6)


class TestWeightVector:
    def test_validates_length(self):
        with pytest.raises(ValueError):
            WeightVector(n=4, values=np.ones(5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(n=3, values=np.array([1.0, -1.0, 0.0]))

    def test_immutable_and_counts_edges(self):
        wv = WeightVector(n=3, values=np.array([1.0, 0.0, 2.0]))
        assert wv.edge_count == 2
        with pytest.raises(ValueError):
            wv.values[0] = 5.0
