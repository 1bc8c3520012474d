"""Stage 1 solver: distances, coefficients, gradient oracle, dual Newton, KKT."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from graphclean.attacks import heterophilic_add, random_add
from graphclean.datasets import InputError, SbmParams, features_are_binary, generate_sbm
from graphclean.denoise import (
    _BLOCK,
    _SLACK,
    DenoiseConfig,
    DenoiseDivergence,
    _degrees,
    _dual_hessian,
    _newton_direction,
    _nonzero_degrees,
    _primal_point,
    denoise,
    gradient,
    linear_coefficient,
    objective,
    pairwise_p_distances,
)
from graphclean.operators import WeightVector, _block_layout, pair_count
from graphclean.rng import SplitMix64

from test_operators import adjoint_of, laplacian_from_weights


def loop_distances(X, p):
    """Oracle: d_p by a loop over rows, |X[r+1:] - X[r]|^p summed per pair."""
    n = X.shape[0]
    out = np.empty(pair_count(n))
    pos = 0
    for r in range(n - 1):
        block = np.abs(X[r + 1:] - X[r])
        if p == 1.0:
            vals = block.sum(axis=1)
        elif p == 2.0:
            vals = np.einsum("ij,ij->i", block, block)
        else:
            vals = (block**p).sum(axis=1)
        out[pos:pos + n - 1 - r] = vals
        pos += n - 1 - r
    return out


def bincount_degrees(values, n):
    """Oracle: deg = S w as one bincount over each end of every pair."""
    rows, cols = np.triu_indices(n, 1)
    return np.bincount(rows, values, n) + np.bincount(cols, values, n)


def dense_objective(w, phi_n, d_p, alpha, beta):
    """Oracle: the objective through the n x n matrix L(w) - Phi_n."""
    residual = laplacian_from_weights(w) - phi_n
    return float(alpha * np.einsum("ij,ij->", residual, residual) + beta * (w @ d_p))


def dense_gradient(w, c, alpha):
    """Oracle: 2 alpha L*(L w) - c through the n x n matrix L(w)."""
    return 2.0 * alpha * adjoint_of(laplacian_from_weights(w)) - c


def dense_denoise(phi_n, d_p, config, w0=None):
    """Oracle: projected gradient descent with an n x n matrix per iteration,
    started from the weights read off ``phi_n = L(w_p)``.  The step is
    1 / (4 alpha n), the inverse Lipschitz constant, so the objective never
    rises; it stops once the relative decrease is at most ``config.tol``."""
    n = phi_n.shape[0]
    rows, cols = np.triu_indices(n, 1)
    w = np.maximum(-phi_n[rows, cols], 0.0) if w0 is None else np.maximum(w0, 0.0)
    c = 2.0 * config.alpha * adjoint_of(phi_n) - config.beta * d_p
    eta = 1.0 / (4.0 * config.alpha * n)
    f_prev = dense_objective(w, phi_n, d_p, config.alpha, config.beta)
    trace = [f_prev]
    for _ in range(config.max_iters):
        w = np.maximum(w - eta * dense_gradient(w, c, config.alpha), 0.0)
        f = dense_objective(w, phi_n, d_p, config.alpha, config.beta)
        trace.append(f)
        decrease = f_prev - f
        if 0.0 <= decrease <= config.tol * max(1.0, abs(f_prev)):
            break
        f_prev = f
    return w, np.asarray(trace)


def dense_kkt(w, w_p, d_p, alpha, beta):
    """Oracle: the KKT residual of w >= 0 through n x n matrices, relative to
    1 + max|c|: |grad f| on the support of w, max(0, -grad f) off it."""
    phi_n = laplacian_from_weights(w_p)
    c = 2.0 * alpha * adjoint_of(phi_n) - beta * d_p
    g = dense_gradient(w, c, alpha)
    violation = np.where(w > 0.0, np.abs(g), np.maximum(-g, 0.0))
    return float(violation.max(initial=0.0)) / (1.0 + float(np.max(np.abs(c))))


def incidence(n):
    """Oracle: the n x m matrix S with S w = deg, one column per pair."""
    rows, cols = np.triu_indices(n, 1)
    S = np.zeros((n, rows.size))
    S[rows, np.arange(rows.size)] = 1.0
    S[cols, np.arange(rows.size)] = 1.0
    return S


def assert_close_to(actual, expected):
    """The pair-space / dense agreement bound: atol 1e-12 (1 + max|expected|)."""
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    assert err <= 1e-12 * (1.0 + float(np.max(np.abs(expected), initial=0.0)))


def finite_difference_gradient(w, w_p, d_p, alpha, beta):
    """Oracle: central differences of the objective, h scaled per coordinate."""
    grad = np.empty_like(w)
    for k in range(w.size):
        h = 1e-6 * (1.0 + abs(w[k]))
        plus = w.copy()
        plus[k] += h
        minus = w.copy()
        minus[k] -= h
        grad[k] = (objective(plus, w_p, d_p, alpha, beta)
                   - objective(minus, w_p, d_p, alpha, beta)) / (2 * h)
    return grad


def random_problem(rng, n, beta_max=1.5):
    """Noisy pair weights plus feature distances, scaled like the SBM runs."""
    m = pair_count(n)
    w_clean = np.array([rng.uniform() if rng.uniform() < 0.4 else 0.0 for _ in range(m)])
    noise = np.array([rng.uniform() if rng.uniform() < 0.1 else 0.0 for _ in range(m)])
    w_p = WeightVector(n=n, values=w_clean + noise)
    d_p = np.array([2.0 * rng.uniform() for _ in range(m)])
    alpha = 0.5 + rng.uniform()
    beta = beta_max * rng.uniform()
    return w_p, d_p, alpha, beta


def dense(blocks, m):
    """The pair vector of a w(lambda) given as per-block (span, indices,
    values) lists."""
    w = np.zeros(m)
    for span, on, values in blocks:
        w[span.start + on] = values
    return w


def primal_point(lam, w_p, d_p, alpha, beta):
    """w(lambda) from the solver's pair pass, as a dense pair vector, with the
    pass's degrees, ||w - w_p||^2 - ||w_p||^2 and <w, d_p>."""
    n = w_p.n
    deg_p = _nonzero_degrees(w_p.values, n)
    buffers = [np.empty(_BLOCK) for _ in range(3)]
    blocks, _, deg, sq, wd, _ = _primal_point(lam, w_p.values, deg_p, d_p, alpha, beta,
                                              _block_layout(n, _BLOCK), buffers)
    return dense(blocks, pair_count(n)), deg, sq, wd


def random_dual(rng, n, alpha):
    """lambda with (lambda_i + lambda_j) / 4 alpha in [-2, 2], so that some
    pairs of a random_problem are active and some are not."""
    return 4.0 * alpha * (2.0 * rng.uniforms(n) - 1.0)


def poisoned_sbm():
    """A heterophilic-poisoned n = 300 SBM: its dataset, its weights and d_2."""
    params = SbmParams(nodes_per_block=150, blocks=2, p_in=0.13, p_out=0.003,
                       feature_dim=8, feature_signal=1.0, feature_noise=0.5)
    dataset = generate_sbm(params, 61)
    w_p = heterophilic_add(dataset, dataset.graph.edge_count // 4, 62)
    return dataset, w_p, pairwise_p_distances(dataset.features, 2.0)


def sparse_bundle():
    """A small cora-shaped problem: 300 nodes in 4 classes, 0/1 features with
    10 ones in 200 columns (70% in a 40-word class vocabulary), 150 edges
    mostly inside a class, and random additions at rate 0.25.  Its w_p holds
    0.42% of the m pairs and its solution at beta 0.7 0.32%, so the denoiser
    takes the working set."""
    rng = SplitMix64(5)
    n, d = 300, 200
    labels = np.arange(n) % 4
    X = np.zeros((n, d))
    for i in range(n):
        for _ in range(10):
            in_class = rng.uniform() < 0.7
            X[i, labels[i] * 40 + rng.bounded(40) if in_class else rng.bounded(d)] = 1.0
    m = pair_count(n)
    rows, cols = np.triu_indices(n, 1)
    same = labels[rows] == labels[cols]
    w = np.zeros(m)
    while np.count_nonzero(w) < 150:
        k = rng.bounded(m)
        if same[k] or rng.uniform() < 0.2:
            w[k] = 1.0
    w_p = random_add(WeightVector(n=n, values=w), 0.25, 7)
    return w_p, X, pairwise_p_distances(X, 2.0)


class TestPairwisePDistances:
    X = np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 0.0]])

    def test_euclidean_squared(self):
        np.testing.assert_allclose(pairwise_p_distances(self.X, 2.0), [5.0, 1.0, 4.0])

    def test_manhattan(self):
        np.testing.assert_allclose(pairwise_p_distances(self.X, 1.0), [3.0, 1.0, 2.0])

    def test_duplicate_rows_give_zero(self):
        X = np.array([[1.5, -2.0], [1.5, -2.0], [0.0, 0.0]])
        assert pairwise_p_distances(X, 2.0)[0] == 0.0

    def test_distinct_rows_give_positive(self):
        rng = SplitMix64(71)
        X = np.array([[rng.uniform() for _ in range(4)] for _ in range(8)])
        for p in (1.0, 2.0, 2.5):
            assert np.all(pairwise_p_distances(X, p) > 0.0)

    def test_general_p(self):
        d = pairwise_p_distances(self.X, 3.0)
        np.testing.assert_allclose(d, [1 + 8, 1, 8])

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            pairwise_p_distances(self.X, 0.9)

    @pytest.mark.parametrize("p, far", [(2.0, 1e160), (400.0, 8.0)])
    def test_overflow_names_p_and_the_pair(self, p, far):
        """|0 - far|^p overflows float64 at the pair (0, 2); 0.5^p does not."""
        X = np.array([[0.0], [0.5], [far]])
        with pytest.raises(InputError, match=rf"at p = {p} for the node pair \(0, 2\);"):
            pairwise_p_distances(X, p)


def random_features(seed, n, d, scale=1.0, ones=None):
    """Uniform features in [-scale, scale); with ``ones`` a fraction, 0/1
    features that are 1 with that probability."""
    u = SplitMix64(seed).uniforms(n * d).reshape(n, d)
    if ones is not None:
        return (u < ones).astype(np.float64)
    return scale * (2.0 * u - 1.0)


def shared_pairs(X):
    """Sum over features of C(c_w, 2), c_w the number of rows holding feature w:
    the node pairs the co-occurrence side lists."""
    counts = np.count_nonzero(X, axis=0)
    return int((counts * (counts - 1) // 2).sum())


def spy_blas_gram(monkeypatch):
    """The shapes of the inputs the BLAS side is called with, as it happens."""
    calls = []
    module = importlib.import_module("graphclean.denoise")
    blas = module._blas_gram_distances

    def spy(X):
        calls.append(X.shape)
        return blas(X)
    monkeypatch.setattr(module, "_blas_gram_distances", spy)
    return calls


def sparse_binary(seed, n, d, ones):
    """0/1 features at Cora-like density, with an all-zero row 0 and an empty
    last column."""
    X = random_features(seed, n, d, ones=ones)
    X[0] = 0.0
    X[:, -1] = 0.0
    return X


class TestGramDistancesMatchLoop:
    """The Gram form is taken only for 0/1 features, and then it gives the
    loop's bits; every other input goes through the loop.  Sparse 0/1
    features take the co-occurrence side, denser ones BLAS
    (:func:`shared_pairs` against the pair count)."""

    # 300 rows: two row blocks of the Gram form, the second one partial; at
    # 20% ones, sum C(c_w, 2) is about 70.8k > m = 44.85k: the BLAS side
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_binary_features_any_p(self, p):
        X = random_features(3, 300, 40, ones=0.2)
        assert features_are_binary(X)
        assert shared_pairs(X) > pair_count(300)
        np.testing.assert_array_equal(pairwise_p_distances(X, p), loop_distances(X, p))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n, d, ones", [(400, 300, 0.01), (250, 120, 0.03),
                                            (60, 500, 0.02)])
    def test_sparse_binary_features_take_the_co_occurrence_side(
            self, monkeypatch, n, d, ones, p):
        """Cora-like densities, with an all-zero row and an empty column.  A
        column set in every row is shared by all m pairs, so it takes this
        side only alone (:meth:`test_side_boundary`)."""
        X = sparse_binary(n + d, n, d, ones)
        assert shared_pairs(X) <= pair_count(n)
        blas = spy_blas_gram(monkeypatch)
        assert pairwise_p_distances(X, p).tobytes() == loop_distances(X, p).tobytes()
        assert blas == []

    @pytest.mark.parametrize("X, blas_side", [
        (np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), False),
        (np.zeros((2, 4)), False),
        (np.ones((2, 3)), True),
        (np.ones((5, 0)), False),
    ], ids=["n2", "n2-zeros", "n2-ones", "d0"])
    def test_smallest_inputs(self, monkeypatch, X, blas_side):
        """n = 2 has m = 1 pair, which each shared feature adds to sum C: one
        shared feature stays on the co-occurrence side, three take BLAS."""
        blas = spy_blas_gram(monkeypatch)
        assert pairwise_p_distances(X, 2.0).tobytes() == loop_distances(X, 2.0).tobytes()
        assert len(blas) == blas_side == (shared_pairs(X) > pair_count(X.shape[0]))

    @pytest.mark.parametrize("extra, blas_side", [(0, False), (1, True)],
                             ids=["sum-C-equals-m", "sum-C-is-m-plus-1"])
    def test_side_boundary(self, monkeypatch, extra, blas_side):
        """A column set in all 30 rows is shared by all m pairs; one more
        column with two ones adds one more pair and crosses to BLAS."""
        X = np.zeros((30, 6))
        X[:, 0] = 1.0
        X[[3, 17], 1] = float(extra)
        X[5, 2] = X[9, 4] = 1.0
        assert shared_pairs(X) == pair_count(30) + extra
        blas = spy_blas_gram(monkeypatch)
        assert pairwise_p_distances(X, 2.0).tobytes() == loop_distances(X, 2.0).tobytes()
        assert len(blas) == blas_side

    @pytest.mark.parametrize("case", ["real", "integer", "near-binary", "nan", "inf"])
    def test_other_features_take_the_loop(self, case):
        X = random_features(5, 60, 12, ones=0.3)
        if case == "real":
            X = random_features(5, 60, 12)
        elif case == "integer":
            X = np.round(random_features(5, 60, 12, scale=50.0))
        else:
            X[7, 3] = {"near-binary": 2.0, "nan": np.nan, "inf": np.inf}[case]
        assert not features_are_binary(X)

    @pytest.mark.parametrize("case", ["binary", "negative-zero", "no-columns", "real",
                                      "near-binary", "minus-one", "nan", "inf"])
    def test_the_nonzero_scan_decides_the_gram_form(self, monkeypatch, case):
        """The one scan that lists the nonzeros for the Gram form also tells
        0/1 features apart, as features_are_binary does."""
        X = random_features(5, 60, 12, ones=0.3)
        if case == "negative-zero":
            X[X == 0.0] = -0.0
        elif case == "no-columns":
            X = np.ones((60, 0))
        elif case == "real":
            X = random_features(5, 60, 12)
        elif case != "binary":
            X[7, 3] = {"near-binary": 1.0 + 2**-52, "minus-one": -1.0, "nan": np.nan,
                       "inf": np.inf}[case]
        module = importlib.import_module("graphclean.denoise")
        gram, calls = module._gram_distances, []

        def spy(*args):
            calls.append(args)
            return gram(*args)
        monkeypatch.setattr(module, "_gram_distances", spy)
        if case in ("nan", "inf"):
            with pytest.raises(InputError, match="d_p is not finite"):
                pairwise_p_distances(X, 2.0)
        else:
            assert pairwise_p_distances(X, 2.0).tobytes() == loop_distances(X, 2.0).tobytes()
        assert bool(calls) == features_are_binary(X) == (case in ("binary", "negative-zero",
                                                                  "no-columns"))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_manhattan_is_the_general_power(self, scale):
        """x ** 1.0 is exact, so p = 1 gives the bits of a plain sum."""
        X = random_features(9, 80, 10, scale=scale)
        np.testing.assert_array_equal(pairwise_p_distances(X, 1.0), loop_distances(X, 1.0))

    def test_tiny_inputs(self):
        for X in (np.zeros((1, 3)), np.ones((4, 0))):
            assert features_are_binary(X)
            np.testing.assert_array_equal(pairwise_p_distances(X, 2.0),
                                          loop_distances(X, 2.0))


class TestLinearCoefficient:
    def test_fidelity_only(self):
        c = linear_coefficient([1.0, 0.0, 0.0], np.zeros(3), alpha=1.0, beta=0.0)
        np.testing.assert_allclose(c, [8.0, 2.0, 2.0])

    def test_distance_only(self):
        c = linear_coefficient(np.zeros(3), np.ones(3), alpha=1.0, beta=2.0)
        np.testing.assert_allclose(c, [-2.0, -2.0, -2.0])

    def test_linearity_in_alpha_beta(self):
        rng = SplitMix64(1)
        w_p = np.array([rng.uniform() for _ in range(6)])
        d_p = np.array([rng.uniform() for _ in range(6)])
        summed = (linear_coefficient(w_p, d_p, 0.7, 0.2)
                  + linear_coefficient(w_p, d_p, 0.3, 1.1))
        combined = linear_coefficient(w_p, d_p, 1.0, 1.3)
        np.testing.assert_allclose(summed, combined, rtol=1e-12)


class TestObjective:
    def test_zero_weights(self):
        w_p = np.array([1.0, 1.0, 0.0])
        phi_n = laplacian_from_weights(w_p)
        expected = 2.0 * float(np.sum(phi_n * phi_n))
        assert objective(np.zeros(3), w_p, np.zeros(3), 2.0, 0.5) == expected

    def test_exact_fit_is_zero(self):
        w = np.array([0.3, 0.0, 1.2])
        assert objective(w, w, np.zeros(3), 1.0, 0.0) == 0.0

    def test_path_graph_value_from_brute_force(self):
        # ||L([1,0,1])||_F^2 summed entry by entry is 10; plus beta * <w, 1> = 2
        w = np.array([1.0, 0.0, 1.0])
        L = laplacian_from_weights(w)
        frob = sum(L[i, j] ** 2 for i in range(3) for j in range(3))
        assert frob == 10.0
        assert objective(w, np.zeros(3), np.ones(3), 1.0, 1.0) == 12.0


class TestGradient:
    def test_stationary_at_exact_fit(self):
        w0 = np.array([0.5, 1.5, 0.0, 0.2, 0.0, 0.7])
        c = linear_coefficient(w0, np.zeros(6), alpha=1.3, beta=0.0)
        np.testing.assert_allclose(gradient(w0, c, 1.3), np.zeros(6), atol=1e-12)

    def test_pure_distance_term(self):
        d_p = np.array([1.0, 2.0, 3.0])
        c = linear_coefficient(np.zeros(3), d_p, alpha=1.0, beta=1.0)
        np.testing.assert_allclose(gradient(np.zeros(3), c, 1.0), d_p)

    def test_matches_finite_differences(self):
        rng = SplitMix64(17)
        for _ in range(50):
            n = 3 + rng.bounded(8)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            w = np.array([rng.uniform() for _ in range(pair_count(n))])
            c = linear_coefficient(w_p, d_p, alpha, beta)
            analytic = gradient(w, c, alpha)
            numeric = finite_difference_gradient(w, w_p, d_p, alpha, beta)
            err = np.max(np.abs(analytic - numeric))
            assert err <= 1e-5 * (1.0 + np.max(np.abs(numeric)))


class TestDenoise:
    def test_exact_recovery_beta_zero(self):
        rng = SplitMix64(29)
        for _ in range(5):
            n = 5 + rng.bounded(26)
            w_true = WeightVector(n=n, values=[rng.uniform() if rng.uniform() < 0.3 else 0.0
                                               for _ in range(pair_count(n))])
            phi_n = laplacian_from_weights(w_true)
            config = DenoiseConfig(alpha=1.0, beta=0.0, max_iters=2000)
            result = denoise(w_true, np.zeros((n, 2)), config,
                             w0=np.zeros(pair_count(n)))
            residual = np.linalg.norm(laplacian_from_weights(result.weights) - phi_n)
            assert residual <= 1e-6 * np.linalg.norm(phi_n)

    def test_default_init_reads_off_perturbed_laplacian(self):
        # the descent starts from the weights on the off-diagonal of L(w_p)
        w_p = WeightVector(n=3, values=[0.4, 0.0, 2.0])
        d_p = np.array([1.0, 2.0, 3.0])
        phi_n = laplacian_from_weights(w_p)
        start = np.maximum(-phi_n[np.triu_indices(3, 1)], 0.0)
        result = denoise(w_p, np.zeros((3, 2)), DenoiseConfig(beta=0.7, max_iters=1),
                         d_p=d_p)
        assert result.objective_trace[0] == objective(start, w_p, d_p, 1.0, 0.7)

    def test_zero_solution_when_distance_term_dominates(self):
        rng = SplitMix64(31)
        n = 6
        w = WeightVector(n=n, values=[rng.uniform() for _ in range(pair_count(n))])
        d_p = np.ones(pair_count(n))
        beta = float(linear_coefficient(w, d_p, 1.0, 0.0).max()) + 1.0
        config = DenoiseConfig(alpha=1.0, beta=beta, max_iters=5000, tol=1e-14)
        result = denoise(w, np.zeros((n, 2)), config, d_p=d_p)
        np.testing.assert_array_equal(result.weights.values, np.zeros(pair_count(n)))
        # KKT at the origin: the gradient must be non-negative
        c = linear_coefficient(w, d_p, 1.0, beta)
        grad0 = gradient(np.zeros(pair_count(n)), c, 1.0)
        assert np.all(grad0 >= 0.0)

    def test_descent_and_feasibility(self):
        rng = SplitMix64(37)
        for _ in range(5):
            n = 4 + rng.bounded(12)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            for max_iters in (1, 7, 60, 300):
                config = DenoiseConfig(alpha=alpha, beta=beta, max_iters=max_iters)
                result = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p)
                assert result.weights.values.min() >= 0.0
                assert np.all(np.diff(result.objective_trace) <= 1e-10)

    def test_kkt_at_convergence(self):
        rng = SplitMix64(41)
        for _ in range(5):
            n = 5 + rng.bounded(20)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            config = DenoiseConfig(alpha=alpha, beta=beta, max_iters=100000,
                                   tol=1e-12)
            result = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p)
            assert result.converged
            w = result.weights.values
            c = linear_coefficient(w_p, d_p, alpha, beta)
            g = gradient(w, c, alpha)
            slack = 1e-4 * (1.0 + np.max(np.abs(c)))
            active = w > 1e-8
            assert np.all(np.abs(g[active]) <= slack)
            assert np.all(g[~active] >= -slack)

    def test_scale_consistency(self):
        rng = SplitMix64(43)
        n = 8
        w_p, d_p, alpha, beta = random_problem(rng, n)
        kwargs = dict(max_iters=50000, tol=1e-13)
        a = denoise(w_p, np.zeros((n, 2)),
                    DenoiseConfig(alpha=alpha, beta=beta, **kwargs), d_p=d_p)
        b = denoise(w_p, np.zeros((n, 2)),
                    DenoiseConfig(alpha=2 * alpha, beta=2 * beta, **kwargs), d_p=d_p)
        np.testing.assert_allclose(a.weights.values, b.weights.values, atol=1e-6)

    def test_divergence_reports_iteration(self):
        # at this scale the squared degree gap of a cold start overflows
        w_p = WeightVector(n=3, values=np.array([1.0, 0.0, 1.0]) * 1e155)
        config = DenoiseConfig(alpha=1.0, beta=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DenoiseDivergence, match="at iteration 0;") as caught:
                denoise(w_p, np.zeros((3, 2)), config, w0=np.zeros(3))
        assert caught.value.iteration == 0

    def test_holds_at_most_three_pair_vectors(self):
        # the loop holds the best point and w(lambda) as sparse lists with
        # their nodes, and no pair index; the WeightVector keeps the best
        # point, uncopied.  A returning index (two int64 arrays of m) fails it.
        n = 613  # an n no other test uses, so nothing is cached
        ds = generate_sbm(SbmParams(nodes_per_block=n, blocks=1, p_in=0.02), seed=5)
        d_p = pairwise_p_distances(ds.features, 2.0)
        tracemalloc.start()
        try:
            result = denoise(ds.graph, ds.features, DenoiseConfig(max_iters=5), d_p=d_p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations_run == 5
        assert peak <= 3 * d_p.nbytes + 256 * n

    def test_json_serialization_keys(self):
        w_p = WeightVector(n=3, values=[1.0, 0.0, 1.0])
        result = denoise(w_p, np.zeros((3, 2)), DenoiseConfig(max_iters=5))
        payload = result.to_json_dict()
        assert list(payload) == ["iterations", "converged", "kkt_residual", "pair_passes",
                                 "objective_trace", "config"]
        assert {key: payload[key] for key in result.summary()} == result.summary()
        assert isinstance(payload["objective_trace"], list)


class TestDegrees:
    def test_matches_bincount_oracle(self):
        # bit for bit: the nonzeros' sums are the oracle's, which adds zeros between them
        rng = SplitMix64(67)
        for n in [2, 3] + [4 + rng.bounded(400) for _ in range(6)]:
            w = rng.uniforms(pair_count(n))
            w[w < 0.5] = 0.0
            expected = bincount_degrees(w, n)
            np.testing.assert_array_equal(_nonzero_degrees(w, n), expected)
            rows, cols = np.triu_indices(n, 1)
            np.testing.assert_array_equal(_degrees(w, rows, cols, np.zeros(n)), expected)

    def test_adds_into_out(self):
        # rows first, then cols, each added into what ``out`` holds
        values = np.array([0.1, 0.2, 0.7])
        rows, cols = np.array([0, 0, 1]), np.array([1, 2, 2])
        out = np.full(3, 0.5)
        assert _degrees(values, rows, cols, out) is out
        np.testing.assert_array_equal(out, ((0.5 + (0.1 + 0.2)) + 0.0,
                                            (0.5 + 0.7) + 0.1,
                                            (0.5 + 0.0) + (0.2 + 0.7)))

    def test_both_paths_start_from_the_same_degrees(self, monkeypatch):
        """The all-pair path (share 0) and the W path (share 1) take deg_p from
        the same sum, bit for bit, on weights that are not integers."""
        module = importlib.import_module("graphclean.denoise")
        dataset, w_p, d_p = poisoned_sbm()
        rng = SplitMix64(71)
        values = w_p.values * rng.uniforms(w_p.values.size)
        w_p = WeightVector(n=w_p.n, values=values)

        def start(share):
            calls = []

            def spy(*args):
                calls.append(_degrees(*args).copy())
                return args[-1]

            with monkeypatch.context() as patch:
                patch.setattr(module, "_WORKING_SHARE", share)
                patch.setattr(module, "_degrees", spy)
                denoise(w_p, dataset.features, DenoiseConfig(max_iters=1), d_p=d_p)
            return calls[0]  # the first call gives deg_p

        deg_all, deg_work = start(0.0), start(1.0)
        assert not np.array_equal(values, np.round(values))
        np.testing.assert_array_equal(deg_all, deg_work)
        np.testing.assert_array_equal(deg_all, bincount_degrees(values, w_p.n))


class TestPairSpaceMatchesDenseOracle:
    """The pair-space objective, gradient and loop against the n x n forms."""

    def test_objective_and_gradient(self):
        rng = SplitMix64(53)
        for n in range(2, 51):
            w_p, d_p, alpha, beta = random_problem(rng, n)
            phi_n = laplacian_from_weights(w_p)
            w = np.array([rng.uniform() if rng.uniform() < 0.5 else 0.0
                          for _ in range(pair_count(n))])
            c = linear_coefficient(w_p, d_p, alpha, beta)
            np.testing.assert_allclose(objective(w, w_p, d_p, alpha, beta),
                                       dense_objective(w, phi_n, d_p, alpha, beta),
                                       rtol=1e-12)
            assert_close_to(c, 2.0 * alpha * adjoint_of(phi_n) - beta * d_p)
            assert_close_to(gradient(w, c, alpha), dense_gradient(w, c, alpha))

    @pytest.mark.parametrize("options", [
        {},
        {"max_iters": 1},
        {"max_iters": 200, "tol": 1e-4},
        {"max_iters": 5000, "tol": 1e-10},
    ])
    def test_loop(self, options):
        # the loop's trace, weights and KKT residual against the n x n forms
        rng = SplitMix64(59)
        for _ in range(6):
            n = 2 + rng.bounded(49)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            config = DenoiseConfig(alpha=alpha, beta=beta, **options)
            result = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p)
            phi_n = laplacian_from_weights(w_p)
            w = result.weights.values
            trace = result.objective_trace
            assert trace.size == result.iterations_run + 1
            assert result.iterations_run <= config.max_iters
            np.testing.assert_allclose(
                trace[[0, -1]], [dense_objective(w_p.values, phi_n, d_p, alpha, beta),
                                 dense_objective(w, phi_n, d_p, alpha, beta)], rtol=1e-12)
            assert np.all(np.diff(trace) <= 1e-10)
            kkt = dense_kkt(w, w_p, d_p, alpha, beta)
            assert abs(result.kkt_residual - kkt) <= 1e-12
            assert result.converged == (kkt <= config.tol)
            if not result.converged:
                assert result.iterations_run == config.max_iters

    def test_objective_matches_a_long_pgd_run(self):
        rng = SplitMix64(61)
        for _ in range(4):
            n = 5 + rng.bounded(26)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            config = DenoiseConfig(alpha=alpha, beta=beta, max_iters=1000, tol=1e-10)
            result = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p)
            assert result.converged
            pgd = DenoiseConfig(alpha=alpha, beta=beta, max_iters=50 * n * n, tol=1e-16)
            w, trace = dense_denoise(laplacian_from_weights(w_p), d_p, pgd)
            assert dense_kkt(w, w_p, d_p, alpha, beta) <= 1e-8
            np.testing.assert_allclose(result.objective_trace[-1], trace[-1], rtol=1e-10)
            np.testing.assert_allclose(result.weights.values, w, atol=1e-6)

    def test_seeded_sbm_protocol_run(self):
        dataset, poisoned, d_p = poisoned_sbm()
        config = DenoiseConfig(alpha=1.0, beta=1.0, max_iters=200)
        result = denoise(poisoned, dataset.features, config, d_p=d_p)
        # the default tol of 1e-6 is met well before the cap
        assert result.converged and result.iterations_run <= 100
        w = result.weights.values
        assert dense_kkt(w, poisoned, d_p, 1.0, 1.0) <= config.tol
        assert np.all(np.diff(result.objective_trace) <= 1e-10)
        tight = denoise(poisoned, dataset.features,
                        DenoiseConfig(alpha=1.0, beta=1.0, max_iters=1000, tol=1e-11), d_p=d_p)
        np.testing.assert_allclose(result.objective_trace[-1], tight.objective_trace[-1],
                                   rtol=1e-9)


class TestDualNewton:
    """The pieces of the dual Newton loop that no other test isolates."""

    def test_primal_point_minimises_each_pair(self):
        # w(lambda)_k minimises 2 alpha (x - w_p,k)^2 + (beta d_k + lambda_i + lambda_j) x
        # over x >= 0; the oracle is a golden-section search on every pair at once
        rng = SplitMix64(71)
        for _ in range(6):
            n = 3 + rng.bounded(40)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            lam = random_dual(rng, n, alpha)
            w, deg, sq, wd = primal_point(lam, w_p, d_p, alpha, beta)
            rows, cols = np.triu_indices(n, 1)
            b = beta * d_p + lam[rows] + lam[cols]

            def phi(x):
                return 2.0 * alpha * (x - w_p.values) ** 2 + b * x

            lo, hi = np.zeros_like(w), w_p.values + np.abs(b) / (4.0 * alpha) + 1.0
            ratio = (math.sqrt(5.0) - 1.0) / 2.0
            for _ in range(200):
                x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                left = phi(x1) <= phi(x2)
                hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
            # comparing values pins the minimiser down to about sqrt(eps) only
            brute = (lo + hi) / 2.0
            np.testing.assert_allclose(w, brute, rtol=0.0, atol=1e-7)
            assert np.all(phi(w) <= phi(brute) + 1e-14 * (1.0 + np.abs(phi(brute))))
            assert 0 < np.count_nonzero(w) < w.size
            assert_close_to(deg, incidence(n) @ w)
            np.testing.assert_allclose(sq, (w - w_p.values) @ (w - w_p.values)
                                       - w_p.values @ w_p.values, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(wd, w @ d_p, rtol=1e-12)

    def test_certificate_bounds_the_kkt_residual(self):
        # on the support of w(lambda) grad f = 2 alpha (grad_i g + grad_j g), off
        # it grad f is at least that, so KKT(w(lambda)) <= 4 alpha |grad g|_inf
        rng = SplitMix64(73)
        for _ in range(8):
            n = 3 + rng.bounded(40)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            lam = random_dual(rng, n, alpha)
            w, deg, _, _ = primal_point(lam, w_p, d_p, alpha, beta)
            grad_g = incidence(n) @ w - incidence(n) @ w_p.values - lam / (2.0 * alpha)
            c = linear_coefficient(w_p, d_p, alpha, beta)
            g = dense_gradient(w, c, alpha)
            rows, cols = np.triu_indices(n, 1)
            bound = 2.0 * alpha * (grad_g[rows] + grad_g[cols])
            on = w > 0.0
            assert_close_to(g[on], bound[on])
            assert np.all(g[~on] >= bound[~on] - 1e-12 * (1.0 + np.max(np.abs(c))))
            scale = 1.0 + float(np.max(np.abs(c)))
            certificate = 4.0 * alpha * float(np.max(np.abs(grad_g)))
            assert dense_kkt(w, w_p, d_p, alpha, beta) * scale <= certificate + 1e-12 * scale

    def test_hessian_product_and_newton_direction(self):
        rng = SplitMix64(79)
        for n in range(2, 31):
            alpha = 0.5 + rng.uniform()
            rows, cols = np.triu_indices(n, 1)
            active = rng.uniforms(rows.size) < 0.3
            S = incidence(n)
            hessian = (S * active) @ S.T / (4.0 * alpha) + np.eye(n) / (2.0 * alpha)
            x = 2.0 * rng.uniforms(n) - 1.0
            r, c = rows[active], cols[active]
            assert_close_to(_dual_hessian(x, r, c, alpha), hessian @ x)
            # CG stops at a relative residual of min(1e-2, ||grad||)
            for size in (1.0, 1e-4):
                grad = size * x
                step = _newton_direction(grad, r, c, alpha)
                norm = np.linalg.norm(grad)
                assert np.linalg.norm(hessian @ step - grad) <= min(1e-2, norm) * norm
                assert grad @ step > 0.0

    def test_kkt_within_tol_whenever_converged(self):
        rng = SplitMix64(73)
        for _ in range(8):
            n = 3 + rng.bounded(40)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            for tol in (1e-2, 1e-4, 1e-6, 1e-9):
                for max_iters in (3, 100000):
                    result = denoise(w_p, np.zeros((n, 2)),
                                     DenoiseConfig(alpha=alpha, beta=beta,
                                                   max_iters=max_iters, tol=tol), d_p=d_p)
                    if result.converged:
                        assert dense_kkt(result.weights.values, w_p, d_p, alpha, beta) <= tol
                    else:
                        assert result.iterations_run == max_iters < 100000

    def test_tol_zero_runs_all_passes(self):
        # Newton reaches KKT 1e-12 within a few passes; with tol 0 the other
        # passes start from a converged lambda, where the gradient can vanish
        rng = SplitMix64(79)
        w_p, d_p, alpha, beta = random_problem(rng, 12)
        tight = denoise(w_p, np.zeros((12, 2)),
                        DenoiseConfig(alpha=alpha, beta=beta, max_iters=437, tol=1e-12),
                        d_p=d_p)
        assert tight.converged and tight.iterations_run <= 20
        config = DenoiseConfig(alpha=alpha, beta=beta, max_iters=437, tol=0.0)
        with np.errstate(divide="raise", invalid="raise"):
            result = denoise(w_p, np.zeros((12, 2)), config, d_p=d_p)
        assert result.iterations_run == 437 and not result.converged
        assert result.kkt_residual < 1e-12

    def test_trace_is_monotone_where_the_raw_objective_rises(self, monkeypatch):
        module = importlib.import_module("graphclean.denoise")
        rng = SplitMix64(59)
        w_p, d_p, alpha, beta = random_problem(rng, 2 + rng.bounded(49))
        n = w_p.n
        config = DenoiseConfig(alpha=alpha, beta=beta, max_iters=8, tol=0.0)
        with monkeypatch.context() as patch:
            # with no safeguard every w(lambda) is taken, so the trace is f(w(lambda))
            patch.setattr(module, "_SLACK", np.inf)
            raw = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p).objective_trace
        assert np.max(np.diff(raw)) > 1e-3
        result = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p)
        assert np.all(np.diff(result.objective_trace) <= 1e-10)
        assert result.objective_trace[-1] <= raw.min() + 1e-10
        assert result.objective_trace[-1] == objective(result.weights, w_p, d_p, alpha, beta)

    def test_a_short_run_descends_inside_its_accepted_supports(self, monkeypatch):
        # on this poisoned n = 300 SBM the first w(lambda) lies above f(w_p), and
        # so does the first trial point of the first Newton step, which the line
        # search rejects
        module = importlib.import_module("graphclean.denoise")
        dataset, w_p, d_p = poisoned_sbm()
        events = []

        def point(lam, *args, **kwargs):
            out = _primal_point(lam, *args, **kwargs)
            w = dense(out[0], pair_count(w_p.n))
            events.append([w > 0.0, objective(w, w_p, d_p, 1.0, 1.0), False])
            return out

        def direction(*args):
            events[-1][2] = True  # a direction is taken only from an accepted point
            return _newton_direction(*args)

        monkeypatch.setattr(module, "_primal_point", point)
        monkeypatch.setattr(module, "_newton_direction", direction)
        # five passes tell whether the fourth was accepted; the first four are
        # those of a four-pass run
        denoise(w_p, dataset.features,
                DenoiseConfig(alpha=1.0, beta=1.0, max_iters=5, tol=0.0), d_p=d_p)
        events = events[:4]
        result = denoise(w_p, dataset.features,
                         DenoiseConfig(alpha=1.0, beta=1.0, max_iters=4, tol=0.0), d_p=d_p)
        trace = result.objective_trace
        assert trace.size == 5 and np.all(np.diff(trace) <= 1e-10)
        assert trace[-1] < 0.99 * trace[0]
        assert all(f > trace[0] for _, f, _ in events[:2])
        assert events[0][2] and not events[1][2]
        union = w_p.values > 0.0
        for support, _, accepted in events:
            if accepted:
                union |= support
        assert np.all(union[result.weights.values > 0.0])

    def test_one_pair_pass_per_iteration(self, monkeypatch):
        module = importlib.import_module("graphclean.denoise")
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].size)
            return _primal_point(*args, **kwargs)

        monkeypatch.setattr(module, "_primal_point", spy)
        rng = SplitMix64(89)
        w_p, d_p, alpha, beta = random_problem(rng, 20)
        for max_iters in (1, 10, 37):
            calls.clear()
            result = denoise(w_p, np.zeros((20, 2)),
                             DenoiseConfig(alpha=alpha, beta=beta, max_iters=max_iters,
                                           tol=0.0), d_p=d_p)
            assert len(calls) == result.iterations_run == max_iters


def spy_passes(monkeypatch):
    """Each w(lambda) evaluation's pair count, and the KKT passes, as they
    happen; an evaluation over all m pairs on the working set is a scan."""
    module = importlib.import_module("graphclean.denoise")
    calls = {"points": [], "kkt": 0}
    point, kkt = module._primal_point, module._kkt

    def spy_point(lam, target, *args, **kwargs):
        calls["points"].append(target.size)
        return point(lam, target, *args, **kwargs)

    def spy_kkt(*args):
        calls["kkt"] += 1
        return kkt(*args)
    monkeypatch.setattr(module, "_primal_point", spy_point)
    monkeypatch.setattr(module, "_kkt", spy_kkt)
    return calls


class TestWorkingSet:
    """The loop on a working set W of pairs, against the same loop on all
    pairs; ``_WORKING_SHARE`` is patched to force a path (0: all pairs, 1: W
    whatever its size)."""

    CONFIG = DenoiseConfig(alpha=1.0, beta=0.7, max_iters=500, tol=1e-8)

    @staticmethod
    def solve(monkeypatch, share, config=CONFIG, w0=None):
        module = importlib.import_module("graphclean.denoise")
        w_p, X, d_p = sparse_bundle()
        with monkeypatch.context() as patch:
            if share is not None:
                patch.setattr(module, "_WORKING_SHARE", share)
            return denoise(w_p, X, config, d_p=d_p, w0=w0)

    def test_the_sparse_instance_takes_and_keeps_the_working_set(self, monkeypatch):
        calls = spy_passes(monkeypatch)
        result = self.solve(monkeypatch, None)
        m = pair_count(300)
        scans = calls["points"].count(m)
        assert result.converged and 1 <= scans < result.iterations_run
        assert max(size for size in calls["points"] if size < m) <= 0.01 * m
        assert result.pair_passes == scans + calls["kkt"]

    @pytest.mark.parametrize("share", [1.0, 0.005, 0.0], ids=["W", "W-then-all", "all"])
    def test_solves_to_the_all_pair_optimum(self, monkeypatch, share):
        """0.005 sits between |supp w_p| (0.42% of m) and the W the solve
        needs (0.67%), so W grows past it and the loop goes on over all pairs."""
        calls = spy_passes(monkeypatch)
        result = self.solve(monkeypatch, share)
        assert result.converged
        m = pair_count(300)
        full = calls["points"].count(m)
        if share == 0.0:
            assert full == result.iterations_run == result.pair_passes - calls["kkt"]
        else:
            assert full < result.iterations_run
        assert result.pair_passes == full + calls["kkt"]
        w_p, _, d_p = sparse_bundle()
        w = result.weights.values
        assert dense_kkt(w, w_p, d_p, 1.0, 0.7) <= self.CONFIG.tol
        reference = self.solve(monkeypatch, 0.0)
        np.testing.assert_array_equal(w > 0.0, reference.weights.values > 0.0)
        np.testing.assert_allclose(result.objective_trace[-1],
                                   reference.objective_trace[-1], rtol=1e-9)

    def test_a_switch_to_all_pairs_evaluates_the_scanned_lambda_once(self, monkeypatch):
        """At a share of 0.005 a scan grows W past it, and the scan's w(lambda)
        on all pairs is that iteration's point: the next pass over all pairs
        is at the next trial point, not at the scanned lambda again."""
        module = importlib.import_module("graphclean.denoise")
        point, calls = module._primal_point, []

        def spy(lam, target, *args, **kwargs):
            calls.append((target.size, lam.copy()))
            return point(lam, target, *args, **kwargs)
        monkeypatch.setattr(module, "_primal_point", spy)
        result = self.solve(monkeypatch, 0.005)
        assert result.converged
        m = pair_count(300)
        sizes = [size for size, _ in calls]
        # W, then its scans, then all pairs to the end
        assert sizes[0] < m and sizes[-1] == m
        switch = max(k for k, size in enumerate(sizes) if size < m) + 1
        assert len(sizes) > switch + 1 and set(sizes[switch:]) == {m}
        full = [lam for size, lam in calls if size == m]
        for before, after in zip(full, full[1:]):
            assert not np.array_equal(before, after)
        assert len(calls) == result.iterations_run

    @pytest.mark.parametrize("cap", [1, 2, 6, 7, 12, 17])
    def test_a_cap_counts_every_evaluation(self, monkeypatch, cap):
        """On W an iteration is a trial point on W or a scan of all pairs;
        the solve converges after 18, and its scans are its 7th, 14th and
        18th iterations."""
        calls = spy_passes(monkeypatch)
        result = self.solve(monkeypatch, 1.0,
                            DenoiseConfig(alpha=1.0, beta=0.7, max_iters=cap, tol=1e-8))
        assert len(calls["points"]) == result.iterations_run == cap
        assert (pair_count(300) in calls["points"]) == (cap >= 7)
        trace = result.objective_trace
        assert trace.size == cap + 1
        assert np.all(np.diff(trace) <= _SLACK)
        w_p, _, d_p = sparse_bundle()
        assert trace[-1] == pytest.approx(objective(result.weights, w_p, d_p, 1.0, 0.7),
                                          rel=1e-12)

    def test_tol_zero_runs_on_all_pairs(self, monkeypatch):
        """With tol 0 no lambda is certified, so W would never be scanned."""
        calls = spy_passes(monkeypatch)
        result = self.solve(monkeypatch, None,
                            DenoiseConfig(alpha=1.0, beta=0.7, max_iters=12, tol=0.0))
        assert calls["points"] == [pair_count(300)] * 12
        assert result.pair_passes == 13

    @pytest.mark.parametrize("cap", [3, 500])
    def test_kkt_residual_takes_the_exact_scale(self, monkeypatch, cap):
        """The certificate on W uses 1 + max|c| over W's pairs, a lower bound
        here; the reported residual is relative to the exact 1 + max|c|."""
        w_p, _, d_p = sparse_bundle()
        c = np.abs(linear_coefficient(w_p, d_p, 1.0, 0.7))
        assert c[w_p.values > 0.0].max() < c.max()
        result = self.solve(monkeypatch, 1.0,
                            DenoiseConfig(alpha=1.0, beta=0.7, max_iters=cap, tol=1e-8))
        assert result.converged == (cap == 500)
        kkt = dense_kkt(result.weights.values, w_p, d_p, 1.0, 0.7)
        assert abs(result.kkt_residual - kkt) <= 1e-12

    @pytest.mark.parametrize("start", ["outside", "zero"])
    def test_w0_joins_the_working_set(self, monkeypatch, start):
        """A w0 with pairs outside supp(w_p) starts inside W, so the first
        best point is w0 and its objective is the trace's first entry; with
        w0 = 0, as in the acceptance gate's cold start, W is supp(w_p)."""
        module = importlib.import_module("graphclean.denoise")
        w_p, _, d_p = sparse_bundle()
        m = pair_count(300)
        w0 = np.zeros(m)
        if start == "outside":
            outside = np.flatnonzero(w_p.values == 0.0)[::997]
            w0[outside] = 0.5
            w0[np.flatnonzero(w_p.values)[::2]] = 2.0
        sets = []
        restrict = module._restrict

        def spy(problem, work):
            sets.append(work)
            return restrict(problem, work)
        monkeypatch.setattr(module, "_restrict", spy)
        result = self.solve(monkeypatch, None, w0=w0)
        first = sets[0]
        assert first is not None
        expected = np.flatnonzero((w_p.values > 0.0) | (w0 > 0.0))
        np.testing.assert_array_equal(first, expected)
        assert result.objective_trace[0] == pytest.approx(
            objective(w0, w_p, d_p, 1.0, 0.7), rel=1e-12)
        assert result.converged
        reference = self.solve(monkeypatch, 0.0)
        np.testing.assert_allclose(result.objective_trace[-1],
                                   reference.objective_trace[-1], rtol=1e-9)

    def test_the_largest_violators_join_at_most_w_at_a_time(self, monkeypatch):
        """On a sparse SBM with 8 features the first scan finds 3464
        violators against |W| = 107, so W doubles, keeping the largest."""
        module = importlib.import_module("graphclean.denoise")
        ds = generate_sbm(SbmParams(nodes_per_block=100, blocks=2, p_in=0.01, p_out=5e-4), 3)
        w_p = heterophilic_add(ds, ds.graph.edge_count // 4, 4)
        scans, sets = [], []
        violators, restrict = module._violators, module._restrict

        def spy_violators(lam, work, *args, **kwargs):
            out = violators(lam, work, *args, **kwargs)
            scans.append((work, *out[:2]))
            return out

        def spy_restrict(problem, work):
            sets.append(work)
            return restrict(problem, work)
        monkeypatch.setattr(module, "_violators", spy_violators)
        monkeypatch.setattr(module, "_restrict", spy_restrict)
        monkeypatch.setattr(module, "_WORKING_SHARE", 1.0)
        result = denoise(w_p, ds.features, DenoiseConfig(alpha=1.0, beta=1.0, tol=1e-8))
        assert result.converged
        assert scans[0][0].size == 107 and scans[0][1].size == 3464
        grown = [(work, new, values) for work, new, values in scans if new.size]
        assert len(sets) == 1 + len(grown)
        for (work, new, values), after in zip(grown, sets[1:]):
            joined = np.isin(new, after)
            assert np.count_nonzero(joined) == min(new.size, work.size)
            assert after.size == work.size + np.count_nonzero(joined)
            assert values[joined].min() >= values[~joined].max(initial=0.0)
        assert [work.size for work in sets[:4]] == [107, 214, 428, 856]

    def test_a_dense_instance_keeps_the_all_pair_bits(self, monkeypatch):
        """poisoned_sbm's w_p holds 6.5% of the pairs, above the share, so it
        runs on all pairs: the same bits as the all-pair path forced."""
        module = importlib.import_module("graphclean.denoise")
        dataset, w_p, d_p = poisoned_sbm()
        assert np.count_nonzero(w_p.values) > module._WORKING_SHARE * pair_count(w_p.n)
        config = DenoiseConfig(alpha=1.0, beta=1.0, max_iters=200)
        calls = spy_passes(monkeypatch)
        result = denoise(w_p, dataset.features, config, d_p=d_p)
        assert result.pair_passes == result.iterations_run + calls["kkt"]
        monkeypatch.setattr(module, "_WORKING_SHARE", 0.0)
        forced = denoise(w_p, dataset.features, config, d_p=d_p)
        np.testing.assert_array_equal(result.weights.values, forced.weights.values)
        np.testing.assert_array_equal(result.objective_trace, forced.objective_trace)


class TestDenoiseConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DenoiseConfig(alpha=0.0)
        with pytest.raises(ValueError):
            DenoiseConfig(beta=-0.1)
        with pytest.raises(ValueError):
            DenoiseConfig(p=0.5)
        with pytest.raises(ValueError):
            DenoiseConfig(max_iters=0)
        with pytest.raises(ValueError):
            DenoiseConfig(tol=-1.0)
