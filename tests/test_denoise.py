"""Stage 1 solver: distances, coefficients, gradient oracle, descent, KKT."""

import numpy as np
import pytest

from graphclean.attacks import heterophilic_add
from graphclean.datasets import SbmParams, generate_sbm
from graphclean.denoise import (
    DenoiseConfig,
    DenoiseDivergence,
    _gram_is_exact,
    denoise,
    gradient,
    linear_coefficient,
    objective,
    pairwise_p_distances,
)
from graphclean.operators import WeightVector, _triu, pair_count
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


def dense_objective(w, phi_n, d_p, alpha, beta):
    """Oracle: the objective through the n x n matrix L(w) - Phi_n."""
    residual = laplacian_from_weights(w) - phi_n
    return float(alpha * np.einsum("ij,ij->", residual, residual) + beta * (w @ d_p))


def dense_gradient(w, c, alpha):
    """Oracle: 2 alpha L*(L w) - c through the n x n matrix L(w)."""
    return 2.0 * alpha * adjoint_of(laplacian_from_weights(w)) - c


def dense_denoise(phi_n, d_p, config, w0=None):
    """Oracle: the projected-gradient loop with an n x n matrix per iteration,
    started from the weights read off ``phi_n = L(w_p)``, with the same step
    and stopping rule as ``denoise``."""
    n = phi_n.shape[0]
    rows, cols = _triu(n)
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


def random_features(seed, n, d, scale=1.0, ones=None):
    """Uniform features in [-scale, scale); with ``ones`` a fraction, 0/1
    features that are 1 with that probability."""
    u = SplitMix64(seed).uniforms(n * d).reshape(n, d)
    if ones is not None:
        return (u < ones).astype(np.float64)
    return scale * (2.0 * u - 1.0)


class TestGramDistancesMatchLoop:
    """The Gram form is taken only for 0/1 features, and then it gives the
    loop's bits; every other input goes through the loop."""

    # 300 rows: two row blocks of the Gram form, the second one partial
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_binary_features_any_p(self, p):
        X = random_features(3, 300, 40, ones=0.2)
        assert _gram_is_exact(X)
        np.testing.assert_array_equal(pairwise_p_distances(X, p), loop_distances(X, p))

    @pytest.mark.parametrize("case", ["real", "integer", "near-binary", "nan", "inf"])
    def test_other_features_take_the_loop(self, case):
        X = random_features(5, 60, 12, ones=0.3)
        if case == "real":
            X = random_features(5, 60, 12)
        elif case == "integer":
            X = np.round(random_features(5, 60, 12, scale=50.0))
        else:
            X[7, 3] = {"near-binary": 2.0, "nan": np.nan, "inf": np.inf}[case]
        assert not _gram_is_exact(X)

    def test_tiny_inputs(self):
        for X in (np.zeros((1, 3)), np.ones((4, 0))):
            assert _gram_is_exact(X)
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
        start = np.maximum(-phi_n[_triu(3)], 0.0)
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

    def test_json_serialization_keys(self):
        w_p = WeightVector(n=3, values=[1.0, 0.0, 1.0])
        result = denoise(w_p, np.zeros((3, 2)), DenoiseConfig(max_iters=5))
        payload = result.to_json_dict()
        assert set(payload) == {"iterations", "converged", "objective_trace", "config"}
        assert isinstance(payload["objective_trace"], list)


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
        rng = SplitMix64(59)
        for _ in range(6):
            n = 2 + rng.bounded(49)
            w_p, d_p, alpha, beta = random_problem(rng, n)
            config = DenoiseConfig(alpha=alpha, beta=beta, **options)
            result = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p)
            w, trace = dense_denoise(laplacian_from_weights(w_p), d_p, config)
            assert result.objective_trace.size == trace.size
            np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-12)
            assert_close_to(result.weights.values, w)

    def test_seeded_sbm_protocol_run(self):
        params = SbmParams(nodes_per_block=150, blocks=2, p_in=0.13, p_out=0.003,
                           feature_dim=8, feature_signal=1.0, feature_noise=0.5)
        dataset = generate_sbm(params, 61)
        poisoned = heterophilic_add(dataset, dataset.graph.edge_count // 4, 62)
        d_p = pairwise_p_distances(dataset.features, 2.0)
        config = DenoiseConfig(alpha=1.0, beta=1.0, max_iters=200)
        result = denoise(poisoned, dataset.features, config, d_p=d_p)
        w, trace = dense_denoise(laplacian_from_weights(poisoned), d_p, config)
        assert result.iterations_run == 200
        np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-12)
        assert_close_to(result.weights.values, w)


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
