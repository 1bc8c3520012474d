"""The reference formulas of checks.py against a 3-node example worked by hand.

    python3 -m pytest -q perfbench/test_checks.py

Pairs of a 3-node graph, in np.triu_indices order: (0,1), (0,2), (1,2).
With w = (1, 2, 0) and poisoned w_p = (1, 0, 1), v = w - w_p = (0, 2, -1)
has degrees (2, -1, 1) and L(v) = [[2, 0, -2], [0, -1, 1], [-2, 1, 1]],
whose squared Frobenius norm is 16.
"""

import numpy as np
import pytest

import checks

W = np.array([1.0, 2.0, 0.0])
W_P = np.array([1.0, 0.0, 1.0])
X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
D_P = np.array([1.0, 4.0, 5.0])  # |x0-x1|^2, |x0-x2|^2, |x1-x2|^2
ALPHA, BETA = 1.0, 0.5


def test_pair_vector_and_distances():
    edges = np.array([[0, 2], [1, 2]])
    np.testing.assert_array_equal(checks.pair_vector(edges, 3), [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(checks.sq_distances(X), D_P)


def test_laplacian_norm_by_degrees():
    v = W - W_P
    np.testing.assert_array_equal(checks.degrees(v, 3), [2.0, -1.0, 1.0])
    dense = np.array([[2.0, 0.0, -2.0], [0.0, -1.0, 1.0], [-2.0, 1.0, 1.0]])
    assert checks.laplacian_sq_norm(v, 3) == np.sum(dense**2) == 16.0


def test_objective_and_gradient():
    # 16 + 0.5 * (1*1 + 2*4 + 0*5)
    assert checks.objective(W, W_P, D_P, 3, ALPHA, BETA) == 20.5
    # 2 (2 v_k + deg_i + deg_j) + 0.5 d_k: (0,1) 2*1+0.5, (0,2) 2*7+2, (1,2) 2*(-2)+2.5
    g = checks.gradient(W, W_P, D_P, 3, ALPHA, BETA)
    np.testing.assert_array_equal(g, [2.5, 16.0, -1.5])


def test_kkt_residual():
    # w_p has degrees (1, 2, 1), so L*L w_p = (5, 2, 5) and
    # c = 2 (5, 2, 5) - 0.5 (1, 4, 5) = (9.5, 2, 7.5)
    scale = checks.kkt_scale(W_P, D_P, 3, ALPHA, BETA)
    assert scale == 10.5
    # support {0, 1}: |2.5|, |16|; off the support g = -1.5 < 0 violates by 1.5
    g = checks.gradient(W, W_P, D_P, 3, ALPHA, BETA)
    assert checks.kkt_residual(W, g, scale) == 16.0 / 10.5
    assert checks.kkt_residual(np.zeros(3), np.array([1.0, 0.0, -0.5]), 2.0) == 0.25


def test_trace_must_not_rise():
    checks.check_trace([3.0, 2.0, 2.0])
    with pytest.raises(checks.CheckFailed):
        checks.check_trace([3.0, 2.0, 2.5])
