"""Output checks computed apart from the program, with numpy alone.

The reference formulas work in pair space, where pair k is
``(rows[k], cols[k]) = np.triu_indices(n, 1)[.][k]``, the order the program
documents for its weight vectors.  For v = w - w_p and deg_v the weighted
degrees of v,

    ||L(v)||_F^2    = sum_i deg_v[i]^2 + 2 sum_k v_k^2
    [L* L v]_k      = 2 v_k + deg_v[i] + deg_v[j]

so the denoising objective and its gradient need no n x n matrix, and none
of the program's own operators.  Every ``check_*`` function raises
:class:`CheckFailed` with a message naming what was violated.
"""

from __future__ import annotations

import math

import numpy as np

# relative slack for "never increases": the program promises descent up to
# 1e-10, and objective sums of ~1e5 terms carry about that much rounding
TRACE_SLACK = 1e-10
# relative agreement between the program's numbers and the recomputation
MATCH_RTOL = 1e-9
# KKT slack at a solution: |g| <= KKT_RTOL * (1 + max|c|) on the support
KKT_RTOL = 1e-4


class CheckFailed(AssertionError):
    """A run's outputs violate a property the method must have."""


def pairs(n: int):
    return np.triu_indices(n, 1)


def pair_vector(edges: np.ndarray, n: int, weights=None) -> np.ndarray:
    """Pair-space weights of an edge list with u < v (unit weights by default)."""
    u, v = edges[:, 0], edges[:, 1]
    out = np.zeros(n * (n - 1) // 2)
    out[u * (2 * n - u - 1) // 2 + (v - u - 1)] = 1.0 if weights is None else weights
    return out


def degrees(v: np.ndarray, n: int) -> np.ndarray:
    rows, cols = pairs(n)
    return np.bincount(rows, v, n) + np.bincount(cols, v, n)


def laplacian_sq_norm(v: np.ndarray, n: int) -> float:
    """||L(v)||_F^2 from the degrees of v."""
    deg = degrees(v, n)
    return float(deg @ deg + 2.0 * (v @ v))


def normal_operator(v: np.ndarray, n: int) -> np.ndarray:
    """L*(L v) in pair space."""
    rows, cols = pairs(n)
    deg = degrees(v, n)
    return 2.0 * v + deg[rows] + deg[cols]


def sq_distances(X: np.ndarray) -> np.ndarray:
    """d_2[k] = ||x_i - x_j||^2 by the Gram identity (p = 2 only)."""
    X = np.asarray(X, dtype=np.float64)
    sq = np.einsum("ij,ij->i", X, X)
    gram = X @ X.T
    rows, cols = pairs(X.shape[0])
    return np.maximum(sq[rows] + sq[cols] - 2.0 * gram[rows, cols], 0.0)


def objective(w, w_p, d_p, n: int, alpha: float, beta: float) -> float:
    """alpha ||L(w) - L(w_p)||_F^2 + beta <w, d_p>."""
    return alpha * laplacian_sq_norm(w - w_p, n) + beta * float(w @ d_p)


def gradient(w, w_p, d_p, n: int, alpha: float, beta: float) -> np.ndarray:
    return 2.0 * alpha * normal_operator(w - w_p, n) + beta * d_p


def kkt_scale(w_p, d_p, n: int, alpha: float, beta: float) -> float:
    """1 + max|c| with c = 2 alpha L*(L w_p) - beta d_p, the gradient's
    constant part; KKT slack is measured relative to it."""
    c = 2.0 * alpha * normal_operator(w_p, n) - beta * d_p
    return 1.0 + float(np.max(np.abs(c)))


def kkt_residual(w, g, scale: float) -> float:
    """Largest KKT violation of w >= 0 over ``scale``: |g| on the support,
    max(0, -g) off it."""
    on = w > 0.0
    violation = np.where(on, np.abs(g), np.maximum(-g, 0.0))
    return float(violation.max(initial=0.0)) / scale


def _close(a: float, b: float, rtol: float = MATCH_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_trace(trace) -> None:
    trace = np.asarray(trace, dtype=np.float64)
    require(trace.size >= 2 and bool(np.all(np.isfinite(trace))),
            "objective trace is empty or not finite")
    rise = np.diff(trace) - TRACE_SLACK * np.maximum(1.0, np.abs(trace[:-1]))
    worst = int(np.argmax(rise))
    require(rise[worst] <= 0.0,
            f"objective rose at iteration {worst + 1}: "
            f"{trace[worst]!r} -> {trace[worst + 1]!r}")


def check_denoise(cap: dict, alpha: float, beta: float) -> dict:
    """Checks one captured denoise call; returns the recomputed facts.

    ``cap`` holds the features ``X``, the poisoned weights ``w_p``, the
    program's ``d_p`` (or None), the returned ``w`` and ``trace``.
    """
    X, w_p, w = cap["X"], cap["w_p"], cap["w"]
    n = X.shape[0]
    d_ref = sq_distances(X)
    if cap.get("d_p") is not None:
        err = float(np.max(np.abs(cap["d_p"] - d_ref)))
        require(err <= MATCH_RTOL * (1.0 + float(d_ref.max())),
                f"d_p differs from the recomputation by {err:.3e}")
    require(bool(np.all(w >= 0.0)), "recovered weights are negative")
    check_trace(cap["trace"])
    f_ref = objective(w, w_p, d_ref, n, alpha, beta)
    require(_close(f_ref, float(cap["trace"][-1])),
            f"final objective {cap['trace'][-1]!r} != recomputed {f_ref!r}")
    g = gradient(w, w_p, d_ref, n, alpha, beta)
    scale = kkt_scale(w_p, d_ref, n, alpha, beta)
    return {"objective": f_ref, "kkt_residual": kkt_residual(w, g, scale)}


def check_attack(report_attack: dict, clean, poisoned, labels, rate: float,
                 heterophilic: bool) -> None:
    """Add-only poisoning of floor(rate |E|) edges, as the report says."""
    clean_on, pois_on = clean != 0.0, poisoned != 0.0
    added = np.flatnonzero(~clean_on & pois_on)
    removed = int(np.count_nonzero(clean_on & ~pois_on))
    expected = math.floor(rate * int(clean_on.sum()) + 1e-9)
    require(added.size == expected,
            f"attack added {added.size} edges, expected floor({rate}*|E|) = {expected}")
    require(removed == 0, f"attack removed {removed} edges")
    require(report_attack["edges_added"] == expected
            and report_attack["edges_removed"] == 0,
            f"report says +{report_attack['edges_added']} "
            f"-{report_attack['edges_removed']}, expected +{expected} -0")
    if heterophilic:
        rows, cols = pairs(labels.size)
        cross = float(np.mean(labels[rows[added]] != labels[cols[added]]))
        require(cross == 1.0 and report_attack["added_cross_label_fraction"] == 1.0,
                f"heterophilic attack: cross-label fraction {cross}, report "
                f"{report_attack['added_cross_label_fraction']}")


def check_aggregates(report: dict) -> None:
    """aggregates equal mean and sample std of the per-repetition values."""
    for arm, stats in report["aggregates"].items():
        values = np.array([r["accuracy"][arm] for r in report["repetitions"]])
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        require(_close(stats["mean"], float(values.mean()), 1e-12)
                and _close(stats["std"], std, 1e-12),
                f"aggregates of arm {arm} are not the mean/std of its repetitions")


def check_identical(blobs: list) -> None:
    require(all(b == blobs[0] for b in blobs[1:]),
            "runs of one invocation wrote different outputs")
