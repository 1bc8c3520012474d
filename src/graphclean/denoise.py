"""Stage 1: recover clean edge weights from the weights of a poisoned graph.

Minimizes, over non-negative pair weights w,

    f(w) = alpha * ||L(w) - L(w_p)||_F^2 + beta * sum_k w_k d_p[k]

where w_p holds the poisoned graph's pair weights and d_p[k] is the
p-th-power feature distance of pair k.  The gradient is

    grad f(w) = H w - c,   H = 2 alpha L*L,   c = 2 alpha L*(L w_p) - beta d_p.

Everything is evaluated in pair space (Kumar et al., JMLR 2020).  With
S w = deg the weighted node degrees and (i, j) the nodes of pair k,

    [L*(L w)]_k            = 2 w_k + deg[i] + deg[j]
    ||L(w) - L(w_p)||_F^2  = ||deg - deg_p||^2 + 2 ||w - w_p||^2

so H = 2 alpha (2 I + S^T S), whose condition number is about n.  The solver
is scaled-form ADMM on the split w = z, z >= 0 (Boyd et al., FnT ML 2011,
sections 4.2 and 5), with penalty rho:

    w <- (H + rho I)^-1 (c + rho (z - u)),   z <- max(0, w + u),   u <- u + w - z.

The w-step has a closed form, since S S^T = (n - 2) I + J.  With r the
right-hand side, a = 4 alpha + rho, b = 2 alpha, gamma = a + b (n - 2) and
s = S r, the Woodbury identity gives

    y = (s - b sum(s) / (gamma + b n)) / gamma,   w_k = (r_k - b (y[i] + y[j])) / a,

and S r, S w are O(n) updates of the degrees, so an iteration costs one
degree pass on the new z and one fused, blocked pass over the pair vectors:
O(n^2 / 2), with no n x n matrix.  The dual starts at u = -grad f(z_0) / rho,
which makes the first iteration a projected gradient step of length 1 / rho.

ADMM's f(z) is not monotone, so the loop keeps the best point seen (as
monotone FISTA does, Beck & Teboulle 2009): a new z is accepted when its
objective is at most ``_SLACK`` above the best.  A z that is not accepted is
searched toward: f is quadratic, so its minimum on the segment from the best
point to z is exact, and the best point moves there when that lowers f.  The
first z is a projected gradient step from the start, and its direction
descends unless the start is a solution.  So one iteration lowers f even when
that step overshoots: its length is 1 / rho, while only 1 / (4 alpha n) is
safe for every input, and the next few z can stay above the start.  The trace
records the best objective, and the best point is returned.  The loop stops
once its KKT residual, relative to 1 + max|c|, is at most ``tol``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import InputError, check_finite
from .operators import (WeightVector, _row_starts, _weight_array, node_count_for_pairs,
                        pair_count)

__all__ = [
    "DenoiseConfig",
    "DenoiseResult",
    "DenoiseDivergence",
    "pairwise_p_distances",
    "features_are_binary",
    "linear_coefficient",
    "objective",
    "gradient",
    "denoise",
]


class DenoiseDivergence(RuntimeError):
    """Non-finite values encountered during the solver loop."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite objective at iteration {iteration}; check the inputs")
        self.iteration = iteration


@dataclass(frozen=True)
class DenoiseConfig:
    """Hyper-parameters of the noise-removal problem and its solver.

    ``tol`` bounds the KKT residual of the returned weights, relative to
    1 + max|c| with c the gradient's constant part: the solver checks it
    every 10 iterations and at ``max_iters``, and stops once it is met (0
    runs all ``max_iters``).
    """

    alpha: float = 1.0
    beta: float = 0.5
    p: float = 2.0
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        check_finite(alpha=self.alpha, beta=self.beta, p=self.p, tol=self.tol)
        if self.alpha <= 0:
            raise InputError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise InputError(f"beta must be >= 0, got {self.beta}")
        if self.p < 1:
            raise InputError(f"p must be >= 1, got {self.p}")
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol < 0:
            raise InputError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class DenoiseResult:
    weights: WeightVector
    objective_trace: np.ndarray
    iterations_run: int
    converged: bool
    kkt_residual: float
    config: DenoiseConfig = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations_run,
            "converged": self.converged,
            "kkt_residual": self.kkt_residual,
            "objective_trace": [float(x) for x in self.objective_trace],
            "config": asdict(self.config),
        }


_GRAM_ROWS = 256


def pairwise_p_distances(X: np.ndarray, p: float) -> np.ndarray:
    """d_p[k] = sum_m |X[i,m] - X[j,m]|^p for the pair (i, j) of index k.

    When every feature is 0 or 1, the answer comes from the Gram matrix
    G = X X^T as d_p[k] = s_i + s_j - 2 G_ij with s = diag G.  For any p,
    |x_i - x_j|^p is then (x_i - x_j)^2, so d_p is the Hamming distance for
    every p and a change of p changes nothing.  Every product and partial sum
    is an integer that float64 holds exactly, so the summation order of the
    row loop and of BLAS cannot change a bit.  G is built a block of rows at
    a time, so no n x n matrix is held.

    Any other input goes through a loop over rows, which keeps only O(n d)
    scratch live at a time.
    """
    check_finite(p=p)
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    if features_are_binary(X):
        return _gram_distances(X)
    n = X.shape[0]
    out = np.empty(pair_count(n), dtype=np.float64)
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


def features_are_binary(X: np.ndarray) -> bool:
    """Whether every feature is 0 or 1.  Then :func:`pairwise_p_distances` is
    the Hamming distance for every p, computed exactly from the Gram matrix."""
    return bool(((X == 0.0) | (X == 1.0)).all())


def _gram_distances(X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    out = np.empty(pair_count(n), dtype=np.float64)
    pos = 0
    for r0 in range(0, n, _GRAM_ROWS):
        r1 = min(r0 + _GRAM_ROWS, n)
        block = X[r0:r1] @ X[r0:].T
        block *= -2.0
        block += sq[r0:r1, None]
        block += sq[None, r0:]
        # the pairs (i, j) with r0 <= i < r1 and i < j are contiguous in pair order
        vals = block[np.arange(r1 - r0)[:, None] < np.arange(n - r0)]
        out[pos:pos + vals.size] = vals
        pos += vals.size
    return out


def _check_pair_shapes(n: int, *vectors: np.ndarray) -> None:
    expected = pair_count(n)
    for vec in vectors:
        if vec.shape != (expected,):
            raise ValueError(
                f"expected pair vector of length {expected} for n={n}, "
                f"got shape {vec.shape}"
            )


def _pairs(w) -> tuple[np.ndarray, int]:
    """A pair vector's values and the node count its length implies."""
    values = _weight_array(w)
    return values, node_count_for_pairs(values.shape[0])


def linear_coefficient(w_p, d_p: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """c = 2 alpha L*(L w_p) - beta d_p, the constant part of the gradient.

    Depends only on the poisoned graph and the feature distances, so it is
    computed once per (dataset, perturbation, p, alpha, beta).
    """
    values, n = _pairs(w_p)
    d_p = np.asarray(d_p, dtype=np.float64)
    _check_pair_shapes(n, d_p)
    index = np.triu_indices(n, 1)
    return _gradient(values, _degrees(values, n, index[1]), beta * d_p, alpha, index)


def _degrees(values: np.ndarray, n: int, cols: np.ndarray) -> np.ndarray:
    """deg = S w, the weighted degree of every node; ``cols`` is
    ``np.triu_indices(n, 1)[1]``.

    The row side sums each row's block, which is contiguous; bincount over
    the sorted rows would hit the same bin on every add.
    """
    deg = np.bincount(cols, values, n)
    deg[:-1] += np.add.reduceat(values, _row_starts(n))
    return deg


def _objective(values, deg, w_p, deg_p, d_p, alpha, beta, scratch=None) -> float:
    r = np.subtract(values, w_p, out=scratch)
    return _value(deg, r @ r, values @ d_p, deg_p, alpha, beta)


def _value(deg, sq, zd, deg_p, alpha, beta) -> float:
    """The objective from the degrees, ||w - w_p||^2 and <w, d_p>."""
    dd = deg - deg_p
    return float(alpha * (dd @ dd + 2.0 * sq) + beta * zd)


def _gradient(values, deg, c, alpha: float, index, out=None, scratch=None) -> np.ndarray:
    """2 alpha (2 w + deg[i] + deg[j]) - c, in ``out`` or a fresh array, with
    ``scratch`` as workspace (``take`` buffers ``out`` in any mode but clip)."""
    rows, cols = index
    g = deg.take(rows, out=out, mode="clip")
    g += deg.take(cols, out=scratch, mode="clip")
    g += values
    g += values
    g *= 2.0 * alpha
    g -= c
    return g


def objective(w, w_p, d_p: np.ndarray, alpha: float, beta: float) -> float:
    """alpha ||L(w) - L(w_p)||_F^2 + beta <w, d_p>."""
    values, n = _pairs(w)
    target, _ = _pairs(w_p)
    d_p = np.asarray(d_p, dtype=np.float64)
    _check_pair_shapes(n, target, d_p)
    cols = np.triu_indices(n, 1)[1]
    return _objective(values, _degrees(values, n, cols), target,
                      _degrees(target, n, cols), d_p, alpha, beta)


def gradient(w, c: np.ndarray, alpha: float) -> np.ndarray:
    """Exact gradient 2 alpha L*(L w) - c of :func:`objective`, with c from
    :func:`linear_coefficient`."""
    values, n = _pairs(w)
    c = np.asarray(c, dtype=np.float64)
    _check_pair_shapes(n, c)
    index = np.triu_indices(n, 1)
    return _gradient(values, _degrees(values, n, index[1]), c, alpha, index)


# ADMM penalty rho as a multiple of alpha; 4 and 64 took 1.6 to 2.4 times as
# many iterations to KKT 1e-6 on poisoned SBMs with n = 300 and n = 1000
_RHO = 16.0
# iterations between KKT checks
_CHECK_EVERY = 10
# a new z is kept when f(z) <= f_best + _SLACK; with no slack the best z
# stalled at KKT 4e-12 to 3e-10 on 3 of the gate's 20 instances (tol 1e-12)
_SLACK = 1e-11
# a rejected z is searched toward only when the predicted gain exceeds this
# share of 1 + f_best, far above the rounding of f, so f falls wherever it moves
_GAIN = 1e-9
# pairs per block of the element-wise passes, which keeps their scratch in cache
_BLOCK = 8192


def _blocks(m: int):
    for k0 in range(0, m, _BLOCK):
        yield slice(k0, min(k0 + _BLOCK, m))


def denoise(w_p: WeightVector, X: np.ndarray, config: DenoiseConfig,
            d_p: np.ndarray | None = None, w0: np.ndarray | None = None) -> DenoiseResult:
    """Safeguarded ADMM on the noise-removal objective.

    ``w_p`` holds the poisoned graph's pair weights; the solver starts from
    it unless ``w0`` is given.  ``d_p`` may be passed in to reuse a
    precomputed distance vector (it is recomputed from ``X`` otherwise;
    skipped entirely when beta == 0).

    The returned trace has the initial objective at index 0 and the best
    objective after each iteration; it is non-increasing up to 1e-11 slack
    per step.  The weights are the best point, and ``kkt_residual`` is its
    KKT residual relative to 1 + max|c|.
    """
    n = w_p.n
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"features must have {n} rows, got shape {X.shape}")

    if config.beta == 0.0:
        d_p = np.zeros(pair_count(n), dtype=np.float64)
    elif d_p is None:
        d_p = pairwise_p_distances(X, config.p)
    else:
        d_p = np.asarray(d_p, dtype=np.float64)
    target = w_p.values
    z = np.maximum(target if w0 is None else np.asarray(w0, dtype=np.float64), 0.0)
    _check_pair_shapes(n, d_p, z)
    alpha, beta = config.alpha, config.beta
    rho = _RHO * alpha
    a, b = 4.0 * alpha + rho, 2.0 * alpha
    steps = (4.0 * alpha / a, rho / a, beta / a)

    index = np.triu_indices(n, 1)
    cols = index[1]
    # bincount copies a read-only weight vector, so both degree vectors are
    # built before the loop's buffers exist
    deg_p = _degrees(target, n, cols)
    deg_d = _degrees(d_p, n, cols)
    deg_z = deg_p if w0 is None else _degrees(z, n, cols)
    # the loop allocates no pair vector.  z, the other iterate buffer and u
    # are allocated each on its own: one block of all three is past glibc's
    # 32 MB mmap ceiling at n = 2485, so it never reuses freed heap memory
    u, other = np.empty_like(z), np.empty_like(z)
    buffers = [np.empty(min(_BLOCK, z.size)) for _ in range(3)]
    problem = (target, deg_p, d_p, alpha, beta, index, buffers)

    # warm dual u = -grad f(z) / rho, and the KKT scale 1 + max|c|
    c_max = 0.0
    for blk, c, g in _gradient_blocks(z, deg_z, *problem):
        c_max = max(c_max, float(np.abs(c, out=c).max()))
        np.multiply(g, -1.0 / rho, out=u[blk])
    scale = 1.0 + c_max
    f_best = _objective(z, deg_z, target, deg_p, d_p, alpha, beta, other)
    if not np.isfinite(f_best):
        raise DenoiseDivergence(0)
    # S c and S u = -S grad f(z) / rho in O(n), from S S^T = (n - 2) I + J
    s_c = 2.0 * alpha * (n * deg_p + deg_p.sum()) - beta * deg_d
    deg_u = (s_c - 2.0 * alpha * (n * deg_z + deg_z.sum())) / rho

    best, deg_best = z, deg_z
    trace = [f_best]
    kkt = np.inf
    iterations = 0
    for t in range(1, config.max_iters + 1):
        s = s_c + rho * (deg_z - deg_u)
        y, s_w = _w_step_degrees(s, n, a, b)
        # r = c + rho (z - u) with c = 4 alpha w_p - beta d_p + b S^T deg_p;
        # the S^T term folds into y, so w_k = (r'_k - b (y'[i] + y'[j])) / a
        # with r' = r - b S^T deg_p and y' = y - deg_p.  Each block of z is
        # read before the new z is written over it, so a rejected z is
        # overwritten in place and an accepted one is kept
        nxt = other if z is best else z
        sq, zd = _admm_pass(z, u, nxt, (y - deg_p) * (b / a), steps, target, d_p,
                            index, buffers)
        if nxt is other:
            other = z
        z = nxt
        deg_z = _degrees(z, n, cols)
        deg_u += s_w - deg_z
        f = _value(deg_z, sq, zd, deg_p, alpha, beta)
        if not np.isfinite(f):
            raise DenoiseDivergence(t)
        if f <= f_best + _SLACK:
            best, deg_best, f_best = z, deg_z, f
        else:
            # f(best + theta (z - best)) = f_best + lin theta + quad theta^2
            sd = deg_z - deg_best
            quad = alpha * (sd @ sd + 2.0 * _squared_distance(z, best, buffers))
            lin = f - f_best - quad
            if lin < 0.0 and lin * lin > 4.0 * quad * _GAIN * (1.0 + f_best):
                theta = -lin / (2.0 * quad)
                sq, zd = _move_toward(best, z, theta, target, d_p, buffers)
                deg_best = deg_best + theta * sd
                f_best = _value(deg_best, sq, zd, deg_p, alpha, beta)
        trace.append(f_best)
        iterations = t
        if t == config.max_iters or (config.tol > 0.0 and t % _CHECK_EVERY == 0):
            kkt = _kkt_residual(best, deg_best, *problem) / scale
            if kkt <= config.tol:
                break

    # WeightVector copies the best point: free the loop's other pair vectors first
    del problem, index, cols, u, other, z, nxt, d_p
    return DenoiseResult(
        weights=WeightVector(n=n, values=best),
        objective_trace=np.asarray(trace),
        iterations_run=iterations,
        converged=bool(kkt <= config.tol),
        kkt_residual=float(kkt),
        config=config,
    )


def _admm_pass(z, u, out, yb, steps, target, d_p, index, buffers):
    """The w-, z- and u-steps, fused into one pass over blocks of pairs.

    With ``yb`` = b y' / a and ``steps`` = (4 alpha, rho, beta) / a, v = w + u
    is (rho z + 4 alpha (u + w_p) - beta d_p) / a - yb[i] - yb[j], since
    1 - rho / a = 4 alpha / a.  Writes z = max(0, v) into ``out`` (which may
    be ``z``) and u = v - z = min(0, v) over ``u``; returns ||z - w_p||^2 and
    <z, d_p> for the objective.
    """
    t1, t2, _ = buffers
    rows, cols = index
    sq = zd = 0.0
    for blk in _blocks(z.size):
        k = blk.stop - blk.start
        zb, ub, pb, db = z[blk], u[blk], target[blk], d_p[blk]
        v = np.add(ub, pb, out=t1[:k])
        v *= steps[0]
        v += np.multiply(zb, steps[1], out=t2[:k])
        v -= np.multiply(db, steps[2], out=t2[:k])
        v -= yb.take(rows[blk], out=t2[:k], mode="clip")
        v -= yb.take(cols[blk], out=t2[:k], mode="clip")
        zb = np.maximum(v, 0.0, out=out[blk])
        np.minimum(v, 0.0, out=ub)
        e = np.subtract(zb, pb, out=t2[:k])
        sq += float(e @ e)
        zd += float(zb @ db)
    return sq, zd


def _squared_distance(x, y, buffers) -> float:
    """||x - y||^2, a block at a time."""
    t1, _, _ = buffers
    total = 0.0
    for blk in _blocks(x.size):
        e = np.subtract(x[blk], y[blk], out=t1[:blk.stop - blk.start])
        total += float(e @ e)
    return total


def _move_toward(best, z, theta, target, d_p, buffers):
    """best += theta (z - best), in place and a block at a time; returns
    ||best - w_p||^2 and <best, d_p> for the objective."""
    t1, _, _ = buffers
    sq = zd = 0.0
    for blk in _blocks(z.size):
        k = blk.stop - blk.start
        bb = best[blk]
        e = np.subtract(z[blk], bb, out=t1[:k])
        e *= theta
        bb += e
        e = np.subtract(bb, target[blk], out=t1[:k])
        sq += float(e @ e)
        zd += float(bb @ d_p[blk])
    return sq, zd


def _w_step_degrees(s: np.ndarray, n: int, a: float, b: float):
    """The O(n) part of w = (a I + b S^T S)^-1 r, given s = S r.

    Returns y = (a I + b S S^T)^-1 s, so that w_k = (r_k - b (y[i] + y[j])) / a
    (Woodbury), and S w = (s - b S S^T y) / a; both use S S^T = (n - 2) I + J.
    """
    gamma = a + b * (n - 2)
    y = (s - b * s.sum() / (gamma + b * n)) / gamma
    return y, (s - b * ((n - 2) * y + y.sum())) / a


def _gradient_blocks(w, deg, target, deg_p, d_p, alpha, beta, index, buffers):
    """Yield (block, c, grad f(w)) for each block of pairs; c and the gradient
    are built in two of the three block ``buffers``, the third is scratch."""
    t1, t2, t3 = buffers
    for blk in _blocks(w.size):
        k = blk.stop - blk.start
        pair = (index[0][blk], index[1][blk])
        c = _gradient(target[blk], deg_p, np.multiply(d_p[blk], beta, out=t1[:k]),
                      alpha, pair, t2[:k], t3[:k])
        yield blk, c, _gradient(w[blk], deg, c, alpha, pair, t1[:k], t3[:k])


def _kkt_residual(w, deg, *problem) -> float:
    """Largest KKT violation of w >= 0: |grad f| on the support of w and
    max(0, -grad f) off it."""
    worst = 0.0
    for blk, c, g in _gradient_blocks(w, deg, *problem):
        on = np.abs(g, out=c)
        on *= w[blk] > 0.0
        worst = max(worst, float(on.max()), -float(g.min()))
    return worst
