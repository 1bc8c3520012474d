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

so H = 2 alpha (2 I + S^T S), whose condition number is about n.  Only the
degrees couple the pairs, so the solver runs semismooth Newton-CG on the
n-dimensional dual of the split e = S w (Qi & Sun, Math. Prog. 1993; Li, Sun &
Toh, SIAM J. Optim. 2018 treat the Lasso so).  At a dual point lambda the
Lagrangian's minimiser over w >= 0 is found pair by pair,

    w(lambda)_k = max(0, w_p[k] - (beta d_p[k] + lambda[i] + lambda[j]) / 4 alpha),

the concave dual is g(lambda) = f(w(lambda)) - alpha ||grad g||^2 with
grad g = S w(lambda) - deg_p - lambda / 2 alpha, and its generalized Hessian
-(S D S^T / 4 alpha + I / 2 alpha), D selecting the pairs where w(lambda) > 0,
is always definite.  CG preconditioned with its diagonal gives each Newton
direction.  The line search halves the step from 1 until g rises by Armijo's
share of the predicted ascent, or still rises along the direction (near the
optimum g's value loses precision, its slope does not).

w(lambda) is evaluated in one pass over blocks of pairs, with no n x n
matrix and no pair index: a block of consecutive pairs is read through the
row segments it spans, a block of listed pairs through their nodes, and each
block carries its span, the slice of the pair vector or list it covers.  It
is kept as sparse per-block lists with the nodes of their pairs, from which
the Newton step takes the active pairs.  On its support the gradient of f
is 2 alpha (grad_i g + grad_j g) and off it at least that, so
4 alpha ||grad g||_inf bounds its KKT residual.  Once that bound meets
``tol``, one pass over all pairs computes the exact residual of the returned
point, and the loop stops if that meets it too.

While it is small, the loop runs on a working set W of pairs (Johnson &
Guestrin, "Blitz", ICML 2015; Massias, Gramfort & Salmon, "Celer", ICML 2018),
which starts as supp(w_p) and supp(w0): it solves the problem with w = 0 off
W, whose points are feasible for the whole problem and whose degrees,
objective and dual come from W's pairs alone.  Once the bound holds on W, a
scan evaluates w(lambda) on all pairs.  If it is positive on no pair outside
W, the gradient on W is the whole dual gradient and the exact residual
decides.  Otherwise at most |W| of those pairs, the largest first, join W and
lambda is evaluated again on the larger W, where the dual is lower, so that
point is accepted.  Past ``_WORKING_SHARE`` of the m pairs, or with tol 0,
which would never scan, the loop runs on all pairs; when a scan grows W past
that share, its w(lambda) is the first point on all pairs.

An iteration is one evaluation of w(lambda): a trial point on W or on all
pairs, or a scan; ``max_iters`` caps them.  ``pair_passes`` counts the passes
over all m pairs: trial points on all pairs, scans and exact residuals.

The points w(lambda) do not descend, so the loop keeps the best point seen (as
monotone FISTA does, Beck & Teboulle 2009), which w(lambda) replaces when its
objective is at most ``_SLACK`` above the best.  Otherwise, if the line search
accepted lambda, the best point moves to the minimum of f on the segment
toward w(lambda), which is exact since f is quadratic.  Rejected trial points
are not searched toward, as their support can be far larger than the
solution's.  The trace records the best objective after each iteration, which
a scan leaves as it is, and the best point is returned.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import InputError, check_finite
from .operators import (WeightVector, _block_layout, _degrees, _listed_blocks, _rows,
                        _weight_array, node_count_for_pairs, pair_count, pair_nodes,
                        pair_positions)

__all__ = [
    "DenoiseConfig",
    "DenoiseResult",
    "DenoiseDivergence",
    "pairwise_p_distances",
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

    ``max_iters`` caps the solver's iterations, each one evaluation of
    w(lambda): a trial point of the dual Newton method, on the working set
    or on all pairs, or a scan of all pairs for violators of the working set.
    ``tol`` bounds the KKT residual of the returned weights, relative to
    1 + max|c| with c the gradient's constant part: the solver stops once the
    O(n) bound on that residual and then the exact residual meet it (0 runs
    all ``max_iters``, on all pairs).
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
    pair_passes: int
    config: DenoiseConfig = field(repr=False)

    def summary(self) -> dict:
        """How far the solver got, as every report of a run records it."""
        return {"iterations": self.iterations_run, "converged": self.converged,
                "kkt_residual": self.kkt_residual, "pair_passes": self.pair_passes}

    def to_json_dict(self) -> dict:
        return {**self.summary(),
                "objective_trace": [float(x) for x in self.objective_trace],
                "config": asdict(self.config)}


_GRAM_ROWS = 256


@np.errstate(over="ignore")
def pairwise_p_distances(X: np.ndarray, p: float) -> np.ndarray:
    """d_p[k] = sum_m |X[i,m] - X[j,m]|^p for the pair (i, j) of index k.

    When every feature is 0 or 1, the answer comes from the Gram matrix
    G = X X^T as d_p[k] = s_i + s_j - 2 G_ij with s = diag G.  For any p,
    |x_i - x_j|^p is then (x_i - x_j)^2, so d_p is the Hamming distance for
    every p and a change of p changes nothing.  Sparse features, such as
    bag-of-words, give G from their nonzeros: each pair of nodes that share a
    feature is counted (GCN-Jaccard, Wu et al., IJCAI 2019, overlaps binary
    features so).  Denser ones take G from BLAS a block of rows at a time, so
    no n x n matrix is held.  Every product and partial sum is an integer that
    float64 holds exactly, so the summation order of the row loop, of the
    counts and of BLAS cannot change a bit.

    Any other input goes through a loop over rows, which keeps only O(n d)
    scratch live at a time; a distance that overflows float64 raises
    :class:`InputError` with its node pair.
    """
    check_finite(p=p)
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    # (feature, node) of every nonzero, by feature and then by node; the
    # features are all 0 or 1 when every nonzero is 1
    features, nodes = np.divmod(np.flatnonzero(X.T != 0), n)
    if (X[nodes, features] == 1.0).all():
        return _gram_distances(X, features, nodes)
    del features, nodes  # on dense features, each is as large as X
    out = np.empty(pair_count(n), dtype=np.float64)
    for r, row in _rows(n):
        block = np.abs(X[r + 1:] - X[r])
        if p == 2.0:
            out[row] = np.einsum("ij,ij->i", block, block)
        else:
            out[row] = (block**p).sum(axis=1)
    finite = np.isfinite(out)
    if not finite.all():
        i, j = pair_nodes(np.argmin(finite), n)
        raise InputError(f"d_p is not finite at p = {p} for the node pair ({i}, {j}); "
                         "use a smaller p or rescale the features")
    return out


def _gram_distances(X: np.ndarray, features: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """d_k = s_i + s_j - 2 G_ij for 0/1 features, with s the row counts and
    G_ij the number of features rows i and j share; ``features`` and
    ``nodes`` locate X's ones, by feature and then by node.

    Each feature w held by c_w nodes is shared by C(c_w, 2) node pairs.  When
    those number at most the pair count m, the pairs are listed from each
    feature's nodes and counted with bincount; then the scratch is at most
    three int64 arrays of sum C(c_w, 2) <= m values, no more than three pair
    vectors, and on sparse features far less.  Denser features, where that
    list would be longer than m, take the Gram matrix from BLAS instead.
    """
    n = X.shape[0]
    m = pair_count(n)
    counts = np.bincount(features, minlength=X.shape[1])
    if (counts * (counts - 1) // 2).sum() > m:
        return _blas_gram_distances(X)
    # nonzero e pairs with the ``later[e]`` nonzeros after it in its feature,
    # e + 1 .. e + later[e]; its pairs start at ``first[e]`` in the pair list
    later = np.cumsum(counts)[features] - np.arange(nodes.size) - 1
    first = np.cumsum(later) - later
    i = np.repeat(nodes, later)
    j = np.repeat(np.arange(1, nodes.size + 1) - first, later)
    j += np.arange(j.size)
    j = nodes[j]
    k = pair_positions(i, j, n)
    del i, j
    # bincount of no values gives int64 zeros even with weights
    out = np.bincount(k, np.full(k.size, -2.0), m).astype(np.float64, copy=False)
    del k
    s = np.bincount(nodes, minlength=n).astype(np.float64)
    for r, row in _rows(n):
        pairs = out[row]
        pairs += s[r + 1:]
        pairs += s[r]
    return out


def _blas_gram_distances(X: np.ndarray) -> np.ndarray:
    """d_k = s_i + s_j - 2 G_ij with G = X X^T built a block of rows at a time."""
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    out = np.empty(pair_count(n), dtype=np.float64)
    for i, row in _rows(n):
        r = i % _GRAM_ROWS
        if r == 0:
            block = X[i:i + _GRAM_ROWS] @ X[i:].T
            block *= -2.0
            block += sq[i:i + _GRAM_ROWS, None]
            block += sq[None, i:]
        # column c of the block is node i - r + c
        out[row] = block[r, r + 1:]
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
    return gradient(w_p, beta * np.asarray(d_p, dtype=np.float64), alpha)


def _objective(values, deg, w_p, deg_p, d_p, alpha, beta) -> float:
    r = values - w_p
    return _value(deg, r @ r, values @ d_p, deg_p, alpha, beta)


def _value(deg, sq, zd, deg_p, alpha, beta) -> float:
    """The objective from the degrees, ||w - w_p||^2 and <w, d_p>."""
    dd = deg - deg_p
    return float(alpha * (dd @ dd + 2.0 * sq) + beta * zd)


def _gradient(values, deg, c, alpha: float, pairs, out, scratch) -> np.ndarray:
    """2 alpha (2 w + deg[i] + deg[j]) - c on one block of ``pairs``, in
    ``out``, with ``scratch`` as workspace."""
    g = pairs.sums(deg, out, scratch)
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
    return _objective(values, _nonzero_degrees(values, n), target,
                      _nonzero_degrees(target, n), d_p, alpha, beta)


def gradient(w, c: np.ndarray, alpha: float) -> np.ndarray:
    """Exact gradient 2 alpha L*(L w) - c of :func:`objective`, with c from
    :func:`linear_coefficient`."""
    values, n = _pairs(w)
    c = np.asarray(c, dtype=np.float64)
    _check_pair_shapes(n, c)
    return _full_gradient(values, _nonzero_degrees(values, n), c, alpha)


def _nonzero_degrees(values, n) -> np.ndarray:
    """deg = S w of the pair vector ``values``, from its nonzeros."""
    on = np.flatnonzero(values != 0.0)
    return _degrees(values[on], *pair_nodes(on, n), np.zeros(n))


def _full_gradient(values, deg, c, alpha) -> np.ndarray:
    """2 alpha (2 w + deg[i] + deg[j]) - c as a pair vector, a block at a time."""
    out = np.empty(values.size)
    scratch = np.empty(min(_BLOCK, values.size))
    for pairs in _block_layout(deg.size, _BLOCK):
        blk = pairs.span
        k = blk.stop - blk.start
        _gradient(values[blk], deg, c[blk], alpha, pairs, out[blk], scratch[:k])
    return out


# a w(lambda) replaces the best point when f <= f_best + _SLACK; with no slack
# 6 of the gate's 20 instances stalled at KKT 5e-12 to 3e-9 (tol 1e-12)
_SLACK = 1e-11
# an accepted w(lambda) is searched toward only when the predicted gain exceeds
# this share of 1 + f_best, far above the rounding of f, so f falls wherever it moves
_GAIN = 1e-9
# Armijo's share of the predicted ascent that a step of the dual line search must reach
_ARMIJO = 1e-4
# CG steps per Newton direction, at most
_CG_STEPS = 200
# pairs per block of the element-wise passes, which keeps their scratch in cache
_BLOCK = 8192
# The loop runs on a working set W of pairs while |W| is at most this share of
# the m pairs, and on all of them beyond it.  Solved to tol 1e-6 with each
# path forced (one BLAS thread, 2-vCPU Xeon, median of 3), on heterophilic-
# poisoned SBMs at n = 1000 and 2485 whose w_p holds 0.1-4% of m: W took
# 0.76-0.88x the all-pair time where the solution held about 1% of m, 1.0-1.1x
# at 1.8-1.9%, and 1.1-3.5x from 3.7% up, where W ends near the solution's
# size.  On the cora-shaped bundle (w_p 0.21%, solution 0.36%, |W| at most
# 0.58%) it took 0.24x.  Past the share the W work so far is lost: at 1%,
# such SBMs read 1.0-1.25x, one 1.66x; at 2%, 1.1-1.5x.
_WORKING_SHARE = 0.01


# a diverging solve overflows; the checks on f report it as DenoiseDivergence
@np.errstate(over="ignore", invalid="ignore")
def denoise(w_p: WeightVector, X: np.ndarray, config: DenoiseConfig,
            d_p: np.ndarray | None = None, w0: np.ndarray | None = None) -> DenoiseResult:
    """Semismooth Newton on the n-dimensional dual of the noise-removal objective.

    ``w_p`` holds the poisoned graph's pair weights, and the dual starts at
    lambda = 0.  ``w0`` (default ``w_p``) is the first best point.  ``d_p``
    may be passed in to reuse a precomputed distance vector (it is recomputed
    from ``X`` otherwise; skipped entirely when beta == 0).

    Each iteration evaluates w(lambda) at one call site: at lambda on all
    pairs for a scan, else at the line search's trial point.

    The returned trace has the initial objective at index 0 and the best
    objective after each iteration; it is non-increasing up to 1e-11 slack
    per iteration.  The weights are the best point, and ``kkt_residual`` is
    its KKT residual relative to 1 + max|c|.
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
    start = target if w0 is None else np.asarray(w0, dtype=np.float64)
    _check_pair_shapes(n, d_p, start)
    alpha, beta = config.alpha, config.beta

    m = pair_count(n)
    # the working set W, sorted pair positions, starts as the joint support
    # of w_p and w0, off which both are zero
    work = np.flatnonzero((target != 0.0) | (start != 0.0))
    pairs = pair_nodes(work, n)
    best = np.maximum(start[work], 0.0)
    deg_p = _degrees(target[work], *pairs, np.zeros(n))
    deg_best = deg_p if w0 is None else _degrees(best, *pairs, np.zeros(n))
    del pairs
    # W is None for all pairs; with tol 0 no lambda is certified, so nothing
    # would look outside W
    if config.tol == 0.0 or work.size > _WORKING_SHARE * m:
        best, work = _scatter(best, work, m), None
    buffers = [np.empty(min(_BLOCK, m)) for _ in range(3)]
    all_pairs = (target, deg_p, d_p, alpha, beta, _block_layout(n, _BLOCK), buffers)
    problem = _restrict(all_pairs, work)
    f_best = _objective(best, deg_best, problem[0], deg_p, problem[2], alpha, beta)
    if not np.isfinite(f_best):
        raise DenoiseDivergence(0)
    target_sq = float(problem[0] @ problem[0])

    trace = [f_best]
    # the zero step makes the first pass evaluate lambda = 0 and accept it
    lam, g_lam = np.zeros(n), 0.0
    step, size, slope = np.zeros(n), 1.0, 0.0
    converged, kkt_at, passes, scan, exact = False, 0, 0, False, False
    for t in range(1, config.max_iters + 1):
        # a scan evaluates lambda on all pairs, a trial point the step from it
        trial = lam if scan else lam + size * step
        blocks = nodes = None  # the last w(lambda) is freed before the pass builds the next
        rescale = not exact and (scan or t == 1)
        blocks, nodes, deg, sq, wd, c_max = _primal_point(
            trial, *(all_pairs if scan else problem), with_c_max=rescale)
        if scan or work is None:
            passes += 1
        if rescale:
            # on W, a lower bound on 1 + max|c| until a pass over all pairs
            scale, exact = 1.0 + c_max, scan or work is None
        certified = False
        if scan:
            # a pair outside W where w(lambda) is positive violates, and with
            # none its active pairs are those on W
            scan = False
            new, values = _violators(blocks, work)
            certified = not new.size
            if new.size:
                # at most |W| of the largest, all outside W, join it, and lambda is
                # evaluated on the larger W; its dual is lower there, and the zero step accepts it
                room = max(work.size, 1)
                if new.size > room:
                    new = new[np.argpartition(values, new.size - room)[new.size - room:]]
                grown = np.sort(np.concatenate((work, new)))
                step, slope = np.zeros(n), 0.0
                if grown.size <= _WORKING_SHARE * m:
                    best, work = _scatter(best, np.searchsorted(grown, work), grown.size), grown
                    problem = _restrict(all_pairs, work)
                    trace.append(f_best)
                    continue
                # past the share the loop goes on over all pairs, where the
                # scan's w(lambda) is this iteration's point
                best, work, problem = _scatter(best, work, m), None, all_pairs
            else:
                trace.append(f_best)
        if not certified:
            sq += target_sq
            f = _value(deg, sq, wd, deg_p, alpha, beta)
            if not np.isfinite(f):
                raise DenoiseDivergence(t)
            # g(lambda) = f(w(lambda)) - alpha ||grad g||^2 is the dual's value
            grad = deg - deg_p - trial / (2.0 * alpha)
            g = f - alpha * float(grad @ grad)
            accepted = g >= g_lam + _ARMIJO * size * slope or float(grad @ step) >= 0.0
            if f <= f_best + _SLACK:
                for blk, on, w in blocks:
                    best[blk] = 0.0
                    best[blk][on] = w
                deg_best, f_best = deg, f
            elif accepted:
                # f(best + theta (w - best)) = f_best + lin theta + quad theta^2
                sd = deg - deg_best
                e_sq = sum(float(e @ e) for _, e in _toward(best, blocks, buffers))
                quad = alpha * (sd @ sd + 2.0 * e_sq)
                lin = f - f_best - quad
                if lin < 0.0 and lin * lin > 4.0 * quad * _GAIN * (1.0 + f_best):
                    theta = -lin / (2.0 * quad)
                    sq, wd = _move_toward(best, blocks, theta, problem[0], problem[2],
                                          buffers)
                    deg_best = deg_best + theta * sd
                    f_best = _value(deg_best, sq, wd, deg_p, alpha, beta)
            blocks = None  # a Newton step needs only the nodes
            trace.append(f_best)
            if not accepted:
                size *= 0.5
                continue
            lam, g_lam = trial, g
            # 4 alpha |grad g|_inf bounds the KKT residual of w(lambda); on W it
            # does so for the whole problem once no pair outside W violates
            certified = (config.tol > 0.0
                         and 4.0 * alpha * np.abs(grad).max() <= config.tol * scale)
            if certified and work is not None:
                scan = True
                continue
        if certified:
            weights, kkt = _kkt(best, work, deg_best, all_pairs)
            kkt_at, passes = t, passes + 1
            if kkt <= config.tol:
                converged = True
                break
        if t < config.max_iters:
            # the nodes of the pairs where w(lambda) > 0, from its pass
            step = _newton_direction(grad, *(np.concatenate(side, dtype=np.intp)
                                             for side in zip(*nodes)), alpha)
            slope, size = float(grad @ step), 1.0
    if kkt_at != t:
        weights, kkt = _kkt(best, work, deg_best, all_pairs)
        passes += 1

    # nothing else holds the returned point, so the WeightVector keeps it
    weights.flags.writeable = False
    return DenoiseResult(
        weights=WeightVector(n=n, values=weights),
        objective_trace=np.asarray(trace),
        iterations_run=t,
        converged=converged,
        kkt_residual=float(kkt),
        pair_passes=passes,
        config=config,
    )


def _restrict(problem, work):
    """The problem's pair arrays restricted to the working set ``work``, or
    all of them for None."""
    if work is None:
        return problem
    target, deg_p, d_p, alpha, beta, _, buffers = problem
    return (target[work], deg_p, d_p[work], alpha, beta,
            _listed_blocks(work, deg_p.size, _BLOCK), buffers)


def _scatter(values, at, size):
    """A vector of ``size`` zeros with ``values`` at the positions ``at``."""
    out = np.zeros(size)
    out[at] = values
    return out


def _violators(blocks, work):
    """The pairs outside the working set ``work`` where w(lambda) > 0 and
    their values, for a w(lambda) on all pairs given as per-block lists."""
    on = np.concatenate([on + span.start for span, on, _ in blocks])
    out = ~np.isin(on, work, assume_unique=True)
    return on[out], np.concatenate([w for _, _, w in blocks])[out]


def _primal_point(lam, target, deg_p, d_p, alpha, beta, pairs, buffers, with_c_max=False):
    """w(lambda)_k = max(0, w_p,k - (beta d_k + lambda_i + lambda_j) / 4 alpha),
    the minimiser of the Lagrangian over w >= 0, in one pass over the blocks
    of ``pairs``.

    w(lambda) is returned sparse, as one (block span, indices in the block,
    values) triple per block, with the nodes (i, j) of those pairs per block,
    its degrees, ||w - w_p||^2 - ||w_p||^2, <w, d_p> and, with
    ``with_c_max``, max|c| (0 otherwise).
    """
    t1, t2, t3 = buffers
    n = lam.size
    mu = lam / (4.0 * alpha)
    deg = np.zeros(n)
    blocks, nodes, sq, wd, c_max = [], [], 0.0, 0.0, 0.0
    for block in pairs:
        blk = block.span
        k = blk.stop - blk.start
        pb, db = target[blk], d_p[blk]
        if with_c_max:
            cb = _gradient(pb, deg_p, np.multiply(db, beta, out=t1[:k]), alpha, block,
                           t2[:k], t3[:k])
            c_max = max(c_max, float(np.abs(cb, out=cb).max()))
        v = block.sums(mu, t1[:k], t2[:k])
        v += np.multiply(db, beta / (4.0 * alpha), out=t2[:k])
        v = np.subtract(pb, v, out=v)
        on = np.flatnonzero(v > 0.0)
        w = v[on]
        sq += float(w @ (w - 2.0 * pb[on]))
        wd += float(w @ db[on])
        # block-local indices and nodes fit in 32 bits, which halves the lists' memory
        on = on.astype(np.int32)
        i, j = block.nodes(on)
        _degrees(w, i, j, deg)
        blocks.append((blk, on, w))
        nodes.append((i, j))
    return blocks, nodes, deg, sq, wd, c_max


def _dual_hessian(x, r, c, alpha):
    """(S D S^T / 4 alpha + I / 2 alpha) x, the negated generalized Hessian of
    the dual, where D selects the active pairs, whose nodes are ``r`` and ``c``."""
    y = x.take(r)
    y += x.take(c)
    return (_degrees(y, r, c, np.zeros(x.size)) + 2.0 * x) / (4.0 * alpha)


def _newton_direction(grad, r, c, alpha):
    """The Newton direction (S D S^T / 4 alpha + I / 2 alpha)^-1 grad, by CG
    with the Hessian's diagonal as preconditioner, to a relative residual of
    min(1e-2, ||grad||)."""
    n = grad.size
    inv_diag = 4.0 * alpha / _degrees(np.ones(r.size), r, c, np.full(n, 2.0))
    norm = math.sqrt(grad @ grad)
    stop = min(1e-2, norm) * norm
    x, res = np.zeros(n), grad.copy()
    z = inv_diag * res
    p, rz = z, res @ z
    for _ in range(_CG_STEPS):
        if math.sqrt(res @ res) <= stop:
            break
        hp = _dual_hessian(p, r, c, alpha)
        a = rz / (p @ hp)
        x += a * p
        res -= a * hp
        z = inv_diag * res
        rz, rz_old = res @ z, rz
        p = z + (rz / rz_old) * p
    return x


def _toward(best, blocks, buffers):
    """Yield, for each block of pairs, its slice and w - best for a w given as
    per-block lists; the difference is built in the first block buffer."""
    t1 = buffers[0]
    for blk, on, w in blocks:
        e = np.negative(best[blk], out=t1[:blk.stop - blk.start])
        e[on] += w
        yield blk, e


def _move_toward(best, blocks, theta, target, d_p, buffers):
    """best += theta (w - best), in place and a block at a time; returns
    ||best - w_p||^2 and <best, d_p> for the objective."""
    sq = wd = 0.0
    for blk, e in _toward(best, blocks, buffers):
        bb = best[blk]
        e *= theta
        bb += e
        e = np.subtract(bb, target[blk], out=e)
        sq += float(e @ e)
        wd += float(bb @ d_p[blk])
    return sq, wd


def _kkt(best, work, deg, problem):
    """The best point as a pair vector and its largest KKT violation of
    w >= 0, |grad f| on its support and max(0, -grad f) off it, relative to
    1 + max|c|, from one pass over all pairs."""
    target, deg_p, d_p, alpha, beta, pairs, (t1, t2, t3) = problem
    w = best if work is None else _scatter(best, work, target.size)
    worst = c_max = 0.0
    for block in pairs:
        blk = block.span
        k = blk.stop - blk.start
        c = _gradient(target[blk], deg_p, np.multiply(d_p[blk], beta, out=t1[:k]),
                      alpha, block, t2[:k], t3[:k])
        g = _gradient(w[blk], deg, c, alpha, block, t1[:k], t3[:k])
        c_max = max(c_max, float(c.max()), -float(c.min()))
        on = np.abs(g, out=c)
        on *= w[blk] > 0.0
        worst = max(worst, float(on.max()), -float(g.min()))
    return w, worst / (1.0 + c_max)
