"""Stage 1: recover clean edge weights from the weights of a poisoned graph.

Minimizes, over non-negative pair weights w,

    f(w) = alpha * ||L(w) - L(w_p)||_F^2 + beta * sum_k w_k d_p[k]

where w_p holds the poisoned graph's pair weights and d_p[k] is the
p-th-power feature distance of pair k.  The gradient is

    grad f(w) = 2 alpha L*(L w) - c,      c = 2 alpha L*(L w_p) - beta d_p,

and the iteration is projected gradient descent w <- max(0, w - eta grad)
from w = w_p, with eta = 1/(4 alpha n), the inverse of the gradient's
Lipschitz constant (||L||_2^2 = 2n), which makes every step a monotone
majorization-minimization step.

Everything is evaluated in pair space (Kumar et al., JMLR 2020).  With
deg = S w the weighted node degrees and (i, j) the nodes of pair k,

    [L*(L w)]_k            = 2 w_k + deg[i] + deg[j]
    ||L(w) - L(w_p)||_F^2  = ||deg - deg_p||^2 + 2 ||w - w_p||^2

An iteration therefore costs O(n^2 / 2) on pair vectors: a reduceat over the
pair blocks of each row and a bincount over the columns give deg, which the
objective and the next gradient share.  No n x n matrix is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .datasets import InputError, check_finite
from .operators import WeightVector, _triu, _weight_array, node_count_for_pairs, pair_count

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
    """Non-finite values encountered during the descent loop."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite objective at iteration {iteration}; check the inputs")
        self.iteration = iteration


@dataclass(frozen=True)
class DenoiseConfig:
    """Hyper-parameters of the noise-removal problem and its solver.

    ``tol`` stops the loop once the relative per-iteration objective decrease
    drops below it (0 disables early stopping and runs all ``max_iters``).
    """

    alpha: float = 1.0
    beta: float = 0.5
    p: float = 2.0
    max_iters: int = 200
    tol: float = 0.0

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
    config: DenoiseConfig = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations_run,
            "converged": self.converged,
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
    if _gram_is_exact(X):
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


def _gram_is_exact(X: np.ndarray) -> bool:
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
    index = _triu(n)
    return _gradient(values, _degrees(values, n, index[1]), beta * d_p, alpha, index)


@lru_cache(maxsize=64)
def _row_starts(n: int) -> np.ndarray:
    """Where the pairs (i, j > i) of each row i = 0 .. n-2 start; in pair
    order they form one contiguous, non-empty block per row."""
    i = np.arange(n - 1)
    starts = i * (n - 1) - i * (i - 1) // 2
    starts.flags.writeable = False
    return starts


def _degrees(values: np.ndarray, n: int, cols: np.ndarray) -> np.ndarray:
    """deg = S w, the weighted degree of every node; ``cols`` is ``_triu(n)[1]``
    or a copy of it.

    The row side sums each row's block, which is contiguous; bincount over
    the sorted rows would hit the same bin on every add.
    """
    deg = np.bincount(cols, values, n)
    deg[:-1] += np.add.reduceat(values, _row_starts(n))
    return deg


def _objective(values, deg, w_p, deg_p, d_p, alpha, beta, scratch=None) -> float:
    dd = deg - deg_p
    r = np.subtract(values, w_p, out=scratch)
    return float(alpha * (dd @ dd + 2.0 * (r @ r)) + beta * (values @ d_p))


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
    cols = _triu(n)[1]
    return _objective(values, _degrees(values, n, cols), target,
                      _degrees(target, n, cols), d_p, alpha, beta)


def gradient(w, c: np.ndarray, alpha: float) -> np.ndarray:
    """Exact gradient 2 alpha L*(L w) - c of :func:`objective`, with c from
    :func:`linear_coefficient`."""
    values, n = _pairs(w)
    c = np.asarray(c, dtype=np.float64)
    _check_pair_shapes(n, c)
    index = _triu(n)
    return _gradient(values, _degrees(values, n, index[1]), c, alpha, index)


def denoise(w_p: WeightVector, X: np.ndarray, config: DenoiseConfig,
            d_p: np.ndarray | None = None, w0: np.ndarray | None = None) -> DenoiseResult:
    """Projected-gradient descent on the noise-removal objective.

    ``w_p`` holds the poisoned graph's pair weights; the descent starts from
    it unless ``w0`` is given.  ``d_p`` may be passed in to reuse a
    precomputed distance vector (it is recomputed from ``X`` otherwise;
    skipped entirely when beta == 0).

    The returned trace has the initial objective at index 0 and one entry per
    update; it is non-increasing up to 1e-10 slack.
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
    w = np.maximum(w_p.values if w0 is None else np.asarray(w0, dtype=np.float64), 0.0)
    _check_pair_shapes(n, d_p, w)
    # the loop allocates no pair vector: glibc handed freed ones back to the
    # OS and faulted them in again, which cost 25% of the time at n = 300.
    # np.bincount and take both copy a read-only index on every call, so
    # index is writeable
    index = tuple(a.copy() for a in _triu(n))
    cols = index[1]
    spare, scratch = np.empty_like(w), np.empty_like(w)

    deg_p = _degrees(w_p.values, n, cols)
    # c is built with the loop's buffers as workspace, so set-up holds no
    # more pair vectors than the loop does
    c = _gradient(w_p.values, deg_p, np.multiply(d_p, config.beta, out=spare),
                  config.alpha, index, scratch=scratch)
    eta = 1.0 / (4.0 * config.alpha * n)

    deg = _degrees(w, n, cols)
    f_prev = _objective(w, deg, w_p.values, deg_p, d_p, config.alpha, config.beta, scratch)
    if not np.isfinite(f_prev):
        raise DenoiseDivergence(0)
    trace = [f_prev]
    converged = False
    iterations = 0
    for t in range(1, config.max_iters + 1):
        # w - eta * grad, projected, built in the gradient's own buffer
        step = _gradient(w, deg, c, config.alpha, index, spare, scratch)
        step *= -eta
        step += w
        w, spare = np.maximum(step, 0.0, out=step), w
        deg = _degrees(w, n, cols)
        f = _objective(w, deg, w_p.values, deg_p, d_p, config.alpha, config.beta, scratch)
        if not np.isfinite(f):
            raise DenoiseDivergence(t)
        trace.append(f)
        iterations = t
        decrease = f_prev - f
        if 0.0 <= decrease <= config.tol * max(1.0, abs(f_prev)):
            converged = True
            break
        f_prev = f

    return DenoiseResult(
        weights=WeightVector(n=n, values=w),
        objective_trace=np.asarray(trace),
        iterations_run=iterations,
        converged=converged,
        config=config,
    )
