"""Stage 1: recover clean edge weights from a perturbed Laplacian.

Minimizes, over non-negative pair weights w,

    f(w) = alpha * ||L(w) - Phi_n||_F^2 + beta * sum_k w_k d_p[k]

where Phi_n is the (possibly invalid) perturbed Laplacian and d_p[k] is the
p-th-power feature distance of pair k.  The gradient is

    grad f(w) = 2 alpha L*(L w) - c,      c = 2 alpha L*(Phi_n) - beta d_p,

and the iteration is projected gradient descent w <- max(0, w - eta grad).
In ``lipschitz`` mode eta = 1/(4 alpha n), the inverse of the gradient's
Lipschitz constant (||L||_2^2 = 2n), which makes every step a monotone
majorization-minimization step; ``fixed`` mode uses a constant learning rate
and offers no descent guarantee.

Both terms are evaluated in pair space (Kumar et al., JMLR 2020).  With
deg = S w the weighted node degrees and (i, j) the nodes of pair k,

    [L*(L w)]_k           = 2 w_k + deg[i] + deg[j]
    ||L(w) - Phi_n||_F^2  = ||deg - diag Phi_n||^2 + 2 ||w + s||^2 + a

where s_k = (Phi_ij + Phi_ji) / 2 is the symmetrised off-diagonal entry of
Phi_n and a = sum_k (Phi_ij - Phi_ji)^2 / 2 is what its asymmetry adds.  An
iteration therefore costs O(n^2 / 2) on pair vectors: two bincounts give
deg, which the objective and the next gradient share.  Phi_n is read only at
entry, for diag Phi_n, s, a and c; no n x n matrix is built per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import WeightVector, adjoint_of, pair_count, _triu

__all__ = [
    "DenoiseConfig",
    "DenoiseResult",
    "DenoiseDivergence",
    "pairwise_p_distances",
    "linear_coefficient",
    "objective",
    "gradient",
    "initial_weights",
    "denoise",
]

STEP_MODES = ("lipschitz", "fixed")


class DenoiseDivergence(RuntimeError):
    """Non-finite values encountered during the descent loop."""

    def __init__(self, iteration: int):
        super().__init__(
            f"non-finite objective at iteration {iteration}; "
            "reduce the step size or check the inputs"
        )
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
    step_mode: str = "lipschitz"
    step_size: float = 1e-3
    tol: float = 0.0
    restrict_support: bool = False

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {self.step_mode!r}")
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "p": self.p,
            "max_iters": self.max_iters,
            "step_mode": self.step_mode,
            "step_size": self.step_size,
            "tol": self.tol,
            "restrict_support": self.restrict_support,
        }


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
            "config": self.config.to_dict(),
        }


def pairwise_p_distances(X: np.ndarray, p: float) -> np.ndarray:
    """d_p[k] = sum_m |X[i,m] - X[j,m]|^p for the pair (i, j) of index k.

    Blocked over rows so only O(n d) scratch is live at a time.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
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


def _check_pair_shapes(n: int, *vectors: np.ndarray) -> None:
    expected = pair_count(n)
    for vec in vectors:
        if vec.shape != (expected,):
            raise ValueError(
                f"expected pair vector of length {expected} for n={n}, "
                f"got shape {vec.shape}"
            )


def linear_coefficient(phi_n: np.ndarray, d_p: np.ndarray,
                       alpha: float, beta: float) -> np.ndarray:
    """c = 2 alpha L*(Phi_n) - beta d_p, the constant part of the gradient.

    Depends only on the perturbed graph and the feature distances, so it is
    computed once per (dataset, perturbation, p, alpha, beta).
    """
    phi_n = np.asarray(phi_n, dtype=np.float64)
    d_p = np.asarray(d_p, dtype=np.float64)
    adj = adjoint_of(phi_n)
    _check_pair_shapes(phi_n.shape[0], d_p)
    return 2.0 * alpha * adj - beta * d_p


def _target(phi_n: np.ndarray):
    """What the objective needs of Phi_n: its diagonal, the symmetrised
    off-diagonal pair vector s and the constant a its asymmetry adds."""
    if phi_n.ndim != 2 or phi_n.shape[0] != phi_n.shape[1]:
        raise ValueError(f"perturbed Laplacian must be square, got shape {phi_n.shape}")
    rows, cols = _triu(phi_n.shape[0])
    off = phi_n[rows, cols]
    lower = phi_n[cols, rows]
    gap = off - lower
    asymmetry = 0.5 * float(gap @ gap)
    off += lower
    off *= 0.5
    return np.diag(phi_n).copy(), off, asymmetry


def _degrees(values: np.ndarray, n: int) -> np.ndarray:
    """deg = S w, the weighted degree of every node."""
    rows, cols = _triu(n)
    return np.bincount(rows, values, n) + np.bincount(cols, values, n)


def _objective(values, deg, target, d_p, alpha: float, beta: float) -> float:
    diag, off, asymmetry = target
    dd = deg - diag
    r = values + off
    return float(alpha * (dd @ dd + 2.0 * (r @ r) + asymmetry) + beta * (values @ d_p))


def _gradient(values, deg, c, alpha: float) -> np.ndarray:
    """2 alpha (2 w + deg[i] + deg[j]) - c, in a fresh array."""
    rows, cols = _triu(deg.shape[0])
    g = deg[rows]
    g += deg[cols]
    g += values
    g += values
    g *= 2.0 * alpha
    g -= c
    return g


def objective(w, phi_n: np.ndarray, d_p: np.ndarray,
              alpha: float, beta: float) -> float:
    """alpha ||L(w) - Phi_n||_F^2 + beta <w, d_p>."""
    values = w.values if isinstance(w, WeightVector) else np.asarray(w, dtype=np.float64)
    phi_n = np.asarray(phi_n, dtype=np.float64)
    d_p = np.asarray(d_p, dtype=np.float64)
    n = phi_n.shape[0]
    _check_pair_shapes(n, values, d_p)
    return _objective(values, _degrees(values, n), _target(phi_n), d_p, alpha, beta)


def gradient(w, phi_n: np.ndarray, c: np.ndarray, alpha: float) -> np.ndarray:
    """Exact gradient 2 alpha L*(L w) - c of :func:`objective`, with c from
    :func:`linear_coefficient`."""
    values = w.values if isinstance(w, WeightVector) else np.asarray(w, dtype=np.float64)
    phi_n = np.asarray(phi_n, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = phi_n.shape[0]
    _check_pair_shapes(n, values, c)
    return _gradient(values, _degrees(values, n), c, alpha)


def initial_weights(phi_n: np.ndarray) -> np.ndarray:
    """Read edge weights off the perturbed Laplacian: w0_k = max(0, -[Phi_n]_ij)."""
    phi_n = np.asarray(phi_n, dtype=np.float64)
    rows, cols = _triu(phi_n.shape[0])
    return np.maximum(-phi_n[rows, cols], 0.0)


def denoise(phi_n: np.ndarray, X: np.ndarray, config: DenoiseConfig,
            d_p: np.ndarray | None = None, w0: np.ndarray | None = None,
            callback=None) -> DenoiseResult:
    """Projected-gradient descent on the noise-removal objective.

    ``phi_n`` must be square and symmetric but need not be a valid Laplacian.
    ``d_p`` may be passed in to reuse a precomputed distance vector (it is
    recomputed from ``X`` otherwise; skipped entirely when beta == 0).
    ``w0`` overrides the default initialization read off ``phi_n``.
    ``callback(iteration, w, objective)`` is invoked after every update with
    the live iterate, which must not be modified.

    The returned trace has the initial objective at index 0 and one entry per
    update; in ``lipschitz`` mode it is non-increasing up to 1e-10 slack.
    """
    phi_n = np.asarray(phi_n, dtype=np.float64)
    if phi_n.ndim != 2 or phi_n.shape[0] != phi_n.shape[1]:
        raise ValueError(f"perturbed Laplacian must be square, got shape {phi_n.shape}")
    n = phi_n.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n={n}")
    gap = float(np.max(np.abs(phi_n - phi_n.T)))
    if gap > 1e-9 * (1.0 + float(np.max(np.abs(phi_n)))):
        raise ValueError(f"perturbed Laplacian is not symmetric (gap {gap:.3e})")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"features must have {n} rows, got shape {X.shape}")

    if config.beta == 0.0:
        d_p = np.zeros(pair_count(n), dtype=np.float64)
    elif d_p is None:
        d_p = pairwise_p_distances(X, config.p)
    else:
        d_p = np.asarray(d_p, dtype=np.float64)
        _check_pair_shapes(n, d_p)

    if w0 is None:
        w = initial_weights(phi_n)
    else:
        w = np.maximum(np.asarray(w0, dtype=np.float64).copy(), 0.0)
        _check_pair_shapes(n, w)

    pinned = None
    if config.restrict_support:
        support = initial_weights(phi_n) > 0.0
        w = np.where(support, w, 0.0)
        pinned = ~support

    c = linear_coefficient(phi_n, d_p, config.alpha, config.beta)
    target = _target(phi_n)
    if config.step_mode == "lipschitz":
        eta = 1.0 / (4.0 * config.alpha * n)
    else:
        eta = config.step_size

    deg = _degrees(w, n)
    f_prev = _objective(w, deg, target, d_p, config.alpha, config.beta)
    if not np.isfinite(f_prev):
        raise DenoiseDivergence(0)
    trace = [f_prev]
    converged = False
    iterations = 0
    for t in range(1, config.max_iters + 1):
        # w - eta * grad, projected, built in the gradient's own buffer
        step = _gradient(w, deg, c, config.alpha)
        step *= -eta
        step += w
        w = np.maximum(step, 0.0, out=step)
        if pinned is not None:
            w[pinned] = 0.0
        deg = _degrees(w, n)
        f = _objective(w, deg, target, d_p, config.alpha, config.beta)
        if not np.isfinite(f):
            raise DenoiseDivergence(t)
        trace.append(f)
        iterations = t
        if callback is not None:
            callback(t, w, f)
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
