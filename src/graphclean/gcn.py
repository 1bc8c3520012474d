"""Stage 2: two-layer graph convolutional classifier with manual backprop.

logits = A_hat @ (relu(A_hat X @ W1) @ W2) with the symmetric self-loop
normalization A_hat = D^{-1/2} (W + I) D^{-1/2}, built from the graph's pair
weights.  The first layer's order depends on X alone (:func:`_features`): a
sparse X, such as 0/1 bag-of-words features, is held in CSR rows and
multiplied first, so A_hat propagates X W1, the hidden width, in each
product; any other X forms A_hat X once.  Every other product with A_hat has
one column per class (Kipf & Welling, ICLR 2017).  A_hat and a sparse X are
each a :class:`CsrMatrix`, whose products run one kernel; every function
here accepts any symmetric A_hat that supports ``@``, a dense array
included.  Training is full-batch Adam (Kingma & Ba, ICLR 2015), with an
early stop, for up to ``epochs`` epochs, on masked cross-entropy plus an L2
penalty 0.5 * weight_decay * (||W1||^2 + ||W2||^2); gradients are written out
by hand so they can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, InputError, Split, check_finite
from .operators import _weight_array, node_count_for_pairs, pair_nodes
from .rng import SplitMix64

__all__ = [
    "GcnParams",
    "TrainConfig",
    "TrainReport",
    "TrainDivergence",
    "CsrMatrix",
    "xavier_params",
    "normalize_adjacency",
    "accuracy",
    "loss_and_gradients",
    "train",
]


class TrainDivergence(RuntimeError):
    """The training loss or the logits scoring an update are non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged: non-finite loss or logits at epoch {epoch}")
        self.epoch = epoch


@dataclass
class GcnParams:
    """Weight matrices of the two layers; biases are omitted."""

    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        if self.W1.ndim != 2 or self.W2.ndim != 2 or self.W1.shape[1] != self.W2.shape[0]:
            raise ValueError(
                f"inconsistent parameter shapes {self.W1.shape} and {self.W2.shape}"
            )
        if not (np.isfinite(self.W1).all() and np.isfinite(self.W2).all()):
            raise ValueError("parameters contain non-finite entries")

    def copy(self) -> "GcnParams":
        return GcnParams(W1=self.W1.copy(), W2=self.W2.copy())


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 16
    epochs: int = 250
    learning_rate: float = 1e-2
    weight_decay: float = 5e-4

    def __post_init__(self):
        check_finite(learning_rate=self.learning_rate, weight_decay=self.weight_decay)
        if self.hidden < 1:
            raise InputError(f"hidden width must be >= 1, got {self.hidden}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate < 0:
            # 0 is allowed: a null update leaves the parameters untouched
            raise InputError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise InputError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class TrainReport:
    loss_trace: list
    val_accuracy_trace: list
    best_val_epoch: int
    test_accuracy: float


def xavier_params(feature_dim: int, hidden: int, num_classes: int,
                  seed: int) -> GcnParams:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)) per layer.

    Entries are drawn row-major, W1 before W2, from one SplitMix64 stream.
    """
    rng = SplitMix64(seed)

    def layer(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        flat = 2.0 * rng.uniforms(fan_in * fan_out) - 1.0
        return limit * flat.reshape(fan_in, fan_out)

    return GcnParams(W1=layer(feature_dim, hidden), W2=layer(hidden, num_classes))


# CsrMatrix @ H takes max(1, _PASS_VALUES // max(nnz, k)) columns of the
# (k, w) operand H per pass, so each of a pass's two scratch arrays, the
# transposed block of H and the gathered products, holds at most 2^18 values,
# 2 MB, whatever the width of H or the density of the matrix, unless one
# column alone has more.  2 MB is half of one of the denoiser's pair vectors
# at n = 1000, so a product does not set a run's peak memory.  For A_hat,
# nnz >= n = k, so the block is the smaller array.  On one core, passes of
# 2^16 to 2^19 values took about the same time at the benchmark's sizes.
_PASS_VALUES = 1 << 18

# Adam's decay rates for the first and second moments of the gradient, and
# the term that keeps its denominator nonzero (Kingma & Ba, ICLR 2015).
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8

# Training stops once validation accuracy has not improved for _PATIENCE
# epochs.  Patience 20, patience 50 and no stop in 250 epochs gave the same
# test accuracy on each of the 12 arms of protocol-n1000's inputs at seeds 1,
# 2, 3 and 65, and the same means, 0.990 / 0.910 / 1.000, over the acceptance
# gate's 10 repetitions.  At 50 an arm ran 51-98 epochs, and a protocol-n1000
# repetition took 0.29-0.45 s against 0.72-1.09 s with no stop (one BLAS
# thread, 2-vCPU Xeon).  50 keeps a margin over 20, the least patience tried.
_PATIENCE = 50

# Features are held in CSR rows, and so multiplied before A_hat
# (:func:`_features`), when at most one entry in _ENTRIES_PER_NONZERO is
# nonzero.  At n = 2485, d = 1433, width 16 and one BLAS thread, best of 15:
# X @ W took 6-10 ms dense and 2-3 ms in CSR at 1.25% density, about 6 ms
# both ways at 5%; X.T @ G took 10-17 ms against 1.5-2.5 ms, and 10 against
# 6-7 ms at 5%.  A dense X is 20-30x slower in CSR.  Cora's 0/1 features are
# about 1.3% nonzero, Citeseer's about 0.9%.
_ENTRIES_PER_NONZERO = 32


def _row_pointers(rows: np.ndarray, m: int) -> np.ndarray:
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """An m x k matrix in CSR rows: A_hat, or wide sparse features.

    Row i keeps ``data[indptr[i]:indptr[i+1]]`` at the columns
    ``indices[indptr[i]:indptr[i+1]]``, sorted; a row may be empty.  ``M @ H``
    multiplies by a dense (k, w) array a few columns at a time, so its scratch
    is bounded by ``_PASS_VALUES`` values, not by w.  ``columns`` is k;
    ``transposed`` holds M^T in CSR rows, or None for a symmetric matrix,
    whose ``.T`` is itself.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    columns: int
    transposed: "CsrMatrix | None" = field(default=None, repr=False)
    # the rows that hold entries, or None when every row does, as in A_hat
    _filled: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.diff(self.indptr)
        object.__setattr__(self, "_filled", None if counts.all() else np.flatnonzero(counts))

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "CsrMatrix":
        """The nonzeros of X, with X^T in CSR rows built once for ``.T``."""
        m, k = X.shape
        # row-major flat positions: faster than np.nonzero on a float array
        rows, cols = np.divmod(np.flatnonzero(X != 0), k)
        data = X[rows, cols]
        order = np.argsort(cols, kind="stable")
        XT = cls(_row_pointers(cols, k), rows[order], data[order], columns=m)
        M = cls(_row_pointers(rows, m), cols, data, columns=k, transposed=XT)
        object.__setattr__(XT, "transposed", M)
        return M

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.columns

    @property
    def T(self) -> "CsrMatrix":
        return self if self.transposed is None else self.transposed

    def __matmul__(self, H) -> np.ndarray:
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != self.shape[1]:
            raise ValueError(f"shape mismatch: CSR {self.shape}, operand {H.shape}")
        if self._filled is None:
            # no row is empty, so every reduceat segment is the row's own entries
            out = np.empty((self.shape[0], H.shape[1]))
            rows, starts = slice(None), self.indptr[:-1]
        else:
            # reduceat over the rows that hold entries; the others stay zero
            out = np.zeros((self.shape[0], H.shape[1]))
            rows, starts = self._filled, self.indptr[self._filled]
        step = max(1, _PASS_VALUES // max(self.data.size, H.shape[0]))
        for c0 in range(0, H.shape[1], step):
            block = np.ascontiguousarray(H[:, c0:c0 + step].T)
            prod = block.take(self.indices, axis=1)
            prod *= self.data
            out[rows, c0:c0 + step] = np.add.reduceat(prod, starts, axis=1).T
            # freed before the next pass's take, so one pass's scratch is live
            del prod
        return out


def normalize_adjacency(weights) -> CsrMatrix:
    """D^{-1/2} (W + I) D^{-1/2} in CSR rows for the graph with pair weights
    ``weights``, D the degree matrix of W + I.

    Only the positive pairs are read, so the result holds nnz = n + 2 *
    (positive pairs) values and no n x n array is built.  Rows of isolated
    nodes reduce to a unit self-loop.
    """
    values = _weight_array(weights)
    if np.any(values < 0):
        raise ValueError("adjacency has negative weights")
    n = node_count_for_pairs(values.shape[0])
    edges = np.flatnonzero(values)
    r, c = pair_nodes(edges, n)
    v = values[edges]
    loops = np.arange(n)
    src = np.concatenate([r, c, loops])
    dst = np.concatenate([c, r, loops])
    order = np.lexsort((dst, src))
    src, indices = src[order], dst[order]
    data = np.concatenate([v, v, np.ones(n)])[order]
    indptr = _row_pointers(src, n)
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(data, indptr[:-1]))
    data *= inv_sqrt[src]
    data *= inv_sqrt[indices]
    return CsrMatrix(indptr=indptr, indices=indices, data=data, columns=n)


@dataclass(frozen=True, eq=False)
class _FeaturesFirst:
    """A_hat X without forming it, for X in CSR rows: ``@ W`` is
    A_hat @ (X @ W) and ``.T @ G`` is X^T (A_hat @ G), so only the width of
    W or G passes through A_hat, and X's products read only its nonzeros."""

    A_hat: object
    X: CsrMatrix
    transposed: bool = False

    @property
    def T(self) -> "_FeaturesFirst":
        return _FeaturesFirst(self.A_hat, self.X, not self.transposed)

    def __matmul__(self, M: np.ndarray) -> np.ndarray:
        if self.transposed:
            return self.X.T @ (self.A_hat @ M)
        return self.A_hat @ (self.X @ M)


def _sparse(X: np.ndarray) -> CsrMatrix | None:
    """X in CSR rows when at most one entry in ``_ENTRIES_PER_NONZERO`` is
    nonzero, else None."""
    if _ENTRIES_PER_NONZERO * np.count_nonzero(X != 0) > X.size:
        return None
    return CsrMatrix.from_dense(X)


def _features(A_hat, X: np.ndarray, csr: CsrMatrix | None):
    """A_hat X for the first layer: a :class:`_FeaturesFirst` over ``csr``,
    X in CSR rows as :func:`_sparse` gives it, or the array A_hat @ X when
    ``csr`` is None.

    The order is a property of X, not of the run, so a run capped at E
    epochs is a bit-prefix of the same run capped at E + 1.
    """
    return A_hat @ X if csr is None else _FeaturesFirst(A_hat, csr)


def _propagate(params: GcnParams, A_hat, AX):
    """Forward pass from the propagated features AX = A_hat X, an array or
    a :class:`_FeaturesFirst`.

    Returns XW = AX @ W1, the hidden layer relu(XW) and the logits
    A_hat @ (hidden @ W2); :func:`_loss_and_gradients` needs all three.
    """
    XW = AX @ params.W1
    hidden = np.maximum(XW, 0.0)
    return XW, hidden, A_hat @ (hidden @ params.W2)


def _check_mask(mask, n: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    if mask.min() < 0 or mask.max() >= n:
        raise ValueError(f"mask references nodes outside [0, {n})")
    return mask


def accuracy(logits: np.ndarray, labels: np.ndarray, mask) -> float:
    """Fraction of masked nodes whose argmax logit matches the label.

    Ties go to the lowest class index.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = _check_mask(mask, logits.shape[0])
    predicted = logits[mask].argmax(axis=1)
    return float(np.mean(predicted == labels[mask]))


def _loss_and_gradients(params: GcnParams, A_hat, AX,
                        state, labels: np.ndarray, mask: np.ndarray,
                        weight_decay: float):
    """Loss and gradients at ``params``, whose :func:`_propagate` is ``state``."""
    XW, hidden, logits = state
    # one max-shifted exp gives both the softmax and the masked cross-entropy
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=1, keepdims=True)
    probs = e / norm
    loss = float(np.mean(np.log(norm[mask, 0]) - shifted[mask, labels[mask]]))
    if weight_decay:
        # skipped at 0, where an overflowing ||W||^2 would make it 0 * inf
        loss += 0.5 * weight_decay * (
            float(np.sum(params.W1 * params.W1)) + float(np.sum(params.W2 * params.W2))
        )

    d_logits = np.zeros_like(probs)
    d_logits[mask] = probs[mask]
    d_logits[mask, labels[mask]] -= 1.0
    d_logits /= mask.size

    # A_hat is symmetric, so both layers' gradients read A_hat @ d_logits
    prop_d = A_hat @ d_logits
    grad_W2 = hidden.T @ prop_d + weight_decay * params.W2
    d_hidden = (prop_d @ params.W2.T) * (XW > 0.0)
    grad_W1 = AX.T @ d_hidden + weight_decay * params.W1
    return loss, grad_W1, grad_W2


def loss_and_gradients(params: GcnParams, A_hat, X: np.ndarray,
                       labels: np.ndarray, mask, weight_decay: float):
    """Training loss (cross-entropy + L2) and its exact parameter gradients;
    A_hat is any symmetric matrix that supports ``@``."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = _check_mask(mask, X.shape[0])
    AX = _features(A_hat, X, _sparse(X))
    return _loss_and_gradients(params, A_hat, AX, _propagate(params, A_hat, AX),
                               labels, mask, weight_decay)


def _adam_step(W: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
               t: int, learning_rate: float) -> None:
    """Adam's ``t``-th update, t >= 1, of W in place; m and v, its moments of
    the gradient g, are updated in place too.  Allocates only arrays the
    size of W."""
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * (g * g)
    # bias-corrected m / (sqrt(v) + eps)
    step = m / (1.0 - _BETA1 ** t)
    step /= np.sqrt(v / (1.0 - _BETA2 ** t)) + _EPSILON
    step *= learning_rate
    W -= step


def train(dataset: Dataset, A_hat, split: Split, config: TrainConfig,
          seed: int) -> tuple[GcnParams, TrainReport]:
    """Full-batch Adam on the train mask, with early stop, for up to
    ``config.epochs`` epochs; model selection on val.

    ``A_hat`` comes from :func:`normalize_adjacency`, and ``seed`` seeds the
    initial weights (:func:`xavier_params`).

    Each epoch records the pre-update training loss and the post-update
    validation accuracy.  Training stops after the epoch that is
    ``_PATIENCE`` epochs past the best validation accuracy, so
    ``len(report.loss_trace)`` is the number of epochs run; the returned
    parameters are the snapshot from the best-validation epoch (ties to the
    earliest).  Deterministic per seed.
    """
    split.validate_for(dataset.n)
    for name in ("train", "val", "test"):
        if getattr(split, name).size == 0:
            raise InputError(f"{name} split must be non-empty")

    params = xavier_params(dataset.feature_dim, config.hidden,
                           dataset.num_classes, seed)
    y = dataset.labels
    train_mask = _check_mask(split.train, dataset.n)
    AX = _features(A_hat, dataset.features, dataset.sparse_features)

    loss_trace: list[float] = []
    val_trace: list[float] = []
    best_acc = -1.0
    best_epoch = 0
    best_params = params.copy()
    # Adam's first and second moments of each layer's gradient
    m1, v1 = np.zeros_like(params.W1), np.zeros_like(params.W1)
    m2, v2 = np.zeros_like(params.W2), np.zeros_like(params.W2)
    # a diverging run overflows; the checks below report it as TrainDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        state = _propagate(params, A_hat, AX)
        best_logits = state[2]
        for epoch in range(config.epochs):
            loss, g1, g2 = _loss_and_gradients(params, A_hat, AX, state, y, train_mask,
                                               config.weight_decay)
            if not np.isfinite(loss):
                raise TrainDivergence(epoch)
            loss_trace.append(loss)
            _adam_step(params.W1, g1, m1, v1, epoch + 1, config.learning_rate)
            _adam_step(params.W2, g2, m2, v2, epoch + 1, config.learning_rate)
            state = _propagate(params, A_hat, AX)
            if not np.isfinite(state[2]).all():
                raise TrainDivergence(epoch)
            val_acc = accuracy(state[2], y, split.val)
            val_trace.append(val_acc)
            if val_acc > best_acc:
                best_acc = val_acc
                best_epoch = epoch
                best_params = params.copy()
                best_logits = state[2]
            elif epoch - best_epoch >= _PATIENCE:
                break

    test_acc = accuracy(best_logits, y, split.test)
    report = TrainReport(
        loss_trace=loss_trace,
        val_accuracy_trace=val_trace,
        best_val_epoch=best_epoch,
        test_accuracy=test_acc,
    )
    return best_params, report
