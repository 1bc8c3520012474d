"""Stage 2: two-layer graph convolutional classifier with manual backprop.

logits = A_hat @ (relu(A_hat X @ W1) @ W2) with the symmetric self-loop
normalization A_hat = D^{-1/2} (W + I) D^{-1/2}, built from the graph's pair
weights.  A_hat X is formed once; every other product with A_hat has one
column per class (Kipf & Welling, ICLR 2017).  A_hat is a
:class:`SparseAdjacency` in CSR rows; every function here accepts any
symmetric matrix that supports ``@``, a dense array included.  Training is
plain full-batch gradient descent on masked cross-entropy plus an L2 penalty
0.5 * weight_decay * (||W1||^2 + ||W2||^2); gradients are written out by hand
so they can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, InputError, Split, check_finite
from .operators import _triu, _weight_array, node_count_for_pairs
from .rng import SplitMix64

__all__ = [
    "GcnParams",
    "TrainConfig",
    "TrainReport",
    "TrainDivergence",
    "SparseAdjacency",
    "xavier_params",
    "normalize_adjacency",
    "forward",
    "softmax",
    "cross_entropy",
    "accuracy",
    "loss_and_gradients",
    "train",
]


class TrainDivergence(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
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
    seed: int = 0

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


# SparseAdjacency @ H takes max(1, _PASS_VALUES // nnz) columns of H per pass,
# so a pass's scratch (the gathered products, and the transposed block of H,
# as nnz >= n) holds at most 2^18 values, 2 MB, whatever the width of H or the
# density of the graph, unless one column alone has more.  That is half of one
# of the denoiser's pair vectors at n = 1000, so a product does not set a run's
# peak memory.  On one core, passes of 2^16 to 2^19 values took about the same
# time at the benchmark's sizes.
_PASS_VALUES = 1 << 18


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """A symmetric n x n matrix in CSR rows whose every row holds its diagonal.

    Row i keeps ``data[indptr[i]:indptr[i+1]]`` at the columns
    ``indices[indptr[i]:indptr[i+1]]``, sorted.  ``A @ H`` multiplies by a
    dense (n, k) array a few columns at a time, so its scratch is bounded by
    ``_PASS_VALUES`` values, not by k.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return n, n

    def __matmul__(self, H) -> np.ndarray:
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != self.shape[1]:
            raise ValueError(f"shape mismatch: A_hat {self.shape}, operand {H.shape}")
        out = np.empty(H.shape)
        # no row is empty, so every reduceat segment is the row's own entries
        starts = self.indptr[:-1]
        step = max(1, _PASS_VALUES // self.data.size)
        for c0 in range(0, H.shape[1], step):
            block = np.ascontiguousarray(H[:, c0:c0 + step].T)
            prod = block.take(self.indices, axis=1)
            prod *= self.data
            out[:, c0:c0 + step] = np.add.reduceat(prod, starts, axis=1).T
        return out


def normalize_adjacency(weights) -> SparseAdjacency:
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
    rows, cols = _triu(n)
    r, c, v = rows[edges], cols[edges], values[edges]
    loops = np.arange(n)
    src = np.concatenate([r, c, loops])
    dst = np.concatenate([c, r, loops])
    order = np.lexsort((dst, src))
    src, indices = src[order], dst[order]
    data = np.concatenate([v, v, np.ones(n)])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(data, indptr[:-1]))
    data *= inv_sqrt[src]
    data *= inv_sqrt[indices]
    return SparseAdjacency(indptr=indptr, indices=indices, data=data)


def _propagate(params: GcnParams, A_hat, AX: np.ndarray):
    """Forward pass from the propagated features AX = A_hat @ X.

    Returns XW = AX @ W1, the hidden layer relu(XW) and the logits
    A_hat @ (hidden @ W2); :func:`_loss_and_gradients` needs all three.
    """
    XW = AX @ params.W1
    hidden = np.maximum(XW, 0.0)
    return XW, hidden, A_hat @ (hidden @ params.W2)


def _finite(logits: np.ndarray) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits in forward pass")
    return logits


def forward(params: GcnParams, A_hat, X: np.ndarray) -> np.ndarray:
    """logits = A_hat @ (relu(A_hat @ X @ W1) @ W2)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != params.W1.shape[0] or A_hat.shape[1] != X.shape[0]:
        raise ValueError(
            f"shape mismatch: A_hat {A_hat.shape}, X {X.shape}, W1 {params.W1.shape}"
        )
    return _finite(_propagate(params, A_hat, A_hat @ X)[2])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_mask(mask, n: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    if mask.min() < 0 or mask.max() >= n:
        raise ValueError(f"mask references nodes outside [0, {n})")
    return mask


def cross_entropy(logits: np.ndarray, labels: np.ndarray, mask) -> float:
    """Mean of -log softmax(logits_i)[y_i] over the masked nodes."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = _check_mask(mask, logits.shape[0])
    sub = logits[mask]
    shifted = sub - sub.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(mask.size), labels[mask]]
    return float(np.mean(log_norm - picked))


def accuracy(logits: np.ndarray, labels: np.ndarray, mask) -> float:
    """Fraction of masked nodes whose argmax logit matches the label.

    Ties go to the lowest class index.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = _check_mask(mask, logits.shape[0])
    predicted = logits[mask].argmax(axis=1)
    return float(np.mean(predicted == labels[mask]))


def _loss_and_gradients(params: GcnParams, A_hat, AX: np.ndarray,
                        state, labels: np.ndarray, mask: np.ndarray,
                        weight_decay: float):
    """Loss and gradients at ``params``, whose :func:`_propagate` is ``state``."""
    XW, hidden, logits = state
    probs = softmax(logits)
    loss = cross_entropy(logits, labels, mask)
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
    AX = A_hat @ X
    return _loss_and_gradients(params, A_hat, AX, _propagate(params, A_hat, AX),
                               labels, mask, weight_decay)


def train(dataset: Dataset, A_hat, split: Split,
          config: TrainConfig) -> tuple[GcnParams, TrainReport]:
    """Full-batch gradient descent on the train mask, model selection on val.

    ``A_hat`` comes from :func:`normalize_adjacency`.

    Each epoch records the pre-update training loss and the post-update
    validation accuracy; the returned parameters are the snapshot from the
    best-validation epoch (ties to the earliest).  Deterministic per seed.
    """
    split.validate_for(dataset.n)
    for name in ("train", "val", "test"):
        if getattr(split, name).size == 0:
            raise InputError(f"{name} split must be non-empty")

    params = xavier_params(dataset.feature_dim, config.hidden,
                           dataset.num_classes, config.seed)
    y = dataset.labels
    train_mask = _check_mask(split.train, dataset.n)
    # A_hat @ X is fixed during training, and the forward pass that scores an
    # epoch's update is the next epoch's forward pass
    AX = A_hat @ dataset.features
    state = _propagate(params, A_hat, AX)

    loss_trace: list[float] = []
    val_trace: list[float] = []
    best_acc = -1.0
    best_epoch = 0
    best_params = params.copy()
    best_logits = state[2]
    for epoch in range(config.epochs):
        loss, g1, g2 = _loss_and_gradients(params, A_hat, AX, state, y, train_mask,
                                           config.weight_decay)
        if not np.isfinite(loss):
            raise TrainDivergence(epoch)
        loss_trace.append(loss)
        params.W1 = params.W1 - config.learning_rate * g1
        params.W2 = params.W2 - config.learning_rate * g2
        state = _propagate(params, A_hat, AX)
        val_acc = accuracy(_finite(state[2]), y, split.val)
        val_trace.append(val_acc)
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = params.copy()
            best_logits = state[2]

    test_acc = accuracy(best_logits, y, split.test)
    report = TrainReport(
        loss_trace=loss_trace,
        val_accuracy_trace=val_trace,
        best_val_epoch=best_epoch,
        test_accuracy=test_acc,
    )
    return best_params, report
