"""Multi-layer perceptron regression from sentence vectors onto visual
feature vectors.

Every layer, including the output, applies an affine transform followed
by an element-wise ReLU. Training minimizes mean squared error with
RMSprop over shuffled mini-batches, applies inverted dropout to hidden
activations, and early-stops on validation loss. All randomness flows
from seeded ``numpy.random.Generator`` streams, so a (seed, data,
config) triple fully determines parameters, masks, shuffles and the
loss history.

``train`` takes inputs and targets as ``SparseRows``, ``SelectedRows``
or dense matrices, one row per example, and gathers each only one
mini-batch at a time: ``stack_rows`` keeps sparse sentence vectors
compressed and targets are row indices into the feature matrix, so a
sparse corpus of any size never exists as one dense matrix. ``encode`` maps
rows, as they arrive, to a matrix of predicted features; it only reads
its params (a loaded model's arrays are read-only). ``rmsprop_step``
mutates the ``params`` and ``state`` it is given and only reads
``grads``. ``EarlyStopping`` keeps a copy of the best epoch's
parameters, so later in-place steps never change what ``train``
returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

#: ordered (weight matrix, bias vector) pairs; W_i has shape (n_i, n_{i-1})
NetworkParams = list[tuple[np.ndarray, np.ndarray]]

#: per-parameter decayed mean of squared gradients, same shapes as the params
OptimizerState = list[tuple[np.ndarray, np.ndarray]]

#: elements per slice in ``rmsprop_step``: a slice of parameter, state and
#: gradient plus the two scratch buffers (5 x 256 KiB) stay in L2 cache
#: across the update's nine passes
RMSPROP_SLICE = 32768


#: entries per dense block while rows are compressed (1 MiB of float64)
BLOCK_ENTRIES = 2**17


class SparseRows:
    """Rows of a float64 matrix in compressed form: row i keeps the columns
    ``indices[indptr[i]:indptr[i + 1]]`` (ascending, int32) with the same
    slice of ``values``, 12 bytes per kept entry. Every entry whose bit
    pattern is not +0.0 is kept, -0.0 included, so ``take`` gives back the
    dense rows bit for bit."""

    def __init__(self, dim: int, rows: Iterable[np.ndarray]):
        """Compress dense rows of width ``dim``, a block of them at a time."""
        counts, indices, values = [np.zeros(1, np.intp)], [], []
        for block in _blocks(dim, rows):
            row, column = np.nonzero(block.view(np.uint64))
            counts.append(np.bincount(row, minlength=len(block)))
            indices.append(column.astype(np.int32))
            values.append(block[row, column])
        self.dim = dim
        self.indptr = np.cumsum(np.concatenate(counts))
        self.indices = np.concatenate([np.empty(0, np.int32), *indices])
        self.values = np.concatenate([np.empty(0), *values])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indptr) - 1, self.dim)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The dense (len(rows), dim) matrix of rows ``rows``, in that order."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # where each picked row's entries lie: its start plus their rank in it
        kept = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        dense = np.zeros((len(rows), self.dim))
        dense[np.repeat(np.arange(len(rows)), counts), self.indices[kept]] = self.values[kept]
        return dense


def _blocks(dim: int, rows: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The rows of width ``dim`` stacked into float64 blocks of at most
    ``BLOCK_ENTRIES`` entries (one row at least)."""
    rows = iter(rows)
    while block := list(itertools.islice(rows, max(1, BLOCK_ENTRIES // dim))):
        block = [np.asarray(row, dtype=np.float64) for row in block]
        for row in block:
            if row.shape != (dim,):
                raise ValueError(f"row of shape {row.shape} in rows of width {dim}")
        yield np.stack(block)


def stack_rows(dim: int, rows: Iterable[np.ndarray]) -> SparseRows | np.ndarray:
    """Rows of width ``dim``, taken one at a time, in the smaller of the two
    forms ``train`` takes: ``SparseRows`` if at most two thirds of the first
    block's entries are kept (bag-of-words and hashing rows), else one dense
    matrix (word2vec means, which have almost no zero). A first block unlike
    the rest costs memory, never bits: both forms give the same rows."""
    rows = iter(rows)
    first = next(_blocks(dim, rows), np.empty((0, dim)))
    if 3 * np.count_nonzero(first.view(np.uint64)) <= 2 * first.size:
        return SparseRows(dim, itertools.chain(first, rows))
    return np.concatenate([first, *_blocks(dim, rows)])


@dataclass(frozen=True)
class SelectedRows:
    """Rows ``index`` of ``matrix``, in that order, gathered only by ``take``."""

    matrix: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.index), self.matrix.shape[1])

    def take(self, rows: np.ndarray) -> np.ndarray:
        return self.matrix[self.index[rows]]


def _rows(x) -> SparseRows | SelectedRows:
    """``x`` itself if it is ``SparseRows`` or ``SelectedRows``, else a dense
    matrix as ``SelectedRows`` of all its rows."""
    if isinstance(x, (SparseRows, SelectedRows)):
        return x
    x = np.asarray(x, dtype=np.float64)
    return SelectedRows(x, np.arange(len(x)))


@dataclass(frozen=True)
class NetworkConfig:
    """Layer widths from input to output, plus the hidden dropout rate."""

    layer_sizes: tuple[int, ...]
    dropout_rate: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("network needs at least an input and an output size")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.001
    gamma: float = 0.9
    epsilon: float = 1e-6
    batch_size: int = 64
    max_epochs: int = 500
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch size, max epochs and patience must be >= 1")


@dataclass
class ForwardCache:
    """Everything a matching backward pass needs."""

    inputs: np.ndarray
    preacts: list[np.ndarray]
    acts: list[np.ndarray]
    masks: Optional[list[np.ndarray]]  # scaled {0, 1/(1-p)} per hidden layer

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainResult:
    params: NetworkParams
    history: list[EpochStats]
    best_epoch: int
    best_val_loss: float


def init_network(config: NetworkConfig, seed: int) -> NetworkParams:
    """Symmetric uniform fan-based weight init, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    params: NetworkParams = []
    sizes = config.layer_sizes
    for n_in, n_out in zip(sizes, sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        weight = rng.uniform(-limit, limit, size=(n_out, n_in))
        bias = np.zeros(n_out, dtype=np.float64)
        params.append((weight, bias))
    return params


def copy_params(params: NetworkParams) -> NetworkParams:
    return [(w.copy(), b.copy()) for w, b in params]


def zero_state(params: NetworkParams) -> OptimizerState:
    return [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]


def forward(
    params: NetworkParams,
    inputs: np.ndarray,
    *,
    train: bool = False,
    dropout_rate: float = 0.0,
    masks: Optional[Sequence[np.ndarray]] = None,
    rng: Optional[np.random.Generator] = None,
) -> ForwardCache:
    """Run the network over a batch, ReLU at every layer including the output.

    ``inputs`` is a (batch, n_0) matrix. In train mode, inverted dropout
    is applied to each hidden activation: either the supplied boolean
    keep-masks are used, or fresh ones are drawn from ``rng``. Inference
    applies no dropout and no rescaling.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("forward expects a 2-D (batch, dim) input")
    if inputs.shape[1] != params[0][0].shape[1]:
        raise ValueError(
            f"input dim {inputs.shape[1]} does not match first layer width {params[0][0].shape[1]}"
        )

    use_dropout = train and dropout_rate > 0.0
    if use_dropout and masks is None and rng is None:
        raise ValueError("train-mode dropout needs either masks or an rng")
    keep = 1.0 - dropout_rate

    preacts: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    scaled_masks: Optional[list[np.ndarray]] = [] if use_dropout else None

    h = inputs
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = h @ w.T + b
        h = np.maximum(z, 0.0)
        if use_dropout and i < last:
            if masks is not None:
                mask = np.asarray(masks[i], dtype=bool)
                if mask.shape != h.shape:
                    raise ValueError(f"dropout mask {i} has shape {mask.shape}, expected {h.shape}")
            else:
                mask = rng.random(h.shape) >= dropout_rate
            scaled = mask.astype(np.float64) / keep
            scaled_masks.append(scaled)
            h = h * scaled
        preacts.append(z)
        acts.append(h)
    return ForwardCache(inputs=inputs, preacts=preacts, acts=acts, masks=scaled_masks)


def mse_loss(prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean over dimensions (and batch rows, if any) of squared differences."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: prediction {prediction.shape} vs target {target.shape}")
    diff = prediction - target
    return float(np.mean(diff * diff))


def backward(
    params: NetworkParams, cache: ForwardCache, targets: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradient of the batch MSE loss for a matching forward pass.

    The ReLU subgradient at exactly zero is taken as zero.
    """
    targets = np.asarray(targets, dtype=np.float64)
    output = cache.output
    if targets.shape != output.shape:
        raise ValueError(f"target shape {targets.shape} does not match output {output.shape}")

    n, d = output.shape
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params)

    # dL/dz at the output layer; the output has no dropout
    delta = (2.0 / (n * d)) * (output - targets) * (cache.preacts[-1] > 0.0)
    for i in range(len(params) - 1, -1, -1):
        below = cache.inputs if i == 0 else cache.acts[i - 1]
        grads[i] = (delta.T @ below, delta.sum(axis=0))
        if i > 0:
            upstream = delta @ params[i][0]
            if cache.masks is not None:
                upstream = upstream * cache.masks[i - 1]
            delta = upstream * (cache.preacts[i - 1] > 0.0)
    return grads


def rmsprop_step(
    params: NetworkParams,
    grads: Sequence[tuple[np.ndarray, np.ndarray]],
    state: OptimizerState,
    config: OptimizerConfig,
) -> tuple[NetworkParams, OptimizerState]:
    """One update: E' = g*E + (1-g)*grad^2, p' = p - lr*grad/sqrt(E'+eps).

    ``params`` and ``state`` are updated in place and returned; ``grads``
    is only read. Each flattened array is walked in slices of
    ``RMSPROP_SLICE`` elements through two slice-sized scratch buffers,
    so no full-size temporary is allocated. Every element sees the same
    IEEE operations in the same order as the textbook formula, so the
    result is bit-identical to it.
    """
    lr, gamma, eps = config.learning_rate, config.gamma, config.epsilon
    decay = 1.0 - gamma
    largest = max((a.size for pair in params for a in pair), default=0)
    scratch = np.empty(min(RMSPROP_SLICE, largest))
    denom = np.empty_like(scratch)
    for layer, ((w, b), (gw, gb), (ew, eb)) in enumerate(zip(params, grads, state), start=1):
        for p, g, e in ((w, gw, ew), (b, gb, eb)):
            p_flat = _in_place_view(p, layer, "parameter")
            e_flat = _in_place_view(e, layer, "optimizer state")
            g_flat = np.asarray(g, dtype=np.float64).reshape(-1)
            if p.shape != e.shape or p.shape != np.shape(g):
                raise ValueError(
                    f"layer {layer}: parameter {p.shape}, gradient {np.shape(g)} "
                    f"and state {e.shape} shapes differ"
                )
            for start in range(0, p_flat.size, RMSPROP_SLICE):
                ps = p_flat[start : start + RMSPROP_SLICE]
                es = e_flat[start : start + RMSPROP_SLICE]
                gs = g_flat[start : start + RMSPROP_SLICE]
                t = scratch[: gs.size]
                s = denom[: gs.size]
                np.multiply(decay, gs, out=t)
                t *= gs
                es *= gamma
                es += t
                np.add(es, eps, out=s)
                np.sqrt(s, out=s)
                np.multiply(lr, gs, out=t)
                t /= s
                ps -= t
    return params, state


def _in_place_view(a: np.ndarray, layer: int, what: str) -> np.ndarray:
    """Flat view of an array ``rmsprop_step`` may overwrite."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError(
            f"layer {layer}: rmsprop_step updates the {what} in place and needs "
            "a writable C-contiguous float64 array"
        )
    return a.reshape(-1)


class EarlyStopping:
    """Stop after ``patience`` consecutive epochs without a strictly lower loss.

    Keeps a deep copy of the best epoch's parameters so training can
    restore them afterwards.
    """

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best_loss = math.inf
        self.best_epoch = 0
        self.best_params: Optional[NetworkParams] = None
        self.epochs_without_improvement = 0

    def update(self, epoch: int, loss: float, params: NetworkParams) -> bool:
        """Record one epoch; returns True when training should stop."""
        if loss < self.best_loss:
            self.best_loss = loss
            self.best_epoch = epoch
            self.best_params = copy_params(params)
            self.epochs_without_improvement = 0
        else:
            self.epochs_without_improvement += 1
        return self.epochs_without_improvement >= self.patience


def train(
    x_train: SparseRows | np.ndarray,
    t_train: SelectedRows | np.ndarray,
    x_val: SparseRows | np.ndarray,
    t_val: SelectedRows | np.ndarray,
    net_cfg: NetworkConfig,
    opt_cfg: OptimizerConfig,
) -> TrainResult:
    """Mini-batch RMSprop training with early stopping.

    Row i of an input matrix is the sentence vector of the example whose
    target visual feature is row i of the matching target matrix. Each
    epoch shuffles the training rows with the run's seeded generator,
    steps once per mini-batch (the last batch may be smaller), then
    scores the validation set in inference mode. The parameters of the
    best validation epoch are returned together with the full per-epoch
    (train loss, validation loss) history. A non-finite training or
    validation loss raises ``ValueError`` naming the epoch.

    Only the current mini-batch, or the validation set while it is
    scored, is gathered; each gets the same float64 operands a dense
    matrix's rows would, so the result does not depend on the form of
    the inputs. A dense matrix is taken as ``SelectedRows`` of all its
    rows.
    """
    for name, x, t in (("training", x_train, t_train), ("validation", x_val, t_val)):
        x_shape, t_shape = np.shape(x), np.shape(t)
        if len(x_shape) != 2 or len(t_shape) != 2 or not 0 < x_shape[0] == t_shape[0]:
            raise ValueError(
                f"{name} inputs {x_shape} and targets {t_shape} must be non-empty "
                "matrices with one row per example"
            )
    (_, x_dim), (_, t_dim) = np.shape(x_train), np.shape(t_train)
    if x_dim != net_cfg.layer_sizes[0]:
        raise ValueError(
            f"sentence vector dim {x_dim} does not match input width {net_cfg.layer_sizes[0]}"
        )
    if t_dim != net_cfg.layer_sizes[-1]:
        raise ValueError(f"target dim {t_dim} does not match output width {net_cfg.layer_sizes[-1]}")
    if np.shape(x_val)[1] != x_dim or np.shape(t_val)[1] != t_dim:
        raise ValueError("validation dims do not match training dims")
    x_train, t_train, x_val, t_val = map(_rows, (x_train, t_train, x_val, t_val))

    params = init_network(net_cfg, opt_cfg.seed)
    state = zero_state(params)
    rng = np.random.default_rng(opt_cfg.seed)
    stopper = EarlyStopping(opt_cfg.patience)
    history: list[EpochStats] = []
    n = x_train.shape[0]
    val_rows = np.arange(x_val.shape[0])

    # a diverging run overflows long before the epoch ends; the finite-loss
    # check below reports it, so numpy's own warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, opt_cfg.max_epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, opt_cfg.batch_size):
                batch = order[start : start + opt_cfg.batch_size]
                loss_sum += _step(params, state, x_train.take(batch), t_train.take(batch),
                                  net_cfg, opt_cfg, rng) * batch.size

            train_loss = loss_sum / n
            val_loss = mse_loss(forward(params, x_val.take(val_rows)).output,
                                t_val.take(val_rows))
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise ValueError(
                    f"epoch {epoch}: non-finite loss (train {train_loss!r}, "
                    f"validation {val_loss!r}); training diverged"
                )
            history.append(EpochStats(epoch, train_loss, val_loss))
            if stopper.update(epoch, val_loss, params):
                break

    best = stopper.best_params if stopper.best_params is not None else copy_params(params)
    return TrainResult(
        params=best,
        history=history,
        best_epoch=stopper.best_epoch,
        best_val_loss=stopper.best_loss,
    )


def _step(params, state, inputs, targets, net_cfg, opt_cfg, rng) -> float:
    """One RMSprop step on a dense mini-batch; its loss before the step.
    The batch's activations and gradients die on return, so no step
    allocates while the previous step's are alive."""
    cache = forward(params, inputs, train=True, dropout_rate=net_cfg.dropout_rate, rng=rng)
    loss = mse_loss(cache.output, targets)
    rmsprop_step(params, backward(params, cache, targets), state, opt_cfg)
    return loss


def encode(params: NetworkParams, rows: Iterable[np.ndarray]) -> np.ndarray:
    """Predicted visual features, one row per input row (inference mode).

    ``rows`` is a 2-D matrix or any iterable of 1-D rows, such as a
    generator that vectorizes sentences as they are read, so no input
    matrix need exist. Each row gets its own forward pass: BLAS sums a
    batched product in another order, which changes the last bits of
    every row (by up to 4.4e-16 on the benchmark's inputs) and so the
    encoded files.
    """
    if isinstance(rows, np.ndarray) and rows.ndim != 2:
        raise ValueError("encode expects a 2-D (rows, dim) input")
    empty = np.empty((0, params[-1][0].shape[0]))
    return np.concatenate([empty, *(forward(params, np.asarray(row, dtype=np.float64)[None, :])
                                    .output for row in rows)])
