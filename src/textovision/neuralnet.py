"""Multi-layer perceptron regression from sentence vectors onto visual
feature vectors.

Every layer, including the output, applies an affine transform followed
by an element-wise ReLU. Training minimizes mean squared error with
RMSprop over shuffled mini-batches, applies inverted dropout to hidden
activations, and early-stops on validation loss. One ``TrainConfig``
holds every training choice; the input and output widths are not among
them, being those of the sentence vectors and visual features. All
randomness flows from seeded ``numpy.random.Generator`` streams, so a
(data, config) pair fully determines parameters, masks, shuffles and
the loss history.

``train`` takes inputs and targets as ``SparseRows``, ``SelectedRows``
or dense matrices, one row per example, and gathers (``x[rows]``) one
mini-batch at a time: term-count sentence vectors stay compressed
(``TermIndex.rows``) and targets are row indices into the feature matrix,
so a sparse corpus of any size never exists as one dense matrix.
``encode`` takes the same row forms and fills one matrix of predicted
features, a chunk of rows at a time through cache-sized weight blocks
on ``thread_count()`` threads; it only reads its params (a loaded
model's arrays are read-only). ``rmsprop_step`` mutates the
``params`` and ``state`` it is given and only reads ``grads``;
``train`` copies the best epoch's parameters into one snapshot, so later
in-place steps never change what it returns.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import thread_count

#: ordered (weight matrix, bias vector) pairs; W_i has shape (n_i, n_{i-1})
NetworkParams = list[tuple[np.ndarray, np.ndarray]]

#: per-parameter decayed mean of squared gradients, same shapes as the params
OptimizerState = list[tuple[np.ndarray, np.ndarray]]

#: elements per slice in ``rmsprop_step``: a slice of parameter, state and
#: gradient plus the two scratch buffers (5 x 256 KiB) stay in L2 cache
#: across the update's nine passes
RMSPROP_SLICE = 32768

#: bytes of weights per block in ``encode``: a block stays in a core's L2
#: cache while every row of a chunk passes through it
ENCODE_BLOCK_BYTES = 1 << 20

#: input rows ``encode`` gathers into one matrix before it runs the layers
ENCODE_CHUNK = 256


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Rows of a float64 matrix in compressed form: row i keeps the columns
    ``indices[indptr[i]:indptr[i + 1]]`` (ascending, int32) with the same
    slice of ``values``, 12 bytes per kept entry; every other entry is +0.0.
    ``TermIndex.rows`` builds them from term counts."""

    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indptr) - 1, self.dim)

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        """The dense (len(rows), dim) matrix of rows ``rows``, in that order."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # where each picked row's entries lie: its start plus their rank in it
        kept = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        dense = np.zeros((len(rows), self.dim))
        dense[np.repeat(np.arange(len(rows)), counts), self.indices[kept]] = self.values[kept]
        return dense


@dataclass(frozen=True)
class SelectedRows:
    """Rows ``index`` of ``matrix`` (dense or ``SparseRows``), in order, gathered by ``[]``."""

    matrix: np.ndarray | SparseRows
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.index), self.matrix.shape[1])

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        return self.matrix[self.index[rows]]


@dataclass(frozen=True)
class TrainConfig:
    """Everything ``train`` takes besides its data: the hidden layer widths
    (the input and output widths are those of the data; no hidden layer is
    legal), the hidden dropout rate, the RMSprop constants, the mini-batch
    size, the early-stopping limits and the seed of every random draw."""

    hidden_sizes: tuple[int, ...] = (1000,)
    dropout_rate: float = 0.2
    learning_rate: float = 0.001
    gamma: float = 0.9
    epsilon: float = 1e-6
    batch_size: int = 64
    max_epochs: int = 500
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if any(n < 1 for n in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be finite and > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch size, max epochs and patience must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def init_network(sizes: Sequence[int], seed: int) -> NetworkParams:
    """Layers of widths ``sizes``, input first: symmetric uniform fan-based
    weight init, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    params: NetworkParams = []
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
    dropout_rate: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> ForwardCache:
    """Run the network over a batch, ReLU at every layer including the output.

    ``inputs`` is a (batch, n_0) matrix. With a ``dropout_rate`` above 0,
    as in training, inverted dropout is applied to each hidden activation,
    a unit being kept where ``rng.random`` draws at least the rate. At
    rate 0, as in inference, no unit is dropped or rescaled.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("forward expects a 2-D (batch, dim) input")
    if inputs.shape[1] != params[0][0].shape[1]:
        raise ValueError(
            f"input dim {inputs.shape[1]} does not match first layer width {params[0][0].shape[1]}"
        )

    use_dropout = dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("dropout needs an rng")
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
            scaled = (rng.random(h.shape) >= dropout_rate).astype(np.float64) / keep
            scaled_masks.append(scaled)
            h = h * scaled
        preacts.append(z)
        acts.append(h)
    return ForwardCache(inputs, preacts, acts, scaled_masks)


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
) -> list[tuple[tuple[np.ndarray, np.ndarray], np.ndarray]]:
    """Exact gradient of the batch MSE loss for a matching forward pass, per
    layer ((delta, below), bias gradient): the weight gradient is
    ``delta.T @ below``, left to the caller so that only one layer's need
    exist at a time. Every delta is made before any weight is updated.

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
        grads[i] = ((delta, below), delta.sum(axis=0))
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
    config: TrainConfig,
) -> tuple[NetworkParams, OptimizerState]:
    """One update: E' = g*E + (1-g)*grad^2, p' = p - lr*grad/sqrt(E'+eps).

    ``params`` and ``state`` are updated in place and returned; ``grads``
    is only read. Each flattened array is walked in slices of
    ``RMSPROP_SLICE`` elements, so no full-size temporary is allocated.
    The slices of all arrays, in order, are cut into one contiguous run
    per worker thread, ``textovision.thread_count()`` workers
    (``TEXTOVISION_THREADS``, or else the CPUs this process may run on)
    but never more than there are slices; numpy's element-wise loops
    release the GIL, so the runs proceed in parallel, each through two
    slice-sized scratch buffers of its own. They need cores that idle
    BLAS threads do not spin on, which the CLI's short
    ``OPENBLAS_THREAD_TIMEOUT`` provides. Every element sees
    the same IEEE operations in the same order as the textbook formula,
    so the result is bit-identical to it for any worker count.
    """
    slices = []
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
                end = start + RMSPROP_SLICE
                slices.append((p_flat[start:end], g_flat[start:end], e_flat[start:end]))

    _on_workers(_rmsprop_run, slices, config.learning_rate, config.gamma, config.epsilon)
    return params, state


def _rmsprop_run(run, lr: float, gamma: float, eps: float) -> None:
    """The RMSprop update, in nine in-place passes per slice, of each
    (parameter, gradient, state) slice of ``run``, in order."""
    decay = 1.0 - gamma
    scratch = np.empty(max((gs.size for _, gs, _ in run), default=0))
    denom = np.empty_like(scratch)
    for ps, gs, es in run:
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


def _on_workers(fn, items: list, *args) -> None:
    """``fn(run, *args)`` for each of ``thread_count()`` contiguous runs of
    ``items``, never more runs than items: the first on the calling thread,
    the others on ``_worker_pool`` under the caller's numpy error state (kept
    per thread). Every run ends before this returns; errors reach the caller."""
    threads = thread_count()
    workers = min(threads, len(items))
    if workers <= 1:
        fn(items, *args)
        return
    errstate = np.geterr()

    def run_under_errstate(run):
        with np.errstate(**errstate):
            fn(run, *args)

    runs = [items[k * len(items) // workers : (k + 1) * len(items) // workers]
            for k in range(workers)]
    others = [_worker_pool(threads).submit(run_under_errstate, run) for run in runs[1:]]
    try:
        fn(runs[0], *args)
    finally:
        errors = [future.exception() for future in others]  # waits for every run
    for error in filter(None, errors):
        raise error


@functools.lru_cache(maxsize=1)  # one pool, made anew when the thread count changes
def _worker_pool(threads: int):
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads - 1)


# a forked child has none of the pool's threads, so it makes its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker_pool.cache_clear)


def _in_place_view(a: np.ndarray, layer: int, what: str) -> np.ndarray:
    """Flat view of an array ``rmsprop_step`` may overwrite."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError(
            f"layer {layer}: rmsprop_step updates the {what} in place and needs "
            "a writable C-contiguous float64 array"
        )
    return a.reshape(-1)


def train(
    x_train: SparseRows | np.ndarray,
    t_train: SelectedRows | np.ndarray,
    x_val: SparseRows | np.ndarray,
    t_val: SelectedRows | np.ndarray,
    cfg: TrainConfig,
) -> TrainResult:
    """Mini-batch RMSprop training with early stopping.

    Row i of an input matrix is the sentence vector of the example whose
    target visual feature is row i of the matching target matrix; their
    widths are the network's input and output widths, with
    ``cfg.hidden_sizes`` between them. Each epoch shuffles the training
    rows with the run's seeded generator, steps once per mini-batch (the
    last batch may be smaller), then scores the validation set without
    dropout. Training stops after ``cfg.patience`` consecutive epochs
    without a strictly lower validation loss, or after ``cfg.max_epochs``;
    the parameters of the best validation epoch are returned together
    with the full per-epoch (train loss, validation loss) history. A
    non-finite training or validation loss raises ``ValueError`` naming
    the epoch.

    Only the current mini-batch, or the validation set while it is
    scored, is gathered; each gets the same float64 operands a dense
    matrix's rows would, so the result does not depend on the form of
    the inputs. Each improving epoch but the last is copied into one
    best-epoch snapshot; an improving last epoch returns the live parameters.
    """
    for name, x, t in (("training", x_train, t_train), ("validation", x_val, t_val)):
        x_shape, t_shape = np.shape(x), np.shape(t)
        if len(x_shape) != 2 or len(t_shape) != 2 or not 0 < x_shape[0] == t_shape[0]:
            raise ValueError(
                f"{name} inputs {x_shape} and targets {t_shape} must be non-empty "
                "matrices with one row per example"
            )
    (_, x_dim), (_, t_dim) = np.shape(x_train), np.shape(t_train)
    if np.shape(x_val)[1] != x_dim or np.shape(t_val)[1] != t_dim:
        raise ValueError("validation dims do not match training dims")

    params = init_network((x_dim, *cfg.hidden_sizes, t_dim), cfg.seed)
    state = zero_state(params)
    rng = np.random.default_rng(cfg.seed)
    best_params, best_epoch, best_loss = None, 0, math.inf
    history: list[EpochStats] = []
    n = x_train.shape[0]
    val_rows = np.arange(x_val.shape[0])

    # a diverging run overflows long before the epoch ends; the finite-loss
    # check below reports it, so numpy's own warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss_sum += _step(params, state, x_train[batch], t_train[batch],
                                  cfg, rng) * batch.size

            train_loss = loss_sum / n
            val_loss = mse_loss(forward(params, x_val[val_rows]).output, t_val[val_rows])
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise ValueError(
                    f"epoch {epoch}: non-finite loss (train {train_loss!r}, "
                    f"validation {val_loss!r}); training diverged"
                )
            history.append(EpochStats(epoch, train_loss, val_loss))
            if val_loss < best_loss:
                best_epoch, best_loss = epoch, val_loss
                if epoch == cfg.max_epochs:  # no step changes the live arrays after it
                    best_params = params
                elif best_params is None:
                    best_params = copy_params(params)
                else:
                    for dst, src in zip(sum(best_params, ()), sum(params, ())):
                        np.copyto(dst, src)
            elif epoch - best_epoch >= cfg.patience:
                break

    return TrainResult(best_params, history, best_epoch, best_loss)


def _step(params, state, inputs, targets, cfg, rng) -> float:
    """One RMSprop step on a dense mini-batch; its loss before the step.
    Each layer's weight gradient is made into one buffer, the size of the
    largest weight, and applied before the next layer's is made. Only the
    deltas and the activations they multiply outlive ``backward``; they
    and the buffer die on return, so no step allocates while the previous
    step's are alive."""
    cache = forward(params, inputs, dropout_rate=cfg.dropout_rate, rng=rng)
    loss = mse_loss(cache.output, targets)
    grads = backward(params, cache, targets)
    del cache  # the update needs only the gradients' factors
    buffer = np.empty(max(w.size for w, _ in params))
    for i, ((delta, below), gb) in enumerate(grads):
        gw = buffer[: params[i][0].size].reshape(params[i][0].shape)
        np.matmul(delta.T, below, out=gw)
        rmsprop_step(params[i : i + 1], [(gw, gb)], state[i : i + 1], cfg)
    return loss


def encode(params: NetworkParams, x: SparseRows | SelectedRows | np.ndarray) -> np.ndarray:
    """Predicted visual features, one row per input row (inference mode).

    ``x`` is in a form ``train``'s inputs take; ``ENCODE_CHUNK`` rows at a
    time are gathered, as ``train`` gathers a mini-batch, and the last
    layer writes them into the one output matrix. Each layer runs in
    weight blocks (``_blocks``) on ``thread_count()`` threads, a block
    staying in cache while every row of the chunk passes through it. Each
    row still gets its own matrix-vector product, the BLAS call of a
    one-row ``forward`` (a batched product sums in another order), so at
    one BLAS thread, as the CLI runs ``encode``, every row has the bits of
    its own ``forward`` at any thread count and in any input form.
    """
    shape, width = np.shape(x), params[0][0].shape[1]
    if len(shape) != 2 or shape[1] != width:
        raise ValueError(f"encode expects a 2-D (rows, {width}) input, got shape {shape}")
    out = np.empty((shape[0], params[-1][0].shape[0]))
    for start in range(0, shape[0], ENCODE_CHUNK):
        h = x[np.arange(start, min(start + ENCODE_CHUNK, shape[0]))]
        for i, (w, b) in enumerate(params, start=1):
            act = out[start : start + len(h)] if i == len(params) else np.empty((len(h), len(w)))
            _on_workers(_encode_blocks, _blocks(w), h, w, b, act)
            h = act
    return out


def _blocks(w: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) row ranges that cover ``w`` in blocks of about
    ``ENCODE_BLOCK_BYTES``, each a multiple of 8 rows but the last, which
    also takes the remainder. BLAS then gives every row the bits it gives
    it in the whole matrix; a 1-row block would take numpy's dot path."""
    step = max(8, ENCODE_BLOCK_BYTES // w[0].nbytes // 8 * 8)
    bounds = [k * step for k in range(max(1, len(w) // step))] + [len(w)]
    return list(zip(bounds, bounds[1:]))


def _encode_blocks(blocks, h: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[:, a:z]``, the ReLU of ``h @ w[a:z].T + b[a:z]``, for each
    block (a, z), one matrix-vector product per row of ``h``."""
    for a, z in blocks:
        part = np.matmul(h[:, None, :], w[a:z].T)[:, 0]
        part += b[a:z]
        np.maximum(part, 0.0, out=out[:, a:z])
