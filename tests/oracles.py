"""Independent reference implementations used to cross-check the library:
finite-difference gradients, whole weight gradients, the allocating
RMSprop formula, the dense training loop that compressed input rows and
per-layer weight gradients replaced, the per-row encode
that blocked encoding replaced, the one-sentence rows that the
vectorizers' ``rows`` replaced, loop-based metric
recomputation, and the per-row feature file reader/writer and
sorted-key cosine ranking that the matrix code replaced. These
deliberately avoid the code paths they verify."""

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from textovision import neuralnet as nn
from textovision.retrieval import Ranking
from textovision.textvec import tokenize


def random_net(sizes, rng):
    """Random weights and nonzero biases; zero biases make dead layers
    land output preactivations exactly on the ReLU kink."""
    params = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        params.append(
            (rng.uniform(-limit, limit, size=(n_out, n_in)), rng.normal(size=n_out) * 0.3)
        )
    return params


def numeric_gradients(params, inputs, targets, dropout_rate=0.0, seed=0, h=1e-5):
    """Central finite differences of the batch MSE loss, parameter by parameter.
    Each loss evaluation draws its dropout masks from a fresh generator seeded
    with ``seed``, so every evaluation drops the same units."""

    def loss():
        cache = nn.forward(params, inputs, dropout_rate=dropout_rate,
                           rng=np.random.default_rng(seed))
        return nn.mse_loss(cache.output, targets)

    grads = []
    for w, b in params:
        pair = []
        for arr in (w, b):
            grad = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                plus = loss()
                arr[idx] = orig - h
                minus = loss()
                arr[idx] = orig
                grad[idx] = (plus - minus) / (2.0 * h)
            pair.append(grad)
        grads.append(tuple(pair))
    return grads


def backward_dense(params, cache, targets):
    """The exact batch MSE gradient as ``neuralnet.backward`` made it
    before it left each weight gradient as factors: every
    ``delta.T @ below`` formed whole."""
    targets = np.asarray(targets, dtype=np.float64)
    output = cache.output
    if targets.shape != output.shape:
        raise ValueError(f"target shape {targets.shape} does not match output {output.shape}")

    n, d = output.shape
    grads = [None] * len(params)

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


def whole_gradients(grads):
    """``neuralnet.backward``'s gradients with each weight gradient's
    factors (delta, below) multiplied out."""
    return [(delta.T @ below, gb) for (delta, below), gb in grads]


def rmsprop_reference(params, grads, state, config):
    """The textbook RMSprop step, one new array per operation, inputs untouched."""
    new_params = []
    new_state = []
    for (w, b), (gw, gb), (ew, eb) in zip(params, grads, state):
        ew2 = config.gamma * ew + (1.0 - config.gamma) * gw * gw
        eb2 = config.gamma * eb + (1.0 - config.gamma) * gb * gb
        new_params.append(
            (
                w - config.learning_rate * gw / np.sqrt(ew2 + config.epsilon),
                b - config.learning_rate * gb / np.sqrt(eb2 + config.epsilon),
            )
        )
        new_state.append((ew2, eb2))
    return new_params, new_state


def train_dense(
    x_train: np.ndarray,
    t_train: np.ndarray,
    x_val: np.ndarray,
    t_val: np.ndarray,
    cfg: nn.TrainConfig,
) -> nn.TrainResult:
    """``neuralnet.train`` as it was before its inputs became ``SparseRows``
    and its targets ``SelectedRows``: dense matrices, indexed per mini-batch,
    the loop kept as it was, with whole weight gradients (``backward_dense``),
    the whole validation set in one forward pass and a fresh copy of each
    best epoch. It counts the epochs since the last strictly lower
    validation loss itself, and stops when they reach the patience.
    """
    for name, x, t in (("training", x_train, t_train), ("validation", x_val, t_val)):
        if x.ndim != 2 or t.ndim != 2 or len(x) == 0 or len(x) != len(t):
            raise ValueError(
                f"{name} inputs {x.shape} and targets {t.shape} must be non-empty "
                "matrices with one row per example"
            )
    if x_val.shape[1] != x_train.shape[1] or t_val.shape[1] != t_train.shape[1]:
        raise ValueError("validation dims do not match training dims")

    params = nn.init_network((x_train.shape[1], *cfg.hidden_sizes, t_train.shape[1]), cfg.seed)
    state = nn.zero_state(params)
    rng = np.random.default_rng(cfg.seed)
    best_loss, best_epoch, best_params, stale = math.inf, 0, None, 0
    history: list[nn.EpochStats] = []
    n = x_train.shape[0]

    # a diverging run overflows long before the epoch ends; the finite-loss
    # check below reports it, so numpy's own warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                cache = nn.forward(params, x_train[batch], dropout_rate=cfg.dropout_rate, rng=rng)
                loss_sum += nn.mse_loss(cache.output, t_train[batch]) * batch.size
                grads = backward_dense(params, cache, t_train[batch])
                params, state = nn.rmsprop_step(params, grads, state, cfg)

            train_loss = loss_sum / n
            val_loss = nn.mse_loss(nn.forward(params, x_val).output, t_val)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise ValueError(
                    f"epoch {epoch}: non-finite loss (train {train_loss!r}, "
                    f"validation {val_loss!r}); training diverged"
                )
            history.append(nn.EpochStats(epoch, train_loss, val_loss))
            stale += 1
            if val_loss < best_loss:
                best_loss, best_epoch, stale = val_loss, epoch, 0
                best_params = [(w.copy(), b.copy()) for w, b in params]
            if stale == cfg.patience:
                break

    return nn.TrainResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_loss,
    )


def encode_per_row(params, rows):
    """``neuralnet.encode`` as it was before it ran in weight blocks: one
    one-row ``forward`` pass per input row, each a matrix-vector product
    over the whole of every layer."""
    empty = np.empty((0, params[-1][0].shape[0]))
    return np.concatenate([empty, *(nn.forward(params, np.asarray(row, dtype=np.float64)[None, :])
                                    .output for row in rows)])


def vectorize_terms(index, sentence):
    """``TermIndex.vectorize`` as it was before one row builder served
    ``train`` and ``encode``, its term lookup inlined: count occurrences
    of each indexed term; unknown terms contribute nothing."""
    found = [index.index[t] for t in index._terms(sentence.text) if t in index.index]
    if not found:
        raise ValueError(f"sentence {sentence.id!r} has no term in the {index.noun}")
    return np.bincount(found, minlength=index.dim).astype(np.float64)


def vectorize_embeddings(table, sentence):
    """``WordEmbeddingTable.vectorize`` as it was before one row builder
    served ``train`` and ``encode``: mean-pool the embeddings of in-table
    tokens.

    Out-of-table tokens are excluded from both the sum and the
    denominator, so a sentence with a single known word maps exactly
    to that word's embedding.
    """
    found = [table.index[t] for t in tokenize(sentence.text) if t in table.index]
    if not found:
        raise ValueError(f"sentence {sentence.id!r} has no token in the embedding table")
    total = np.zeros(table.dim, dtype=np.float64)
    for row in found:  # summed in text order, which fixes the bits
        total += table.table.matrix[row]
    return total / len(found)


def vectorize(vectorizer, sentence):
    """The float64 row of one sentence, for either kind of vectorizer."""
    if vectorizer.kind == "word2vec":
        return vectorize_embeddings(vectorizer, sentence)
    return vectorize_terms(vectorizer, sentence)


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def brute_force_metrics(scores, relevance, ks):
    """Recompute every metric from a raw score matrix with plain loops.

    ``scores`` maps query id -> {item id -> score}; ties break on item id.
    """
    firsts = []
    aps = []
    for query_id in scores:
        ordered = sorted(scores[query_id].items(), key=lambda kv: (-kv[1], kv[0]))
        relevant = relevance[query_id]
        first = None
        hits = 0
        precisions = []
        for pos, (item_id, _) in enumerate(ordered, start=1):
            if item_id in relevant:
                if first is None:
                    first = pos
                hits += 1
                precisions.append(hits / pos)
        firsts.append(first)
        aps.append(sum(precisions) / len(precisions))

    n = len(firsts)
    ordered_firsts = sorted(firsts)
    if n % 2 == 1:
        med = float(ordered_firsts[n // 2])
    else:
        med = (ordered_firsts[n // 2 - 1] + ordered_firsts[n // 2]) / 2.0
    return {
        "ranks": firsts,
        "r_at": {k: 100.0 * sum(1 for r in firsts if r <= k) / n for k in ks},
        "medr": med,
        "meanr": sum(firsts) / n,
        "mir": sum(1.0 / r for r in firsts) / n,
        "map": sum(aps) / n,
    }


# -- per-row feature files and sorted-key ranking, as they were before
# -- features became one (ids, matrix) table


@dataclass(frozen=True)
class VisualFeature:
    """A d-dimensional vector attached to an image, video, or sentence id."""

    item_id: str
    values: np.ndarray


def _float_text(value: float) -> str:
    return repr(float(value))


def read_features(path: str) -> list[VisualFeature]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed feature header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}: malformed feature header") from None
        if count < 1 or dim < 1:
            raise ValueError(f"{path}: feature header declares count {count}, dim {dim}")

        rows: list[VisualFeature] = []
        seen: set[str] = set()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            item_id = parts[0]
            if len(parts) - 1 != dim:
                raise ValueError(
                    f"{path}:{lineno}: row {item_id!r} has {len(parts) - 1} values, expected {dim}"
                )
            if item_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate item id {item_id!r}")
            seen.add(item_id)
            values = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}:{lineno}: non-finite value in row {item_id!r}")
            rows.append(VisualFeature(item_id, values))
        if len(rows) != count:
            raise ValueError(f"{path}: header declares {count} rows but file has {len(rows)}")
    return rows


def write_features(path: str, features: Sequence[VisualFeature]) -> None:
    if not features:
        raise ValueError("refusing to write an empty feature file")
    dim = len(features[0].values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(features)} {dim}\n")
        for f in features:
            if len(f.values) != dim:
                raise ValueError(f"row {f.item_id!r} has dim {len(f.values)}, expected {dim}")
            values = " ".join(_float_text(v) for v in f.values)
            fh.write(f"{f.item_id} {values}\n")


def _candidate_matrix(candidates: Sequence[VisualFeature]) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.stack([np.asarray(c.values, dtype=np.float64) for c in candidates])
    norms = np.linalg.norm(matrix, axis=1)
    for c, norm in zip(candidates, norms):
        if norm == 0.0:
            raise ValueError(f"candidate {c.item_id!r} is a zero vector")
    return matrix, norms


def _rank_one(
    query: VisualFeature,
    candidates: Sequence[VisualFeature],
    matrix: np.ndarray,
    norms: np.ndarray,
) -> Ranking:
    q = np.asarray(query.values, dtype=np.float64)
    if q.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"query {query.item_id!r} has dim {q.shape[0]}, candidates have {matrix.shape[1]}"
        )
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError(f"query {query.item_id!r} is a zero vector")
    scores = (matrix @ q) / (norms * qn)
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i].item_id))
    return Ranking(
        query_id=query.item_id,
        item_ids=[candidates[i].item_id for i in order],
        scores=[float(scores[i]) for i in order],
    )


def rank_all(
    queries: Sequence[VisualFeature], candidates: Sequence[VisualFeature]
) -> list[Ranking]:
    """One cosine Ranking per query, in query order."""
    if not candidates:
        raise ValueError("candidate list is empty")
    matrix, norms = _candidate_matrix(candidates)
    return [_rank_one(q, candidates, matrix, norms) for q in queries]
