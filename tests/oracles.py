"""Independent reference implementations used to cross-check the library:
finite-difference gradients, the allocating RMSprop formula and
loop-based metric recomputation. These deliberately avoid the code paths
they verify."""

import numpy as np

from textovision import neuralnet as nn


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


def numeric_gradients(params, inputs, targets, dropout_rate=0.0, masks=None, h=1e-5):
    """Central finite differences of the batch MSE loss, parameter by parameter."""

    def loss():
        cache = nn.forward(
            params, inputs, train=masks is not None, dropout_rate=dropout_rate, masks=masks
        )
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
