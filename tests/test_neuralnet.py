import math
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    encode_per_row,
    max_relative_error,
    numeric_gradients,
    random_net,
    rmsprop_reference,
    train_dense,
    whole_gradients,
)

from textovision import neuralnet as nn


def identity_params(dim):
    return [(np.eye(dim), np.zeros(dim))]


class TestInit:
    def test_deterministic(self):
        a = nn.init_network([5, 7, 3], 42)
        b = nn.init_network([5, 7, 3], 42)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_biases_zero(self):
        for _, b in nn.init_network([4, 6, 2], 1):
            assert np.all(b == 0.0)

    def test_fan_based_bound(self):
        params = nn.init_network([4, 4], 123)
        limit = math.sqrt(6.0 / 8.0)
        assert np.all(np.abs(params[0][0]) <= limit)
        assert limit == pytest.approx(0.8660254, abs=1e-7)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="hidden layer sizes must be >= 1"):
            nn.TrainConfig(hidden_sizes=(0,))
        with pytest.raises(ValueError, match=re.escape("dropout rate must lie in [0, 1)")):
            nn.TrainConfig(dropout_rate=1.0)
        # no hidden layer at all is a legal network: one input-to-output layer
        assert nn.TrainConfig(hidden_sizes=[]).hidden_sizes == ()


class TestForward:
    def test_identity_passthrough(self):
        cache = nn.forward(identity_params(2), np.array([[1.0, 2.0]]))
        assert cache.output.tolist() == [[1.0, 2.0]]

    def test_relu_clamps_negative(self):
        params = [(np.array([[1.0]]), np.array([-2.0]))]
        cache = nn.forward(params, np.array([[1.0]]))
        assert cache.output.tolist() == [[0.0]]

    def test_two_layer_hand_evaluation(self):
        params = [
            (np.array([[1.0], [-1.0]]), np.zeros(2)),
            (np.array([[1.0, 1.0]]), np.zeros(1)),
        ]
        cache = nn.forward(params, np.array([[3.0]]))
        assert cache.acts[0].tolist() == [[3.0, 0.0]]
        assert cache.output.tolist() == [[3.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="input dim"):
            nn.forward(identity_params(2), np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError, match="2-D"):
            nn.forward(identity_params(2), np.array([1.0, 2.0]))

    def test_output_nonnegative(self):
        rng = np.random.default_rng(5)
        params = nn.init_network([6, 8, 4], 5)
        cache = nn.forward(params, rng.normal(size=(10, 6)))
        assert np.all(cache.output >= 0.0)

    def test_infer_mode_ignores_dropout_rate(self):
        # no rate, as in validation and encode: no unit dropped, nothing drawn
        params = nn.init_network([3, 5, 2], 2)
        x = np.ones((4, 3))
        plain = nn.forward(params, x)
        assert plain.masks is None
        again = nn.forward(params, x)
        assert np.array_equal(plain.output, again.output)


class TestDropout:
    def test_inverted_scaling_with_explicit_mask(self):
        # one hidden unit kept out of two: survivor doubled at rate 0.5
        params = [
            (np.eye(2), np.zeros(2)),
            (np.eye(2), np.zeros(2)),
        ]

        class FixedDraws:
            """A generator stand-in: a draw at or above the rate keeps its unit."""

            def random(self, shape):
                return np.array([0.5, 0.4999]).reshape(shape)

        cache = nn.forward(params, np.array([[1.0, 1.0]]), dropout_rate=0.5, rng=FixedDraws())
        assert cache.acts[0].tolist() == [[2.0, 0.0]]
        assert cache.output.tolist() == [[2.0, 0.0]]

    def test_no_mask_on_output_layer(self):
        params = nn.init_network([3, 4, 4, 2], 9)
        rng = np.random.default_rng(0)
        cache = nn.forward(params, np.ones((2, 3)), dropout_rate=0.3, rng=rng)
        assert len(cache.masks) == 2  # hidden layers only

    def test_seeded_masks_reproducible(self):
        params = nn.init_network([3, 8, 2], 11)
        x = np.ones((5, 3))
        a = nn.forward(params, x, dropout_rate=0.4, rng=np.random.default_rng(77))
        b = nn.forward(params, x, dropout_rate=0.4, rng=np.random.default_rng(77))
        assert np.array_equal(a.output, b.output)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)

    def test_rng_required_when_dropping(self):
        params = nn.init_network([3, 8, 2], 11)
        with pytest.raises(ValueError, match="dropout needs an rng"):
            nn.forward(params, np.ones((1, 3)), dropout_rate=0.4)


class TestMseLoss:
    def test_identical_vectors(self):
        assert nn.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_mean_over_dimensions(self):
        assert nn.mse_loss(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 12.5

    def test_batch_mean(self):
        pred = np.array([[0.0], [0.0]])
        target = np.array([[2.0], [0.0]])
        assert nn.mse_loss(pred, target) == 2.0

    def test_positive_for_distinct(self):
        assert nn.mse_loss(np.array([1.0]), np.array([1.5])) > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.mse_loss(np.zeros(2), np.zeros(3))


class TestBackward:
    def test_zero_at_minimum(self):
        params = identity_params(3)
        x = np.array([[1.0, 2.0, 3.0]])
        cache = nn.forward(params, x)
        grads = whole_gradients(nn.backward(params, cache, cache.output.copy()))
        for gw, gb in grads:
            assert np.all(gw == 0.0)
            assert np.all(gb == 0.0)

    def test_hand_derived_single_layer(self):
        params = [(np.array([[1.0]]), np.array([0.0]))]
        cache = nn.forward(params, np.array([[1.0]]))
        (gw, gb), = whole_gradients(nn.backward(params, cache, np.array([[3.0]])))
        assert gw.tolist() == [[-4.0]]
        assert gb.tolist() == [-4.0]

    def test_matches_finite_differences_random_nets(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 20:
            depth = int(rng.integers(2, 5))
            sizes = [int(rng.integers(1, 17)) for _ in range(depth)]
            batch = int(rng.integers(1, 9))
            params = random_net(sizes, rng)
            x = rng.normal(size=(batch, sizes[0]))
            t = np.abs(rng.normal(size=(batch, sizes[-1])))
            cache = nn.forward(params, x)
            # central differences are meaningless within h of a ReLU kink
            if any(np.any(np.abs(z) < 1e-4) for z in cache.preacts):
                continue
            analytic = whole_gradients(nn.backward(params, cache, t))
            numeric = numeric_gradients(params, x, t)
            assert max_relative_error(analytic, numeric) <= 1e-4, f"config {sizes}x{batch}"
            checked += 1

    def test_matches_finite_differences_with_dropout_masks(self):
        rng = np.random.default_rng(7)
        sizes = [5, 9, 6, 3]
        params = nn.init_network(sizes, 31)
        x = rng.normal(size=(4, 5))
        t = np.abs(rng.normal(size=(4, 3)))
        cache = nn.forward(params, x, dropout_rate=0.4, rng=np.random.default_rng(5))
        # the check means something only if some units are kept and others dropped
        for mask in cache.masks:
            assert np.any(mask > 0.0) and np.any(mask == 0.0)
        analytic = whole_gradients(nn.backward(params, cache, t))
        numeric = numeric_gradients(params, x, t, dropout_rate=0.4, seed=5)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_relu_subgradient_at_zero_is_zero(self):
        # z = 1*1 - 1 = 0 exactly: the gate must stay closed
        params = [(np.array([[1.0]]), np.array([-1.0]))]
        cache = nn.forward(params, np.array([[1.0]]))
        assert cache.preacts[0][0, 0] == 0.0
        (gw, gb), = whole_gradients(nn.backward(params, cache, np.array([[5.0]])))
        assert gw[0, 0] == 0.0
        assert gb[0] == 0.0

    def test_target_shape_mismatch(self):
        params = identity_params(2)
        cache = nn.forward(params, np.ones((1, 2)))
        with pytest.raises(ValueError):
            nn.backward(params, cache, np.ones((1, 3)))


class TestRmsprop:
    def test_hand_derived_step(self):
        params = [(np.array([[0.0]]), np.array([0.0]))]
        grads = [(np.array([[1.0]]), np.array([0.0]))]
        state = nn.zero_state(params)
        cfg = nn.TrainConfig()
        new_params, new_state = nn.rmsprop_step(params, grads, state, cfg)
        assert new_state[0][0][0, 0] == pytest.approx(0.1, abs=1e-15)
        expected = -0.001 / math.sqrt(0.100001)
        assert new_params[0][0][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_zero_gradient_decays_state_only(self):
        params = [(np.full((2, 2), 0.5), np.array([1.0, -1.0]))]
        state = [(np.full((2, 2), 0.4), np.array([0.2, 0.2]))]
        grads = [(np.zeros((2, 2)), np.zeros(2))]
        before = nn.copy_params(params)
        new_params, new_state = nn.rmsprop_step(params, grads, state, nn.TrainConfig())
        assert np.array_equal(new_params[0][0], before[0][0])
        assert np.array_equal(new_params[0][1], before[0][1])
        assert np.allclose(new_state[0][0], 0.9 * 0.4, atol=1e-15)

    def test_two_successive_unit_gradient_steps(self):
        params = [(np.array([[0.0]]), np.array([0.0]))]
        grads = [(np.array([[1.0]]), np.array([0.0]))]
        state = nn.zero_state(params)
        cfg = nn.TrainConfig()
        params, state = nn.rmsprop_step(params, grads, state, cfg)
        p1 = params[0][0][0, 0]
        params, state = nn.rmsprop_step(params, grads, state, cfg)
        assert state[0][0][0, 0] == pytest.approx(0.19, abs=1e-15)
        assert params[0][0][0, 0] == pytest.approx(p1 - 0.001 / math.sqrt(0.190001), abs=1e-12)

    def test_state_nonnegative_and_bounded_by_peak_squared_gradient(self):
        rng = np.random.default_rng(88)
        params = [(rng.normal(size=(3, 4)), rng.normal(size=3))]
        state = nn.zero_state(params)
        cfg = nn.TrainConfig()
        peak_w = np.zeros((3, 4))
        peak_b = np.zeros(3)
        for _ in range(50):
            gw = rng.normal(size=(3, 4))
            gb = rng.normal(size=3)
            peak_w = np.maximum(peak_w, gw * gw)
            peak_b = np.maximum(peak_b, gb * gb)
            params, state = nn.rmsprop_step(params, [(gw, gb)], state, cfg)
            assert np.all(state[0][0] >= 0.0)
            assert np.all(state[0][1] >= 0.0)
            assert np.all(state[0][0] <= peak_w + 1e-15)
            assert np.all(state[0][1] <= peak_b + 1e-15)


    # weight shapes below, equal to and not a multiple of the slice size
    @pytest.mark.parametrize(
        "shapes",
        [
            [(3, 5), (2, 3)],
            [(8, nn.RMSPROP_SLICE // 8)],
            [(7, 10_000), (3, 7)],
        ],
    )
    @pytest.mark.parametrize(
        "cfg",
        [nn.TrainConfig(), nn.TrainConfig(learning_rate=0.05, gamma=0.5, epsilon=1e-8)],
    )
    def test_bit_identical_to_reference_formula(self, shapes, cfg, monkeypatch):
        rng = np.random.default_rng(19)
        start = [(rng.normal(size=shape), rng.normal(size=shape[0])) for shape in shapes]
        steps = []
        for step in range(20):
            grads = [
                (rng.normal(size=w.shape) * 10.0 ** -step, rng.normal(size=b.shape))
                for w, b in start
            ]
            grads[0][1][0] = 0.0
            steps.append(grads)
        # the 3 slices of a 7 x 10 000 weight split unevenly over 2 workers
        for workers in (1, 2, 3):
            monkeypatch.setenv("TEXTOVISION_THREADS", str(workers))
            params, state = nn.copy_params(start), nn.zero_state(start)
            ref_params, ref_state = nn.copy_params(start), nn.zero_state(start)
            for grads in steps:
                frozen = nn.copy_params(grads)
                ref_params, ref_state = rmsprop_reference(ref_params, grads, ref_state, cfg)
                new_params, new_state = nn.rmsprop_step(params, grads, state, cfg)
                assert new_params is params and new_state is state
                for got, want in zip(params + state, ref_params + ref_state):
                    for a, b in zip(got, want):
                        assert a.tobytes() == b.tobytes(), workers
                for got, want in zip(grads, frozen):
                    for a, b in zip(got, want):
                        assert a.tobytes() == b.tobytes()

    def test_a_failing_worker_reaches_the_caller(self, monkeypatch):
        # 4 slices over 2 workers: the second worker's run holds the bias
        params = [(np.zeros((3, nn.RMSPROP_SLICE)), np.zeros(3))]
        grads = [(np.ones((3, nn.RMSPROP_SLICE)), np.ones(3))]
        real = nn._rmsprop_run

        def failing(run, *settings):
            if any(gs.size == 3 for _, gs, _ in run):
                raise MemoryError("worker failed")
            real(run, *settings)

        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        monkeypatch.setattr(nn, "_rmsprop_run", failing)
        with pytest.raises(MemoryError, match="worker failed"):
            nn.rmsprop_step(params, grads, nn.zero_state(params), nn.TrainConfig())

    def test_worker_count_is_the_thread_cap_or_the_usable_cpus(self, monkeypatch):
        monkeypatch.setenv("TEXTOVISION_THREADS", "3")
        assert nn.thread_count() == 3
        monkeypatch.delenv("TEXTOVISION_THREADS")
        assert nn.thread_count() == len(os.sched_getaffinity(0))
        for value in ("0", "-2", "two"):
            monkeypatch.setenv("TEXTOVISION_THREADS", value)
            with pytest.raises(ValueError, match="TEXTOVISION_THREADS must be a positive integer"):
                nn.thread_count()

    @pytest.mark.parametrize(
        "make_weight",
        [
            lambda: np.zeros((3, 2)).T,
            lambda: np.zeros((2, 3), dtype=np.float32),
            lambda: np.frombuffer(bytes(48), dtype=np.float64).reshape(2, 3),
        ],
        ids=["transposed", "float32", "read-only"],
    )
    def test_rejects_arrays_it_cannot_update_in_place(self, make_weight):
        params = [(make_weight(), np.zeros(2))]
        grads = [(np.ones((2, 3)), np.ones(2))]
        state = [(np.zeros((2, 3)), np.zeros(2))]
        with pytest.raises(ValueError, match="layer 1"):
            nn.rmsprop_step(params, grads, state, nn.TrainConfig())

    def test_rejects_gradient_shape_mismatch(self):
        params = [(np.zeros((2, 3)), np.zeros(2))]
        state = nn.zero_state(params)
        with pytest.raises(ValueError, match="shapes differ"):
            nn.rmsprop_step(params, [(np.ones((3, 2)), np.ones(2))], state, nn.TrainConfig())


def scripted_train(monkeypatch, val_losses, **settings):
    """``train`` on a small fixed set with its validation losses replaced,
    in order, by ``val_losses``; the training steps are untouched."""
    rng = np.random.default_rng(3)
    x, t = np.abs(rng.normal(size=(9, 4))), np.abs(rng.normal(size=(9, 2)))
    scripted = iter(val_losses)
    real = nn.mse_loss

    def mse_loss(prediction, target):
        # the validation set has 3 rows; the training batches 4 and 2
        return next(scripted) if len(prediction) == 3 else real(prediction, target)

    with monkeypatch.context() as patch:
        patch.setattr(nn, "mse_loss", mse_loss)
        cfg = nn.TrainConfig(hidden_sizes=(5,), batch_size=4, seed=11, **settings)
        return nn.train(x[:6], t[:6], x[6:], t[6:], cfg)


def param_bytes(params):
    return [(w.tobytes(), b.tobytes()) for w, b in params]


class TestEarlyStopping:
    PLATEAU = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]

    def test_injected_plateau_sequence(self, monkeypatch):
        # minimum at epoch 2, then five non-improving epochs -> stop at 7
        result = scripted_train(monkeypatch, self.PLATEAU, patience=5)
        assert [s.val_loss for s in result.history] == self.PLATEAU
        assert [s.epoch for s in result.history] == list(range(1, 8))
        assert (result.best_epoch, result.best_val_loss) == (2, 0.9)

    def test_best_params_are_a_snapshot(self, monkeypatch):
        # five more epochs of in-place steps leave the returned epoch-2 params alone
        result = scripted_train(monkeypatch, self.PLATEAU, patience=5)
        two = scripted_train(monkeypatch, self.PLATEAU[:2], max_epochs=2)
        assert param_bytes(result.params) == param_bytes(two.params)
        # and those steps do move the params, so the check has teeth
        seven = scripted_train(monkeypatch, [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], max_epochs=7)
        assert seven.best_epoch == 7
        assert param_bytes(seven.params) != param_bytes(two.params)

    def test_strictly_lower_comparison(self, monkeypatch):
        # equal is not an improvement: three equal epochs after the first stop at 4
        result = scripted_train(monkeypatch, [1.0, 1.0, 1.0, 1.0], patience=3)
        assert len(result.history) == 4
        assert (result.best_epoch, result.best_val_loss) == (1, 1.0)
        one = scripted_train(monkeypatch, [1.0], max_epochs=1)
        assert param_bytes(result.params) == param_bytes(one.params)

    def test_max_epochs_can_end_the_run_first(self, monkeypatch):
        # the best epoch is the last strict minimum; its equal successor is not
        losses = [3.0, 2.0, 2.5, 1.0, 1.0]
        result = scripted_train(monkeypatch, losses, max_epochs=5, patience=5)
        assert [s.val_loss for s in result.history] == losses
        assert (result.best_epoch, result.best_val_loss) == (4, 1.0)
        four = scripted_train(monkeypatch, losses[:4], max_epochs=4)
        assert param_bytes(result.params) == param_bytes(four.params)


def sparse_matrix(rng, rows, cols):
    """Mostly-zero counts with column 0 all zero, a -0.0 in every other
    row, and a few fractional and negative values."""
    x = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0, -0.5, 0.25], size=(rows, cols))
    x[:, 0] = 0.0
    x[::2, rng.integers(1, cols)] = -0.0
    return x


def sparse_rows(x):
    """``x`` as ``SparseRows``, keeping every entry whose bit pattern is not
    +0.0, so -0.0 and NaN are stored too."""
    row, column = np.nonzero(x.view(np.uint64))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=len(x)))])
    return nn.SparseRows(x.shape[1], indptr, column.astype(np.int32), x[row, column])


class TestSparseRows:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 9))
    def test_take_gives_back_dense_rows_bit_for_bit(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        x = sparse_matrix(rng, rows, cols)
        x[rng.integers(rows), rng.integers(cols)] = np.nan
        sparse = sparse_rows(x)
        assert sparse.shape == x.shape
        picks = rng.integers(rows, size=rng.integers(1, 2 * rows))
        assert sparse[picks].tobytes() == x[picks].tobytes()


OVERFIT_X = np.array([[1.0, 0.5]])
OVERFIT_T = np.array([[0.6, 0.4]])
# seed 7 keeps both initial output preactivations positive; a negative one
# would be pinned at zero by the output ReLU and never receive gradient
OVERFIT_SEED = 7


def overfit_pair():
    """The single-example training set, also used as its validation set."""
    return OVERFIT_X, OVERFIT_T


class TestTrain:
    def test_single_pair_overfits(self):
        result = nn.train(
            *overfit_pair(),
            *overfit_pair(),
            nn.TrainConfig(hidden_sizes=(), dropout_rate=0.0, seed=OVERFIT_SEED),
        )
        assert len(result.history) <= 500
        assert result.best_val_loss < 1e-3

    def test_train_loss_at_best_epoch_not_above_first_epoch(self):
        result = nn.train(
            *overfit_pair(),
            *overfit_pair(),
            nn.TrainConfig(hidden_sizes=(), dropout_rate=0.0, seed=OVERFIT_SEED),
        )
        by_epoch = {s.epoch: s for s in result.history}
        assert by_epoch[result.best_epoch].train_loss <= by_epoch[1].train_loss

    def test_history_is_bit_identical_across_runs(self):
        rng = np.random.default_rng(0)
        rows = [(np.abs(rng.normal(size=6)), np.abs(rng.normal(size=3))) for _ in range(12)]
        x = np.stack([x for x, _ in rows])
        t = np.stack([t for _, t in rows])
        cfg = nn.TrainConfig(hidden_sizes=(5,), dropout_rate=0.25, seed=99, batch_size=4,
                             max_epochs=15, patience=50)
        a = nn.train(x[:9], t[:9], x[9:], t[9:], cfg)
        b = nn.train(x[:9], t[:9], x[9:], t[9:], cfg)
        assert [(s.epoch, s.train_loss, s.val_loss) for s in a.history] == [
            (s.epoch, s.train_loss, s.val_loss) for s in b.history
        ]
        for (wa, ba), (wb, bb) in zip(a.params, b.params):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(1, 14),
        batch_size=st.integers(1, 6),
        n_val=st.integers(1, 4),
        dropout=st.sampled_from([0.0, 0.3]),
    )
    @example(seed=1, n_train=9, batch_size=4, n_val=1, dropout=0.3)  # 1-row last batch
    @example(seed=2, n_train=1, batch_size=64, n_val=1, dropout=0.0)
    def test_compressed_rows_train_bit_identical_to_dense_loop(self, seed, n_train, batch_size,
                                                              n_val, dropout):
        rng = np.random.default_rng(seed)
        x = sparse_matrix(rng, n_train + n_val, 7)
        items = np.abs(rng.normal(size=(5, 3)))
        targets = rng.integers(len(items), size=n_train + n_val)
        cfg = nn.TrainConfig(hidden_sizes=(6,), dropout_rate=dropout, seed=seed,
                             batch_size=batch_size, max_epochs=6, patience=2)
        train, val = np.arange(n_train), np.arange(n_train, n_train + n_val)
        compressed = nn.train(
            sparse_rows(x[train]), nn.SelectedRows(items, targets[train]),
            sparse_rows(x[val]), nn.SelectedRows(items, targets[val]), cfg,
        )
        dense = train_dense(x[train], items[targets[train]], x[val], items[targets[val]], cfg)
        # dense matrices, as word2vec rows reach train, take the same path
        wrapped = nn.train(x[train], items[targets[train]], x[val], items[targets[val]], cfg)
        for result in (compressed, wrapped):
            assert [(s.epoch, s.train_loss, s.val_loss) for s in result.history] == [
                (s.epoch, s.train_loss, s.val_loss) for s in dense.history
            ]
            assert (result.best_epoch, result.best_val_loss) == (dense.best_epoch,
                                                                 dense.best_val_loss)
            for (w, b), (dw, db) in zip(result.params, dense.params):
                assert w.tobytes() == dw.tobytes() and b.tobytes() == db.tobytes()

    def test_params_and_history_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        # a 40 x 2000 first layer is 3 slices, so 2 workers both update it
        rng = np.random.default_rng(8)
        x = sparse_matrix(rng, 30, 2000)
        t = np.abs(rng.normal(size=(30, 3)))
        cfg = nn.TrainConfig(hidden_sizes=(40,), seed=8, batch_size=8, max_epochs=4)
        results = []
        for workers in (1, 2):
            monkeypatch.setenv("TEXTOVISION_THREADS", str(workers))
            results.append(nn.train(x[:24], t[:24], x[24:], t[24:], cfg))
        one, two = results
        assert [(s.epoch, s.train_loss, s.val_loss) for s in one.history] == [
            (s.epoch, s.train_loss, s.val_loss) for s in two.history]
        assert param_bytes(one.params) == param_bytes(two.params)

    def test_rejects_empty_sets(self):
        cfg = nn.TrainConfig(hidden_sizes=(), dropout_rate=0.0)
        empty = (np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(ValueError, match="training"):
            nn.train(*empty, *overfit_pair(), cfg)
        with pytest.raises(ValueError, match="validation"):
            nn.train(*overfit_pair(), *empty, cfg)

    def test_rejects_row_count_mismatch(self):
        cfg = nn.TrainConfig(hidden_sizes=(), dropout_rate=0.0)
        two_targets = np.vstack([OVERFIT_T, OVERFIT_T])
        with pytest.raises(ValueError, match="training inputs"):
            nn.train(OVERFIT_X, two_targets, *overfit_pair(), cfg)
        with pytest.raises(ValueError, match="validation inputs"):
            nn.train(*overfit_pair(), OVERFIT_X[0], OVERFIT_T, cfg)

    def test_rejects_dim_mismatch(self):
        cfg = nn.TrainConfig(hidden_sizes=(), dropout_rate=0.0)
        with pytest.raises(ValueError, match="validation dims do not match training dims"):
            nn.train(*overfit_pair(), np.ones((1, 3)), OVERFIT_T, cfg)
        with pytest.raises(ValueError, match="validation dims do not match training dims"):
            nn.train(*overfit_pair(), OVERFIT_X, np.ones((1, 5)), cfg)

    def test_layer_widths_come_from_the_data(self):
        x, t = np.ones((4, 5)), np.ones((4, 3))
        result = nn.train(x, t, x, t, nn.TrainConfig(hidden_sizes=(6, 2), max_epochs=1))
        assert [w.shape for w, _ in result.params] == [(6, 5), (2, 6), (3, 2)]

    def test_patience_counts_epochs_without_a_lower_validation_loss(self):
        # all-zero inputs: every activation and gradient is zero, so the
        # parameters never move and the validation loss repeats exactly
        cfg = nn.TrainConfig(hidden_sizes=(4,), dropout_rate=0.2, seed=1, patience=3)
        x, t = np.zeros((6, 3)), np.full((6, 2), 0.5)
        result = nn.train(x, t, x[:2], t[:2], cfg)
        assert [stats.val_loss for stats in result.history] == [0.25] * 4
        assert len(result.history) == 4  # epoch 1 improves over inf, then 3 strikes
        assert result.best_epoch == 1
        for (w, b), (w0, b0) in zip(result.params, nn.init_network([3, 4, 2], 1)):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)


class TestLeanTrain:
    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.one_of(st.integers(1, 5).map(lambda k: 8 * k), st.integers(1, 40)),
                        min_size=2, max_size=4),
        n_train=st.integers(1, 20),
        batch_size=st.integers(1, 8),
        n_val=st.integers(1, 30),
        dropout=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @example(widths=[30, 40, 17], n_train=9, batch_size=4, n_val=25, dropout=0.3,
             seed=0)  # a 1-row last batch
    @example(widths=[16, 24, 8], n_train=12, batch_size=6, n_val=17, dropout=0.0, seed=1)
    # products large enough for BLAS's blocked kernels, at widths that are
    # not multiples of 8: a 301-wide input and a 9-wide output
    @example(widths=[301, 200, 9], n_train=70, batch_size=64, n_val=600, dropout=0.2,
             seed=2)
    def test_train_is_the_whole_gradient_loop_byte_for_byte(
            self, widths, n_train, batch_size, n_val, dropout, seed):
        rng = np.random.default_rng(seed)
        x = np.abs(rng.normal(size=(n_train + n_val, widths[0])))
        t = np.abs(rng.normal(size=(n_train + n_val, widths[-1])))
        cfg = nn.TrainConfig(hidden_sizes=tuple(widths[1:-1]), dropout_rate=dropout, seed=seed,
                             batch_size=batch_size, max_epochs=4, patience=2)
        sets = (x[:n_train], t[:n_train], x[n_train:], t[n_train:])
        dense = train_dense(*sets, cfg)
        with pytest.MonkeyPatch.context() as mp:
            for workers in (1, 2):
                mp.setenv("TEXTOVISION_THREADS", str(workers))
                result = nn.train(*sets, cfg)
                assert [(s.epoch, s.train_loss, s.val_loss) for s in result.history] == [
                    (s.epoch, s.train_loss, s.val_loss) for s in dense.history]
                assert (result.best_epoch, result.best_val_loss) == (dense.best_epoch,
                                                                     dense.best_val_loss)
                assert param_bytes(result.params) == param_bytes(dense.params)

    # a 4000-1000-512 net, whose first-layer gradient alone is 32 MB, and a
    # deeper net of three 8 MB weights
    @pytest.mark.parametrize("sizes", [[4000, 1000, 512], [1000, 1000, 1000, 1000, 512]])
    def test_a_step_holds_one_weight_gradient(self, sizes, monkeypatch):
        # the rest is the batch's activations and deltas and each worker
        # thread's two slice-sized scratch buffers
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        rng = np.random.default_rng(0)
        params = nn.init_network(sizes, 0)
        state = nn.zero_state(params)
        x = np.zeros((64, sizes[0]))
        x[np.arange(64)[:, None], rng.integers(sizes[0], size=(64, 12))] = 1.0
        t = np.abs(rng.normal(size=(64, sizes[-1])))
        cfg = nn.TrainConfig(hidden_sizes=tuple(sizes[1:-1]))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            nn._step(params, state, x, t, cfg, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(w.nbytes for w, _ in params)
        assert peak - start < largest + 6e6, f"step peak {(peak - start) / 1e6:.1f} MB"

    @pytest.mark.parametrize("sizes", [[4000, 1000, 512], [1000, 1000, 1000, 1000, 512]])
    def test_improving_epochs_keep_one_snapshot(self, sizes, monkeypatch):
        # three improving epochs: the parameters, the RMSprop state, one
        # best-epoch snapshot and one weight gradient, not a fresh copy each
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        rng = np.random.default_rng(1)
        x = np.abs(rng.normal(size=(8, sizes[0])))
        t = np.abs(rng.normal(size=(8, sizes[-1])))
        losses = iter([3.0, 2.0, 1.0])
        real = nn.mse_loss
        monkeypatch.setattr(nn, "mse_loss", lambda p, target: next(losses) if len(p) == 2
                            else real(p, target))
        cfg = nn.TrainConfig(hidden_sizes=tuple(sizes[1:-1]), batch_size=6, max_epochs=3)
        net = nn.init_network(sizes, 0)
        size = sum(w.nbytes + b.nbytes for w, b in net)
        largest = max(w.nbytes for w, _ in net)
        del net
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = nn.train(x[:6], t[:6], x[6:], t[6:], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best_epoch == 3
        assert peak - start < 3 * size + largest + 4e6, f"train peak {(peak - start) / 1e6:.1f} MB"

    def test_workers_come_from_one_pool_per_thread_count(self, monkeypatch):
        monkeypatch.setenv("TEXTOVISION_THREADS", "3")
        nn._on_workers(lambda run: None, [1, 2, 3])
        made = nn._worker_pool.cache_info().misses
        pool = nn._worker_pool(3)
        nn._on_workers(lambda run: None, [1, 2])
        assert nn._worker_pool.cache_info().misses == made
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        nn._on_workers(lambda run: None, [1, 2])
        assert nn._worker_pool.cache_info().misses == made + 1
        assert nn._worker_pool(2) is not pool

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_workers_of_its_own(self, monkeypatch):
        # the parent's pool threads do not exist in the child; reusing the
        # pool there would queue the runs and wait for them forever
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        done = []
        nn._on_workers(done.extend, [1, 2])
        assert sorted(done) == [1, 2]
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a process that has threads,
            # which is the case this test exists for
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: exit 0 once its runs have finished
            try:
                child_done = []
                nn._on_workers(child_done.extend, [1, 2])
                os._exit(0 if sorted(child_done) == [1, 2] else 1)
            finally:
                os._exit(1)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            finished, status = os.waitpid(pid, os.WNOHANG)
            if finished:
                assert os.waitstatus_to_exitcode(status) == 0
                return
            time.sleep(0.02)
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's _on_workers did not return within 30 s")

    def test_a_failing_caller_run_waits_for_the_workers(self, monkeypatch):
        done = []

        def run(items):
            if items == [0]:
                raise MemoryError("caller failed")
            time.sleep(0.05)
            done.append(items)

        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        with pytest.raises(MemoryError, match="caller failed"):
            nn._on_workers(run, [0, 1])
        assert done == [[1]]


class TestEncode:
    def test_identity_passthrough(self):
        out = nn.encode(identity_params(2), np.array([[1.0, 2.0], [3.0, 0.5]]))
        assert out.tolist() == [[1.0, 2.0], [3.0, 0.5]]

    def test_pure(self):
        params = nn.init_network([4, 3], 3)
        x = np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 3.0, 0.0, 1.0]])
        assert np.array_equal(nn.encode(params, x), nn.encode(params, x))

    def test_rows_match_single_row_forward_passes_bit_for_bit(self):
        rng = np.random.default_rng(8)
        params = nn.init_network([40, 30, 20], 4)
        x = np.abs(rng.normal(size=(25, 40)))
        out = nn.encode(params, x)
        assert out.shape == (25, 20)
        for row, encoded in zip(x, out):
            assert encoded.tobytes() == nn.forward(params, row[None, :]).output[0].tobytes()

    def test_sparse_and_selected_rows_match_the_matrix_bit_for_bit(self):
        rng = np.random.default_rng(9)
        params = nn.init_network([40, 30, 20], 4)
        x = sparse_matrix(rng, 25, 40)
        order = rng.permutation(len(x))
        dense = nn.encode(params, x).tobytes()
        assert nn.encode(params, sparse_rows(x)).tobytes() == dense
        assert nn.encode(params, nn.SelectedRows(x[order], np.argsort(order))).tobytes() == dense
        # some rows of compressed ones, out of order, as the CLI passes its kept rows
        kept = order[:-7]
        selected = nn.SelectedRows(sparse_rows(x[order]), np.argsort(order)[kept])
        assert nn.encode(params, selected).tobytes() == nn.encode(params, x[kept]).tobytes()

    def test_no_rows_encode_to_an_empty_matrix(self):
        params = nn.init_network([4, 3], 3)
        assert nn.encode(params, np.empty((0, 4))).shape == (0, 3)
        assert nn.encode(params, sparse_rows(np.empty((0, 4)))).shape == (0, 3)

    def test_rejects_a_single_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            nn.encode(identity_params(2), np.array([1.0, 2.0]))

    def test_overfit_model_reproduces_target(self):
        result = nn.train(
            *overfit_pair(),
            *overfit_pair(),
            nn.TrainConfig(hidden_sizes=(), dropout_rate=0.0, seed=OVERFIT_SEED),
        )
        pred = nn.encode(result.params, OVERFIT_X)
        assert nn.mse_loss(pred, OVERFIT_T) < 1e-3


class TestEncodeBlocks:
    @pytest.mark.parametrize("rows, width, step", [
        (1000, 4000, 32),  # train_bow's first layer: 31 blocks, the last of 40 rows
        (512, 1000, 128),
        (513, 1000, 128),  # the odd row joins the last block
        (7, 1000, 128),  # fewer rows than a block: one block
        (1, 4000, 32),
        (20, 200_000, 8),  # wider than a block: 8 rows, never 1
    ])
    def test_blocks_are_multiples_of_8_rows_with_the_remainder_last(self, rows, width, step):
        blocks = nn._blocks(np.empty((rows, width)))
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(z == a for (_, z), (a, _) in zip(blocks, blocks[1:]))
        assert all(z - a == step for a, z in blocks[:-1])
        assert step <= blocks[-1][1] - blocks[-1][0] < 2 * step or len(blocks) == 1
        assert min(z - a for a, z in blocks) > 1 or rows == 1

    # widths drawn as multiples of 8 or any; 1024-byte blocks cut even small
    # layers into many blocks, the real size only wide ones
    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.one_of(st.integers(1, 40).map(lambda k: 8 * k), st.integers(1, 130)),
                        min_size=2, max_size=4),
        count=st.sampled_from([1, nn.ENCODE_CHUNK - 1, nn.ENCODE_CHUNK, nn.ENCODE_CHUNK + 1]),
        block_bytes=st.sampled_from([1024, nn.ENCODE_BLOCK_BYTES]),
        sparse=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(widths=[1000, 264, 8], count=nn.ENCODE_CHUNK + 1,
             block_bytes=nn.ENCODE_BLOCK_BYTES, sparse=True, seed=0)
    @example(widths=[1000, 513, 1], count=3, block_bytes=nn.ENCODE_BLOCK_BYTES, sparse=False,
             seed=1)
    def test_rows_equal_one_forward_pass_each_at_any_thread_count(
            self, widths, count, block_bytes, sparse, seed):
        rng = np.random.default_rng(seed)
        params = random_net(widths, rng)
        if sparse and widths[0] > 1:
            x = sparse_matrix(rng, count, widths[0])
        else:
            x = rng.normal(size=(count, widths[0]))
        # the same rows in each form train takes, SelectedRows out of order,
        # the last also of compressed rows with one more row than it selects
        order = rng.permutation(count)
        forms = [x, sparse_rows(x), nn.SelectedRows(x[order], np.argsort(order)),
                 nn.SelectedRows(sparse_rows(np.vstack([rng.normal(size=(1, widths[0])),
                                                        x[order]])), np.argsort(order) + 1)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "ENCODE_BLOCK_BYTES", block_bytes)
            encoded = []
            for workers in (1, 2):
                mp.setenv("TEXTOVISION_THREADS", str(workers))
                encoded += [nn.encode(params, form).tobytes() for form in forms]
            alone = nn.encode(params, x[-1:]).tobytes()
        assert encoded == [encoded[0]] * len(encoded)
        # a row's bytes do not depend on the rows that share its chunk
        assert alone == encoded[0][-len(alone):]
        if all(width % 8 == 0 for width in widths):
            assert encoded[0] == encode_per_row(params, x).tobytes()

    def test_more_threads_than_cores_write_the_same_bytes(self, monkeypatch):
        # 7 threads over 64 blocks per layer, switching as often as the
        # interpreter allows: a lost or misplaced block write would show
        import sys

        rng = np.random.default_rng(3)
        params = random_net([64, 512, 512], rng)
        x = rng.normal(size=(nn.ENCODE_CHUNK + 3, 64))
        monkeypatch.setattr(nn, "ENCODE_BLOCK_BYTES", 8 * 64 * 8)
        assert len(nn._blocks(params[1][0])) == 64
        monkeypatch.setenv("TEXTOVISION_THREADS", "1")
        serial = nn.encode(params, x).tobytes()
        monkeypatch.setenv("TEXTOVISION_THREADS", "7")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert nn.encode(params, x).tobytes() == serial
        finally:
            sys.setswitchinterval(interval)

    def test_a_row_of_the_wrong_width_is_rejected(self):
        for x in (np.zeros((2, 3)), sparse_rows(np.zeros((2, 3)))):
            with pytest.raises(ValueError, match=re.escape("2-D (rows, 2) input, got shape (2, 3)")):
                nn.encode(identity_params(2), x)

    def test_a_failing_worker_reaches_the_caller(self, monkeypatch):
        params = [(np.zeros((16, nn.ENCODE_BLOCK_BYTES // 8 // 8)), np.zeros(16))]
        assert len(nn._blocks(params[0][0])) == 2
        real = nn._encode_blocks

        def failing(blocks, *args):
            if blocks[0][0] > 0:
                raise MemoryError("worker failed")
            real(blocks, *args)

        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        monkeypatch.setattr(nn, "_encode_blocks", failing)
        with pytest.raises(MemoryError, match="worker failed"):
            nn.encode(params, np.ones((3, params[0][0].shape[1])))
