import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    max_relative_error,
    numeric_gradients,
    random_net,
    rmsprop_reference,
    train_dense,
)

from textovision import neuralnet as nn


def identity_params(dim):
    return [(np.eye(dim), np.zeros(dim))]


class TestInit:
    def test_deterministic(self):
        cfg = nn.NetworkConfig([5, 7, 3], 0.0)
        a = nn.init_network(cfg, 42)
        b = nn.init_network(cfg, 42)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_biases_zero(self):
        for _, b in nn.init_network(nn.NetworkConfig([4, 6, 2], 0.0), 1):
            assert np.all(b == 0.0)

    def test_fan_based_bound(self):
        params = nn.init_network(nn.NetworkConfig([4, 4], 0.0), 123)
        limit = math.sqrt(6.0 / 8.0)
        assert np.all(np.abs(params[0][0]) <= limit)
        assert limit == pytest.approx(0.8660254, abs=1e-7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            nn.NetworkConfig([5], 0.0)
        with pytest.raises(ValueError):
            nn.NetworkConfig([5, 0], 0.0)
        with pytest.raises(ValueError):
            nn.NetworkConfig([5, 2], 1.0)


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
        params = nn.init_network(nn.NetworkConfig([6, 8, 4], 0.0), 5)
        cache = nn.forward(params, rng.normal(size=(10, 6)))
        assert np.all(cache.output >= 0.0)

    def test_infer_mode_ignores_dropout_rate(self):
        params = nn.init_network(nn.NetworkConfig([3, 5, 2], 0.5), 2)
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
        mask = np.array([[True, False]])
        cache = nn.forward(
            params, np.array([[1.0, 1.0]]), train=True, dropout_rate=0.5, masks=[mask]
        )
        assert cache.acts[0].tolist() == [[2.0, 0.0]]
        assert cache.output.tolist() == [[2.0, 0.0]]

    def test_no_mask_on_output_layer(self):
        params = nn.init_network(nn.NetworkConfig([3, 4, 4, 2], 0.3), 9)
        rng = np.random.default_rng(0)
        cache = nn.forward(params, np.ones((2, 3)), train=True, dropout_rate=0.3, rng=rng)
        assert len(cache.masks) == 2  # hidden layers only

    def test_seeded_masks_reproducible(self):
        params = nn.init_network(nn.NetworkConfig([3, 8, 2], 0.4), 11)
        x = np.ones((5, 3))
        a = nn.forward(params, x, train=True, dropout_rate=0.4, rng=np.random.default_rng(77))
        b = nn.forward(params, x, train=True, dropout_rate=0.4, rng=np.random.default_rng(77))
        assert np.array_equal(a.output, b.output)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)

    def test_rng_required_when_dropping(self):
        params = nn.init_network(nn.NetworkConfig([3, 8, 2], 0.4), 11)
        with pytest.raises(ValueError, match="masks or an rng"):
            nn.forward(params, np.ones((1, 3)), train=True, dropout_rate=0.4)


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
        grads = nn.backward(params, cache, cache.output.copy())
        for gw, gb in grads:
            assert np.all(gw == 0.0)
            assert np.all(gb == 0.0)

    def test_hand_derived_single_layer(self):
        params = [(np.array([[1.0]]), np.array([0.0]))]
        cache = nn.forward(params, np.array([[1.0]]))
        (gw, gb), = nn.backward(params, cache, np.array([[3.0]]))
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
            analytic = nn.backward(params, cache, t)
            numeric = numeric_gradients(params, x, t)
            assert max_relative_error(analytic, numeric) <= 1e-4, f"config {sizes}x{batch}"
            checked += 1

    def test_matches_finite_differences_with_dropout_masks(self):
        rng = np.random.default_rng(7)
        sizes = [5, 9, 6, 3]
        params = nn.init_network(nn.NetworkConfig(sizes, 0.0), 31)
        x = rng.normal(size=(4, 5))
        t = np.abs(rng.normal(size=(4, 3)))
        masks = [rng.random((4, 9)) >= 0.4, rng.random((4, 6)) >= 0.4]
        cache = nn.forward(params, x, train=True, dropout_rate=0.4, masks=masks)
        analytic = nn.backward(params, cache, t)
        numeric = numeric_gradients(params, x, t, dropout_rate=0.4, masks=masks)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_relu_subgradient_at_zero_is_zero(self):
        # z = 1*1 - 1 = 0 exactly: the gate must stay closed
        params = [(np.array([[1.0]]), np.array([-1.0]))]
        cache = nn.forward(params, np.array([[1.0]]))
        assert cache.preacts[0][0, 0] == 0.0
        (gw, gb), = nn.backward(params, cache, np.array([[5.0]]))
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
        cfg = nn.OptimizerConfig()
        new_params, new_state = nn.rmsprop_step(params, grads, state, cfg)
        assert new_state[0][0][0, 0] == pytest.approx(0.1, abs=1e-15)
        expected = -0.001 / math.sqrt(0.100001)
        assert new_params[0][0][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_zero_gradient_decays_state_only(self):
        params = [(np.full((2, 2), 0.5), np.array([1.0, -1.0]))]
        state = [(np.full((2, 2), 0.4), np.array([0.2, 0.2]))]
        grads = [(np.zeros((2, 2)), np.zeros(2))]
        before = nn.copy_params(params)
        new_params, new_state = nn.rmsprop_step(params, grads, state, nn.OptimizerConfig())
        assert np.array_equal(new_params[0][0], before[0][0])
        assert np.array_equal(new_params[0][1], before[0][1])
        assert np.allclose(new_state[0][0], 0.9 * 0.4, atol=1e-15)

    def test_two_successive_unit_gradient_steps(self):
        params = [(np.array([[0.0]]), np.array([0.0]))]
        grads = [(np.array([[1.0]]), np.array([0.0]))]
        state = nn.zero_state(params)
        cfg = nn.OptimizerConfig()
        params, state = nn.rmsprop_step(params, grads, state, cfg)
        p1 = params[0][0][0, 0]
        params, state = nn.rmsprop_step(params, grads, state, cfg)
        assert state[0][0][0, 0] == pytest.approx(0.19, abs=1e-15)
        assert params[0][0][0, 0] == pytest.approx(p1 - 0.001 / math.sqrt(0.190001), abs=1e-12)

    def test_state_nonnegative_and_bounded_by_peak_squared_gradient(self):
        rng = np.random.default_rng(88)
        params = [(rng.normal(size=(3, 4)), rng.normal(size=3))]
        state = nn.zero_state(params)
        cfg = nn.OptimizerConfig()
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
        [nn.OptimizerConfig(), nn.OptimizerConfig(learning_rate=0.05, gamma=0.5, epsilon=1e-8)],
    )
    def test_bit_identical_to_reference_formula(self, shapes, cfg):
        rng = np.random.default_rng(19)
        params = [(rng.normal(size=shape), rng.normal(size=shape[0])) for shape in shapes]
        state = nn.zero_state(params)
        ref_params, ref_state = nn.copy_params(params), nn.zero_state(params)
        for step in range(20):
            grads = [
                (rng.normal(size=w.shape) * 10.0 ** -step, rng.normal(size=b.shape))
                for w, b in params
            ]
            grads[0][1][0] = 0.0
            frozen = nn.copy_params(grads)
            ref_params, ref_state = rmsprop_reference(ref_params, grads, ref_state, cfg)
            new_params, new_state = nn.rmsprop_step(params, grads, state, cfg)
            assert new_params is params and new_state is state
            for got, want in zip(params + state, ref_params + ref_state):
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()
            for got, want in zip(grads, frozen):
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()

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
            nn.rmsprop_step(params, grads, state, nn.OptimizerConfig())

    def test_rejects_gradient_shape_mismatch(self):
        params = [(np.zeros((2, 3)), np.zeros(2))]
        state = nn.zero_state(params)
        with pytest.raises(ValueError, match="shapes differ"):
            nn.rmsprop_step(params, [(np.ones((3, 2)), np.ones(2))], state, nn.OptimizerConfig())


class TestEarlyStopping:
    def test_injected_plateau_sequence(self):
        # minimum at epoch 2, then five non-improving epochs -> stop at 7
        stopper = nn.EarlyStopping(patience=5)
        losses = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
        marker = {}
        stopped_at = None
        for epoch, loss in enumerate(losses, start=1):
            params = [(np.array([[float(epoch)]]), np.array([0.0]))]
            marker[epoch] = params
            if stopper.update(epoch, loss, params):
                stopped_at = epoch
                break
        assert stopped_at == 7
        assert stopper.best_epoch == 2
        assert stopper.best_params[0][0][0, 0] == 2.0

    def test_best_params_are_a_snapshot(self):
        stopper = nn.EarlyStopping(patience=2)
        params = [(np.array([[1.0]]), np.array([0.0]))]
        stopper.update(1, 0.5, params)
        params[0][0][0, 0] = 99.0
        assert stopper.best_params[0][0][0, 0] == 1.0

    def test_strictly_lower_comparison(self):
        stopper = nn.EarlyStopping(patience=3)
        p = [(np.zeros((1, 1)), np.zeros(1))]
        assert not stopper.update(1, 1.0, p)
        assert not stopper.update(2, 1.0, p)  # equal is not an improvement
        assert not stopper.update(3, 1.0, p)
        assert stopper.update(4, 1.0, p)
        assert stopper.best_epoch == 1


def sparse_matrix(rng, rows, cols):
    """Mostly-zero counts with column 0 all zero, a -0.0 in every other
    row, and a few fractional and negative values."""
    x = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0, -0.5, 0.25], size=(rows, cols))
    x[:, 0] = 0.0
    x[::2, rng.integers(1, cols)] = -0.0
    return x


class TestSparseRows:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 9))
    def test_take_gives_back_dense_rows_bit_for_bit(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        x = sparse_matrix(rng, rows, cols)
        x[rng.integers(rows), rng.integers(cols)] = np.nan
        sparse = nn.SparseRows(cols, iter(x))
        assert sparse.shape == x.shape
        assert sparse.indices.size == np.count_nonzero(x.view(np.uint64))
        picks = rng.integers(rows, size=rng.integers(1, 2 * rows))
        assert sparse.take(picks).tobytes() == x[picks].tobytes()

    def test_keeps_negative_zero(self):
        sparse = nn.SparseRows(3, [np.array([0.0, -0.0, 1.0])])
        assert sparse.indices.tolist() == [1, 2]
        assert np.signbit(sparse.take(np.array([0]))).tolist() == [[False, True, False]]

    def test_rejects_a_row_of_another_width(self):
        with pytest.raises(ValueError, match="width 3"):
            nn.SparseRows(3, [np.zeros(3), np.zeros(4)])


class TestStackRows:
    # 9 columns fit every row in one block; half a block's entries, two rows a block
    @pytest.mark.parametrize("cols", [9, nn.BLOCK_ENTRIES // 2])
    def test_sparse_rows_stay_compressed(self, cols):
        rng = np.random.default_rng(3)
        x = sparse_matrix(rng, 5, cols)
        stacked = nn.stack_rows(cols, iter(x))
        assert isinstance(stacked, nn.SparseRows) and stacked.indices.dtype == np.int32
        picks = np.array([4, 0, 2, 2, 1, 3])
        assert stacked.take(picks).tobytes() == x[picks].tobytes()

    @pytest.mark.parametrize("cols", [9, nn.BLOCK_ENTRIES // 2])
    def test_dense_rows_stay_one_matrix(self, cols):
        # a word2vec mean has almost no zero entry
        x = np.random.default_rng(4).normal(size=(5, cols))
        x[2, 3] = -0.0
        stacked = nn.stack_rows(cols, iter(x))
        assert isinstance(stacked, np.ndarray) and stacked.tobytes() == x.tobytes()

    def test_rejects_a_row_of_another_width(self):
        for first in (np.zeros(3), np.ones(3)):
            with pytest.raises(ValueError, match="width 3"):
                nn.stack_rows(3, [first, np.zeros(4)])


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
            nn.NetworkConfig([2, 2], dropout_rate=0.0),
            nn.OptimizerConfig(seed=OVERFIT_SEED),
        )
        assert len(result.history) <= 500
        assert result.best_val_loss < 1e-3

    def test_train_loss_at_best_epoch_not_above_first_epoch(self):
        result = nn.train(
            *overfit_pair(),
            *overfit_pair(),
            nn.NetworkConfig([2, 2], dropout_rate=0.0),
            nn.OptimizerConfig(seed=OVERFIT_SEED),
        )
        by_epoch = {s.epoch: s for s in result.history}
        assert by_epoch[result.best_epoch].train_loss <= by_epoch[1].train_loss

    def test_history_is_bit_identical_across_runs(self):
        rng = np.random.default_rng(0)
        rows = [(np.abs(rng.normal(size=6)), np.abs(rng.normal(size=3))) for _ in range(12)]
        x = np.stack([x for x, _ in rows])
        t = np.stack([t for _, t in rows])
        net = nn.NetworkConfig([6, 5, 3], dropout_rate=0.25)
        opt = nn.OptimizerConfig(seed=99, batch_size=4, max_epochs=15, patience=50)
        a = nn.train(x[:9], t[:9], x[9:], t[9:], net, opt)
        b = nn.train(x[:9], t[:9], x[9:], t[9:], net, opt)
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
        net = nn.NetworkConfig([7, 6, 3], dropout_rate=dropout)
        opt = nn.OptimizerConfig(seed=seed, batch_size=batch_size, max_epochs=6, patience=2)
        train, val = np.arange(n_train), np.arange(n_train, n_train + n_val)
        compressed = nn.train(
            nn.SparseRows(7, x[train]), nn.SelectedRows(items, targets[train]),
            nn.SparseRows(7, x[val]), nn.SelectedRows(items, targets[val]), net, opt,
        )
        dense = train_dense(x[train], items[targets[train]], x[val], items[targets[val]],
                            net, opt)
        # dense matrices, as word2vec rows reach train, take the same path
        wrapped = nn.train(x[train], items[targets[train]], x[val], items[targets[val]],
                           net, opt)
        for result in (compressed, wrapped):
            assert [(s.epoch, s.train_loss, s.val_loss) for s in result.history] == [
                (s.epoch, s.train_loss, s.val_loss) for s in dense.history
            ]
            assert (result.best_epoch, result.best_val_loss) == (dense.best_epoch,
                                                                 dense.best_val_loss)
            for (w, b), (dw, db) in zip(result.params, dense.params):
                assert w.tobytes() == dw.tobytes() and b.tobytes() == db.tobytes()

    def test_rejects_empty_sets(self):
        net, opt = nn.NetworkConfig([2, 2], 0.0), nn.OptimizerConfig()
        empty = (np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(ValueError, match="training"):
            nn.train(*empty, *overfit_pair(), net, opt)
        with pytest.raises(ValueError, match="validation"):
            nn.train(*overfit_pair(), *empty, net, opt)

    def test_rejects_row_count_mismatch(self):
        net, opt = nn.NetworkConfig([2, 2], 0.0), nn.OptimizerConfig()
        two_targets = np.vstack([OVERFIT_T, OVERFIT_T])
        with pytest.raises(ValueError, match="training inputs"):
            nn.train(OVERFIT_X, two_targets, *overfit_pair(), net, opt)
        with pytest.raises(ValueError, match="validation inputs"):
            nn.train(*overfit_pair(), OVERFIT_X[0], OVERFIT_T, net, opt)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="input width"):
            nn.train(*overfit_pair(), *overfit_pair(), nn.NetworkConfig([3, 2], 0.0),
                     nn.OptimizerConfig())
        with pytest.raises(ValueError, match="output width"):
            nn.train(*overfit_pair(), *overfit_pair(), nn.NetworkConfig([2, 5], 0.0),
                     nn.OptimizerConfig())

    def test_patience_counts_epochs_without_a_lower_validation_loss(self):
        # all-zero inputs: every activation and gradient is zero, so the
        # parameters never move and the validation loss repeats exactly
        net_cfg = nn.NetworkConfig([3, 4, 2], 0.2)
        x, t = np.zeros((6, 3)), np.full((6, 2), 0.5)
        result = nn.train(x, t, x[:2], t[:2], net_cfg, nn.OptimizerConfig(seed=1, patience=3))
        assert [stats.val_loss for stats in result.history] == [0.25] * 4
        assert len(result.history) == 4  # epoch 1 improves over inf, then 3 strikes
        assert result.best_epoch == 1
        for (w, b), (w0, b0) in zip(result.params, nn.init_network(net_cfg, 1)):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)


class TestEncode:
    def test_identity_passthrough(self):
        out = nn.encode(identity_params(2), np.array([[1.0, 2.0], [3.0, 0.5]]))
        assert out.tolist() == [[1.0, 2.0], [3.0, 0.5]]

    def test_pure(self):
        params = nn.init_network(nn.NetworkConfig([4, 3], 0.0), 3)
        x = np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 3.0, 0.0, 1.0]])
        assert np.array_equal(nn.encode(params, x), nn.encode(params, x))

    def test_rows_match_single_row_forward_passes_bit_for_bit(self):
        rng = np.random.default_rng(8)
        params = nn.init_network(nn.NetworkConfig([40, 30, 20], 0.0), 4)
        x = np.abs(rng.normal(size=(25, 40)))
        out = nn.encode(params, x)
        assert out.shape == (25, 20)
        for row, encoded in zip(x, out):
            assert encoded.tobytes() == nn.forward(params, row[None, :]).output[0].tobytes()

    def test_rows_from_a_generator_match_the_matrix_bit_for_bit(self):
        rng = np.random.default_rng(9)
        params = nn.init_network(nn.NetworkConfig([40, 30, 20], 0.0), 4)
        x = sparse_matrix(rng, 25, 40)
        assert nn.encode(params, (row for row in x)).tobytes() == nn.encode(params, x).tobytes()

    def test_no_rows_encode_to_an_empty_matrix(self):
        params = nn.init_network(nn.NetworkConfig([4, 3], 0.0), 3)
        assert nn.encode(params, iter([])).shape == (0, 3)

    def test_rejects_a_single_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            nn.encode(identity_params(2), np.array([1.0, 2.0]))

    def test_overfit_model_reproduces_target(self):
        result = nn.train(
            *overfit_pair(),
            *overfit_pair(),
            nn.NetworkConfig([2, 2], dropout_rate=0.0),
            nn.OptimizerConfig(seed=OVERFIT_SEED),
        )
        pred = nn.encode(result.params, OVERFIT_X)
        assert nn.mse_loss(pred, OVERFIT_T) < 1e-3
