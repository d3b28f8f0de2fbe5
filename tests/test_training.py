"""Adam updates, the early-stopped training loop, seed derivation, and grid
search determinism."""

import dataclasses

import numpy as np
import pytest

from optionlab.autodiff import Tape
from optionlab.layers import LayerSpec, Model, ModelSpec, build_model
from optionlab.training import (
    AdamState,
    GridSpec,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    derive_seed,
    fit_scaler,
    grid_search,
    init_adam,
    train,
)

# Frozen one-step Adam update for g=1, lr=1e-3 at default betas/eps:
# m_hat = v_hat = 1, so delta = -lr / (1 + eps).
ADAM_FIRST_STEP_DELTA = -0.000999999990000001

# Frozen splitmix64-derived child seeds.
DERIVED_SEED_REFS = {
    (0, 0): 16294208416658607535,
    (12345, 7): 7959005890829367068,
    (2024, 0): 11487996472437173461,
}


def _linear_data(rng, n, w, b, noise=0.0):
    x = rng.normal(size=(n, len(w)))
    y = x @ np.asarray(w) + b
    if noise:
        y = y + noise * rng.normal(size=n)
    return x, y


def _dense_spec(width=8, activation=None, n_features=10):
    return ModelSpec(
        layers=(LayerSpec("dense", width, activation=activation),),
        input_dim=n_features,
    )


class TestAdam:
    def test_first_step_matches_frozen_value(self):
        flat = np.array([1.0])
        state = init_adam(1, learning_rate=1e-3)
        adam_step(state, flat, np.array([1.0]))
        assert flat[0] - 1.0 == pytest.approx(ADAM_FIRST_STEP_DELTA, rel=1e-12)
        assert state.step == 1

    def test_two_steps_match_manual_recurrence(self):
        flat = np.array([0.5, -1.0, 2.0, 0.0])
        state = init_adam(4, learning_rate=0.01)
        g1 = np.array([1.0, -2.0, 0.5, 3.0])
        g2 = np.array([-1.0, 0.5, 2.0, -0.5])

        p = flat.copy()
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t, g in enumerate((g1, g2), start=1):
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            p = p - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)

        adam_step(state, flat, g1)
        adam_step(state, flat, g2)
        np.testing.assert_allclose(flat, p, rtol=1e-15)
        np.testing.assert_array_equal(g2, [-1.0, 0.5, 2.0, -0.5])  # g is not scratch

    def test_sizes_must_match(self):
        state = init_adam(2, learning_rate=0.1)
        with pytest.raises(ValueError, match="gradient entries"):
            adam_step(state, np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="3 parameters"):
            adam_step(state, np.zeros(3), np.zeros(3))
        assert state.step == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            AdamState(learning_rate=0.0)
        with pytest.raises(ValueError, match="betas"):
            AdamState(learning_rate=0.1, beta1=1.0)

    def test_update_of_a_concatenation_equals_update_of_each_piece(self):
        pieces = [np.arange(6.0), np.array([-1.5]), np.array([4.0, 5.0])]
        grads = [np.full(6, 0.5), np.zeros(1), np.array([-2.0, 3.0])]
        flat = np.concatenate(pieces)
        state = init_adam(flat.size, learning_rate=0.1)
        for _ in range(3):
            adam_step(state, flat, np.concatenate(grads))
        start = 0
        for piece, g in zip(pieces, grads):
            one = piece.copy()
            one_state = init_adam(one.size, learning_rate=0.1)
            for _ in range(3):
                adam_step(one_state, one, g)
            assert flat[start : start + one.size].tobytes() == one.tobytes()
            start += one.size
        assert flat[6] == -1.5  # a zero gradient leaves its entry alone

    def test_descends_a_quadratic(self):
        # minimise (p - 3)^2; gradient 2(p - 3)
        flat = np.array([0.0])
        state = init_adam(1, learning_rate=0.05)
        for _ in range(2000):
            adam_step(state, flat, 2.0 * (flat - 3.0))
        assert abs(flat[0] - 3.0) < 1e-4


class TestFitScaler:
    def test_mean_and_std(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=2.0, scale=3.0, size=(500, 4))
        mean, scale = fit_scaler(x)
        np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(scale, x.std(axis=0), rtol=1e-12)

    def test_constant_feature_gets_unit_scale(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        mean, scale = fit_scaler(x)
        assert scale[0] == 1.0
        assert mean[0] == 1.0

    def test_sequence_input_flattens_time(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 5, 3))
        mean, scale = fit_scaler(x)
        flat = x.reshape(-1, 3)
        np.testing.assert_allclose(mean, flat.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(scale, flat.std(axis=0), rtol=1e-12)


class TestTrainLoop:
    def test_fits_a_linear_target(self):
        rng = np.random.default_rng(3)
        w = np.array([3.0, -2.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25])
        x_train, y_train = _linear_data(rng, 256, w, b=0.7)
        x_val, y_val = _linear_data(rng, 64, w, b=0.7)
        model = build_model(_dense_spec(), seed=0)
        cfg = TrainConfig(epochs=200, batch_size=64, patience=200, learning_rate=0.01)
        result = train(model, (x_train, y_train), (x_val, y_val), cfg)
        assert result.history[-1][1] < 1e-6  # train mse
        assert result.best_val_mse < 1e-5

    def test_history_and_best_are_consistent(self):
        rng = np.random.default_rng(4)
        x_train, y_train = _linear_data(rng, 128, np.ones(10), b=0.0, noise=0.1)
        x_val, y_val = _linear_data(rng, 64, np.ones(10), b=0.0, noise=0.1)
        model = build_model(_dense_spec(activation="tanh"), seed=1)
        cfg = TrainConfig(epochs=30, patience=30, learning_rate=3e-3)
        result = train(model, (x_train, y_train), (x_val, y_val), cfg)
        assert len(result.history) == 30
        vals = [v for _, _, v in result.history]
        assert result.best_val_mse == min(vals)
        assert result.best_epoch == int(np.argmin(vals))
        assert not result.stopped_early

    def test_early_stop_and_restore_best(self):
        # A tiny train split against an unrelated validation target overfits,
        # so validation MSE must stop improving well before 400 epochs.
        rng = np.random.default_rng(5)
        x_train = rng.normal(size=(16, 10))
        y_train = rng.normal(size=16)
        x_val = rng.normal(size=(64, 10))
        y_val = rng.normal(size=64)
        model = build_model(_dense_spec(width=16, activation="tanh"), seed=2)
        cfg = TrainConfig(epochs=400, patience=5, learning_rate=0.01)
        result = train(model, (x_train, y_train), (x_val, y_val), cfg)

        assert result.stopped_early
        assert len(result.history) == result.best_epoch + cfg.patience + 1
        tail = [v for _, _, v in result.history[result.best_epoch + 1 :]]
        assert all(v >= result.best_val_mse for v in tail)
        # restore_best: the returned weights reproduce the best val MSE exactly
        pred = model.predict(x_val)
        assert float(np.mean((pred - y_val) ** 2)) == result.best_val_mse

    def test_no_restore_keeps_final_weights(self):
        rng = np.random.default_rng(6)
        x_train = rng.normal(size=(16, 10))
        y_train = rng.normal(size=16)
        x_val = rng.normal(size=(64, 10))
        y_val = rng.normal(size=64)
        model = build_model(_dense_spec(width=16, activation="tanh"), seed=2)
        cfg = TrainConfig(epochs=400, patience=5, learning_rate=0.01, restore_best=False)
        result = train(model, (x_train, y_train), (x_val, y_val), cfg)
        pred = model.predict(x_val)
        assert float(np.mean((pred - y_val) ** 2)) == result.history[-1][2]

    def test_standardize_fits_scaler_on_train_split_only(self):
        rng = np.random.default_rng(7)
        x_train, y_train = _linear_data(rng, 64, np.ones(10), b=0.0)
        x_val, y_val = _linear_data(rng, 32, np.ones(10), b=0.0)
        model = build_model(_dense_spec(), seed=3)
        cfg = TrainConfig(epochs=1, patience=1)
        train(model, (x_train, y_train), (x_val, y_val), cfg)
        mean, scale = fit_scaler(x_train)
        np.testing.assert_array_equal(model.scaler[0], mean)
        np.testing.assert_array_equal(model.scaler[1], scale)

    def test_standardize_off_leaves_scaler_alone(self):
        rng = np.random.default_rng(8)
        x, y = _linear_data(rng, 32, np.ones(10), b=0.0)
        model = build_model(_dense_spec(), seed=3)
        cfg = TrainConfig(epochs=1, patience=1, standardize=False)
        train(model, (x, y), (x, y), cfg)
        assert model.scaler is None

    def test_existing_scaler_is_not_refit(self):
        rng = np.random.default_rng(9)
        x, y = _linear_data(rng, 32, np.ones(10), b=0.0)
        model = build_model(_dense_spec(), seed=3)
        model.set_scaler(np.zeros(10), np.full(10, 2.0))
        cfg = TrainConfig(epochs=1, patience=1)
        train(model, (x, y), (x, y), cfg)
        np.testing.assert_array_equal(model.scaler[0], np.zeros(10))
        np.testing.assert_array_equal(model.scaler[1], np.full(10, 2.0))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_raises_with_hint(self):
        # An absurd learning rate pushes weights to ~1e200, so the second
        # forward pass overflows float64 and the loop must abort with advice.
        rng = np.random.default_rng(10)
        x, y = _linear_data(rng, 64, np.ones(10), b=0.0)
        model = build_model(_dense_spec(width=16, activation="relu"), seed=4)
        cfg = TrainConfig(epochs=50, patience=50, learning_rate=1e200)
        with pytest.raises(TrainingDiverged, match="reduce the learning rate"):
            train(model, (x, y), (x, y), cfg)

    def test_rerun_is_bit_identical(self):
        rng = np.random.default_rng(11)
        x_train, y_train = _linear_data(rng, 96, np.ones(10), b=0.5, noise=0.05)
        x_val, y_val = _linear_data(rng, 32, np.ones(10), b=0.5, noise=0.05)
        cfg = TrainConfig(epochs=12, patience=12, learning_rate=3e-3, shuffle=True, seed=77)

        def run():
            model = build_model(_dense_spec(activation="tanh"), seed=5)
            result = train(model, (x_train, y_train), (x_val, y_val), cfg)
            return result, model.snapshot()

        r1, s1 = run()
        r2, s2 = run()
        assert r1.history == r2.history
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a, b)

    def test_degree_zero_kan_mix_weights_keep_their_bits(self):
        """At degree 0 the basis is the constant 1, so the loss does not
        depend on a KAN layer's mix stage: its gradient is zero and Adam
        leaves the mix weights bit for bit, while the coefficients move."""
        rng = np.random.default_rng(12)
        x, y = _linear_data(rng, 64, np.ones(10), b=0.0)
        spec = ModelSpec(layers=(LayerSpec("kan", 4, degree=0, family="legendre"),))
        model = build_model(spec, seed=6)
        params = dict(model.parameters())
        mix = params["layers.0.mix_w"].data.copy(), params["layers.0.mix_b"].data.copy()
        coeffs = params["layers.0.coeffs"].data.copy()
        cfg = TrainConfig(epochs=3, patience=3, batch_size=16, learning_rate=0.01)
        train(model, (x, y), (x, y), cfg)
        assert params["layers.0.mix_w"].data.tobytes() == mix[0].tobytes()
        assert params["layers.0.mix_b"].data.tobytes() == mix[1].tobytes()
        assert not np.array_equal(params["layers.0.coeffs"].data, coeffs)

    def test_input_validation(self):
        model = build_model(_dense_spec(), seed=0)
        cfg = TrainConfig(epochs=1, patience=1)
        with pytest.raises(ValueError, match="disagree"):
            train(model, (np.zeros((4, 10)), np.zeros(3)), (np.zeros((2, 10)), np.zeros(2)), cfg)
        with pytest.raises(ValueError, match="empty"):
            train(model, (np.zeros((0, 10)), np.zeros(0)), (np.zeros((2, 10)), np.zeros(2)), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(epochs=5, patience=6)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(epochs=1, patience=1, batch_size=0)


class TestDeriveSeed:
    def test_frozen_references(self):
        for (master, index), expected in DERIVED_SEED_REFS.items():
            assert derive_seed(master, index) == expected

    def test_unique_across_indices(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_masters_disagree(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_fits_in_64_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(123456789, i) < 2**64


# --- grid search ------------------------------------------------------------

N_FEATURES = 6
_GRID_W = np.array([1.0, -1.0, 2.0, 0.0, 0.5, -0.5])


def _grid_data():
    rng = np.random.default_rng(20)
    x_train, y_train = _linear_data(rng, 96, _GRID_W, b=0.2, noise=0.05)
    x_val, y_val = _linear_data(rng, 48, _GRID_W, b=0.2, noise=0.05)
    return (x_train, y_train), (x_val, y_val)


def _grid_builder(combo, seed):
    # module-level so process pools can pickle it
    if combo.get("width") == 666:
        raise ValueError("unbuildable width")
    spec = ModelSpec(
        layers=(LayerSpec("dense", combo["width"], activation="tanh"),),
        input_dim=N_FEATURES,
    )
    return build_model(spec, seed=seed)


_GRID_CFG = TrainConfig(epochs=8, patience=8, learning_rate=3e-3)


class TestGridSearch:
    def test_full_product_ranked_by_val_mse(self):
        train_data, val_data = _grid_data()
        grid = GridSpec(axes={"width": (4, 8), "learning_rate": (3e-3, 1e-2)})
        results = grid_search(grid, _grid_builder, train_data, val_data, _GRID_CFG, master_seed=2024)
        assert len(results) == 4
        assert {tuple(sorted(r.config.items())) for r in results} == {
            (("learning_rate", lr), ("width", w))
            for lr in (3e-3, 1e-2)
            for w in (4, 8)
        }
        vals = [r.val_mse for r in results]
        assert vals == sorted(vals)
        assert all(r.error is None for r in results)

    def test_seeds_follow_product_order(self):
        train_data, val_data = _grid_data()
        grid = GridSpec(axes={"width": (4, 8), "learning_rate": (3e-3, 1e-2)})
        results = grid_search(grid, _grid_builder, train_data, val_data, _GRID_CFG, master_seed=7)
        # sorted axis names: learning_rate, width -> product order
        order = [
            {"learning_rate": 3e-3, "width": 4},
            {"learning_rate": 3e-3, "width": 8},
            {"learning_rate": 1e-2, "width": 4},
            {"learning_rate": 1e-2, "width": 8},
        ]
        by_config = {tuple(sorted(r.config.items())): r.seed for r in results}
        for i, combo in enumerate(order):
            assert by_config[tuple(sorted(combo.items()))] == derive_seed(7, i)

    def test_failed_entry_sorts_last_with_error(self):
        train_data, val_data = _grid_data()
        grid = GridSpec(axes={"width": (4, 666)})
        results = grid_search(grid, _grid_builder, train_data, val_data, _GRID_CFG, master_seed=1)
        assert results[-1].config["width"] == 666
        assert results[-1].val_mse is None
        assert "unbuildable" in results[-1].error
        assert results[0].val_mse is not None

    def test_parallel_matches_serial(self):
        train_data, val_data = _grid_data()
        grid = GridSpec(axes={"width": (4, 8), "learning_rate": (3e-3, 1e-2)})
        serial = grid_search(grid, _grid_builder, train_data, val_data, _GRID_CFG, master_seed=99, jobs=1)
        parallel = grid_search(grid, _grid_builder, train_data, val_data, _GRID_CFG, master_seed=99, jobs=2)
        assert [(r.config, r.seed, r.val_mse) for r in serial] == [
            (r.config, r.seed, r.val_mse) for r in parallel
        ]

    def test_learning_rate_axis_overrides_config(self):
        train_data, val_data = _grid_data()
        grid = GridSpec(axes={"width": (4,), "learning_rate": (1e-2,)})
        results = grid_search(grid, _grid_builder, train_data, val_data, _GRID_CFG, master_seed=55)

        model = _grid_builder({"width": 4}, derive_seed(55, 0))
        cfg = dataclasses.replace(_GRID_CFG, learning_rate=1e-2, seed=derive_seed(55, 0))
        direct = train(model, train_data, val_data, cfg)
        assert results[0].val_mse == direct.best_val_mse

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError, match="at least one axis"):
            GridSpec(axes={})
        with pytest.raises(ValueError, match="empty"):
            GridSpec(axes={"width": ()})


class TestSequenceLayerFiniteChecks:
    """One non-finite recurrent gate pre-activation or conv1d output stops the
    forward pass, predict (the forward-only kernels) and training, even where
    a squashing gate would turn the overflow back into a finite value."""

    SPECS = {
        "lstm": ModelSpec(layers=(LayerSpec("lstm", 4),)),
        "gru": ModelSpec(layers=(LayerSpec("gru", 4),)),
        "conv1d": ModelSpec(
            layers=(LayerSpec("conv1d", 4, kernel_size=3, activation="tanh"),),
            timesteps=5,
        ),
    }

    @classmethod
    def _poisoned(cls, kind):
        model = build_model(cls.SPECS[kind], seed=3)
        block = model.blocks[0]
        if kind == "conv1d":
            block.kernels.data[1, 0, 0] = np.inf
        else:
            # the weight from input feature 0 to the first gate's first unit:
            # inputs >= 2 overflow its pre-activation, which sigmoid maps to 1.0
            w = block.w_f if kind == "lstm" else block.w_r
            w.data[4, 0] = 1e308
        return model

    @pytest.mark.parametrize("kind", ["lstm", "gru", "conv1d"])
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_forward_and_training_stop(self, kind):
        rng = np.random.default_rng(12)
        x = 2.0 + np.abs(rng.normal(size=(16, 5, 10)))
        y = rng.normal(size=16)
        with pytest.raises(FloatingPointError) as forward_error:
            self._poisoned(kind).forward(x)
        with pytest.raises(FloatingPointError) as taped_error:
            with Tape():
                self._poisoned(kind).forward(x)
        with pytest.raises(FloatingPointError) as predict_error:
            self._poisoned(kind).predict(x)
        cfg = TrainConfig(epochs=1, patience=1, standardize=False)
        with pytest.raises(TrainingDiverged) as train_error:
            train(self._poisoned(kind), (x, y), (x, y), cfg)
        # the error names the sequence kernel that saw the non-finite value
        assert str(forward_error.value).startswith(f"{kind}: ")
        assert str(taped_error.value).startswith(f"{kind}: ")
        assert str(predict_error.value).startswith(f"{kind}: ")
        assert str(train_error.value).startswith(f"{kind}: ")
