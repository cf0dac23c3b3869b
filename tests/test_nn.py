import json

import numpy as np
import pytest

from csib import autodiff as ad
from csib.errors import CheckpointError, DimensionError, NumericalError
from csib.nn import (
    Layer,
    ModelGraph,
    OptimizerState,
    build_forward,
    forward,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    step,
)


def tiny_model(seed=0, noise=0.1):
    return init_model(3, encoder_widths=(5, 4), decoder_widths=(4,), output_dim=1, seed=seed, noise_init=noise)


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


class TestForward:
    def test_zero_noise_is_deterministic_across_seeds(self):
        model = tiny_model(noise=0.0)
        x = rand((6, 3), 0)
        _, y1, _ = forward(model, x, rng_seed=1)
        _, y2, _ = forward(model, x, rng_seed=2)
        np.testing.assert_array_equal(y1, y2)

    def test_single_linear_layer_identity_activation(self):
        w = rand((3, 2), 1)
        b = rand(2, 2)
        model = ModelGraph([Layer(w, b, "identity")], np.zeros(2), [])
        x = rand((5, 3), 3)
        _, y_hat, _ = forward(model, x)
        np.testing.assert_allclose(y_hat, x @ w + b, rtol=1e-14)

    def test_fixed_seed_bit_identical(self):
        model = tiny_model(noise=0.3)
        x = rand((4, 3), 4)
        t1, y1, _ = forward(model, x, rng_seed=7)
        t2, y2, _ = forward(model, x, rng_seed=7)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(y1, y2)
        t3, _, _ = forward(model, x, rng_seed=8)
        assert not np.array_equal(t1, t3)

    def test_noise_changes_latent(self):
        model = tiny_model(noise=0.5)
        x = rand((4, 3), 5)
        t_clean, _, _ = forward(model, x, rng_seed=None)
        t_noisy, _, _ = forward(model, x, rng_seed=3)
        assert not np.array_equal(t_clean, t_noisy)

    def test_wrong_input_dim(self):
        with pytest.raises(DimensionError):
            forward(tiny_model(), rand((4, 5), 6))

    def test_noise_std_gradient_flows(self):
        model = tiny_model(noise=0.2)
        x = rand((6, 3), 7)
        noise = rand((6, model.latent_dim), 8)
        graph = build_forward(model, x, noise)
        loss = ad.vsum(ad.square(graph.y_hat))
        ad.backward(loss)
        assert np.any(graph.gradients()["noise_std"] != 0.0)


class TestOptimizer:
    def test_zero_gradients_leave_parameters(self):
        for kind in ("sgd", "adam"):
            model = tiny_model()
            before = {k: v.copy() for k, v in model.parameters().items()}
            zero = {k: np.zeros_like(v) for k, v in model.parameters().items()}
            step(OptimizerState(kind=kind, lr=0.5), model, zero)
            for k, v in model.parameters().items():
                np.testing.assert_array_equal(v, before[k])

    def test_sgd_unit_lr_subtracts_gradient(self):
        model = ModelGraph([Layer(np.array([[2.0]]), np.array([0.0]), "identity")], np.zeros(1), [])
        grads = {"enc0.w": np.array([[0.25]]), "enc0.b": np.array([0.0]), "noise_std": np.zeros(1)}
        step(OptimizerState(kind="sgd", lr=1.0), model, grads)
        assert model.encoder[0].w[0, 0] == pytest.approx(2.0 - 0.25)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
        model = ModelGraph([Layer(np.array([[1.0]]), np.array([0.0]), "identity")], np.zeros(1), [])
        grads = {"enc0.w": np.array([[0.003]]), "enc0.b": np.array([0.0]), "noise_std": np.zeros(1)}
        opt = OptimizerState(kind="adam", lr=0.01)
        step(opt, model, grads)
        assert model.encoder[0].w[0, 0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_nan_gradient_raises(self):
        model = tiny_model()
        grads = {k: np.zeros_like(v) for k, v in model.parameters().items()}
        grads["enc0.w"][0, 0] = np.nan
        with pytest.raises(NumericalError):
            step(OptimizerState(), model, grads)

    def test_noise_std_clamped_nonnegative(self):
        model = tiny_model(noise=0.01)
        grads = {k: np.zeros_like(v) for k, v in model.parameters().items()}
        grads["noise_std"] = np.full(model.latent_dim, 1.0)
        step(OptimizerState(kind="sgd", lr=1.0), model, grads)
        assert np.all(model.noise_std >= 0.0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = tiny_model(seed=3, noise=0.2)
        opt = OptimizerState(kind="adam", lr=2e-3, step_count=5)
        opt.m["enc0.w"] = rand((3, 5), 9)
        opt.v["enc0.w"] = np.abs(rand((3, 5), 10))
        path = str(tmp_path / "model.json")
        save_checkpoint(path, model, opt, normalization={"target_min": 0.0, "target_max": 2.0},
                        meta={"epochs": 7})
        loaded, opt2, payload = load_checkpoint(path)
        for (k1, v1), (k2, v2) in zip(model.parameters().items(), loaded.parameters().items()):
            assert k1 == k2
            np.testing.assert_array_equal(v1, v2)
        assert opt2.step_count == 5 and opt2.lr == 2e-3
        np.testing.assert_array_equal(opt2.m["enc0.w"], opt.m["enc0.w"])
        assert payload["normalization"]["target_max"] == 2.0
        assert payload["meta"]["epochs"] == 7

    def test_prediction_identical_after_roundtrip(self, tmp_path):
        model = tiny_model(seed=4)
        path = str(tmp_path / "model.json")
        save_checkpoint(path, model)
        loaded, _, _ = load_checkpoint(path)
        x = rand((8, 3), 11)
        np.testing.assert_array_equal(predict(model, x), predict(loaded, x))

    @pytest.mark.parametrize("tamper", ["shape", "unknown", "unpaired"])
    def test_rejects_tampered_optimizer_moments(self, tmp_path, tamper):
        model = tiny_model(seed=5)
        opt = OptimizerState(kind="adam", step_count=1)
        opt.m["enc0.w"] = rand((3, 5), 12)
        opt.v["enc0.w"] = np.abs(rand((3, 5), 13))
        path = tmp_path / "model.json"
        save_checkpoint(str(path), model, opt)
        payload = json.loads(path.read_text())
        moments = payload["optimizer"]
        if tamper == "shape":
            moments["v"]["enc0.w"] = moments["v"]["enc0.w"][:2]
        elif tamper == "unknown":
            moments["m"]["enc9.w"] = moments["v"]["enc9.w"] = [[0.0]]
        else:
            del moments["v"]["enc0.w"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


class TestValidation:
    def test_chain_compatibility_enforced(self):
        with pytest.raises(DimensionError):
            ModelGraph(
                [Layer(rand((3, 4), 0), np.zeros(4)), Layer(rand((5, 2), 1), np.zeros(2))],
                np.zeros(2),
                [],
            )

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph([Layer(rand((3, 2), 0), np.zeros(2))], np.array([-0.1, 0.1]), [])
