import json
import math

import numpy as np
import pytest

from csib import autodiff as ad
from csib import rng
from csib.conditional import PredictionBatch, conditional_cs
from csib.data import Dataset
from csib.dependence import cs_qmi, embedding_norms, normalized_cs_qmi
from csib.errors import ConfigError, DegenerateInputError, NumericalError
from csib.kernels import gram
from csib.nn import build_forward, init_model
from csib.training import (
    InfoPlanePoint,
    TrainConfig,
    compression_ratio,
    cs_ib_loss,
    cs_qmi_node,
    iyt_proxy,
    sweep,
    train,
)


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def toy_dataset(n=64, d=4, seed=0):
    gen = np.random.default_rng(seed)
    x = gen.uniform(0, 1, (n, d))
    y = (x @ gen.uniform(-1, 1, (d, 1))) + 0.05 * gen.standard_normal((n, 1))
    y = (y - y.min()) / (y.max() - y.min())
    return Dataset(x, y)


def toy_config(**kw):
    defaults = dict(
        beta=0.0,
        epochs=2,
        batch_size=16,
        lr=1e-3,
        seed=0,
        encoder_widths=(8, 6),
        decoder_widths=(6,),
        eval_subset=48,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def toy_model(ds, cfg, noise=0.1, seed=0):
    return init_model(
        ds.features.shape[1],
        encoder_widths=cfg.encoder_widths,
        decoder_widths=cfg.decoder_widths,
        seed=seed,
        noise_init=noise,
    )


class TestCsIbLoss:
    def test_beta_zero_equals_prediction_term(self):
        ds = toy_dataset()
        cfg = toy_config()
        model = toy_model(ds, cfg)
        graph = build_forward(model, ds.features[:16], rand((16, model.latent_dim), 1))
        parts = cs_ib_loss(ds.features[:16], ds.targets[:16], graph.y_hat, graph.t, cfg)
        assert parts.loss is parts.prediction
        assert parts.regularizer is None
        direct = conditional_cs(
            PredictionBatch(ds.features[:16], ds.targets[:16], graph.y_hat.value),
            cfg.sigma_x,
            cfg.sigma_y,
        )
        assert float(parts.loss.value) == pytest.approx(direct, abs=1e-12)

    def test_constant_latent_degenerate_with_positive_beta(self):
        ds = toy_dataset()
        cfg = toy_config(beta=1.0)
        x = ds.features[:8]
        y = ds.targets[:8]
        y_hat = ad.Var(y + 0.01)
        t = ad.Var(np.ones((8, 2)))
        with pytest.raises(DegenerateInputError):
            cs_ib_loss(x, y, y_hat, t, cfg)

    def test_termwise_decomposition(self):
        ds = toy_dataset()
        cfg = toy_config(beta=0.01)
        model = toy_model(ds, cfg)
        x = ds.features[:24]
        y = ds.targets[:24]
        graph = build_forward(model, x, rand((24, model.latent_dim), 2))
        parts = cs_ib_loss(x, y, graph.y_hat, graph.t, cfg)
        direct_pred = conditional_cs(
            PredictionBatch(x, y, graph.y_hat.value), cfg.sigma_x, cfg.sigma_y
        )
        direct_reg = normalized_cs_qmi(x, graph.t.value, cfg.sigma_x, cfg.sigma_t)
        assert float(parts.loss.value) == pytest.approx(
            direct_pred + cfg.beta * direct_reg, abs=1e-12
        )

    @pytest.mark.parametrize("sigma", [1.0, 1e-3])
    def test_constant_self_dependence_node_matches_estimator(self, sigma):
        # At sigma = 1e-3 every off-diagonal entry of the Gram underflows.
        x = toy_dataset().features
        k = ad.Var(gram(x, x, sigma))
        if sigma < 1.0:
            assert np.array_equal(k.value, np.eye(x.shape[0]))
        node_value = float(cs_qmi_node(k, k).value)
        assert node_value == pytest.approx(cs_qmi(x, x, sigma, sigma), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # composed loss w.r.t. y_hat through the conditional term
        ds = toy_dataset(n=10)
        cfg = toy_config()
        x, y = ds.features[:10], ds.targets[:10]
        y_hat0 = y + 0.1 * rand((10, 1), 3)
        var = ad.Var(y_hat0)
        parts = cs_ib_loss(x, y, var, ad.Var(rand((10, 2), 4)), cfg)
        ad.backward(parts.loss)
        auto = ad.grad_of(var)
        h = 1e-6
        numeric = np.zeros_like(y_hat0)
        for i in range(10):
            up = y_hat0.copy()
            up[i, 0] += h
            down = y_hat0.copy()
            down[i, 0] -= h
            up_loss = conditional_cs(PredictionBatch(x, y, up), cfg.sigma_x, cfg.sigma_y)
            down_loss = conditional_cs(PredictionBatch(x, y, down), cfg.sigma_x, cfg.sigma_y)
            numeric[i, 0] = (up_loss - down_loss) / (2 * h)
        denom = max(np.linalg.norm(auto), np.linalg.norm(numeric))
        assert np.linalg.norm(auto - numeric) / denom < 1e-4


class TestTrain:
    def test_zero_lr_leaves_parameters(self):
        ds = toy_dataset()
        cfg = toy_config(lr=0.0, epochs=2)
        model = toy_model(ds, cfg)
        before = {k: v.copy() for k, v in model.parameters().items()}
        train(ds, model, cfg)
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, before[k])

    def test_fixed_seed_identical_logs(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=3, beta=0.05)
        log1 = train(ds, toy_model(ds, cfg), cfg, ds).epoch_log
        log2 = train(ds, toy_model(ds, cfg), cfg, ds).epoch_log
        assert json.dumps(log1, sort_keys=True) == json.dumps(log2, sort_keys=True)

    def test_loss_decomposition_in_log(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=3, beta=0.2)
        result = train(ds, toy_model(ds, cfg), cfg)
        for record in result.epoch_log:
            assert record["loss"] == pytest.approx(
                record["pred"] + cfg.beta * record["reg"], abs=1e-12
            )
            assert record["emb_norm_joint"] > 0
            assert record["emb_norm_product"] > 0

    def test_info_plane_record_uses_the_estimators(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=1, beta=0.05, eval_subset=40)
        result = train(ds, toy_model(ds, cfg), cfg)
        record = result.epoch_log[0]
        x = ds.features[:40]
        noise = rng.standard_normal((40, result.model.latent_dim), cfg.seed, 43, 0)
        t = build_forward(result.model, x, noise).t.value
        i_raw = cs_qmi(x, t, cfg.sigma_x, cfg.sigma_t)
        i_xx = cs_qmi(x, x, cfg.sigma_x, cfg.sigma_x)
        i_tt = cs_qmi(t, t, cfg.sigma_t, cfg.sigma_t)
        assert record["i_xt_raw"] == i_raw
        assert record["i_xt"] == i_raw / math.sqrt(i_xx * i_tt)
        assert (record["emb_norm_joint"], record["emb_norm_product"]) == embedding_norms(
            x, t, cfg.sigma_x, cfg.sigma_t
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_abort_keeps_last_good(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=5, lr=1e9)  # absurd rate forces divergence
        model = toy_model(ds, cfg)
        with pytest.raises(NumericalError) as info:
            train(ds, model, cfg)
        assert info.value.last_model is not None

    def test_training_reduces_loss(self):
        ds = toy_dataset(n=96)
        cfg = toy_config(epochs=12, lr=3e-3, sigma_y=0.25)
        result = train(ds, toy_model(ds, cfg), cfg)
        assert result.epoch_log[-1]["loss"] < result.epoch_log[0]["loss"]


class TestProxiesAndRatio:
    def test_iyt_zero_when_mse_equals_variance(self):
        y = rand((50, 1), 0)
        y_hat = np.full_like(y, y.mean())
        assert iyt_proxy(y, y_hat) == pytest.approx(0.0, abs=1e-12)

    def test_iyt_quarter_variance(self):
        # halving every residual makes mse = var/4, so the proxy is ln 2
        gen = np.random.default_rng(1)
        y = gen.standard_normal((4000, 1))
        y_hat = y - (y - y.mean()) / 2
        assert iyt_proxy(y, y_hat) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_iyt_exact_fit_inf(self):
        y = rand((10, 1), 2)
        assert math.isinf(iyt_proxy(y, y.copy()))

    def test_iyt_constant_target_degenerate(self):
        y = np.ones((10, 1))
        with pytest.raises(DegenerateInputError):
            iyt_proxy(y, y)

    def test_compression_ratio_values(self):
        assert compression_ratio(1.0, 1.0) == 0.0
        assert compression_ratio(0.5, 1.0) == 0.5
        assert compression_ratio(2.0, 1.0) == -1.0
        with pytest.raises(DegenerateInputError):
            compression_ratio(1.0, 0.0)


class TestSweep:
    def test_single_zero_grid(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=2)
        points = sweep(ds, toy_model(ds, cfg), [0.0], cfg)
        assert len(points) == 1
        assert points[0].r == 0.0

    def test_duplicate_betas_identical(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=2, beta=0.0)
        points = sweep(ds, toy_model(ds, cfg), [0.0, 0.1, 0.1], cfg)
        a, b = points[1], points[2]
        assert a.to_json_dict() == b.to_json_dict()

    def test_reference_required(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=1)
        with pytest.raises(ConfigError):
            sweep(ds, toy_model(ds, cfg), [0.1, 1.0], cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_recorded_and_sweep_continues(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=2, lr=1e9)
        points = sweep(ds, toy_model(ds, cfg), [0.0, 0.5], cfg)
        assert all(p.error is not None for p in points)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(beta=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        TrainConfig(normalization="standard")


def test_info_plane_point_json_fields():
    point = InfoPlanePoint(beta=0.1, i_xt=0.5, i_xt_raw=0.01, i_yt_proxy=1.0,
                           r=0.2, rmse_train=0.1, rmse_test=0.12, epochs=5, seed=3)
    d = point.to_json_dict()
    assert set(d) == {
        "beta", "i_xt", "i_xt_raw", "i_yt_proxy", "r",
        "rmse_train", "rmse_test", "epochs", "seed", "error",
    }
