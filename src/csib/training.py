"""CS information-bottleneck objective, training loop, and beta sweeps.

The objective trades a conditional-CS prediction term against a
compression term, loss = D_cond + beta * I_norm(x;t), where I_norm is
the normalized CS-QMI (bounded in [0, ~1]); the raw CS-QMI is still
logged for information-plane axes.  Training is mini-batch gradient
descent with all randomness drawn from counter-based streams, so a
fixed seed reproduces the trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autodiff as ad
from . import rng
from .conditional import mse
from .data import Dataset
from .dependence import _SELF_DEP_TOL, cs_qmi, embedding_norms
from .errors import ConfigError, DegenerateInputError, NumericalError
from .kernels import as_sample_matrix, check_width, gram
from .nn import ModelGraph, OptimizerState, build_forward, predict, step


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 0.0
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3
    optimizer: str = "adam"
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    sigma_t: float = 1.0
    seed: int = 0
    normalization: str = "minmax"
    encoder_widths: tuple = (128, 128, 128)
    decoder_widths: tuple = (128,)
    noise_init: float = 0.1
    freeze_noise: bool = False
    eval_subset: int = 512

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (Gram losses undefined at N=1)")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.normalization not in ("minmax", "none"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        for name in ("sigma_x", "sigma_y", "sigma_t"):
            check_width(getattr(self, name))


@dataclass
class InfoPlanePoint:
    """One record of a beta sweep, mirroring the JSONL schema."""

    beta: float
    i_xt: float | None = None
    i_xt_raw: float | None = None
    i_yt_proxy: float | None = None
    r: float | None = None
    rmse_train: float | None = None
    rmse_test: float | None = None
    epochs: int = 0
    seed: int = 0
    error: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def conditional_cs_node(k: np.ndarray, y, y_hat, sigma_y: float) -> ad.Var:
    """Conditional CS divergence as a differentiable scalar node.

    ``k`` is the constant x-side Gram matrix.  ``y_hat`` may be a Var
    from a forward graph (training path) or a plain array (evaluation);
    y is a data constant.
    """
    y = as_sample_matrix(y, "y")
    row_inv_sq = 1.0 / k.sum(axis=1) ** 2
    l_obs = gram(y, y, sigma_y)
    term_obs = float(np.sum((k * l_obs).sum(axis=1) * row_inv_sq))
    scale = -0.5 / check_width(sigma_y) ** 2
    y_hat = y_hat if isinstance(y_hat, ad.Var) else ad.Var(as_sample_matrix(y_hat, "y_hat"))
    l_pred = ad.exp(ad.pairwise_sqdist(y_hat, y_hat) * scale)
    l_cross = ad.exp(ad.pairwise_sqdist(y_hat, ad.Var(y)) * scale)
    k_var = ad.Var(k)
    w_var = ad.Var(row_inv_sq)
    term_pred = ad.vsum(ad.vsum(k_var * l_pred, axis=1) * w_var)
    term_cross = ad.vsum(ad.vsum(k_var * l_cross, axis=1) * w_var)
    return ad.log(ad.Var(term_obs)) + ad.log(term_pred) - 2.0 * ad.log(term_cross)


def cs_qmi_node(ka: ad.Var, kb: ad.Var) -> ad.Var:
    """CS-QMI between two row-aligned samples, given their Gram nodes."""
    log_n = math.log(ka.value.shape[0])
    joint = ad.log(ad.vsum(ka * kb)) - 2.0 * log_n
    product = ad.log(ad.vsum(ka)) + ad.log(ad.vsum(kb)) - 4.0 * log_n
    cross = ad.log(ad.vsum(ad.vsum(ka, axis=1) * ad.vsum(kb, axis=1))) - 3.0 * log_n
    return joint + product - 2.0 * cross


def normalized_cs_qmi_node(k: np.ndarray, t_var: ad.Var, sigma_t: float) -> ad.Var:
    """Normalized CS-QMI node I(x;t) / sqrt(I(x;x) I(t;t)).

    ``k`` is the constant x-side Gram matrix; I(x;x) is the same node
    evaluated on it, in linear space, which cannot underflow: every sum
    of a unit-diagonal self-Gram is at least n.  One t-Gram node serves
    both I(t;t) and I(x;t).
    """
    k_var = ad.Var(k)
    i_xx = float(cs_qmi_node(k_var, k_var).value)
    if i_xx <= _SELF_DEP_TOL:
        raise DegenerateInputError("x has zero self-dependence (constant input)")
    q = ad.exp(ad.pairwise_sqdist(t_var, t_var) * (-0.5 / check_width(sigma_t) ** 2))
    i_tt = cs_qmi_node(q, q)
    if float(i_tt.value) <= _SELF_DEP_TOL:
        raise DegenerateInputError("t has zero self-dependence (constant representation)")
    i_xt = cs_qmi_node(k_var, q)
    return i_xt / ((i_xx * i_tt) ** 0.5)


@dataclass
class LossParts:
    loss: ad.Var
    prediction: ad.Var
    regularizer: ad.Var | None


def cs_ib_loss(x, y, y_hat, t, cfg: TrainConfig) -> LossParts:
    """The CS-IB objective: conditional CS + beta * normalized CS-QMI.

    With beta = 0 the loss node *is* the prediction node, so the two
    agree exactly.  Non-finite terms raise :class:`NumericalError`
    naming the offending term.
    """
    x = as_sample_matrix(x, "x")
    k = gram(x, x, cfg.sigma_x)
    prediction = conditional_cs_node(k, y, y_hat, cfg.sigma_y)
    if not np.isfinite(prediction.value):
        raise NumericalError("prediction term (conditional CS) is non-finite")
    if cfg.beta == 0.0:
        return LossParts(loss=prediction, prediction=prediction, regularizer=None)
    t_var = t if isinstance(t, ad.Var) else ad.Var(as_sample_matrix(t, "t"))
    regularizer = normalized_cs_qmi_node(k, t_var, cfg.sigma_t)
    if not np.isfinite(regularizer.value):
        raise NumericalError("compression term (normalized CS-QMI) is non-finite")
    loss = prediction + cfg.beta * regularizer
    return LossParts(loss=loss, prediction=prediction, regularizer=regularizer)


@dataclass
class TrainResult:
    model: ModelGraph
    epoch_log: list = field(default_factory=list)


def _rmse(model: ModelGraph, ds: Dataset) -> float:
    return math.sqrt(mse(ds.targets, predict(model, ds.features)))


def _info_plane_metrics(model: ModelGraph, ds: Dataset, cfg: TrainConfig, epoch: int):
    """Info-plane quantities between x (the first ``eval_subset`` rows) and the stochastic t.

    Returns (normalized CS-QMI, raw CS-QMI, embedding norms); the
    normalized value is 0 when x or t has no self-dependence.
    """
    n_eval = min(ds.rows, cfg.eval_subset)
    x = ds.features[:n_eval]
    noise = rng.standard_normal((n_eval, model.latent_dim), cfg.seed, 43, epoch)
    t = build_forward(model, x, noise).t.value
    i_raw = cs_qmi(x, t, cfg.sigma_x, cfg.sigma_t)
    i_xx = cs_qmi(x, x, cfg.sigma_x, cfg.sigma_x)
    i_tt = cs_qmi(t, t, cfg.sigma_t, cfg.sigma_t)
    norms = embedding_norms(x, t, cfg.sigma_x, cfg.sigma_t)
    if i_xx <= _SELF_DEP_TOL or i_tt <= _SELF_DEP_TOL:
        i_norm = 0.0
    else:
        i_norm = i_raw / math.sqrt(i_xx * i_tt)
    return i_norm, i_raw, norms


def train(
    train_ds: Dataset,
    model: ModelGraph,
    cfg: TrainConfig,
    test_ds: Dataset | None = None,
) -> TrainResult:
    """Seeded mini-batch optimization of the CS-IB objective.

    Logs one record per epoch (mean loss components, train/test RMSE,
    CS-QMI estimates).  A non-finite loss aborts with
    :class:`NumericalError` carrying the last-good model and the log so
    far.  Trailing batches with fewer than 2 rows are dropped.
    """
    opt = OptimizerState(kind=cfg.optimizer, lr=cfg.lr)
    log: list = []
    last_good = model.copy()
    n = train_ds.rows
    for epoch in range(cfg.epochs):
        order = rng.permutation(n, cfg.seed, 41, epoch)
        loss_sum = pred_sum = reg_sum = 0.0
        batches = 0
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            xb = train_ds.features[idx]
            yb = train_ds.targets[idx]
            noise = rng.standard_normal((idx.size, model.latent_dim), cfg.seed, 42, epoch, b)
            graph = build_forward(model, xb, noise)
            try:
                parts = cs_ib_loss(xb, yb, graph.y_hat, graph.t, cfg)
            except (NumericalError, DegenerateInputError) as exc:
                raise NumericalError(
                    f"epoch {epoch}, batch {b}: {exc}", last_model=last_good, epoch_log=log
                ) from exc
            loss_value = float(parts.loss.value)
            if not np.isfinite(loss_value):
                raise NumericalError(
                    f"epoch {epoch}, batch {b}: loss is {loss_value}",
                    last_model=last_good,
                    epoch_log=log,
                )
            ad.backward(parts.loss)
            grads = graph.gradients()
            if cfg.freeze_noise:
                grads.pop("noise_std", None)
            try:
                step(opt, model, grads)
            except NumericalError as exc:
                raise NumericalError(
                    f"epoch {epoch}, batch {b}: {exc}", last_model=last_good, epoch_log=log
                ) from exc
            loss_sum += loss_value
            pred_sum += float(parts.prediction.value)
            reg_sum += float(parts.regularizer.value) if parts.regularizer is not None else 0.0
            batches += 1
        i_norm, i_raw, norms = _info_plane_metrics(model, train_ds, cfg, epoch)
        record = {
            "epoch": epoch,
            "loss": loss_sum / max(batches, 1),
            "pred": pred_sum / max(batches, 1),
            "reg": reg_sum / max(batches, 1),
            "rmse_train": _rmse(model, train_ds),
            "rmse_test": _rmse(model, test_ds) if test_ds is not None else None,
            "i_xt": i_norm,
            "i_xt_raw": i_raw,
            "emb_norm_joint": norms[0],
            "emb_norm_product": norms[1],
        }
        log.append(record)
        last_good = model.copy()
    return TrainResult(model=model, epoch_log=log)


def iyt_proxy(y, y_hat) -> float:
    """Proxy for the predictive information: 0.5 ln(var(y) / MSE).

    Returns inf when the fit is exact; a constant target raises
    :class:`DegenerateInputError`.
    """
    y = as_sample_matrix(y, "y")
    variance = float(np.var(y))
    if variance <= 0.0:
        raise DegenerateInputError("target has zero variance")
    error = mse(y, y_hat)
    if error == 0.0:
        return math.inf
    return 0.5 * math.log(variance / error)


def compression_ratio(i_xt_at_beta: float, i_xt_at_zero: float) -> float:
    """r = 1 - I(x;t)|beta / I(x;t)|reference, unclamped."""
    if i_xt_at_zero <= 0.0:
        raise DegenerateInputError("reference dependence must be positive")
    return 1.0 - i_xt_at_beta / i_xt_at_zero


def _train_point(train_ds, test_ds, model_template, cfg, beta) -> InfoPlanePoint:
    point_cfg = replace(cfg, beta=float(beta))
    model = model_template.copy()
    try:
        result = train(train_ds, model, point_cfg, test_ds)
    except NumericalError as exc:
        return InfoPlanePoint(beta=float(beta), seed=cfg.seed, error=str(exc))
    last = result.epoch_log[-1] if result.epoch_log else None
    eval_ds = test_ds if test_ds is not None else train_ds
    proxy = iyt_proxy(eval_ds.targets, predict(result.model, eval_ds.features))
    return InfoPlanePoint(
        beta=float(beta),
        i_xt=last["i_xt"] if last else None,
        i_xt_raw=last["i_xt_raw"] if last else None,
        i_yt_proxy=proxy,
        rmse_train=last["rmse_train"] if last else None,
        rmse_test=last["rmse_test"] if last else None,
        epochs=point_cfg.epochs,
        seed=cfg.seed,
    )


def sweep(
    train_ds: Dataset,
    model_template: ModelGraph,
    beta_grid,
    cfg: TrainConfig,
    test_ds: Dataset | None = None,
    reference_beta: float = 0.0,
) -> list:
    """Train one model per beta from identical initialization.

    The grid must contain ``reference_beta``; compression ratios are
    computed against that point's final I(x;t).  A point whose training
    fails is recorded with its error and the sweep continues.
    """
    beta_grid = [float(b) for b in beta_grid]
    if not any(b == float(reference_beta) for b in beta_grid):
        raise ConfigError(
            f"beta grid must include the reference point {reference_beta}"
        )
    points = [_train_point(train_ds, test_ds, model_template, cfg, beta) for beta in beta_grid]
    reference = next(p for p in points if p.beta == float(reference_beta))
    for point in points:
        if point.error is not None or reference.error is not None:
            continue
        if reference.i_xt is None or reference.i_xt <= 0:
            continue
        point.r = compression_ratio(point.i_xt, reference.i_xt)
    return points
