"""Stochastic encoder/decoder model, optimizers, and checkpoints.

The model is a fully-connected encoder whose output receives Gaussian
noise with learnable per-dimension scale (t = f_enc(x) + sigma .* eps),
followed by a fully-connected decoder.  Forward passes build an
:mod:`autodiff` graph so losses composed on the outputs differentiate
back to every parameter and to the input (needed by attacks).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import rng
from .errors import CheckpointError, DimensionError, NumericalError
from .kernels import as_sample_matrix

_ACTIVATIONS = ("relu", "identity")


@dataclass
class Layer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    activation: str = "relu"

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise DimensionError(
                f"layer shapes do not chain: w {self.w.shape}, b {self.b.shape}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class ModelGraph:
    """Encoder layers, learnable noise scale, decoder layers."""

    encoder: list
    noise_std: np.ndarray
    decoder: list

    def __post_init__(self):
        self.noise_std = np.asarray(self.noise_std, dtype=np.float64)
        if self.noise_std.ndim != 1:
            raise DimensionError("noise_std must be a vector")
        if np.any(self.noise_std < 0):
            raise ValueError("noise_std must be nonnegative")
        dims = [layer.w.shape for layer in self.encoder + self.decoder]
        for (_, out_prev), (in_next, _) in zip(dims, dims[1:]):
            if out_prev != in_next:
                raise DimensionError("layer shapes are not chain-compatible")
        if self.encoder and self.noise_std.shape[0] != self.encoder[-1].w.shape[1]:
            raise DimensionError("noise_std length must match encoder output width")

    @property
    def input_dim(self) -> int:
        return self.encoder[0].w.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.noise_std.shape[0]

    def parameters(self) -> dict:
        """Named parameter arrays (live views, mutated by optimizer steps)."""
        params = {}
        for i, layer in enumerate(self.encoder):
            params[f"enc{i}.w"] = layer.w
            params[f"enc{i}.b"] = layer.b
        params["noise_std"] = self.noise_std
        for i, layer in enumerate(self.decoder):
            params[f"dec{i}.w"] = layer.w
            params[f"dec{i}.b"] = layer.b
        return params

    def copy(self) -> "ModelGraph":
        return ModelGraph(
            encoder=[Layer(l.w.copy(), l.b.copy(), l.activation) for l in self.encoder],
            noise_std=self.noise_std.copy(),
            decoder=[Layer(l.w.copy(), l.b.copy(), l.activation) for l in self.decoder],
        )


def init_model(
    input_dim: int,
    encoder_widths=(128, 128, 128),
    decoder_widths=(128,),
    output_dim: int = 1,
    seed: int = 0,
    noise_init: float = 0.1,
) -> ModelGraph:
    """He-initialized ReLU encoder/decoder with a linear output layer."""
    if noise_init < 0:
        raise ValueError("noise_init must be nonnegative")
    layers = []
    fan_in = input_dim
    idx = 0
    for width in encoder_widths:
        w = rng.standard_normal((fan_in, width), seed, 101, idx) * np.sqrt(2.0 / fan_in)
        layers.append(Layer(w, np.zeros(width), "relu"))
        fan_in = width
        idx += 1
    encoder = layers
    latent = fan_in
    layers = []
    for width in decoder_widths:
        w = rng.standard_normal((fan_in, width), seed, 101, idx) * np.sqrt(2.0 / fan_in)
        layers.append(Layer(w, np.zeros(width), "relu"))
        fan_in = width
        idx += 1
    w = rng.standard_normal((fan_in, output_dim), seed, 101, idx) * np.sqrt(1.0 / fan_in)
    layers.append(Layer(w, np.zeros(output_dim), "identity"))
    return ModelGraph(encoder, np.full(latent, float(noise_init)), layers)


@dataclass
class ForwardGraph:
    """Differentiation graph of one forward pass."""

    x: ad.Var
    t: ad.Var
    y_hat: ad.Var
    params: dict

    def gradients(self) -> dict:
        """Per-parameter gradients after a backward pass."""
        return {name: ad.grad_of(var) for name, var in self.params.items()}

    def input_gradient(self) -> np.ndarray:
        return ad.grad_of(self.x)


def _apply_layers(h: ad.Var, layers, param_vars, prefix: str) -> ad.Var:
    for i, layer in enumerate(layers):
        w = param_vars[f"{prefix}{i}.w"]
        b = param_vars[f"{prefix}{i}.b"]
        h = ad.matmul(h, w) + b
        if layer.activation == "relu":
            h = ad.relu(h)
    return h


def build_forward(model: ModelGraph, x, noise: np.ndarray | None = None) -> ForwardGraph:
    """Build the graph t = f_enc(x) + noise_std .* eps, y_hat = g_dec(t).

    ``noise`` is a pre-drawn (N, latent_dim) standard-normal array; pass
    None to evaluate at the noise mean (deterministic path).
    """
    x = as_sample_matrix(x, "x")
    if x.shape[1] != model.input_dim:
        raise DimensionError(
            f"input has {x.shape[1]} columns, model expects {model.input_dim}"
        )
    param_vars = {name: ad.Var(value) for name, value in model.parameters().items()}
    x_var = ad.Var(x)
    h = _apply_layers(x_var, model.encoder, param_vars, "enc")
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (x.shape[0], model.latent_dim):
            raise DimensionError(
                f"noise shape {noise.shape} does not match (N, latent_dim)"
            )
        t = h + param_vars["noise_std"] * ad.Var(noise)
    else:
        t = h
    y_hat = _apply_layers(t, model.decoder, param_vars, "dec")
    return ForwardGraph(x=x_var, t=t, y_hat=y_hat, params=param_vars)


def forward(model: ModelGraph, x, rng_seed: int | None = None):
    """Run one forward pass; returns (t, y_hat, graph).

    With an integer seed the encoder noise is drawn from the
    counter-based generator, so a fixed seed gives bit-identical
    outputs; with None the pass is deterministic (noise at its mean).
    """
    x = as_sample_matrix(x, "x")
    noise = None
    if rng_seed is not None:
        noise = rng.standard_normal((x.shape[0], model.latent_dim), rng_seed, 202)
    graph = build_forward(model, x, noise)
    return graph.t.value, graph.y_hat.value, graph


def predict(model: ModelGraph, x) -> np.ndarray:
    """Deterministic predictions (noise frozen at its mean)."""
    _, y_hat, _ = forward(model, x, rng_seed=None)
    return y_hat


@dataclass
class OptimizerState:
    """SGD or Adam with bias correction."""

    kind: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        # lr = 0 is allowed as an explicit no-op probe.
        if self.lr < 0:
            raise ValueError("learning rate must be nonnegative")


def step(opt: OptimizerState, model: ModelGraph, grads: dict) -> ModelGraph:
    """Apply one update in place; maintains noise_std >= 0 by clamping.

    Raises :class:`NumericalError` on NaN gradients so training aborts
    with a diagnostic rather than poisoning the parameters.
    """
    params = model.parameters()
    for name, g in grads.items():
        if name not in params:
            raise DimensionError(f"gradient for unknown parameter {name!r}")
        if np.asarray(g).shape != params[name].shape:
            raise DimensionError(f"gradient shape mismatch for {name!r}")
        if np.any(np.isnan(g)):
            raise NumericalError(f"NaN gradient for parameter {name!r}")
    if opt.kind == "sgd":
        for name, g in grads.items():
            params[name] -= opt.lr * np.asarray(g, dtype=np.float64)
    else:
        opt.step_count += 1
        t = opt.step_count
        for name, g in grads.items():
            g = np.asarray(g, dtype=np.float64)
            m = opt.m.setdefault(name, np.zeros_like(params[name]))
            v = opt.v.setdefault(name, np.zeros_like(params[name]))
            m *= opt.beta1
            m += (1.0 - opt.beta1) * g
            v *= opt.beta2
            v += (1.0 - opt.beta2) * g * g
            m_hat = m / (1.0 - opt.beta1**t)
            v_hat = v / (1.0 - opt.beta2**t)
            params[name] -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
    np.maximum(model.noise_std, 0.0, out=model.noise_std)
    return model


# -- checkpoint container ----------------------------------------------

CHECKPOINT_FORMAT = "csib-model"
CHECKPOINT_VERSION = 1


def _layer_to_json(layer: Layer) -> dict:
    return {"w": layer.w.tolist(), "b": layer.b.tolist(), "activation": layer.activation}


def _layer_from_json(obj: dict) -> Layer:
    return Layer(np.array(obj["w"]), np.array(obj["b"]), obj["activation"])


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(
    path: str,
    model: ModelGraph,
    optimizer: OptimizerState | None = None,
    normalization: dict | None = None,
    meta: dict | None = None,
) -> None:
    """Serialize model (+ optimizer state, normalization record) as JSON."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "encoder": [_layer_to_json(l) for l in model.encoder],
        "noise_std": model.noise_std.tolist(),
        "decoder": [_layer_to_json(l) for l in model.decoder],
        "optimizer": None,
        "normalization": normalization,
        "meta": meta,
    }
    if optimizer is not None:
        payload["optimizer"] = {
            "kind": optimizer.kind,
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "step_count": optimizer.step_count,
            "m": {k: v.tolist() for k, v in optimizer.m.items()},
            "v": {k: v.tolist() for k, v in optimizer.v.items()},
        }
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def _check_moments(path: str, model: ModelGraph, m: dict, v: dict) -> None:
    """Adam moments must carry the same keys, each a parameter of its shape."""
    if m.keys() != v.keys():
        raise CheckpointError(
            f"{path}: optimizer moments m and v have different keys "
            f"({sorted(m.keys() ^ v.keys())})"
        )
    params = model.parameters()
    for moments in (m, v):
        for name, value in moments.items():
            if name not in params:
                raise CheckpointError(f"{path}: optimizer moment for unknown parameter {name!r}")
            shape = np.shape(value)
            if shape != params[name].shape:
                raise CheckpointError(
                    f"{path}: optimizer moment {name!r} has shape {shape}, "
                    f"parameter has {params[name].shape}"
                )


def load_checkpoint(path: str):
    """Load a checkpoint; returns (model, optimizer_or_None, payload)."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    model = ModelGraph(
        encoder=[_layer_from_json(o) for o in payload["encoder"]],
        noise_std=np.array(payload["noise_std"]),
        decoder=[_layer_from_json(o) for o in payload["decoder"]],
    )
    optimizer = None
    if payload.get("optimizer") is not None:
        o = payload["optimizer"]
        _check_moments(path, model, o["m"], o["v"])
        optimizer = OptimizerState(
            kind=o["kind"],
            lr=o["lr"],
            beta1=o["beta1"],
            beta2=o["beta2"],
            eps=o["eps"],
            step_count=o["step_count"],
            m={k: np.array(v) for k, v in o["m"].items()},
            v={k: np.array(v) for k, v in o["v"].items()},
        )
    return model, optimizer, payload
