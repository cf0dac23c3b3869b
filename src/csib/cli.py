"""Command-line surface: estimate, train, sweep, attack, verify, demo.

Exit codes: 0 success, 2 usage/parse/config/checkpoint error, 3 numerical
infinity, 4 training failure.  Numeric output is printed with 12
significant digits; the accompanying JSON carries full-precision floats.

Every JSON line is strict RFC 8259 JSON.  JSON has no literal for
infinity, so +inf and -inf are written as the out-of-range numbers
``1e999`` and ``-1e999``, which parse back to +-inf in Python and
JavaScript; NaN, which no estimator returns, would be written as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import oracle
from .attacks import AttackConfig, evaluate_robustness
from .conditional import PredictionBatch, conditional_cs, conditional_mmd
from .data import load_csv, load_matrix, minmax_normalize, split
from .dependence import cs_qmi, hsic_biased, nib_kde_bound
from .divergences import empirical_cs, empirical_mmd_sq
from .errors import (
    ConfigError,
    CsibError,
    DimensionError,
    InvalidKernelError,
    NumericalError,
    ParseError,
)
from .nn import atomic_write_text, init_model, load_checkpoint, save_checkpoint
from .training import InfoPlanePoint, TrainConfig, sweep, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFINITY = 3
EXIT_TRAINING = 4

_MEASURES = ("cs", "mmd", "hsic", "csqmi", "conditional-cs", "conditional-mmd", "nib-bound")
_SUITES = (
    "theorem1",
    "corollary1",
    "prop5",
    "discrete",
    "consistency",
    "cloud",
    "modes",
    "gradcheck",
    "forms",
)


def _default_seed() -> int:
    env = os.environ.get("CSIB_SEED")
    return int(env) if env else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csib", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="evaluate a divergence/dependence measure on CSV data")
    est.add_argument("measure", choices=_MEASURES)
    est.add_argument("files", nargs="+", help="one or two CSV files depending on the measure")
    est.add_argument("--sigma-x", type=float, default=1.0)
    est.add_argument("--sigma-y", type=float, default=1.0)
    est.add_argument("--sigma-t", type=float, default=1.0)
    est.add_argument("--target-col", default="y", help="observed column for conditional measures")
    est.add_argument("--pred-col", default="y_hat", help="prediction column for conditional measures")
    est.add_argument("--ridge", type=float, default=0.1, help="ridge for conditional-mmd")
    est.add_argument("--noise-sigma", type=float, default=1.0, help="width for nib-bound")

    tr = sub.add_parser("train", help="train a CS-IB model on a CSV dataset")
    tr.add_argument("--config", help="JSON config file (TrainConfig fields + target_col/fractions)")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out-model", required=True)
    tr.add_argument("--log", help="JSONL epoch log path")
    tr.add_argument("--resume", help="checkpoint to continue from")
    _train_flags(tr)

    sw = sub.add_parser("sweep", help="train one model per beta and emit info-plane points")
    sw.add_argument("--config", help="JSON config file; beta_grid lives here or via --beta-grid")
    sw.add_argument("--data", required=True)
    sw.add_argument("--out", required=True, help="JSONL output path")
    sw.add_argument("--csv", help="CSV mirror path")
    sw.add_argument("--beta-grid", help="comma-separated beta values")
    _train_flags(sw)

    at = sub.add_parser("attack", help="robustness report for a trained checkpoint")
    at.add_argument("--model", required=True)
    at.add_argument("--data", required=True)
    at.add_argument("--target-col", default="y")
    at.add_argument("--attack", choices=("fgsm", "pgd"), default="fgsm")
    at.add_argument("--epsilon", type=float, default=0.1)
    at.add_argument("--rho", type=float, default=0.3)
    at.add_argument("--alpha", type=float, default=0.1)
    at.add_argument("--steps", type=int, default=5)
    at.add_argument("--clip-attack", action="store_true", help="clip adversarial inputs to [0,1]")
    at.add_argument("--out", help="write the report JSON here as well")

    ve = sub.add_parser("verify", help="run oracle checks; nonzero exit iff any fails")
    ve.add_argument("suites", nargs="+", metavar="suite")
    ve.add_argument("--trials", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=None)

    de = sub.add_parser("demo", help="sample-cloud demonstrations, CSV trajectory output")
    de.add_argument("kind", metavar="kind")
    de.add_argument("--out", required=True, help="trajectory CSV path")
    de.add_argument("--steps", type=int, default=150)
    de.add_argument("--seed", type=int, default=None)
    return parser


def _train_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--beta", type=float, default=None)
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument("--epochs", type=int, default=None)
    cmd.add_argument("--batch", type=int, default=None)
    cmd.add_argument("--lr", type=float, default=None)
    cmd.add_argument("--optimizer", choices=("sgd", "adam"), default=None)
    cmd.add_argument("--sigma-x", type=float, default=None)
    cmd.add_argument("--sigma-y", type=float, default=None)
    cmd.add_argument("--sigma-t", type=float, default=None)
    cmd.add_argument("--target-col", default=None)


_CONFIG_KEYS = {
    "beta",
    "epochs",
    "batch_size",
    "lr",
    "optimizer",
    "sigma_x",
    "sigma_y",
    "sigma_t",
    "seed",
    "normalization",
    "encoder_widths",
    "decoder_widths",
    "noise_init",
    "freeze_noise",
    "eval_subset",
}
_PIPELINE_KEYS = {"target_col", "fractions", "beta_grid", "reference_beta"}


def _load_config(path: str | None, args) -> tuple:
    """Merge config JSON with CLI overrides into (TrainConfig, pipeline dict)."""
    raw: dict = {}
    if path:
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path}: expected a JSON object")
    unknown = set(raw) - _CONFIG_KEYS - _PIPELINE_KEYS
    if unknown:
        raise ConfigError(f"config field(s) not recognized: {sorted(unknown)}")
    pipeline = {
        "target_col": raw.get("target_col", "y"),
        "fractions": raw.get("fractions", [0.7, 0.1, 0.2]),
        "beta_grid": raw.get("beta_grid"),
        "reference_beta": raw.get("reference_beta", 0.0),
    }
    fields = {k: v for k, v in raw.items() if k in _CONFIG_KEYS}
    for tup in ("encoder_widths", "decoder_widths"):
        if tup in fields:
            fields[tup] = tuple(fields[tup])
    overrides = {
        "beta": args.beta,
        "seed": args.seed,
        "epochs": args.epochs,
        "batch_size": args.batch,
        "lr": args.lr,
        "optimizer": args.optimizer,
        "sigma_x": args.sigma_x,
        "sigma_y": args.sigma_y,
        "sigma_t": args.sigma_t,
    }
    fields.update({k: v for k, v in overrides.items() if v is not None})
    fields.setdefault("seed", _default_seed())
    try:
        cfg = TrainConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad config field: {exc}") from exc
    if args.target_col is not None:
        pipeline["target_col"] = args.target_col
    return cfg, pipeline


def _prepare_splits(data_path: str, cfg: TrainConfig, pipeline: dict):
    ds = load_csv(data_path, pipeline["target_col"])
    parts = split(ds, pipeline["fractions"], cfg.seed)
    train_ds = parts[0]
    test_ds = parts[-1] if len(parts) > 1 else None
    if cfg.normalization == "minmax":
        train_ds = minmax_normalize(train_ds)
        record = train_ds.normalization
        if test_ds is not None:
            test_ds = minmax_normalize(test_ds, record)
    else:
        record = None
    return train_ds, test_ds, record


def init_model_for(cfg: TrainConfig, input_dim: int):
    """The single-output model ``cfg`` describes, initialized from its seed."""
    return init_model(
        input_dim,
        encoder_widths=cfg.encoder_widths,
        decoder_widths=cfg.decoder_widths,
        output_dim=1,
        seed=cfg.seed,
        noise_init=cfg.noise_init,
    )


def _json_safe(obj):
    """Copy of obj with non-finite floats replaced by placeholders."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else f"\0{obj}"
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def json_line(obj: dict) -> str:
    """One strict JSON object on one line, keys sorted (see module docstring)."""
    text = json.dumps(_json_safe(obj), sort_keys=True, allow_nan=False)
    return text.replace('"\\u0000inf"', "1e999").replace('"\\u0000-inf"', "-1e999")


def write_sweep(points, out: str, csv_path: str | None = None) -> list:
    """Write sweep points as JSONL to ``out`` and, if given, as a CSV mirror.

    The CSV columns are the :class:`InfoPlanePoint` fields in order, with
    None as an empty cell.  Returns the JSON lines.
    """
    lines = [json_line(p.to_json_dict()) for p in points]
    atomic_write_text(out, "".join(line + "\n" for line in lines))
    if csv_path:
        names = [f.name for f in dataclasses.fields(InfoPlanePoint)]
        rows = [",".join(names)] + [
            ",".join("" if getattr(p, name) is None else str(getattr(p, name)) for name in names)
            for p in points
        ]
        atomic_write_text(csv_path, "".join(row + "\n" for row in rows))
    return lines


def _print_value(measure: str, value: float, params: dict) -> int:
    rendered = ", ".join(f"{k}={v}" for k, v in params.items())
    print(f"{measure} = {value:.12g} nats ({rendered})")
    print(json_line({"measure": measure, "value": value, "params": params}))
    return EXIT_INFINITY if math.isinf(value) else EXIT_OK


def _cmd_estimate(args) -> int:
    measure = args.measure
    if measure in ("cs", "mmd", "hsic", "csqmi"):
        if len(args.files) != 2:
            raise ConfigError(f"measure {measure} needs exactly two CSV files")
        a = load_matrix(args.files[0])
        b = load_matrix(args.files[1])
        if measure == "cs":
            value = empirical_cs(a, b, args.sigma_x)
            params = {"sigma": args.sigma_x}
        elif measure == "mmd":
            value = empirical_mmd_sq(a, b, args.sigma_x)
            params = {"sigma": args.sigma_x}
        elif measure == "hsic":
            value = hsic_biased(a, b, args.sigma_x, args.sigma_t)
            params = {"sigma_x": args.sigma_x, "sigma_t": args.sigma_t}
        else:
            value = cs_qmi(a, b, args.sigma_x, args.sigma_t)
            params = {"sigma_x": args.sigma_x, "sigma_t": args.sigma_t}
        return _print_value(measure, value, params)
    if len(args.files) != 1:
        raise ConfigError(f"measure {measure} needs exactly one CSV file")
    if measure == "nib-bound":
        centers = load_matrix(args.files[0])
        value = nib_kde_bound(centers, args.noise_sigma)
        return _print_value(measure, value, {"noise_sigma": args.noise_sigma})
    ds = load_csv(args.files[0], args.target_col)
    if args.pred_col not in ds.feature_names:
        raise ParseError(f"prediction column {args.pred_col!r} not in {args.files[0]}")
    pred_idx = ds.feature_names.index(args.pred_col)
    y_hat = ds.features[:, pred_idx : pred_idx + 1]
    x = np.delete(ds.features, pred_idx, axis=1)
    batch = PredictionBatch(x, ds.targets, y_hat)
    if measure == "conditional-cs":
        value = conditional_cs(batch, args.sigma_x, args.sigma_y)
        params = {"sigma_x": args.sigma_x, "sigma_y": args.sigma_y}
    else:
        value = conditional_mmd(batch, args.sigma_x, args.sigma_y, args.ridge)
        params = {"sigma_x": args.sigma_x, "sigma_y": args.sigma_y, "ridge": args.ridge}
    return _print_value(measure, value, params)


def _cmd_train(args) -> int:
    cfg, pipeline = _load_config(args.config, args)
    train_ds, test_ds, record = _prepare_splits(args.data, cfg, pipeline)
    if args.resume:
        model, optimizer, _payload = load_checkpoint(args.resume)
        del optimizer  # a fresh optimizer keeps the CLI run seeded-deterministic
    else:
        model = init_model_for(cfg, train_ds.features.shape[1])
    try:
        result = train(train_ds, model, cfg, test_ds)
    except NumericalError as exc:
        if args.log:
            atomic_write_text(args.log, "".join(json_line(r) + "\n" for r in exc.epoch_log))
        if exc.last_model is not None:
            save_checkpoint(
                args.out_model, exc.last_model, normalization=record,
                meta={"aborted": str(exc)},
            )
        print(f"error: training failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    if args.log:
        atomic_write_text(args.log, "".join(json_line(r) + "\n" for r in result.epoch_log))
    save_checkpoint(
        args.out_model,
        result.model,
        normalization=record,
        meta={"epochs": cfg.epochs, "beta": cfg.beta, "seed": cfg.seed},
    )
    last = result.epoch_log[-1] if result.epoch_log else {}
    print(json_line({"trained": True, "epochs": cfg.epochs, **{
        k: last.get(k) for k in ("rmse_train", "rmse_test", "i_xt")}}))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg, pipeline = _load_config(args.config, args)
    if args.beta_grid:
        grid = [float(v) for v in args.beta_grid.split(",")]
    elif pipeline["beta_grid"] is not None:
        grid = [float(v) for v in pipeline["beta_grid"]]
    else:
        raise ConfigError("beta_grid missing (config key 'beta_grid' or --beta-grid)")
    train_ds, test_ds, _record = _prepare_splits(args.data, cfg, pipeline)
    model = init_model_for(cfg, train_ds.features.shape[1])
    points = sweep(
        train_ds,
        model,
        grid,
        cfg,
        test_ds=test_ds,
        reference_beta=pipeline["reference_beta"],
    )
    for line in write_sweep(points, args.out, args.csv):
        print(line)
    return EXIT_OK


def _cmd_attack(args) -> int:
    model, _optimizer, payload = load_checkpoint(args.model)
    ds = load_csv(args.data, args.target_col)
    record = payload.get("normalization")
    if record is not None:
        ds = minmax_normalize(ds, record)
    if ds.features.shape[1] != model.input_dim:
        raise DimensionError(
            f"data has {ds.features.shape[1]} feature columns, model expects {model.input_dim}"
        )
    cfg = AttackConfig(
        kind=args.attack,
        epsilon=args.epsilon,
        rho=args.rho,
        alpha=args.alpha,
        steps=args.steps,
        clip_unit=args.clip_attack,
    )
    report = evaluate_robustness(model, ds.features, ds.targets, cfg)
    text = json_line(report)
    print(text)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    return EXIT_OK


def _run_suite(name: str, trials: int, seed: int) -> dict:
    if name == "theorem1":
        violations = oracle.validate_theorem1(trials, (1, 2, 5), seed)
        return {"check": name, "trials": trials * 3, "violations": violations,
                "details": {"dims": [1, 2, 5], "slack": 1e-9}}
    if name == "corollary1":
        violations = oracle.validate_corollary1(trials, seed)
        return {"check": name, "trials": trials, "violations": violations,
                "details": {"dims": [1, 2, 5], "slack": 1e-9}}
    if name == "prop5":
        same = oracle.gaussian_grid(0.0, 1.0, -10.0, 10.0, 4001)
        shifted = oracle.gaussian_grid(1.0, 1.0, -10.0, 10.0, 4001)
        reports = [oracle.validate_prop5(same, same), oracle.validate_prop5(same, shifted)]
        violations = sum(0 if r["holds"] else 1 for r in reports)
        return {"check": name, "trials": len(reports), "violations": violations,
                "details": {"reports": reports}}
    if name == "discrete":
        details = {}
        violations = 0
        for k, threshold in oracle.DISCRETE_MC_THRESHOLDS.items():
            fraction = oracle.monte_carlo_discrete(k, trials, seed)
            details[str(k)] = {"fraction": fraction, "threshold": threshold,
                               "sampling": "normalized uniform draws"}
            if fraction < threshold:
                violations += 1
        return {"check": name, "trials": trials * len(oracle.DISCRETE_MC_THRESHOLDS),
                "violations": violations, "details": details}
    if name == "consistency":
        table = oracle.consistency_study((100, 400, 1600), 20, seed)
        medians = [row["median_error"] for row in table]
        decreasing = all(a > b for a, b in zip(medians, medians[1:]))
        final_ok = medians[-1] < oracle.CONSISTENCY_FINAL_BOUND
        return {"check": name, "trials": 20 * len(table),
                "violations": 0 if (decreasing and final_ok) else 1,
                "details": {"table": table, "final_bound": oracle.CONSISTENCY_FINAL_BOUND}}
    if name == "cloud":
        traj = oracle.demo_cloud_descent(seed=seed)
        mmd = np.asarray(traj.mmd_sq)
        frac = float(np.mean(np.diff(mmd) <= 1e-6))
        ok = (mmd[-1] < mmd[0]) and frac >= 0.95 and not traj.aborted
        return {"check": name, "trials": len(mmd) - 1, "violations": 0 if ok else 1,
                "details": {"initial_mmd_sq": float(mmd[0]), "final_mmd_sq": float(mmd[-1]),
                            "nonincreasing_fraction": frac}}
    if name == "modes":
        report = oracle.demo_mode_coverage(seed=seed)
        report.pop("movable_final", None)
        cs_ok = all(c >= 0.2 for c in report["cs_coverage"])
        masses = sorted(report["kl_mass"])
        kl_ok = masses[-1] >= 0.9 and masses[0] <= 0.1
        return {"check": name, "trials": 1, "violations": 0 if (cs_ok and kl_ok) else 1,
                "details": report}
    if name == "gradcheck":
        violations, worst = oracle.validate_gradients(20, seed)
        return {"check": name, "trials": 20, "violations": violations,
                "details": {"worst_relative_error": worst, "tolerance": 1e-4}}
    if name == "forms":
        violations = oracle.validate_forms(100, seed)
        return {"check": name, "trials": 100, "violations": violations,
                "details": {"tolerance": 1e-10}}
    raise ConfigError(f"unknown verify suite {name!r}")


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    for name in args.suites:
        if name not in _SUITES:
            raise ConfigError(f"unknown verify suite {name!r} (choose from {_SUITES})")
    failed = 0
    for name in args.suites:
        report = _run_suite(name, args.trials, seed)
        report["pass"] = report["violations"] == 0
        failed += 0 if report["pass"] else 1
        print(json_line(report))
    return EXIT_OK if failed == 0 else 1


def _cmd_demo(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.kind == "cloud":
        traj = oracle.demo_cloud_descent(steps=args.steps, seed=seed)
        rows = ["step,d_cs,mmd_sq"] + [
            f"{i},{d!r},{m!r}" for i, (d, m) in enumerate(zip(traj.d_cs, traj.mmd_sq))
        ]
        atomic_write_text(args.out, "".join(r + "\n" for r in rows))
        print(json_line({
            "demo": "cloud", "steps": args.steps,
            "initial_mmd_sq": traj.mmd_sq[0], "final_mmd_sq": traj.mmd_sq[-1],
            "initial_d_cs": traj.d_cs[0], "final_d_cs": traj.d_cs[-1],
        }))
        return EXIT_OK
    if args.kind == "modes":
        report = oracle.demo_mode_coverage(seed=seed, steps=args.steps)
        movable = report.pop("movable_final")
        rows = ["x0,x1"] + [f"{float(p[0])!r},{float(p[1])!r}" for p in movable]
        atomic_write_text(args.out, "".join(r + "\n" for r in rows))
        print(json_line({"demo": "modes", **report}))
        return EXIT_OK
    raise ConfigError(f"unknown demo kind {args.kind!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "estimate": _cmd_estimate,
        "train": _cmd_train,
        "sweep": _cmd_sweep,
        "attack": _cmd_attack,
        "verify": _cmd_verify,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, ConfigError, DimensionError, InvalidKernelError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except CsibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
