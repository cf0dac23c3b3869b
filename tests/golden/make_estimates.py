"""Ledger of seeded estimator, training and attack outputs, and the script that writes it.

The ledger ``estimates.json`` has two slices, each stored with
``float.hex``.  The estimator slice holds the seven ``csib estimate``
measures on seeded N = 48 inputs and the ``csib verify forms --seed 0``
report.  The training slice holds every float of the epoch logs of a
seeded 3-epoch toy run at beta = 0 and at beta = 0.05, the clean and
attacked RMSE of one FGSM and one PGD report on the beta = 0 model, and a
sha256 of each run's final weights.  A seeded value is bit-identical for
one OpenBLAS core kernel but may differ in its last bits under another,
so the ledger records the cores that produced it and, per slice, a
relative tolerance measured by running the slice under each of
``CORETYPES`` in its own process.  ``tests/test_golden.py`` compares bit
for bit on the recorded cores and within that tolerance elsewhere, where
the weight digests are not compared.

    PYTHONPATH=src python tests/golden/make_estimates.py           # rewrite the ledger
    PYTHONPATH=src python tests/golden/make_estimates.py --print   # print this run's snapshot

A change that moves any value regenerates the ledger and states the drift.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from csib import cli
from csib.attacks import AttackConfig, evaluate_robustness
from csib.conditional import PredictionBatch, conditional_cs, conditional_mmd
from csib.data import gen_synthetic, minmax_normalize, split
from csib.dependence import cs_qmi, hsic_biased, nib_kde_bound
from csib.divergences import empirical_cs, empirical_mmd_sq
from csib.training import TrainConfig, train

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "estimates.json")
CORETYPES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem")
ROWS, FEATURES, SEED = 48, 30, 0
# The tolerance is this many times the largest drift measured across
# CORETYPES, and never below this many ulps of 1.
_TOL_FACTOR, _TOL_FLOOR_ULPS = 4.0, 64


def blas_cores() -> list:
    """Core kernel names of every OpenBLAS library loaded (numpy's, scipy's)."""
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS too)

    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    cores = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_char_p
                cores.add(func().decode())
                break
    return sorted(cores)


def measures() -> dict:
    """The seven estimate measures on inputs shaped like the estimate benchmark's."""
    gen = np.random.default_rng(SEED)
    a = gen.standard_normal((ROWS, FEATURES))
    b = gen.standard_normal((ROWS, FEATURES)) * 1.1 + 0.25
    mix = gen.standard_normal((FEATURES, FEATURES)) / math.sqrt(FEATURES)
    t = np.tanh(a @ mix) + 0.5 * gen.standard_normal((ROWS, FEATURES))
    w = gen.standard_normal(FEATURES) / math.sqrt(FEATURES)
    y = np.sin(a @ w).reshape(-1, 1)
    y_hat = y + 0.1 * gen.standard_normal((ROWS, 1))
    batch = PredictionBatch(a, y, y_hat)
    sx, st, sy = 4.0, 4.0, 0.5
    return {
        "cs": empirical_cs(a, b, sx),
        "mmd": empirical_mmd_sq(a, b, sx),
        "hsic": hsic_biased(a, t, sx, st),
        "csqmi": cs_qmi(a, t, sx, st),
        "conditional-cs": conditional_cs(batch, sx, sy),
        "nib-bound": nib_kde_bound(a, sx),
        "conditional-mmd": conditional_mmd(batch, sx, sy, 0.1),
    }


def forms_report() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "forms", "--seed", "0"])
    if code != 0:
        raise RuntimeError(f"verify forms exited {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def _weights_sha256(model) -> str:
    digest = hashlib.sha256()
    for name, value in model.parameters().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def training_runs() -> tuple:
    """Flat name -> value floats of the toy runs and attacks, and weight digests."""
    ds = gen_synthetic(160, d=8, seed=SEED)
    train_ds, test_ds = split(ds, (0.75, 0.25), SEED)
    train_ds = minmax_normalize(train_ds)
    test_ds = minmax_normalize(test_ds, train_ds.normalization)
    values, digests = {}, {}
    for beta in (0.0, 0.05):
        cfg = TrainConfig(beta=beta, epochs=3, batch_size=32, lr=3e-3, seed=SEED,
                          encoder_widths=(16, 8), decoder_widths=(8,), eval_subset=64)
        model = cli.init_model_for(cfg, 8)
        result = train(train_ds, model, cfg, test_ds)
        run = f"beta={beta}"
        for record in result.epoch_log:
            for field, value in record.items():
                if isinstance(value, float):
                    values[f"{run}/epoch{record['epoch']}/{field}"] = value
        digests[run] = _weights_sha256(result.model)
        if beta == 0.0:
            for kind in ("fgsm", "pgd"):
                report = evaluate_robustness(result.model, test_ds.features, test_ds.targets,
                                             AttackConfig(kind=kind))
                for field in ("clean_rmse", "attacked_rmse"):
                    values[f"{kind}/{field}"] = report[field]
    return values, digests


def snapshot() -> dict:
    values, digests = training_runs()
    return {
        "blas_cores": blas_cores(),
        "measures": {name: float.hex(value) for name, value in measures().items()},
        "forms": forms_report(),
        "training": {name: float.hex(value) for name, value in values.items()},
        "weights_sha256": digests,
    }


def _snapshot_under(core: str) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    result = subprocess.run([sys.executable, os.path.abspath(__file__), "--print"], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def relative_error(want: float, got: float) -> float:
    """|got - want| / |want|, or |got| where want is exactly 0."""
    return abs(got - want) / abs(want) if want else abs(got)


def relative_drift(a: dict, b: dict, key: str = "measures") -> float:
    """Largest relative difference between two snapshots' values of one slice."""
    return max(relative_error(float.fromhex(hexval), float.fromhex(b[key][name]))
               for name, hexval in a[key].items())


def _tolerance(drift: float) -> float:
    return max(_TOL_FACTOR * drift, _TOL_FLOOR_ULPS * 2.0**-52)


def main(argv) -> int:
    if argv[1:] == ["--print"]:
        print(json.dumps(snapshot(), sort_keys=True))
        return 0
    ledger = snapshot()
    others = [_snapshot_under(core) for core in CORETYPES]
    drift = max(relative_drift(ledger, other) for other in others)
    training_drift = max(relative_drift(ledger, other, "training") for other in others)
    ledger["cross_core_drift"] = drift
    ledger["cross_core_rel_tol"] = _tolerance(drift)
    ledger["training_cross_core_drift"] = training_drift
    ledger["training_cross_core_rel_tol"] = _tolerance(training_drift)
    with open(LEDGER, "w") as handle:
        handle.write(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}: cores {ledger['blas_cores']}, cross-core drift {drift:.3e} "
          f"(estimators), {training_drift:.3e} (training and attacks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
