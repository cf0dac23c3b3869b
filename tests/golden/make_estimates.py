"""Ledger of seeded estimator outputs, and the script that writes it.

The ledger ``estimates.json`` holds the seven ``csib estimate`` measures on
seeded N = 48 inputs (stored with ``float.hex``) and the ``csib verify
forms --seed 0`` report.  A seeded value is bit-identical for one OpenBLAS
core kernel but may differ in its last bits under another, so the ledger
records the cores that produced it and a relative tolerance measured by
running the measures under each of ``CORETYPES`` in its own process.
``tests/test_golden.py`` compares bit for bit on the recorded cores and
within that tolerance elsewhere.

    PYTHONPATH=src python tests/golden/make_estimates.py           # rewrite the ledger
    PYTHONPATH=src python tests/golden/make_estimates.py --print   # print this run's snapshot

A change that moves any value regenerates the ledger and states the drift.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from csib import cli
from csib.conditional import PredictionBatch, conditional_cs, conditional_mmd
from csib.dependence import cs_qmi, hsic_biased, nib_kde_bound
from csib.divergences import empirical_cs, empirical_mmd_sq

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


def snapshot() -> dict:
    return {
        "blas_cores": blas_cores(),
        "measures": {name: float.hex(value) for name, value in measures().items()},
        "forms": forms_report(),
    }


def _snapshot_under(core: str) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    result = subprocess.run([sys.executable, os.path.abspath(__file__), "--print"], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def relative_drift(a: dict, b: dict) -> float:
    """Largest relative difference between two snapshots' measures."""
    worst = 0.0
    for name, hexval in a["measures"].items():
        x, y = float.fromhex(hexval), float.fromhex(b["measures"][name])
        worst = max(worst, abs(x - y) / abs(x))
    return worst


def main(argv) -> int:
    if argv[1:] == ["--print"]:
        print(json.dumps(snapshot(), sort_keys=True))
        return 0
    ledger = snapshot()
    drift = max(relative_drift(ledger, _snapshot_under(core)) for core in CORETYPES)
    ledger["cross_core_drift"] = drift
    ledger["cross_core_rel_tol"] = max(_TOL_FACTOR * drift, _TOL_FLOOR_ULPS * 2.0**-52)
    with open(LEDGER, "w") as handle:
        handle.write(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}: cores {ledger['blas_cores']}, cross-core drift {drift:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
