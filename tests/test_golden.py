"""Seeded estimator, training and attack outputs against the committed ledger in tests/golden/."""

import importlib.util
import json
import math
import os

_GENERATOR = os.path.join(os.path.dirname(__file__), "golden", "make_estimates.py")
_spec = importlib.util.spec_from_file_location("make_estimates", _GENERATOR)
make_estimates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_estimates)


def test_estimates_match_ledger():
    with open(make_estimates.LEDGER) as handle:
        ledger = json.load(handle)
    now = make_estimates.snapshot()
    assert now["forms"] == ledger["forms"]
    # Bit for bit on the OpenBLAS cores that wrote the ledger; elsewhere
    # within the drift measured across cores, per slice.
    exact = now["blas_cores"] == ledger["blas_cores"]
    if exact:
        assert now["weights_sha256"] == ledger["weights_sha256"]
    mismatches = []
    for key, tol_key in (("measures", "cross_core_rel_tol"),
                         ("training", "training_cross_core_rel_tol")):
        tolerance = 0.0 if exact else ledger[tol_key]
        assert sorted(now[key]) == sorted(ledger[key])
        for name, recorded in sorted(ledger[key].items()):
            want, got = float.fromhex(recorded), float.fromhex(now[key][name])
            rel = make_estimates.relative_error(want, got)
            if rel > tolerance:
                ulps = abs(got - want) / math.ulp(want)
                mismatches.append(f"{name}: {got!r} vs ledger {want!r}, "
                                  f"relative error {rel:.3e}, {ulps:.0f} ulp, "
                                  f"tolerance {tolerance:.3e}")
    assert not mismatches, (
        f"cores {now['blas_cores']} vs ledger {ledger['blas_cores']}: " + "; ".join(mismatches)
    )
