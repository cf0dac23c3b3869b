"""csib benchmark: one closed-loop workload per process.

    python3 benchmark/run.py --workload train-ib --seed 1 --seconds 20 --trace 0

A single client runs one operation after another, each starting when
the previous one has finished, for ``--seconds`` seconds; every output
is checked.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` operations alternate between
untraced and traced, and it reports the per-layer metrics of the traced
ones, the tracing overhead, and whether traced outputs matched the
untraced ones bit for bit.  Earlier stdout lines carry a run header
(machine, library versions, BLAS) and a summary with the
workload-specific timings.  ``--workload all`` runs every workload,
each in its own fresh process.  ``--smoke`` shrinks the inputs and stops
after two operations, for the benchmark's own tests.

The package is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 before printing a result.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train-ib", "train-plain", "estimate", "verify")
SETUP_REPEATS = 3
SMOKE_OPS = 2
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "op_ms.p50": "ms",
}


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "csib", "__init__.py")):
        print(f"error: no csib package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import csib

    if not os.path.abspath(csib.__file__).startswith(SRC + os.sep):
        print(f"error: csib was imported from {csib.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _read_first(path: str, prefix: str = ""):
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    libs = set()
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "csib")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def header(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "loop": "closed, one client, no thread or process pool",
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _p90(values):
    """90th percentile, only when at least ten samples lie beyond it."""
    if len(values) - math.ceil(0.9 * len(values)) < 10:
        return None
    return statistics.quantiles(values, n=10)[-1]


def summary(workload, ops: list, setup: dict) -> dict:
    """Workload-specific timings under the names users know them by."""
    plain = [o for o in ops if not o["traced"]]

    def phase(key):
        return [o["phases"][key] for o in plain if key in o["phases"]]

    out = {"ops": len(ops), "untraced_ops": len(plain),
           "fail_frac": sum(1 for o in ops if o["problems"]) / len(ops), **setup}
    if workload.name.startswith("train"):
        epochs = phase("epoch")
        out["epoch_ms.p50"] = _median(epochs, 1e3)
        p90 = _p90(epochs)
        out["epoch_ms.p90"] = p90 * 1e3 if p90 is not None else None
        out["train_rows_per_s"] = workload.train_rows / _median(epochs) if epochs else None
        if workload.attack:
            out["attack_ms.p50"] = _median(phase("attack"), 1e3)
    elif workload.name == "estimate":
        out["estimate_cycle_s.p50"] = _median([o["seconds"] for o in plain])
        out["measure_s.p50"] = {m: _median(phase(m)) for m in workload.argv}
    elif workload.name == "verify":
        out["verify_s.p50"] = _median(phase("verify"))
    return out


def run_workload(args) -> int:
    _import_package()
    import spans
    import workloads

    import_s = time.perf_counter() - _STARTED
    print(json.dumps({"header": header(args)}), flush=True)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir, args.smoke)
        prepare = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.prepare()
            prepare.append(time.perf_counter() - started)
        started = time.perf_counter()
        workload.reference()
        reference_s = time.perf_counter() - started
        setup = {"import_s": import_s, "prepare_s": _median(prepare), "reference_s": reference_s}
        setup_s = sum(setup.values())
        tracer = spans.Tracer() if args.trace else None
        ops = _closed_loop(workload, tracer, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in ops if o["problems"])
    info = summary(workload, ops, setup)
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (len(ops) - failed) / len(ops),
            "op_ms.p50": _median([o["seconds"] for o in ops], 1e3),
        }
        units = END_TO_END_UNITS
    else:
        traced = [o for o in ops if o["traced"]]
        metrics = spans.median_metrics([tracer.op_metrics(o["index"]) for o in traced])
        metrics["trace.overhead"] = (_median([o["seconds"] for o in traced])
                                     / _median([o["seconds"] for o in ops if not o["traced"]]))
        units = spans.PER_LAYER_UNITS
        info["traced_ops"] = len(traced)
        info["traced_outputs_match"] = not any(o["problems"] for o in traced)
        info["trace_file"] = os.path.relpath(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"), ROOT)
        tracer.write(os.path.join(ROOT, info["trace_file"]))
    print(json.dumps({"summary": info}), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0


def _closed_loop(workload, tracer, args) -> list:
    """Run operations back to back until the time is up; check each one.

    When tracing, even operations run untraced and odd ones traced, and
    the loop runs on until it has at least one of each.
    """
    ops = []
    loop_started = time.perf_counter()
    while True:
        index = len(ops)
        enough = index >= (2 if tracer else 1)
        if enough and (time.perf_counter() - loop_started >= args.seconds
                       or (args.smoke and index >= SMOKE_OPS)):
            return ops
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
        started = time.perf_counter()
        try:
            phases, output = workload.op()
        except Exception as exc:  # a failing operation is counted, and the loop goes on
            traceback.print_exc()
            phases, output, problems = {}, None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        finally:
            seconds = time.perf_counter() - started
            if traced:
                tracer.uninstall()
        if problems is None:
            problems = workload.check(output)
        for problem in problems:
            print(f"op {index}: {problem}", file=sys.stderr)
        ops.append({"index": index, "traced": traced, "seconds": seconds,
                    "phases": phases, "problems": problems})


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and at most two operations")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
