"""Span tracing of the csib layers, installed from outside the package.

The tracer wraps module-level functions and rebinds every name under
which a csib module can reach them (``from .kernels import gram`` binds
``gram`` in the importing module too), so one wrapper of
``kernels.pairwise_sqdist`` sees the calls made through ``gram``,
``log_gram`` and ``autodiff.pairwise_sqdist`` alike.  Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` restores every binding.

Each span is ``[group, name, start_ns, end_ns, parent, op, trace_ns,
child_ns, attrs]``.  ``trace_ns`` is time the tracer itself spent
(operand hashing) while the span was open; it is subtracted from the
span's duration so per-layer times exclude the tracer's own work.  Self
time is the net duration minus the net durations of direct children.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# The oracle suites the verify workload runs.  "consistency" is left
# out: its verdict (median errors strictly decreasing over N = 100, 400,
# 1600 with 20 draws each) fails at a few percent of seeds, so a
# benchmark seeded at random would report a failed run for a statistical
# false alarm rather than a wrong output.
ORACLE_SUITES = (
    "theorem1",
    "corollary1",
    "prop5",
    "discrete",
    "cloud",
    "modes",
    "gradcheck",
    "forms",
)

# (module, function, span group).  Spans of one group are added up; a
# span nested inside another span of its own group is not counted twice.
_WRAPPED = (
    ("kernels", "pairwise_sqdist", "kernels.sqdist"),
    ("kernels", "gram", "kernels.gram"),
    ("kernels", "log_gram", "kernels.gram"),
    ("training", "conditional_cs_node", "training.pred_loss"),
    ("training", "normalized_cs_qmi_node", "training.compress_loss"),
    ("training", "cs_ib_loss", "training.loss"),
    ("training", "_info_plane_metrics", "training.eval"),
    ("training", "_rmse", "training.eval"),
    ("autodiff", "backward", "autodiff.backward"),
    ("nn", "build_forward", "nn.forward"),
    ("nn", "predict", "nn.predict"),
    ("nn", "step", "nn.step"),
    ("rng", "uniform", "rng"),
    ("rng", "standard_normal", "rng"),
    ("rng", "permutation", "rng"),
    ("attacks", "fgsm", "attacks.fgsm"),
    ("attacks", "pgd", "attacks.pgd"),
    ("data", "load_csv", "data.load"),
    ("data", "load_matrix", "data.load"),
    ("cli", "main", "cli"),
    ("cli", "_run_suite", "oracle"),
)
# Every public function defined in these modules is wrapped; their
# metric is self time, so time inside kernels is not counted again.
_SELF_TIMED_MODULES = ("divergences", "dependence", "conditional")

# Per-layer metrics: name -> unit.  Order is the order of the report.
PER_LAYER_UNITS = {
    "kernels.sqdist.calls": "count",
    "kernels.sqdist.ms": "ms",
    "kernels.sqdist.mentries": "million",
    "kernels.sqdist.computed_gflop": "GFLOP",
    "kernels.sqdist.computed_mb": "MB",
    "kernels.sqdist.dup_frac": "fraction",
    "kernels.gram.ms": "ms",
    "training.pred_loss.ms": "ms",
    "training.compress_loss.ms": "ms",
    "training.eval.ms": "ms",
    "training.batches": "count",
    "autodiff.backward.ms": "ms",
    "autodiff.nodes": "count",
    "nn.forward.ms": "ms",
    "nn.predict.ms": "ms",
    "nn.step.ms": "ms",
    "rng.ms": "ms",
    "attacks.fgsm.ms": "ms",
    "attacks.pgd.ms": "ms",
    "data.load.ms": "ms",
    "data.load.mb": "MB",
    "divergences.ms": "ms",
    "dependence.ms": "ms",
    "conditional.ms": "ms",
    "cli.self.ms": "ms",
    **{f"oracle.{suite}.ms": "ms" for suite in ORACLE_SUITES},
    "trace.overhead": "ratio",
}

# metric -> (span group, "net" inclusive or "self" time)
_TIMED = {
    "kernels.sqdist.ms": ("kernels.sqdist", "net"),
    "kernels.gram.ms": ("kernels.gram", "self"),
    "training.pred_loss.ms": ("training.pred_loss", "net"),
    "training.compress_loss.ms": ("training.compress_loss", "net"),
    "training.eval.ms": ("training.eval", "net"),
    "autodiff.backward.ms": ("autodiff.backward", "net"),
    "nn.forward.ms": ("nn.forward", "net"),
    "nn.predict.ms": ("nn.predict", "net"),
    "nn.step.ms": ("nn.step", "net"),
    "rng.ms": ("rng", "net"),
    "attacks.fgsm.ms": ("attacks.fgsm", "net"),
    "attacks.pgd.ms": ("attacks.pgd", "net"),
    "data.load.ms": ("data.load", "net"),
    "divergences.ms": ("divergences", "self"),
    "dependence.ms": ("dependence", "self"),
    "conditional.ms": ("conditional", "self"),
    "cli.self.ms": ("cli", "self"),
}

_GROUP, _NAME, _START, _END, _PARENT, _OP, _TRACE, _CHILD, _ATTRS = range(9)


def _digest(a: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    h.update(np.ascontiguousarray(a).data)
    return h.digest()


class Tracer:
    """In-memory span recorder over the csib package's module functions."""

    def __init__(self):
        package = sys.modules["csib"]
        self._modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "csib" or name.startswith("csib."))
        ]
        self._mod = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules}
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._seen: set = set()
        self.nodes = defaultdict(int)
        self._patches: list = []
        targets = list(_WRAPPED)
        for mod_name in _SELF_TIMED_MODULES:
            mod = self._mod[mod_name]
            for name, value in sorted(vars(mod).items()):
                if (callable(value) and not name.startswith("_") and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod.__name__):
                    targets.append((mod_name, name, mod_name))
        for mod_name, func_name, group in targets:
            original = getattr(self._mod[mod_name], func_name)
            wrapper = self._wrapper(original, group, f"{mod_name}.{func_name}")
            for mod in self._modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))
        var_cls = package.autodiff.Var
        var_init = var_cls.__init__

        def counting_init(node, *args, **kwargs):
            self.nodes[self._op] += 1
            var_init(node, *args, **kwargs)

        self._patches.append((var_cls, "__init__", var_init, counting_init))

    # -- installation -----------------------------------------------------
    def install(self, op: int) -> None:
        """Start recording spans for operation ``op``."""
        self._op = op
        self._seen = set()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        self._op = None

    # -- recording --------------------------------------------------------
    def _bookkeeping(self, started_ns: int) -> None:
        spent = time.perf_counter_ns() - started_ns
        for idx in self._stack:
            self.spans[idx][_TRACE] += spent

    def _attrs(self, group: str, args) -> tuple:
        """Span name suffix and computed counts, derived from the operands."""
        if group == "kernels.sqdist":
            started = time.perf_counter_ns()
            a, b = np.asarray(args[0]), np.asarray(args[1])
            a = a.reshape(-1, 1) if a.ndim == 1 else a
            b = b.reshape(-1, 1) if b.ndim == 1 else b
            (n, d), m = a.shape, b.shape[0]
            key = (_digest(a), _digest(b))
            dup = key in self._seen
            self._seen.add(key)
            self._bookkeeping(started)
            # Computed from shapes: one subtract, multiply and add per
            # entry and dimension; operands read once, result written once.
            return "", {"entries": n * m, "flop": 3 * n * m * d,
                        "bytes": 8 * (n * d + m * d + n * m), "dup": int(dup)}
        if group == "data.load":
            return "", {"bytes": os.path.getsize(args[0])}
        if group == "oracle":
            return f".{args[0]}", None
        return "", None

    def _wrapper(self, original, group: str, name: str):
        tracer = self

        def traced(*args, **kwargs):
            suffix, attrs = tracer._attrs(group, args)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(
                [group, name + suffix, time.perf_counter_ns(), 0, parent, tracer._op, 0, 0, attrs]
            )
            tracer._stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                span = tracer.spans[idx]
                span[_END] = time.perf_counter_ns()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent][_CHILD] += span[_END] - span[_START] - span[_TRACE]

        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        return traced

    # -- reporting --------------------------------------------------------
    def op_metrics(self, op: int) -> dict:
        """Per-layer metrics of one traced operation (without overhead)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[_OP] == op]
        net = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        attr_sums = defaultdict(lambda: defaultdict(int))
        for idx, span in spans:
            group = span[_GROUP]
            if group == "oracle":
                group = "oracle." + span[_NAME].rsplit(".", 1)[-1]
            duration = span[_END] - span[_START] - span[_TRACE]
            own[group] += duration - span[_CHILD]
            calls[group] += 1
            if not self._nested_in_group(idx, span[_GROUP]):
                net[group] += duration
            for key, value in (span[_ATTRS] or {}).items():
                attr_sums[group][key] += value
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for metric, (group, kind) in _TIMED.items():
            out[metric] = (net if kind == "net" else own)[group] / 1e6
        for suite in ORACLE_SUITES:
            out[f"oracle.{suite}.ms"] = net[f"oracle.{suite}"] / 1e6
        sq = attr_sums["kernels.sqdist"]
        out["kernels.sqdist.calls"] = float(calls["kernels.sqdist"])
        out["kernels.sqdist.mentries"] = sq["entries"] / 1e6
        out["kernels.sqdist.computed_gflop"] = sq["flop"] / 1e9
        out["kernels.sqdist.computed_mb"] = sq["bytes"] / 1e6
        out["kernels.sqdist.dup_frac"] = sq["dup"] / calls["kernels.sqdist"] if calls["kernels.sqdist"] else 0.0
        out["training.batches"] = float(calls["training.loss"])
        out["autodiff.nodes"] = float(self.nodes[op])
        out["data.load.mb"] = attr_sums["data.load"]["bytes"] / 1e6
        return out

    def _nested_in_group(self, idx: int, group: str) -> bool:
        parent = self.spans[idx][_PARENT]
        while parent >= 0:
            if self.spans[parent][_GROUP] == group:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON array per line."""
        with open(path, "w") as handle:
            handle.write(json.dumps(["group", "name", "start_ns", "end_ns", "parent",
                                     "op", "trace_ns", "child_ns", "attrs"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def median_metrics(per_op: list) -> dict:
    """Median of each per-layer metric over the traced operations."""
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
