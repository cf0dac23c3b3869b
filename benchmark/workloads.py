"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the benchmark seed in
:meth:`prepare`, computes the outputs every operation must reproduce in
:meth:`reference`, and runs one closed-loop operation in :meth:`op`
through the package's public entry points (``training.train``,
``attacks.evaluate_robustness`` and ``cli.main``).  :meth:`check`
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from csib import attacks, cli, conditional, data, dependence, divergences, nn, training

from spans import ORACLE_SUITES

TRAIN_ROWS = 5000
ESTIMATE_ROWS = 4000
FEATURES = 30
VERIFY_SEEDS = 4


def _finite_floats(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_floats(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite_floats(v) for v in obj)
    return True


def _exact(obj):
    """Canonical form in which two outputs are equal only bit for bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    return obj


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.expected = None

    def prepare(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def op(self) -> tuple:
        """Run one operation; return (phase seconds, output)."""
        raise NotImplementedError

    def valid(self, output) -> list:
        return []

    def check(self, output) -> list:
        problems = self.valid(output)
        if self.expected is None:
            self.expected = output
        elif _exact(output) != _exact(self.expected):
            problems.append("output differs from the reference output")
        return problems


class TrainWorkload(Workload):
    """One-epoch ``train`` calls from a fixed initialization."""

    def __init__(self, seed, workdir, smoke, beta: float, attack: bool):
        super().__init__(seed, workdir, smoke)
        self.beta = beta
        self.attack = attack

    def prepare(self):
        rows = 600 if self.smoke else TRAIN_ROWS
        ds = data.gen_synthetic(rows, d=FEATURES, seed=self.seed)
        train_ds, test_ds = data.split(ds, (0.8, 0.2), self.seed)
        self.train_ds = data.minmax_normalize(train_ds)
        self.test_ds = data.minmax_normalize(test_ds, self.train_ds.normalization)
        self.cfg = training.TrainConfig(
            beta=self.beta, epochs=1, batch_size=128, lr=3e-3, sigma_x=0.25,
            sigma_y=0.15, seed=self.seed, encoder_widths=(128, 128, 128),
            decoder_widths=(128,),
        )
        self.model = nn.init_model(FEATURES, encoder_widths=self.cfg.encoder_widths,
                                   decoder_widths=self.cfg.decoder_widths, output_dim=1,
                                   seed=self.seed)

    def reference(self):
        _phases, output = self.op()
        problems = self.valid(output)
        if problems:
            raise RuntimeError(f"reference operation failed: {problems}")
        self.expected = output

    def op(self):
        started = time.perf_counter()
        result = training.train(self.train_ds, self.model.copy(), self.cfg, self.test_ds)
        trained = time.perf_counter()
        output = {"epoch_log": result.epoch_log}
        phases = {"epoch": trained - started}
        if self.attack:
            output["attacks"] = [
                attacks.evaluate_robustness(result.model, self.test_ds.features,
                                            self.test_ds.targets, attacks.AttackConfig(kind=kind))
                for kind in ("fgsm", "pgd")
            ]
            phases["attack"] = time.perf_counter() - trained
        return phases, output

    def valid(self, output):
        problems = []
        if len(output["epoch_log"]) != 1:
            problems.append("expected exactly one epoch record")
        if not _finite_floats(output):
            problems.append("non-finite value in the epoch record or attack reports")
        return problems

    @property
    def train_rows(self) -> int:
        return self.train_ds.rows


def _write_csv(path: str, names: list, columns: np.ndarray) -> None:
    # repr of a float reads back as the identical float64.
    rows = (",".join(map(repr, row)) for row in columns.tolist())
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n" + "\n".join(rows) + "\n")


class EstimateWorkload(Workload):
    """One cycle of ``csib estimate`` over all seven measures."""


    def prepare(self):
        rows = 300 if self.smoke else ESTIMATE_ROWS
        gen = np.random.default_rng(self.seed)
        a = gen.standard_normal((rows, FEATURES))
        b = gen.standard_normal((rows, FEATURES)) * 1.1 + 0.25
        mix = gen.standard_normal((FEATURES, FEATURES)) / math.sqrt(FEATURES)
        t = np.tanh(a @ mix) + 0.5 * gen.standard_normal((rows, FEATURES))
        w = gen.standard_normal(FEATURES) / math.sqrt(FEATURES)
        y = np.sin(a @ w).reshape(-1, 1)
        y_hat = y + 0.1 * gen.standard_normal((rows, 1))
        names = [f"x{i}" for i in range(FEATURES)]
        paths = {k: os.path.join(self.workdir, f"{k}.csv") for k in ("a", "b", "t", "data")}
        _write_csv(paths["a"], names, a)
        _write_csv(paths["b"], names, b)
        _write_csv(paths["t"], [f"t{i}" for i in range(FEATURES)], t)
        _write_csv(paths["data"], names + ["y_hat", "y"], np.hstack([a, y_hat, y]))
        self.arrays = {"a": a, "b": b, "t": t, "y": y, "y_hat": y_hat}
        sx, st, sy = "4.0", "4.0", "0.5"
        self.argv = {
            "cs": [paths["a"], paths["b"], "--sigma-x", sx],
            "mmd": [paths["a"], paths["b"], "--sigma-x", sx],
            "hsic": [paths["a"], paths["t"], "--sigma-x", sx, "--sigma-t", st],
            "csqmi": [paths["a"], paths["t"], "--sigma-x", sx, "--sigma-t", st],
            "conditional-cs": [paths["data"], "--sigma-x", sx, "--sigma-y", sy],
            "nib-bound": [paths["a"], "--noise-sigma", sx],
            "conditional-mmd": [paths["data"], "--sigma-x", sx, "--sigma-y", sy,
                                "--ridge", "0.1"],
        }
        self.widths = (float(sx), float(st), float(sy))

    def reference(self):
        """The estimator functions called directly on the in-memory arrays."""
        arr = self.arrays
        sx, st, sy = self.widths
        batch = conditional.PredictionBatch(arr["a"], arr["y"], arr["y_hat"])
        self.expected = {
            "cs": divergences.empirical_cs(arr["a"], arr["b"], sx),
            "mmd": divergences.empirical_mmd_sq(arr["a"], arr["b"], sx),
            "hsic": dependence.hsic_biased(arr["a"], arr["t"], sx, st),
            "csqmi": dependence.cs_qmi(arr["a"], arr["t"], sx, st),
            "conditional-cs": conditional.conditional_cs(batch, sx, sy),
            "nib-bound": dependence.nib_kde_bound(arr["a"], sx),
            "conditional-mmd": conditional.conditional_mmd(batch, sx, sy, 0.1),
        }
        if not _finite_floats(self.expected):
            raise RuntimeError(f"non-finite reference estimate: {self.expected}")

    def op(self):
        phases, output = {}, {}
        for measure, args in self.argv.items():
            started = time.perf_counter()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["estimate", measure, *args])
            phases[measure] = time.perf_counter() - started
            lines = out.getvalue().splitlines()
            output[measure] = json.loads(lines[-1])["value"] if code == 0 and lines else f"exit {code}"
        return phases, output


class VerifyWorkload(Workload):
    """``csib verify`` over the suites in ``ORACLE_SUITES``, once per derived seed.

    The suites draw their instances from the seed, and the ``forms`` suite
    alone costs 2.0 to 3.4 s depending on it; one operation runs
    ``VERIFY_SEEDS`` seeds so that its time varies less with the benchmark
    seed.
    """

    def prepare(self):
        self.suites = ["theorem1", "forms", "gradcheck"] if self.smoke else list(ORACLE_SUITES)
        count = 1 if self.smoke else VERIFY_SEEDS
        self.seeds = [int(s) for s in np.random.default_rng(self.seed).integers(0, 2**31, count)]
        self.argv = [["verify", *self.suites, "--seed", str(s)] for s in self.seeds]
        if self.smoke:
            self.argv = [argv + ["--trials", "20"] for argv in self.argv]

    def reference(self):
        # Warm-up only: the first measured call becomes the reference,
        # and every later call must print the identical reports.
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "theorem1", "--trials", "5", "--seed", str(self.seeds[0])])

    def op(self):
        started = time.perf_counter()
        output = []
        for argv in self.argv:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            output.append({"exit": code,
                           "reports": [json.loads(l) for l in out.getvalue().splitlines()]})
        phases = {"verify": time.perf_counter() - started}
        return phases, output

    def valid(self, output):
        problems = []
        for seed, call in zip(self.seeds, output):
            if call["exit"] != 0:
                problems.append(f"verify --seed {seed} exited with {call['exit']}")
            if [r.get("check") for r in call["reports"]] != self.suites:
                problems.append(f"verify --seed {seed} did not report every requested suite")
            problems += [f"suite {r.get('check')} failed at seed {seed}"
                         for r in call["reports"] if r.get("pass") is not True]
        return problems


def make(name: str, seed: int, workdir: str, smoke: bool) -> Workload:
    if name == "train-ib":
        w = TrainWorkload(seed, workdir, smoke, beta=0.01, attack=False)
    elif name == "train-plain":
        w = TrainWorkload(seed, workdir, smoke, beta=0.0, attack=True)
    elif name == "estimate":
        w = EstimateWorkload(seed, workdir, smoke)
    elif name == "verify":
        w = VerifyWorkload(seed, workdir, smoke)
    else:
        raise ValueError(f"unknown workload {name!r}")
    w.name = name
    return w

