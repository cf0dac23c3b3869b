import json
import math

import numpy as np
import pytest

from csib.cli import EXIT_INFINITY, EXIT_OK, EXIT_USAGE, json_line, main
from csib.data import gen_synthetic, save_csv
from csib.dependence import cs_qmi, hsic_biased
from csib.divergences import empirical_cs
from csib.nn import OptimizerState, init_model, save_checkpoint
from csib.training import InfoPlanePoint


@pytest.fixture
def sample_csv(tmp_path):
    gen = np.random.default_rng(0)
    path = tmp_path / "a.csv"
    data = gen.standard_normal((12, 3))
    path.write_text(
        "u,v,w\n" + "\n".join(",".join(repr(float(c)) for c in row) for row in data) + "\n"
    )
    return str(path), data


@pytest.fixture
def second_csv(tmp_path):
    gen = np.random.default_rng(1)
    path = tmp_path / "b.csv"
    data = gen.standard_normal((12, 3)) * 0.5
    path.write_text(
        "u,v,w\n" + "\n".join(",".join(repr(float(c)) for c in row) for row in data) + "\n"
    )
    return str(path), data


@pytest.fixture
def train_csv(tmp_path):
    ds = gen_synthetic(120, d=4, seed=3)
    path = str(tmp_path / "train.csv")
    save_csv(path, ds, target_col="y")
    return path


def strict_loads(text):
    """json.loads that refuses the non-RFC 8259 tokens NaN and +-Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_identical_files_cs_zero(self, capsys, sample_csv):
        path, _ = sample_csv
        code, out, _ = run_cli(capsys, "estimate", "cs", path, path)
        assert code == EXIT_OK
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["value"] == 0.0

    def test_cs_matches_library(self, capsys, sample_csv, second_csv):
        path_a, a = sample_csv
        path_b, b = second_csv
        code, out, _ = run_cli(capsys, "estimate", "cs", path_a, path_b, "--sigma-x", "0.8")
        assert code == EXIT_OK
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["value"] == empirical_cs(a, b, 0.8)

    def test_hsic_matches_library(self, capsys, sample_csv, second_csv):
        path_a, a = sample_csv
        path_b, b = second_csv
        code, out, _ = run_cli(capsys, "estimate", "hsic", path_a, path_b)
        assert code == EXIT_OK
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["value"] == hsic_biased(a, b, 1.0, 1.0)

    def test_csqmi_matches_library(self, capsys, sample_csv, second_csv):
        path_a, a = sample_csv
        path_b, b = second_csv
        code, out, _ = run_cli(capsys, "estimate", "csqmi", path_a, path_b,
                               "--sigma-x", "1.5", "--sigma-t", "0.7")
        assert code == EXIT_OK
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["value"] == cs_qmi(a, b, 1.5, 0.7)

    def test_missing_file_exit_2(self, capsys, sample_csv):
        path, _ = sample_csv
        code, _, err = run_cli(capsys, "estimate", "cs", path, "/nonexistent.csv")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_infinite_value_exit_3(self, capsys, tmp_path):
        near = tmp_path / "near.csv"
        far = tmp_path / "far.csv"
        near.write_text("u\n0.0\n0.1\n")
        far.write_text("u\n1e7\n1.0000001e7\n")
        code, out, _ = run_cli(capsys, "estimate", "cs", str(near), str(far))
        assert code == EXIT_INFINITY
        assert math.isinf(json.loads(out.strip().splitlines()[-1])["value"])

    def test_infinite_value_strict_json(self, capsys, tmp_path):
        near = tmp_path / "near.csv"
        far = tmp_path / "far.csv"
        near.write_text("u\n0.0\n0.1\n")
        far.write_text("u\n1e7\n1.0000001e7\n")
        code, out, _ = run_cli(capsys, "estimate", "cs", str(near), str(far))
        assert code == EXIT_INFINITY
        line = out.strip().splitlines()[-1]
        assert '"value": 1e999' in line
        assert strict_loads(line)["value"] == math.inf

    def test_conditional_cs_via_columns(self, capsys, tmp_path):
        gen = np.random.default_rng(2)
        rows = ["x0,x1,y,y_hat"]
        for _ in range(10):
            x0, x1, y = (float(v) for v in gen.uniform(0, 1, 3))
            rows.append(f"{x0!r},{x1!r},{y!r},{y + 0.05!r}")
        path = tmp_path / "cond.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "estimate", "conditional-cs", str(path),
                               "--target-col", "y", "--pred-col", "y_hat")
        assert code == EXIT_OK
        assert json.loads(out.strip().splitlines()[-1])["value"] > 0

    def test_nib_bound(self, capsys, sample_csv):
        path, data = sample_csv
        code, out, _ = run_cli(capsys, "estimate", "nib-bound", path, "--noise-sigma", "0.5")
        assert code == EXIT_OK
        from csib.dependence import nib_kde_bound

        assert json.loads(out.strip().splitlines()[-1])["value"] == nib_kde_bound(data, 0.5)

    def test_wrong_file_count(self, capsys, sample_csv):
        path, _ = sample_csv
        code, _, err = run_cli(capsys, "estimate", "cs", path)
        assert code == EXIT_USAGE


class TestTrainSweepAttack:
    def _config(self, tmp_path, **extra):
        cfg = {
            "epochs": 2,
            "batch_size": 16,
            "lr": 0.002,
            "seed": 5,
            "encoder_widths": [8, 6],
            "decoder_widths": [6],
            "fractions": [0.8, 0.2],
            "target_col": "y",
        }
        cfg.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_train_writes_model_and_log(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path)
        model_path = str(tmp_path / "model.json")
        log_path = str(tmp_path / "log.jsonl")
        code, out, _ = run_cli(
            capsys, "train", "--config", cfg_path, "--data", train_csv,
            "--out-model", model_path, "--log", log_path,
        )
        assert code == EXIT_OK
        lines = open(log_path).read().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[-1])
        assert {"epoch", "loss", "pred", "reg", "rmse_train", "rmse_test"} <= set(record)
        payload = json.loads(open(model_path).read())
        assert payload["format"] == "csib-model"
        assert payload["normalization"] is not None

    def test_train_rerun_byte_identical_log(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path)
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        for log in (log_a, log_b):
            code, _, _ = run_cli(
                capsys, "train", "--config", cfg_path, "--data", train_csv,
                "--out-model", str(tmp_path / "m.json"), "--log", str(log),
            )
            assert code == EXIT_OK
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_malformed_config_exit_2(self, capsys, tmp_path, train_csv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"batch_size": 1}))
        code, _, err = run_cli(
            capsys, "train", "--config", str(bad), "--data", train_csv,
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == EXIT_USAGE
        assert "batch_size" in err

    def test_unknown_config_key_exit_2(self, capsys, tmp_path, train_csv):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"momentum": 0.9}))
        code, _, err = run_cli(
            capsys, "train", "--config", str(bad), "--data", train_csv,
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == EXIT_USAGE
        assert "momentum" in err

    def test_sweep_emits_points_with_reference_ratio(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path, beta_grid=[0.0, 0.01, 0.1])
        out_path = tmp_path / "sweep.jsonl"
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--config", cfg_path, "--data", train_csv,
            "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out_path.read_text().strip().splitlines()]
        assert len(lines) == 3
        assert lines[0]["beta"] == 0.0 and lines[0]["r"] == 0.0
        assert all(l["r"] is not None for l in lines)
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("beta,i_xt,i_xt_raw,i_yt_proxy,r,rmse_train,rmse_test")

    def test_sweep_rerun_byte_identical(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path, beta_grid=[0.0, 0.05])
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out_path in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "sweep", "--config", cfg_path, "--data", train_csv,
                "--out", str(out_path),
            )
            assert code == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_train_resume_from_checkpoint(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path)
        first = str(tmp_path / "first.json")
        second = str(tmp_path / "second.json")
        code, _, _ = run_cli(
            capsys, "train", "--config", cfg_path, "--data", train_csv,
            "--out-model", first,
        )
        assert code == EXIT_OK
        code, _, _ = run_cli(
            capsys, "train", "--config", cfg_path, "--data", train_csv,
            "--out-model", second, "--resume", first,
        )
        assert code == EXIT_OK
        first_params = json.loads(open(first).read())["encoder"]
        second_params = json.loads(open(second).read())["encoder"]
        assert first_params != second_params  # training continued

    def test_resume_from_tampered_checkpoint_is_a_usage_error(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path)
        model_path = tmp_path / "model.json"
        model = init_model(4, encoder_widths=(8, 6), decoder_widths=(6,), output_dim=1)
        opt = OptimizerState(kind="adam", step_count=1)
        opt.m["enc0.w"] = opt.v["enc0.w"] = np.zeros((3, 8))  # the parameter is 4 x 8
        save_checkpoint(str(model_path), model, opt)
        code, _, err = run_cli(
            capsys, "train", "--config", cfg_path, "--data", train_csv,
            "--out-model", str(tmp_path / "out.json"), "--resume", str(model_path),
        )
        assert code == EXIT_USAGE
        assert "optimizer moment 'enc0.w'" in err

    def test_attack_report(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path)
        model_path = str(tmp_path / "model.json")
        code, _, _ = run_cli(
            capsys, "train", "--config", cfg_path, "--data", train_csv,
            "--out-model", model_path,
        )
        assert code == EXIT_OK
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "attack", "--model", model_path, "--data", train_csv,
            "--attack", "pgd", "--rho", "0.3", "--alpha", "0.1", "--steps", "5",
            "--out", str(report_path),
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["attack"] == "pgd"
        assert report["params"]["steps"] == 5
        assert report["clean_rmse"] >= 0 and report["attacked_rmse"] >= 0

    def test_attack_zero_epsilon(self, capsys, tmp_path, train_csv):
        cfg_path = self._config(tmp_path)
        model_path = str(tmp_path / "model.json")
        run_cli(capsys, "train", "--config", cfg_path, "--data", train_csv,
                "--out-model", model_path)
        code, out, _ = run_cli(
            capsys, "attack", "--model", model_path, "--data", train_csv,
            "--attack", "fgsm", "--epsilon", "0.0",
        )
        assert code == EXIT_OK
        report = json.loads(out.strip().splitlines()[-1])
        assert report["clean_rmse"] == report["attacked_rmse"]

    def test_attack_wrong_dimension_exit_2(self, capsys, tmp_path, train_csv, sample_csv):
        cfg_path = self._config(tmp_path)
        model_path = str(tmp_path / "model.json")
        run_cli(capsys, "train", "--config", cfg_path, "--data", train_csv,
                "--out-model", model_path)
        other_path, _ = sample_csv
        # sample_csv has no y column at all -> parse error -> exit 2
        code, _, err = run_cli(capsys, "attack", "--model", model_path, "--data", other_path)
        assert code == EXIT_USAGE


class TestVerifyAndDemo:
    def test_verify_forms_small(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "verify", "forms", "--trials", "30")
        assert code == EXIT_OK
        report = json.loads(out.strip().splitlines()[-1])
        assert report["check"] == "forms" and report["pass"]

    def test_verify_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonsense")
        assert code == EXIT_USAGE

    def test_verify_theorem1_reduced(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem1", "--trials", "50")
        assert code == EXIT_OK
        report = json.loads(out.strip().splitlines()[-1])
        assert report["violations"] == 0

    def test_demo_cloud_csv(self, capsys, tmp_path):
        out_path = tmp_path / "cloud.csv"
        code, out, _ = run_cli(capsys, "demo", "cloud", "--out", str(out_path), "--steps", "3")
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "step,d_cs,mmd_sq"
        assert len(lines) == 5  # header + steps+1 records

    def test_demo_unknown_kind(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "demo", "wat", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CSIB_SEED", "123")
        out_path = tmp_path / "cloud.csv"
        code, _, _ = run_cli(capsys, "demo", "cloud", "--out", str(out_path), "--steps", "1")
        assert code == EXIT_OK


class TestJsonLine:
    def test_sweep_point_with_infinite_proxy(self):
        point = InfoPlanePoint(beta=0.0, i_xt=0.5, i_yt_proxy=math.inf, rmse_train=0.0)
        parsed = strict_loads(json_line(point.to_json_dict()))
        assert parsed["i_yt_proxy"] == math.inf
        assert parsed["i_xt"] == 0.5

    def test_negative_infinity_and_nan(self):
        parsed = strict_loads(json_line({"low": -math.inf, "bad": math.nan, "deep": [math.inf]}))
        assert parsed == {"low": -math.inf, "bad": None, "deep": [math.inf]}

    def test_finite_output_unchanged(self):
        obj = {"b": [0.1, 2, None, "inf"], "a": {"x": 1e-300, "y": True}}
        assert json_line(obj) == json.dumps(obj, sort_keys=True)
