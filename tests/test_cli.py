import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psld
from psld import training
from psld.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from psld.model import init_params, save_checkpoint
from psld.numerics import Rng
from test_model import BAD_SIDECARS, MALFORMED, bad_sidecar_checkpoint, malformed_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run_cli(capsys, "synth", "--nodes", "10", "--length", "160",
                         "--seed", "3", "--out", str(out))
    assert code == EXIT_OK
    return out


def run_module(*argv):
    """Run ``python -m psld`` in a child that imports the package under test."""
    package_root = str(Path(psld.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "psld", *argv],
                          capture_output=True, text=True, env=env)


def train_args(dataset, out, *extra):
    return ("train", "--data", str(dataset / "series.csv"),
            "--adjacency", str(dataset / "adjacency.csv"),
            "--out", str(out), "--l-in", "12", "--l-out", "6",
            "--epochs", "2", "--n-sub", "3", "--hidden", "8",
            "--seed", "1", *extra)


class TestSynth:
    def test_writes_manifest_and_data(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, _ = run_cli(capsys, "synth", "--nodes", "5", "--length", "80",
                             "--out", str(out))
        assert code == EXIT_OK
        assert (out / "series.csv").exists()
        assert (out / "adjacency.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 0
        assert str(out / "series.csv") in manifest["outputs"]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run_cli(capsys, "synth", "--nodes", "6", "--length",
                                 "100", "--seed", "9", "--out", str(out))
            assert code == EXIT_OK
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "adjacency.csv").read_bytes() == (b / "adjacency.csv").read_bytes()

    def test_short_length_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--length", "10",
                               "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "--length" in err

    def test_negative_sigma_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--sigma", "-1",
                               "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE


class TestTrain:
    def test_writes_artifacts_and_metrics(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(capsys, *train_args(dataset, out))
        assert code == EXIT_OK
        for name in ("manifest.json", "metrics.json", "epochs.csv",
                     "checkpoint.psld", "checkpoint.psld.json"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert json.loads(stdout) == metrics
        assert metrics["config"]["l_in"] == 12
        assert "last_value" in metrics["baselines"]
        assert len(metrics["epochs"]) == 2

    def test_epochs_csv_matches_metrics(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        metrics = json.loads((out / "metrics.json").read_text())
        lines = (out / "epochs.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_total,train_cbn,train_cpn,val_mse,val_mae"
        assert len(lines) == 1 + len(metrics["epochs"])
        first = lines[1].split(",")
        assert float(first[1]) == metrics["epochs"][0]["train_total"]

    def test_lambda_zero_total_equals_combined(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, *train_args(dataset, out, "--lambda", "0"))
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        for row in metrics["epochs"]:
            assert abs(row["train_total"] - row["train_cbn"]) <= 1e-12

    def test_normalizes_once_per_model(self, dataset, tmp_path, capsys, monkeypatch):
        # train, the test metrics and the plain baseline each normalize once
        calls = []
        real = training.prepare_store

        def counting(store, config):
            calls.append(store.n_nodes)
            return real(store, config)

        monkeypatch.setattr(training, "prepare_store", counting)
        monkeypatch.setattr("psld.cli.prepare_store", counting)
        code, _, _ = run_cli(capsys, *train_args(dataset, tmp_path / "run", "--baseline-mlp"))
        assert code == EXIT_OK
        assert len(calls) == 3

    def test_too_many_subgraphs_is_usage_error(self, dataset, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--data",
                               str(dataset / "series.csv"),
                               "--out", str(tmp_path / "r"),
                               "--n-sub", "99")
        assert code == EXIT_USAGE
        assert "--n-sub" in err

    def test_missing_data_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--data",
                               str(tmp_path / "absent.csv"),
                               "--out", str(tmp_path / "r"))
        assert code == EXIT_RUNTIME
        assert "error" in json.loads(err.strip().splitlines()[-1])

    @pytest.mark.parametrize("edge", ["0,5", "0,0"])
    def test_bad_adjacency_edge_is_runtime_error(self, tmp_path, edge):
        series = tmp_path / "series.csv"
        series.write_text("a,1,2,3,4\nb,5,6,7,8\n")
        adjacency = tmp_path / "adjacency.csv"
        adjacency.write_text(f"0,1\n{edge}\n")
        proc = run_module("train", "--data", str(series), "--adjacency", str(adjacency),
                          "--out", str(tmp_path / "r"))
        assert proc.returncode == EXIT_RUNTIME
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr.strip().splitlines()[-1])["error"]
        assert str(adjacency) in error
        assert "line 2" in error

    def test_missing_config_file_is_usage_error(self, tmp_path):
        missing = tmp_path / "missing.cfg"
        proc = run_module("train", "--data", str(tmp_path / "series.csv"),
                          "--out", str(tmp_path / "r"), "--config", str(missing))
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert str(missing) in proc.stderr

    def test_config_file_merges_beneath_flags(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden = 8\nepochs = 5\n# comment\nl-in = 12\n")
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--data",
                             str(dataset / "series.csv"),
                             "--adjacency", str(dataset / "adjacency.csv"),
                             "--out", str(out), "--l-out", "6",
                             "--epochs", "2", "--n-sub", "3", "--seed", "1",
                             "--config", str(cfg))
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["config"]["hidden"] == 8  # from file
        assert metrics["config"]["epochs"] == 2  # flag wins over file
        assert metrics["config"]["l_in"] == 12


class TestEval:
    def test_reproduces_training_test_metrics(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        metrics = json.loads((out / "metrics.json").read_text())
        code, stdout, _ = run_cli(capsys, "eval", "--checkpoint",
                                  str(out / "checkpoint.psld"),
                                  "--data", str(dataset / "series.csv"))
        assert code == EXIT_OK
        ev = json.loads(stdout)
        assert ev["split"] == "test"
        assert ev["mse"] == metrics["test"]["mse"]
        assert ev["mae"] == metrics["test"]["mae"]

    def test_dump_predictions_row_count(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        preds = tmp_path / "preds.csv"
        code, stdout, _ = run_cli(capsys, "eval", "--checkpoint",
                                  str(out / "checkpoint.psld"),
                                  "--data", str(dataset / "series.csv"),
                                  "--dump-predictions", str(preds))
        assert code == EXIT_OK
        lines = preds.read_text().strip().splitlines()
        assert lines[0] == "t0,node,h,y,y_hat"
        # test split of a length-160 store is 32 steps; with l_in=12,
        # l_out=6 that is 15 windows over 10 nodes and 6 horizon steps
        assert len(lines) - 1 == 15 * 10 * 6
        # y and y_hat are plain numbers that reproduce the printed mse;
        # rows are (window, node) and columns horizon steps, as evaluated
        values = np.array([[float(v) for v in line.split(",")[3:]] for line in lines[1:]])
        y, y_hat = values[:, 0].reshape(-1, 6), values[:, 1].reshape(-1, 6)
        assert float(np.mean((y_hat - y) ** 2)) == json.loads(stdout)["mse"]

    def test_corrupted_checkpoint_is_runtime_error(self, dataset, tmp_path,
                                                   capsys):
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        ckpt = out / "checkpoint.psld"
        raw = bytearray(ckpt.read_bytes())
        raw[:5] = b"WRONG"
        ckpt.write_bytes(bytes(raw))
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                               "--data", str(dataset / "series.csv"))
        assert code == EXIT_RUNTIME
        assert "bad magic" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_checkpoint_is_json_runtime_error(self, tmp_path, capsys, case):
        ckpt = tmp_path / "model.psld"
        message = malformed_checkpoint(ckpt, case)
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                 "--data", str(tmp_path / "unread.csv"))
        assert code == EXIT_RUNTIME
        assert out == ""
        assert message in json.loads(err)["error"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
    def test_bad_sidecar_is_json_runtime_error(self, tmp_path, capsys, case):
        ckpt = tmp_path / "model.psld"
        message = bad_sidecar_checkpoint(ckpt, case)
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                 "--data", str(tmp_path / "unread.csv"))
        assert code == EXIT_RUNTIME
        assert out == ""
        assert message in json.loads(err)["error"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,want", [
        ("l_in", "abc", "config field 'l_in' must be an integer, got 'abc'"),
        ("epochs", None, "config field 'epochs' must be an integer, got None"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
    ])
    def test_mistyped_sidecar_config_is_json_runtime_error(self, tmp_path, key, value, want):
        # run as a process, so any traceback would reach stderr
        ckpt = tmp_path / "model.psld"
        save_checkpoint(ckpt, init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0)), {key: value})
        proc = run_module("eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "unread.csv"))
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == f"checkpoint sidecar {ckpt}.json: {want}"

    def test_split_too_short_creates_no_dump(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        rows = (dataset / "series.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("".join(",".join(r.split(",")[:51]) + "\n" for r in rows))
        preds = tmp_path / "preds.csv"
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(out / "checkpoint.psld"),
                               "--data", str(short), "--dump-predictions", str(preds))
        assert code == EXIT_RUNTIME
        assert "too short" in json.loads(err)["error"]
        assert not preds.exists()

    @pytest.mark.parametrize("denormalize", [False, True])
    def test_dump_predictions_forecasts_once(self, dataset, tmp_path, capsys,
                                             monkeypatch, denormalize):
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        argv = ["eval", "--checkpoint", str(out / "checkpoint.psld"),
                "--data", str(dataset / "series.csv"), "--split", "val"]
        argv += ["--denormalize"] if denormalize else []
        _, plain, _ = run_cli(capsys, *argv)
        passes = []
        real = training._forecast_chunks

        def counted(*args, **kwargs):
            passes.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "_forecast_chunks", counted)
        preds = tmp_path / "preds.csv"
        code, dumped, _ = run_cli(capsys, *argv, "--dump-predictions", str(preds))
        assert code == EXIT_OK
        assert len(passes) == 1
        assert dumped == plain
        # test split: 15 windows over 10 nodes and 6 horizon steps, plus a header
        assert len(preds.read_text().splitlines()) == 15 * 10 * 6 + 1


class TestRssCheck:
    def test_json_schema_and_pass(self, capsys):
        code, stdout, _ = run_cli(capsys, "rss-check", "--nodes", "20",
                                  "--trials", "2000", "--seed", "4")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert set(report) == {"nodes", "trials", "max_rel_err", "max_z",
                               "pass"}
        assert report["pass"] is True
        assert report["max_z"] <= 5.0

    def test_full_inclusion_exact(self, capsys):
        code, stdout, _ = run_cli(capsys, "rss-check", "--prob", "1.0",
                                  "--trials", "50", "--nodes", "10")
        assert code == EXIT_OK
        assert json.loads(stdout)["max_rel_err"] == 0.0

    def test_few_trials_warns_on_stderr(self, capsys):
        code, stdout, err = run_cli(capsys, "rss-check", "--trials", "10",
                                    "--nodes", "8")
        assert code == EXIT_OK
        assert "trials" in err.lower()
        json.loads(stdout)  # stdout stays machine readable

    def test_prob_out_of_range_is_usage_error(self, capsys):
        for bad in ("0", "1.5", "-0.1"):
            code, _, err = run_cli(capsys, "rss-check", "--prob", bad)
            assert code == EXIT_USAGE
            assert "--prob" in err


class TestGradcheck:
    def test_json_schema_and_pass(self, capsys):
        code, stdout, _ = run_cli(capsys, "gradcheck", "--decomposer", "mvd",
                                  "--mode", "merged", "--seed", "2")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["pass"] is True
        assert report["max_rel_err"] <= 1e-4
        assert isinstance(report["per_group"], dict)
        assert report["kinks_skipped"] >= 0

    def test_multiple_seeds_aggregate(self, capsys):
        code, stdout, _ = run_cli(capsys, "gradcheck", "--n-seeds", "3")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["n_seeds"] == 3


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "d"
        proc = run_module("synth", "--nodes", "4", "--length", "70", "--out", str(out))
        assert proc.returncode == 0
        assert (out / "series.csv").exists()

    def test_manifest_written_before_outputs(self, tmp_path, capsys):
        out = tmp_path / "d"
        run_cli(capsys, "synth", "--nodes", "4", "--length", "70",
                "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert "created_utc" in manifest
        assert manifest["config"]["nodes"] == 4
        assert manifest["inputs"] == {}
