import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psld
from psld import cli, training
from psld.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from psld.dataset import _norm_columns, _windows
from psld.exceptions import NumericError
from psld.model import init_params, save_checkpoint
from psld.numerics import Rng, blas_provenance
from psld.training import TrainConfig
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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_is_usage_error(self, tmp_path, capsys, sigma):
        code, _, err = run_cli(capsys, "synth", f"--sigma={sigma}", "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "--sigma must be finite and >= 0" in err
        assert not (tmp_path / "x").exists()


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
        assert lines[1:] == [",".join(map(repr, e.values())) for e in metrics["epochs"]]
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

    def test_scores_as_the_normalized_store_without_normalizing_one(self, dataset, tmp_path,
                                                                     capsys, monkeypatch):
        # train, the test metrics and the plain baseline normalize rows as
        # they gather them, so apply_norm is never called; every figure is
        # the one scored on prepare_store's whole normalized series
        def no_copy(*args):
            raise AssertionError("a normalized copy of the series was made")

        out = tmp_path / "run"
        monkeypatch.setattr(training, "apply_norm", no_copy)
        code, _, _ = run_cli(capsys, *train_args(dataset, out, "--baseline-mlp"))
        assert code == EXIT_OK
        monkeypatch.undo()
        metrics = json.loads((out / "metrics.json").read_text())
        params, sidecar = psld.load_checkpoint(out / "checkpoint.psld")
        config = TrainConfig.from_dict(sidecar["config"])
        store = psld.load_csv(dataset / "series.csv")
        normed, ranges, _ = training.prepare_store(store, config)
        assert metrics["test"] == training.evaluate(params, normed, config, ranges["test"])
        assert metrics["baselines"]["last_value"] == training.baseline_last_value(
            normed, config, ranges["test"])
        best = min(e["val_mse"] for e in metrics["epochs"])
        assert training.evaluate(params, normed, config, ranges["val"])["mse"] == best
        # the plain baseline trained on the normalized series, which the
        # identity stats leave as it is
        identity = psld.NormStats(np.zeros(store.n_nodes), np.ones(store.n_nodes))
        plain = psld.init_plain_params(config.l_in, config.l_out, config.hidden,
                                       config.dropout, Rng(config.seed).child("init"))
        plain, _ = training._fit(plain, normed, config, ranges, identity)
        assert metrics["baselines"]["plain_mlp"] == training.evaluate(plain, normed, config,
                                                                      ranges["test"])

    @pytest.mark.parametrize("extra", [(), ("--baseline-mlp",)], ids=["plain", "baseline-mlp"])
    def test_edges_are_checked_once_per_run(self, dataset, tmp_path, capsys, monkeypatch,
                                            extra):
        # the loader checks the edge array; derived stores share it unchecked
        calls = []
        real = psld.dataset._edge_array

        def counting(edges, n_nodes):
            calls.append(len(edges))
            return real(edges, n_nodes)

        monkeypatch.setattr(psld.dataset, "_edge_array", counting)
        code, _, _ = run_cli(capsys, *train_args(dataset, tmp_path / "run", *extra))
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("extra", [(), ("--baseline-mlp",)], ids=["plain", "baseline-mlp"])
    def test_stats_are_fitted_once_per_run(self, dataset, tmp_path, capsys, monkeypatch, extra):
        # the model, its test metrics and the plain baseline share one fit
        calls = []
        real = training.fit_norm_stats

        def counting(store, t_train):
            calls.append(t_train)
            return real(store, t_train)

        monkeypatch.setattr(training, "fit_norm_stats", counting)
        code, _, _ = run_cli(capsys, *train_args(dataset, tmp_path / "run", *extra))
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_adjacency_changes_no_artifact(self, dataset, tmp_path, capsys):
        # the forecaster is per node: the graph is validated and hashed into
        # the manifest, and the artifacts come out the same without it
        with_graph, without = tmp_path / "with", tmp_path / "without"
        assert run_cli(capsys, *train_args(dataset, with_graph, "--baseline-mlp"))[0] == EXIT_OK
        argv = list(train_args(dataset, without, "--baseline-mlp"))
        at = argv.index("--adjacency")
        del argv[at:at + 2]
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        for name in ("checkpoint.psld", "checkpoint.psld.json", "metrics.json", "epochs.csv"):
            assert (with_graph / name).read_bytes() == (without / name).read_bytes(), name

    def test_too_many_subgraphs_is_usage_error(self, dataset, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--data",
                               str(dataset / "series.csv"),
                               "--out", str(tmp_path / "r"),
                               "--n-sub", "99")
        assert code == EXIT_USAGE
        assert "--n-sub" in err

    def test_split_too_short_is_usage_error_naming_the_split(self, dataset, tmp_path, capsys):
        # 160 steps split 96/32/32
        out = tmp_path / "r"
        code, _, err = run_cli(capsys, "train", "--data", str(dataset / "series.csv"),
                               "--out", str(out), "--l-in", "30", "--l-out", "6",
                               "--n-sub", "3")
        assert code == EXIT_USAGE
        assert err == (f"error: {dataset / 'series.csv'}: val split: series of length 32 "
                       "too short for windows; needs at least 36\n")
        assert not out.exists()

    def test_missing_data_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--data",
                               str(tmp_path / "absent.csv"),
                               "--out", str(tmp_path / "r"))
        assert code == EXIT_RUNTIME
        assert "error" in json.loads(err.strip().splitlines()[-1])

    def test_bad_series_line_names_the_series_file(self, tmp_path, capsys):
        # with both inputs given, the error says which file is malformed
        series, adjacency = tmp_path / "bad.csv", tmp_path / "good.csv"
        series.write_text("a,1,2,3,4\nb,5,6,7\n")
        adjacency.write_text("0,1\n")
        code, out, err = run_cli(capsys, "train", "--data", str(series), "--adjacency",
                                 str(adjacency), "--out", str(tmp_path / "r"))
        assert (code, out) == (EXIT_RUNTIME, "")
        assert json.loads(err)["error"] == f"{series}: line 2: expected 4 values, got 3"

    @pytest.mark.parametrize("edge", ["0,5", "0,0", "0", "0,x", "0,1,x", "0,1,inf", "0,1,2,3"])
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

    @pytest.mark.parametrize("line,flag", [
        ("split=abc", "--split"),
        ("hidden=abc", "--hidden"),
        ("decomposer=foo", "--decomposer"),
    ])
    def test_bad_config_file_value_names_the_flag(self, tmp_path, line, flag):
        # config values go through the flag's own parsing, choices included
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        proc = run_module("train", "--data", str(tmp_path / "unread.csv"),
                          "--out", str(tmp_path / "r"), "--config", str(cfg))
        assert proc.returncode == EXIT_USAGE
        assert f"argument {flag}: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line,want", [
        ("hidden=abc", "argument --hidden: invalid int value: 'abc'"),
        ("decomposer=foo", "argument --decomposer: must be 'mvd' or 'stl', got 'foo'"),
        ("split=abc", "argument --split: split must look like 6:2:2, got 'abc'"),
    ])
    def test_bad_config_file_value_names_file_and_line(self, tmp_path, line, want):
        # the same flag on the command line must not hide which one is wrong
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run\nepochs = 2\n{line}\n")
        proc = run_module("train", "--data", str(tmp_path / "unread.csv"),
                          "--out", str(tmp_path / "r"), "--hidden", "4", "--config", str(cfg))
        assert proc.returncode == EXIT_USAGE
        assert f"error: {cfg}:3: {want}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", ["off", "0", "False"])
    def test_config_switch_false_values(self, dataset, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"baseline_mlp = {value}\n")
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, *train_args(dataset, out, "--config", str(cfg)))
        assert code == EXIT_OK
        assert "plain_mlp" not in json.loads((out / "metrics.json").read_text())["baselines"]

    @pytest.mark.parametrize("value", ["maybe", "ture", ""])
    def test_bad_config_switch_value_is_usage_error(self, tmp_path, value):
        # before, such a line silently trained without the baseline and exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run\nbaseline_mlp = {value}\n")
        proc = run_module("train", "--data", str(tmp_path / "unread.csv"),
                          "--out", str(tmp_path / "r"), "--config", str(cfg))
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert f"error: {cfg}:2: baseline_mlp takes 1/true/yes/on or 0/false/no/off, " \
               f"got {value!r}" in proc.stderr
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("line,key", [
        ("help=yes", "help"),
        ("--help=1", "--help"),
        ("config=other.cfg", "config"),
    ])
    def test_help_and_config_are_not_config_keys(self, tmp_path, capsys, line, key):
        # a config line must neither print the usage and exit 0 without
        # training, nor name a second --config that would never be read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run\n{line}\n")
        code, stdout, err = run_cli(capsys, "train", "--data", str(tmp_path / "unread.csv"),
                                    "--out", str(tmp_path / "r"), "--config", str(cfg))
        assert code == EXIT_USAGE
        assert stdout == ""
        assert f"error: {cfg}:2: unknown config key {key!r}" in err
        assert not (tmp_path / "r").exists()

    def test_config_file_takes_field_names(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("baseline_mlp = true\nn_subgraphs = 2\nlam = 0.5\n")
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--data", str(dataset / "series.csv"),
                             "--out", str(out), "--l-in", "12", "--l-out", "6",
                             "--epochs", "1", "--hidden", "4", "--config", str(cfg))
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["config"]["n_subgraphs"] == 2
        assert metrics["config"]["lambda"] == 0.5
        assert "plain_mlp" in metrics["baselines"]

    def test_command_line_beats_config_file(self, dataset, tmp_path, capsys):
        # the file's tokens go ahead of the command line's, and argparse
        # keeps the last occurrence; no other test pins --split this way
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden = 4\nsplit = 5:2:3\n")
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, *train_args(dataset, out, "--split", "6:2:2",
                                                 "--config", str(cfg)))
        assert code == EXIT_OK
        config = json.loads((out / "metrics.json").read_text())["config"]
        assert config["hidden"] == 8
        assert config["split"] == [6.0, 2.0, 2.0]

    @pytest.mark.parametrize("hidden", ["0", "-3"])
    def test_hidden_below_one_is_usage_error(self, tmp_path, hidden):
        series = tmp_path / "series.csv"
        series.write_text("a,1,2,3,4\nb,5,6,7,8\n")
        proc = run_module("train", "--data", str(series), "--out", str(tmp_path / "r"),
                          "--hidden", hidden)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert f"hidden must be >= 1, got {hidden}" in proc.stderr
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag,value,want", [
        ("--seed", "-1", "seed must be >= 0"),
        ("--split", "nan:1:1", "split needs three finite positive ratios"),
        ("--split", "1:inf:1", "split needs three finite positive ratios"),
        ("--lr", "-1", "lr must be finite and > 0"),
        ("--lr", "0", "lr must be finite and > 0"),
        ("--lr", "nan", "lr must be finite and > 0"),
        ("--lambda", "-0.5", "lam must be finite and >= 0"),
        ("--lambda", "inf", "lam must be finite and >= 0"),
        ("--sigma-floor", "nan", "sigma_floor must be finite and > 0"),
        ("--sigma-floor", "0", "sigma_floor must be finite and > 0"),
    ])
    def test_bad_config_number_is_usage_error_before_any_artifact(self, dataset, tmp_path,
                                                                 capsys, flag, value, want):
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "train", "--data", str(dataset / "series.csv"),
                               "--out", str(out), f"{flag}={value}")
        assert code == EXIT_USAGE
        assert want in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flags,want", [
        # each decomposer's fields are checked whichever decomposer runs
        (("--decomposer", "stl", "--epsilon", "nan"), "epsilon must be finite and > 0, got nan"),
        (("--epsilon", "inf"), "epsilon must be finite and > 0, got inf"),
        (("--kappa-t", "4"), "kappa_t must be odd and >= 1, got 4"),
    ])
    def test_bad_decomposer_field_is_usage_error_before_any_artifact(self, dataset, tmp_path,
                                                                     capsys, flags, want):
        out = tmp_path / "run"
        code, stdout, err = run_cli(capsys, "train", "--data", str(dataset / "series.csv"),
                                    "--out", str(out), *flags)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert want in err
        assert not (out / "manifest.json").exists()

    def test_bare_train_records_train_config_defaults(self, tmp_path, capsys):
        # every field left off the command line takes TrainConfig's default;
        # acceptance 8 checks five of the seventeen
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--nodes", "24", "--length", "360", "--out", str(data))
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--data", str(data / "series.csv"),
                             "--out", str(out))
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == TrainConfig().to_dict()

    @pytest.mark.parametrize("flag", ["--data", "--adjacency"])
    def test_non_utf8_input_is_runtime_error(self, tmp_path, flag):
        series = tmp_path / "series.csv"
        series.write_text("a,1,2,3,4\nb,5,6,7,8\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe0,1\n")
        inputs = (["--data", str(bad)] if flag == "--data"
                  else ["--data", str(series), "--adjacency", str(bad)])
        proc = run_module("train", *inputs, "--out", str(tmp_path / "r"))
        assert proc.returncode == EXIT_RUNTIME
        assert "Traceback" not in proc.stderr
        assert f"{bad}: not UTF-8 text" in json.loads(proc.stderr)["error"]

    def test_non_utf8_config_file_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfehidden=8\n")
        proc = run_module("train", "--data", str(tmp_path / "unread.csv"),
                          "--out", str(tmp_path / "r"), "--config", str(cfg))
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert f"--config file {cfg} is not UTF-8 text" in proc.stderr


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

    @pytest.mark.parametrize("split,t_start", [("val", 96), ("test", 128)])
    def test_dump_rows_are_labelled_with_their_series_values(self, dataset, tmp_path, capsys,
                                                            split, t_start):
        # the labels are checked against the series itself: a row
        # (t0, node, h) holds the normalized value of node at step
        # t0 + l_in + h - 1, with train-split stats (steps 0..95 of 160)
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        preds = tmp_path / "preds.csv"
        code, _, _ = run_cli(capsys, "eval", "--checkpoint", str(out / "checkpoint.psld"),
                             "--data", str(dataset / "series.csv"), "--split", split,
                             "--dump-predictions", str(preds))
        assert code == EXIT_OK
        lines = preds.read_text().splitlines()
        assert lines[0] == "t0,node,h,y,y_hat"
        rows = [line.split(",") for line in lines[1:]]
        series = [line.split(",") for line in (dataset / "series.csv").read_text().splitlines()]
        ids = [r[0] for r in series]
        values = np.array([[float(v) for v in r[1:]] for r in series])
        l_in, l_out, n_win = 12, 6, 32 - 12 - 6 + 1
        want = [(t0, node, h) for t0 in range(t_start, t_start + n_win)
                for node in ids for h in range(1, l_out + 1)]
        assert [(int(t0), node, int(h)) for t0, node, h, _, _ in rows] == want
        mu = values[:, :96].mean(axis=1)
        scale = np.maximum(values[:, :96].std(axis=1), 1e-8)
        at = {node: d for d, node in enumerate(ids)}
        for (t0, node, h), (_, _, _, y, _) in zip(want, rows):
            d = at[node]
            normed = (values[d, t0 + l_in + h - 1] - mu[d]) / scale[d]
            assert float(y).hex() == normed.hex(), (t0, node, h)

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
        ("l_in", "abc", "l_in must be an integer, got 'abc'"),
        ("epochs", None, "epochs must be an integer, got None"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("splitt", [0.5, 0.1, 0.4], "unknown config field 'splitt'"),
    ])
    def test_mistyped_sidecar_config_is_json_runtime_error(self, tmp_path, key, value, want):
        # run as a process, so any traceback would reach stderr
        ckpt = tmp_path / "model.psld"
        save_checkpoint(ckpt, init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0)), {key: value})
        proc = run_module("eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "unread.csv"))
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == f"checkpoint sidecar {ckpt}.json: {want}"

    @pytest.mark.parametrize("field,value,model_key,model_value", [
        ("decomposer", "stl", "kind", "'mvd'"),
        ("mode", "merged", "mode", "'separate'"),
        ("l_in", 5, "l_in", "4"),
        ("l_out", 6, "l_out", "2"),
        ("hidden", 16, "hidden", "4"),
        ("dropout", 0.1, "dropout", "0.0"),
    ])
    def test_sidecar_config_must_match_model(self, tmp_path, capsys, field, value,
                                             model_key, model_value):
        ckpt = tmp_path / "model.psld"
        config = TrainConfig(l_in=4, l_out=2, hidden=4, dropout=0.0).to_dict()
        save_checkpoint(ckpt, init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0)),
                        {**config, field: value})
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                 "--data", str(tmp_path / "unread.csv"))
        assert code == EXIT_RUNTIME
        assert out == ""
        assert json.loads(err)["error"] == (
            f"checkpoint sidecar {ckpt}.json: config field {field!r} is {value!r} "
            f"but the model's {model_key!r} is {model_value}")

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
        assert json.loads(err)["error"].startswith(f"{short}: test split: series of length ")
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

    @pytest.mark.parametrize("split", ["val", "test"])
    @pytest.mark.parametrize("denormalize", [False, True])
    def test_scores_and_dumps_as_the_normalized_store(self, dataset, tmp_path, capsys,
                                                      monkeypatch, split, denormalize):
        # no normalized copy is made: the split's rows are normalized as they
        # are gathered, and score and dump as the whole normalized series
        # does, bit for bit, t0 absolute; in raw units, the forecast is that
        # one mapped back by its node's stats and the truth is the series'
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        params, sidecar = psld.load_checkpoint(out / "checkpoint.psld")
        config = TrainConfig.from_dict(sidecar["config"])
        series = psld.load_csv(dataset / "series.csv")
        normed, ranges, stats = training.prepare_store(series, config)
        mu, scale = _norm_columns(stats, series.n_nodes, config.sigma_floor)
        t0, t1 = ranges[split]
        truth = _windows(series.values[:, t0:t1], config.l_in, config.l_out)[1]
        want, errors = tmp_path / "want.csv", []
        with open(want, "w") as f:
            write = cli._prediction_writer(f, normed, config, t0)

            def sink(w, node, pred, y):
                if denormalize:
                    pred, y = pred * scale[node] + mu[node], truth[node, w]
                    errors.append(pred - y)
                write(w, node, pred, y)

            metrics = training.evaluate(params, normed, config, ranges[split], sink=sink)
        if denormalize:
            err = np.concatenate(errors)
            metrics = {"mse": float(np.mean(err ** 2)), "mae": float(np.mean(np.abs(err)))}

        def no_copy(*args):
            raise AssertionError("a normalized copy of the series was made")

        monkeypatch.setattr(training, "apply_norm", no_copy)
        preds = tmp_path / "preds.csv"
        code, stdout, _ = run_cli(capsys, "eval", "--checkpoint", str(out / "checkpoint.psld"),
                                  "--data", str(dataset / "series.csv"), "--split", split,
                                  "--dump-predictions", str(preds),
                                  *(["--denormalize"] if denormalize else []))
        assert code == EXIT_OK
        # in raw units the metrics are np.mean over the dump's errors, which
        # the printed chunk-ordered sums agree with within a few ulps
        printed = json.loads(stdout)
        assert printed.pop("split") == split
        assert printed == (pytest.approx(metrics, rel=1e-12) if denormalize else metrics)
        assert preds.read_bytes() == want.read_bytes()
        starts = {int(line.split(",")[0]) for line in want.read_text().splitlines()[1:]}
        assert starts == set(range(t0, t1 - 12 - 6 + 1))

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_denormalized_dump_is_the_input_series(self, dataset, tmp_path, capsys, split):
        # each dumped y is the value load_csv reads at (node, t0 + l_in + h - 1),
        # to the bit, and the printed metrics, chunk-ordered sums, are
        # np.mean over y_hat - y within a few ulps
        out = tmp_path / "run"
        run_cli(capsys, *train_args(dataset, out))
        preds = tmp_path / "preds.csv"
        code, stdout, _ = run_cli(capsys, "eval", "--checkpoint", str(out / "checkpoint.psld"),
                                  "--data", str(dataset / "series.csv"), "--split", split,
                                  "--denormalize", "--dump-predictions", str(preds))
        assert code == EXIT_OK
        series = psld.load_csv(dataset / "series.csv")
        node_at = {node_id: d for d, node_id in enumerate(series.node_ids)}
        rows = [line.split(",") for line in preds.read_text().splitlines()[1:]]
        assert len(rows) > 0
        d = np.array([node_at[r[1]] for r in rows])
        t = np.array([int(r[0]) + 12 + int(r[2]) - 1 for r in rows])
        y, y_hat = (np.array([float(r[k]) for r in rows]) for k in (3, 4))
        assert np.array_equal(y.view(np.uint64), series.values[d, t].view(np.uint64))
        err = y_hat - y
        printed = json.loads(stdout)
        assert printed.pop("split") == split
        assert printed == pytest.approx({"mse": float(np.mean(err ** 2)),
                                         "mae": float(np.mean(np.abs(err)))}, rel=1e-12)


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

    @pytest.mark.parametrize("command", ["synth", "train", "rss-check", "gradcheck"])
    def test_negative_seed_is_usage_error_naming_the_flag(self, tmp_path, capsys, command):
        argv = {"synth": ["--out", str(tmp_path / "d")],
                "train": ["--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r")]}
        code, out, err = run_cli(capsys, command, *argv.get(command, []), "--seed", "-1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --seed must be >= 0, got -1\n")
        assert not any(tmp_path.iterdir())

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

    def test_manifest_names_numpy_and_its_blas(self, dataset, tmp_path, capsys):
        # the BLAS build, core and thread count can move the last bits of
        # an artifact, so the manifests name them; metrics.json and the
        # checkpoint's sidecar do not, so their bytes do not depend on them
        blas = blas_provenance()
        run = tmp_path / "run"
        assert run_cli(capsys, *train_args(dataset, run))[0] == EXIT_OK
        for out in (dataset, run):
            manifest = json.loads((out / "manifest.json").read_text())
            assert {k: manifest[k] for k in blas} == blas
        for name in ("metrics.json", "checkpoint.psld.json"):
            assert not blas.keys() & json.loads((run / name).read_text()).keys(), name


def _raise_numeric(*args, **kwargs):
    raise NumericError("non-finite loss in combinator head 'cbn'")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 10-node dataset, a copy too short for its windows, a plain file, a checkpoint."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["synth", "--nodes", "10", "--length", "160", "--seed", "3",
                 "--out", str(root / "data")]) == EXIT_OK
    assert main(["train", "--data", str(root / "data" / "series.csv"), "--out", str(root / "run"),
                 "--l-in", "12", "--l-out", "6", "--epochs", "1", "--n-sub", "3",
                 "--hidden", "4"]) == EXIT_OK
    (root / "file").write_text("")
    rows = (root / "data" / "series.csv").read_text().splitlines()
    (root / "short.csv").write_text("".join(",".join(r.split(",")[:51]) + "\n" for r in rows))
    return {"data": root / "data", "file": root / "file", "short": root / "short.csv",
            "ckpt": root / "run" / "checkpoint.psld"}


SMALL = "--data {data}/series.csv --l-in 12 --l-out 6 --epochs 1 --n-sub 3 --hidden 4"
CKPT = "--checkpoint {ckpt} --data {data}/series.csv"

# (command line, exit code, where the output goes, cli attributes to patch).
# Output: "out" is JSON on stdout, "json" a JSON error on stderr, "usage" an
# "error: ..." line on stderr, "argparse" the parser's usage message, "" none.
EXIT_PATHS = [
    ("synth --nodes 4 --length 70 --out {tmp}/d", EXIT_OK, "", {}),
    ("synth --nodes 0 --out {tmp}/d", EXIT_USAGE, "usage", {}),
    ("synth --length 10 --out {tmp}/d", EXIT_USAGE, "usage", {}),
    ("synth --sigma -1 --out {tmp}/d", EXIT_USAGE, "usage", {}),
    ("synth --nodes 4 --length 70 --out {file}/d", EXIT_RUNTIME, "json", {}),
    ("synth --nodes x --out {tmp}/d", EXIT_USAGE, "argparse", {}),
    ("synth --seed -1 --out {tmp}/d", EXIT_USAGE, "usage", {}),
    (f"train {SMALL} --out {{tmp}}/r", EXIT_OK, "out", {}),
    (f"train {SMALL} --out {{tmp}}/r --dropout 1", EXIT_USAGE, "usage", {}),
    (f"train {SMALL} --out {{tmp}}/r --mode wide", EXIT_USAGE, "argparse", {}),
    (f"train {SMALL} --out {{tmp}}/r --config {{tmp}}/absent.cfg", EXIT_USAGE, "usage", {}),
    ("train --data {tmp}/absent.csv --out {tmp}/r", EXIT_RUNTIME, "json", {}),
    (f"train {SMALL} --adjacency {{data}}/series.csv --out {{tmp}}/r", EXIT_RUNTIME, "json", {}),
    (f"train {SMALL} --out {{tmp}}/r --n-sub 11", EXIT_USAGE, "usage", {}),
    (f"train {SMALL} --out {{tmp}}/r --split 1:1:1000", EXIT_USAGE, "usage", {}),
    (f"train {SMALL} --out {{tmp}}/r --l-in 40", EXIT_USAGE, "usage", {}),
    (f"train {SMALL} --out {{file}}/r", EXIT_RUNTIME, "json", {}),
    (f"train {SMALL} --out {{tmp}}/r", EXIT_RUNTIME, "json", {"_train": _raise_numeric}),
    (f"eval {CKPT}", EXIT_OK, "out", {}),
    (f"eval {CKPT} --dump-predictions {{tmp}}/p.csv --denormalize", EXIT_OK, "out", {}),
    (f"eval {CKPT} --adjacency {{data}}/adjacency.csv", EXIT_USAGE, "argparse", {}),
    ("eval --checkpoint {tmp}/absent.psld --data {data}/series.csv", EXIT_RUNTIME, "json", {}),
    ("eval --checkpoint {data}/series.csv --data {data}/series.csv", EXIT_RUNTIME, "json", {}),
    ("eval --checkpoint {ckpt} --data {tmp}/absent.csv", EXIT_RUNTIME, "json", {}),
    (f"eval {CKPT} --dump-predictions {{tmp}}/absent/p.csv", EXIT_RUNTIME, "json", {}),
    ("eval --checkpoint {ckpt} --data {short}", EXIT_RUNTIME, "json", {}),
    ("eval --checkpoint {ckpt}", EXIT_USAGE, "argparse", {}),
    ("rss-check --nodes 10 --trials 200", EXIT_OK, "out", {}),
    ("rss-check --nodes 10 --trials 200", EXIT_RUNTIME, "out", {"RSS_CHECK_Z_BOUND": -1.0}),
    ("rss-check --prob 0", EXIT_USAGE, "usage", {}),
    ("rss-check --nodes 1", EXIT_USAGE, "usage", {}),
    ("rss-check --trials 0", EXIT_USAGE, "usage", {}),
    ("rss-check --seed -1", EXIT_USAGE, "usage", {}),
    ("gradcheck", EXIT_OK, "out", {}),
    ("gradcheck", EXIT_RUNTIME, "out", {"GRADCHECK_TOL": -1.0}),
    ("gradcheck --n-seeds 0", EXIT_USAGE, "usage", {}),
    ("gradcheck --seed -1", EXIT_USAGE, "usage", {}),
    ("gradcheck --decomposer fft", EXIT_USAGE, "argparse", {}),
    ("", EXIT_USAGE, "argparse", {}),
    ("frobnicate", EXIT_USAGE, "argparse", {}),
]


@pytest.mark.parametrize("argv,code,stream,patches", EXIT_PATHS,
                         ids=[(a or "(none)") + "".join(f" [{name}]" for name in p)
                              for a, _, _, p in EXIT_PATHS])
def test_exit_paths(trained, tmp_path, capsys, monkeypatch, argv, code, stream, patches):
    for name, value in patches.items():
        monkeypatch.setattr(cli, name, value)
    paths = {key: str(value) for key, value in trained.items()}
    got, out, err = run_cli(capsys, *(token.format(tmp=tmp_path, **paths)
                                      for token in argv.split()))
    assert got == code
    if stream == "out":
        json.loads(out)
        assert err == ""
    else:
        assert out == ""
    if stream == "json":
        assert set(json.loads(err)) == {"error"}
    elif stream == "usage":
        assert err.startswith("error: ") and err.count("\n") == 1
    elif stream == "argparse":
        assert err.startswith("usage: psld") and ": error: " in err
    elif stream == "":
        assert err == ""
