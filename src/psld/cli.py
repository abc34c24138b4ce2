"""Command line interface: synth | train | eval | rss-check | gradcheck.

Exit codes: 0 on success, 1 for usage errors, 2 for runtime or numeric
failures. All randomness derives from --seed. A run manifest (command,
resolved config, seed, tool version, input digests, output paths) is
written before any output artifact; identical flags and inputs produce
byte-identical outputs, with timestamps confined to the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dataset import (
    MIN_SYNTH_LENGTH,
    generate_synthetic,
    load_csv,
    save_adjacency_csv,
    save_csv,
    split_ranges,
)
from .exceptions import CheckpointError, NumericError, PsldError
from .model import finite_difference_check, load_checkpoint, save_checkpoint
from .numerics import Rng
from .sampler import NORM_MODES, SampleDesign, random_graph, unbiasedness_mc_check
from .training import (
    TrainConfig,
    _n_rows,
    baseline_last_value,
    baseline_plain_mlp,
    evaluate,
    prepare_store,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

GRADCHECK_TOL = 1e-4
RSS_CHECK_Z_BOUND = 5.0
MIN_RELIABLE_TRIALS = 100


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _runtime_error(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return EXIT_RUNTIME


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    inputs: list, outputs: list) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def _dump_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            values[key.strip()] = raw.strip()
    return values


def _merge_config_file(parser: argparse.ArgumentParser, sub, args, argv):
    """Re-parse argv with config-file values installed beneath the flags."""
    raw = _parse_config_file(args.config_file)
    defaults = {}
    for key, value in raw.items():
        option = "--" + key.lstrip("-").replace("_", "-")
        dest_key = key.lstrip("-").replace("-", "_")
        matched = None
        for action in sub._actions:
            if option in action.option_strings or action.dest == dest_key:
                matched = action
                break
        if matched is None:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(matched, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            defaults[matched.dest] = value.lower() in ("1", "true", "yes", "on")
        elif matched.type is not None:
            defaults[matched.dest] = matched.type(value)
        else:
            defaults[matched.dest] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _split_ratios(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"split must look like 6:2:2, got {text!r}")
    try:
        ratios = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"split must be numeric, got {text!r}") from None
    return ratios


def cmd_synth(args) -> int:
    if args.nodes < 1:
        return _usage_error("--nodes must be >= 1")
    if args.length < MIN_SYNTH_LENGTH:
        return _usage_error(f"--length must be >= {MIN_SYNTH_LENGTH}, got {args.length}")
    if args.sigma < 0:
        return _usage_error("--sigma must be >= 0")
    out_dir = Path(args.out)
    config = {"nodes": args.nodes, "length": args.length, "sigma": args.sigma,
              "seed": args.seed}
    store = generate_synthetic(args.nodes, args.length, Rng(args.seed),
                               noise_sigma=args.sigma)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        series = out_dir / "series.csv"
        adjacency = out_dir / "adjacency.csv"
        _write_manifest(out_dir, "synth", config, args.seed, [], [series, adjacency])
        save_csv(store, series)
        save_adjacency_csv(store, adjacency)
    except OSError as err:
        return _runtime_error(f"cannot write outputs: {err}")
    return EXIT_OK


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(
        l_in=args.l_in, l_out=args.l_out, decomposer=args.decomposer,
        epsilon=args.epsilon, kappa_t=args.kappa_t, kappa_s=args.kappa_s,
        hidden=args.hidden, dropout=args.dropout, lr=args.lr, lam=args.lam,
        epochs=args.epochs, n_subgraphs=args.n_subgraphs, minibatch=args.minibatch,
        seed=args.seed, sigma_floor=args.sigma_floor, mode=args.mode,
        split=args.split,
    )


def cmd_train(args) -> int:
    try:
        config = _train_config_from_args(args)
    except ValueError as err:
        return _usage_error(str(err))
    try:
        store = load_csv(args.data, args.adjacency)
    except (PsldError, OSError) as err:
        return _runtime_error(f"cannot load dataset: {err}")
    if config.n_subgraphs > store.n_nodes:
        return _usage_error(
            f"--n-sub {config.n_subgraphs} exceeds the {store.n_nodes} nodes in --data"
        )
    try:
        ranges = split_ranges(store.l_data, config.split)
        for name in ("train", "val", "test"):
            t0, t1 = ranges[name]
            if (t1 - t0) < config.l_in + config.l_out:
                return _usage_error(
                    f"{name} split has {t1 - t0} timesteps but --l-in/--l-out need "
                    f"{config.l_in + config.l_out}"
                )
    except ValueError as err:
        return _usage_error(str(err))

    out_dir = Path(args.out)
    checkpoint = out_dir / "checkpoint.psld"
    metrics_path = out_dir / "metrics.json"
    epochs_path = out_dir / "epochs.csv"
    inputs = [args.data] + ([args.adjacency] if args.adjacency else [])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(
            out_dir, "train", config.to_dict(), config.seed, inputs,
            [checkpoint, Path(str(checkpoint) + ".json"), metrics_path, epochs_path],
        )
    except OSError as err:
        return _runtime_error(f"cannot write outputs: {err}")

    try:
        params, reports = train(store, config)
        normed, ranges, _ = prepare_store(store, config)
        test = evaluate(params, normed, config, ranges["test"])
        baselines = {"last_value": baseline_last_value(normed, config, ranges["test"])}
        if args.baseline_mlp:
            baselines["plain_mlp"] = baseline_plain_mlp(store, config)
    except NumericError as err:
        return _runtime_error(str(err))

    metrics = {
        "config": config.to_dict(),
        "epochs": [r.to_dict() for r in reports],
        "test": test,
        "baselines": baselines,
        "seed": config.seed,
    }
    try:
        save_checkpoint(checkpoint, params, config.to_dict())
        with open(metrics_path, "w", encoding="utf-8") as f:
            json.dump(metrics, f, indent=2)
            f.write("\n")
        with open(epochs_path, "w", encoding="utf-8") as f:
            f.write("epoch,train_total,train_cbn,train_cpn,val_mse,val_mae\n")
            for r in reports:
                f.write(f"{r.epoch},{r.train_total!r},{r.train_cbn!r},"
                        f"{r.train_cpn!r},{r.val_mse!r},{r.val_mae!r}\n")
    except OSError as err:
        return _runtime_error(f"cannot write outputs: {err}")
    _dump_json(metrics)
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        params, sidecar = load_checkpoint(args.checkpoint)
        try:
            config = TrainConfig.from_dict(sidecar["config"])
        except ValueError as err:
            raise CheckpointError(f"checkpoint sidecar {args.checkpoint}.json: {err}") from None
        store = load_csv(args.data, args.adjacency)
        normed, ranges, stats = prepare_store(store, config)
        split = ranges[args.split]
        _n_rows(normed, config.l_in, config.l_out, split)  # before a dump file is created
    except (PsldError, OSError, KeyError, ValueError) as err:
        return _runtime_error(str(err))
    denorm = stats if args.denormalize else None
    try:
        if args.dump_predictions:
            with open(args.dump_predictions, "w", encoding="utf-8") as f:
                metrics = evaluate(params, normed, config, split, denorm,
                                   sink=_prediction_writer(f, normed, config, split))
        else:
            metrics = evaluate(params, normed, config, split, denorm)
    except (PsldError, ValueError) as err:
        return _runtime_error(str(err))
    except OSError as err:
        return _runtime_error(f"cannot write predictions: {err}")
    _dump_json({"split": args.split, "mse": metrics["mse"], "mae": metrics["mae"]})
    return EXIT_OK


def _prediction_writer(f, store, config, split):
    """Write the CSV header to f, return an ``evaluate`` sink writing each chunk's rows."""
    ids, l_out = store.node_ids, config.l_out
    f.write("t0,node,h,y,y_hat\n")

    def write(lo, pred, y):
        for row, y_row, p_row in zip(range(lo, lo + len(y)), y.tolist(), pred.tolist()):
            w, d = divmod(row, store.n_nodes)
            prefix = f"{split[0] + w},{ids[d]},"
            for h in range(l_out):
                f.write(f"{prefix}{h + 1},{y_row[h]!r},{p_row[h]!r}\n")

    return write


def cmd_rss_check(args) -> int:
    if not 0.0 < args.prob <= 1.0:
        return _usage_error(f"--prob must be in (0, 1], got {args.prob}")
    if args.nodes < 2:
        return _usage_error("--nodes must be >= 2")
    if args.trials < 1:
        return _usage_error("--trials must be >= 1")
    if args.trials < MIN_RELIABLE_TRIALS:
        print(
            f"warning: {args.trials} trials give an unreliable bound; "
            f"use at least {MIN_RELIABLE_TRIALS}",
            file=sys.stderr,
        )
    root = Rng(args.seed)
    graph = random_graph(args.nodes, root.child("graph"), norm_mode=args.norm_mode)
    design = SampleDesign.uniform(args.nodes, args.prob)
    report = unbiasedness_mc_check(graph, design, args.trials, root.child("mc"))
    ok = report.max_z <= RSS_CHECK_Z_BOUND
    _dump_json({
        "nodes": report.n_nodes,
        "trials": report.n_trials,
        "max_rel_err": report.max_rel_err,
        "max_z": report.max_z,
        "pass": ok,
    })
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_gradcheck(args) -> int:
    if args.n_seeds < 1:
        return _usage_error("--n-seeds must be >= 1")
    per_group = {}
    kinks = 0
    for seed in range(args.seed, args.seed + args.n_seeds):
        result = finite_difference_check(args.decomposer, args.mode, seed)
        kinks += result["kinks_skipped"]
        for group, err in result["per_group"].items():
            per_group[group] = max(per_group.get(group, 0.0), err)
    worst = max(per_group.values())
    ok = worst <= GRADCHECK_TOL
    _dump_json({
        "decomposer": args.decomposer,
        "mode": args.mode,
        "seed": args.seed,
        "n_seeds": args.n_seeds,
        "max_rel_err": worst,
        "per_group": per_group,
        "kinks_skipped": kinks,
        "pass": ok,
    })
    return EXIT_OK if ok else EXIT_RUNTIME


def build_parser():
    parser = _Parser(prog="psld", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"psld {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub_map = {}

    p = subs.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--length", type=int, default=600)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    sub_map["synth"] = p

    p = subs.add_parser("train", help="train on a series CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--adjacency")
    p.add_argument("--out", required=True)
    p.add_argument("--l-in", dest="l_in", type=int, default=36)
    p.add_argument("--l-out", dest="l_out", type=int, default=36)
    p.add_argument("--decomposer", choices=("mvd", "stl"), default="mvd")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--kappa-t", dest="kappa_t", type=int, default=25)
    p.add_argument("--kappa-s", dest="kappa_s", type=int, default=7)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--dropout", type=float, default=0.05)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--n-sub", dest="n_subgraphs", type=int, default=24)
    p.add_argument("--minibatch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-floor", dest="sigma_floor", type=float, default=1e-8)
    p.add_argument("--mode", choices=("separate", "merged"), default="separate")
    p.add_argument("--split", type=_split_ratios, default=(0.6, 0.2, 0.2))
    p.add_argument("--baseline-mlp", action="store_true")
    p.add_argument("--config", dest="config_file")
    p.set_defaults(func=cmd_train)
    sub_map["train"] = p

    p = subs.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adjacency")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--denormalize", action="store_true")
    p.add_argument("--dump-predictions", dest="dump_predictions")
    p.set_defaults(func=cmd_eval)
    sub_map["eval"] = p

    p = subs.add_parser("rss-check", help="Monte-Carlo unbiasedness check")
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--prob", type=float, default=0.5)
    p.add_argument("--norm-mode", dest="norm_mode", choices=NORM_MODES,
                   default="target_degree")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rss_check)
    sub_map["rss-check"] = p

    p = subs.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--decomposer", choices=("mvd", "stl"), default="mvd")
    p.add_argument("--mode", choices=("separate", "merged"), default="separate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-seeds", dest="n_seeds", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)
    sub_map["gradcheck"] = p

    return parser, sub_map


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, sub_map = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config_file", None):
            args = _merge_config_file(parser, sub_map[args.command], args, argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return int(code) if code else EXIT_OK
    except ValueError as err:
        return _usage_error(str(err))
    except OSError as err:
        return _usage_error(f"cannot read --config file: {err}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
