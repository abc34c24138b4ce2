"""Command line interface: synth | train | eval | rss-check | gradcheck.

Exit codes: 0 on success, 1 for usage errors, 2 for runtime or numeric
failures. All randomness derives from --seed. A run manifest (command,
config, seed, tool, numpy and BLAS versions, inputs' sha256, outputs) is
written before any output artifact; identical flags and inputs produce
byte-identical outputs, with timestamps confined to the manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dataset import (
    MIN_SYNTH_LENGTH,
    _atomic_write,
    generate_synthetic,
    load_csv,
    save_adjacency_csv,
    save_csv,
)
from .decomposition import KINDS
from .exceptions import CheckpointError, PsldError
from .model import MODES, finite_difference_check, load_checkpoint, one_of, save_checkpoint
from .numerics import Rng, blas_provenance
from .sampler import NORM_MODES, SampleDesign, random_graph, unbiasedness_mc_check
from .training import (
    TrainConfig,
    _baseline_plain_mlp,
    _split_stats,
    _train,
    baseline_last_value,
    evaluate,
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


class _UsageError(PsldError):
    """A bad flag, config line or input size: ``main`` exits 1 with ``error: ...``."""


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
        **blas_provenance(),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    with _atomic_write(out_dir / "manifest.json") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def _dump_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# a config file may neither ask for the usage text nor name another config file
_NOT_CONFIG_KEYS = ("help", "config_file")


def _config_tokens(path: str, sub: argparse.ArgumentParser) -> list:
    """Flag tokens for the ``key=value`` lines of a --config file.

    A key names a flag (``l-in``, ``--l-in``) or its field (``l_in``,
    ``n_subgraphs``, ``lam``). A switch takes 1/true/yes/on or
    0/false/no/off; every other value must pass the flag's own type and
    choices, and a value that does not is reported with its file and line.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except OSError as err:
        raise _UsageError(f"cannot read --config file: {err}") from None
    except UnicodeDecodeError as err:
        raise _UsageError(f"--config file {path} is not UTF-8 text ({err.reason})") from None
    tokens = []
    for line_no, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise _UsageError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, value = key.strip(), value.strip()
        name = key.lstrip("-").replace("-", "_")
        option = "--" + name.replace("_", "-")
        action = next((a for a in sub._actions
                       if a.dest == name or option in a.option_strings), None)
        if action is None or action.dest in _NOT_CONFIG_KEYS:
            raise _UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        flag = action.option_strings[-1]
        if action.nargs != 0:
            _check_value(action, value, f"{path}:{line_no}: argument {flag}")
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
        elif value.lower() not in ("0", "false", "no", "off"):
            raise _UsageError(f"{path}:{line_no}: {key} takes 1/true/yes/on or "
                              f"0/false/no/off, got {value!r}")
    return tokens


def _check_value(action: argparse.Action, value: str, where: str) -> None:
    """Parse a config value as argparse would parse the flag, failing with ``where``."""
    try:
        parsed = action.type(value) if action.type else value
    except argparse.ArgumentTypeError as err:
        raise _UsageError(f"{where}: {err}") from None
    except (TypeError, ValueError):
        raise _UsageError(f"{where}: invalid {action.type.__name__} value: {value!r}") from None
    if action.choices is not None and parsed not in action.choices:
        raise _UsageError(f"{where}: must be {one_of(action.choices)}, got {value!r}")


def _split_ratios(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"split must look like 6:2:2, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"split must be numeric, got {text!r}") from None


def cmd_synth(args) -> int:
    if args.nodes < 1:
        raise _UsageError("--nodes must be >= 1")
    if args.length < MIN_SYNTH_LENGTH:
        raise _UsageError(f"--length must be >= {MIN_SYNTH_LENGTH}, got {args.length}")
    if not 0.0 <= args.sigma < math.inf:
        raise _UsageError(f"--sigma must be finite and >= 0, got {args.sigma}")
    out_dir = Path(args.out)
    config = {"nodes": args.nodes, "length": args.length, "sigma": args.sigma,
              "seed": args.seed}
    store = generate_synthetic(args.nodes, args.length, Rng(args.seed),
                               noise_sigma=args.sigma)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = out_dir / "series.csv"
    adjacency = out_dir / "adjacency.csv"
    _write_manifest(out_dir, "synth", config, args.seed, [], [series, adjacency])
    save_csv(store, series)
    save_adjacency_csv(store, adjacency)
    return EXIT_OK


def _train_config_from_args(args) -> TrainConfig:
    """The fields given as flags or config lines; TrainConfig supplies the rest."""
    given = vars(args)
    try:
        return TrainConfig(**{f.name: given[f.name] for f in fields(TrainConfig)
                              if f.name in given})
    except ValueError as err:
        raise _UsageError(str(err)) from None


def cmd_train(args) -> int:
    config = _train_config_from_args(args)
    store = load_csv(args.data, args.adjacency)
    if config.n_subgraphs > store.n_nodes:
        raise _UsageError(
            f"--n-sub {config.n_subgraphs} exceeds the {store.n_nodes} nodes in --data"
        )
    try:
        ranges, stats = _split_stats(store, config, ("train", "val", "test"))
    except ValueError as err:
        raise _UsageError(f"{args.data}: {err}") from None

    out_dir = Path(args.out)
    checkpoint = out_dir / "checkpoint.psld"
    metrics_path = out_dir / "metrics.json"
    epochs_path = out_dir / "epochs.csv"
    inputs = [args.data] + ([args.adjacency] if args.adjacency else [])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        out_dir, "train", config.to_dict(), config.seed, inputs,
        [checkpoint, Path(str(checkpoint) + ".json"), metrics_path, epochs_path],
    )

    params, reports = _train(store, config, ranges, stats)
    test = evaluate(params, store, config, ranges["test"], norm_stats=stats)
    baselines = {"last_value": baseline_last_value(store, config, ranges["test"], stats)}
    if args.baseline_mlp:
        baselines["plain_mlp"] = _baseline_plain_mlp(store, config, ranges, stats)

    metrics = {
        "config": config.to_dict(),
        "epochs": [r.to_dict() for r in reports],
        "test": test,
        "baselines": baselines,
        "seed": config.seed,
    }
    save_checkpoint(checkpoint, params, config.to_dict())
    with _atomic_write(metrics_path) as f:
        json.dump(metrics, f, indent=2)
        f.write("\n")
    with _atomic_write(epochs_path) as f:
        f.write(",".join(metrics["epochs"][0]) + "\n")
        f.writelines(",".join(map(repr, row.values())) + "\n" for row in metrics["epochs"])
    _dump_json(metrics)
    return EXIT_OK


# (TrainConfig field, sidecar model field) pairs a checkpoint sidecar carries twice
_REPEATED_FIELDS = (("decomposer", "kind"), ("mode", "mode"), ("l_in", "l_in"),
                    ("l_out", "l_out"), ("hidden", "hidden"), ("dropout", "dropout"))


def _sidecar_config(path, sidecar: dict) -> TrainConfig:
    """The sidecar's training config, which must agree with its model fields."""
    where = f"checkpoint sidecar {path}.json"
    try:
        config = TrainConfig.from_dict(sidecar["config"])
    except ValueError as err:
        raise CheckpointError(f"{where}: {err}") from None
    for name, key in _REPEATED_FIELDS:
        if getattr(config, name) != sidecar[key]:
            raise CheckpointError(f"{where}: config field {name!r} is {getattr(config, name)!r} "
                                  f"but the model's {key!r} is {sidecar[key]!r}")
    return config


def cmd_eval(args) -> int:
    params, sidecar = load_checkpoint(args.checkpoint)
    config = _sidecar_config(args.checkpoint, sidecar)
    store = load_csv(args.data)
    # a split too short for a window fails here, before a dump file is created
    try:
        ranges, stats = _split_stats(store, config, (args.split,))
    except ValueError as err:
        raise ValueError(f"{args.data}: {err}") from None
    split = ranges[args.split]
    dump = args.dump_predictions
    with _atomic_write(dump) if dump else contextlib.nullcontext() as f:
        sink = _prediction_writer(f, store, config, split[0]) if dump else None
        metrics = evaluate(params, store, config, split, args.denormalize, sink=sink,
                           norm_stats=stats)
    _dump_json({"split": args.split, "mse": metrics["mse"], "mae": metrics["mae"]})
    return EXIT_OK


def _prediction_writer(f, store, config, t0: int):
    """Write the CSV header to f, return an ``evaluate`` sink writing each chunk's rows.

    ``t0`` is the time step of the scored split's first column.
    """
    ids, l_out = store.node_ids, config.l_out
    f.write("t0,node,h,y,y_hat\n")

    def write(w, node, pred, y):
        for w_row, d, y_row, p_row in zip(w.tolist(), node.tolist(), y.tolist(), pred.tolist()):
            prefix = f"{t0 + w_row},{ids[d]},"
            for h in range(l_out):
                f.write(f"{prefix}{h + 1},{y_row[h]!r},{p_row[h]!r}\n")

    return write


def cmd_rss_check(args) -> int:
    if not 0.0 < args.prob <= 1.0:
        raise _UsageError(f"--prob must be in (0, 1], got {args.prob}")
    if args.nodes < 2:
        raise _UsageError("--nodes must be >= 2")
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
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
        raise _UsageError("--n-seeds must be >= 1")
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


# Flags whose spelling is not the TrainConfig field's, and the argparse
# conversion for each field annotation: the defaults and checks are TrainConfig's.
_FLAG_NAMES = {"lam": "--lambda", "n_subgraphs": "--n-sub"}
_FLAG_TYPES = {"int": int, "float": float, "str": str, "tuple": _split_ratios}
_FLAG_CHOICES = {"decomposer": KINDS, "mode": MODES}


def build_parser():
    parser = _Parser(prog="psld", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"psld {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--length", type=int, default=600)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    # an absent training flag stays absent, so TrainConfig's default applies
    p = subs.add_parser("train", help="train on a series CSV",
                        argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True)
    p.add_argument("--adjacency", default=None)
    p.add_argument("--out", required=True)
    for f in fields(TrainConfig):
        p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
                       type=_FLAG_TYPES[f.type], choices=_FLAG_CHOICES.get(f.name))
    p.add_argument("--baseline-mlp", action="store_true", default=False)
    p.add_argument("--config", dest="config_file", default=None)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--denormalize", action="store_true")
    p.add_argument("--dump-predictions", dest="dump_predictions")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("rss-check", help="Monte-Carlo unbiasedness check")
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--prob", type=float, default=0.5)
    p.add_argument("--norm-mode", dest="norm_mode", choices=NORM_MODES,
                   default="target_degree")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rss_check)

    p = subs.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--decomposer", choices=KINDS, default=KINDS[0])
    p.add_argument("--mode", choices=MODES, default=MODES[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-seeds", dest="n_seeds", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)

    return parser, subs.choices


def main(argv=None) -> int:
    """Run one command; the only place an exception becomes an exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config_file", None):
            # file values go first, so a flag on the command line wins
            at = argv.index(args.command) + 1
            argv[at:at] = _config_tokens(args.config_file, commands[args.command])
            args = parser.parse_args(argv)
        # every command has --seed; train leaves it unset for TrainConfig's default
        if getattr(args, "seed", 0) < 0:
            raise _UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except SystemExit as exit_request:
        code = exit_request.code
        return int(code) if code else EXIT_OK
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (PsldError, OSError, ValueError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
