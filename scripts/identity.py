"""Byte-identity harness: sha256 of every artifact of a fixed set of psld runs.

Usage:
    python scripts/identity.py --out A.json [--threads 2] [--src DIR]
    python scripts/identity.py --compare A.json B.json

The first form runs each command of the matrix below in a child process
under ``OPENBLAS_NUM_THREADS=--threads``, importing psld from ``--src``
(default: this checkout's ``src``), and writes one JSON object mapping each
artifact to its sha256. Artifacts are every file a command writes, bar
``manifest.json`` (it holds paths and a timestamp), and every command's
stdout (``<run>/stdout``), which carries the eval and gradcheck JSON. The
matrix, on one 64-node ``psld synth`` series (seed 3) and its adjacency:

- ``psld train`` for mvd/stl x separate/merged, seed 3, 3 epochs,
  ``--baseline-mlp``; stl/merged again with ``--kappa-t 131 --kappa-s 9``;
  mvd/separate again with ``--n-sub 1``, whose 2048-row steps run as two
  equal row blocks (``training.STEP_ROWS``); and mvd/separate with
  ``--n-sub 1 --minibatch 47``, whose 3008-row steps run as uneven blocks
  of 1002, 1003 and 1003 rows;
- ``psld eval`` of each of those checkpoints on val and test, with and
  without ``--denormalize``, each with ``--dump-predictions``;
- ``psld eval --dump-predictions`` of the mvd/separate checkpoint on the
  test split of a second 64-node series, ``psld synth --length 700``
  (seed 3): its 4,416 rows run as 9 uneven scoring chunks of 490 and 491
  rows (``training.EVAL_CHUNK_ROWS``), where the first series' 3,136 rows
  run as 7 equal chunks of 448;
- ``psld gradcheck --n-seeds 20`` for each decomposer/mode pair;
- ``psld rss-check`` with its defaults, with ``--norm-mode symmetric_sqrt``,
  with ``--norm-mode unit`` and with ``--prob 1.0``;
- on a 1024-node ``psld synth`` series (seed 0, no adjacency), the
  benchmark's ``train-large`` shape: ``psld train`` mvd/separate, seed 0,
  2 epochs, whose steps run as row blocks, and ``psld eval`` of its val
  split with ``--dump-predictions``.

The JSON also names, under ``openblas_core``, the OpenBLAS core the runs
used (``scripts/blas_core.py``): float64 products, so artifact bytes, can
differ between cores, and that key is not an artifact.

To check that a change keeps every byte, run the first form once with
``--src`` at the parent's source and once at the change's, then compare.
``--compare`` prints every artifact whose digest differs or that only one
file has, then one line counting them by kind (checkpoint, metrics.json or
epochs.csv, prediction dump, stdout, other), and exits 1 if there is any;
else it prints the count and exits 0. When both files name their core and
the two differ, it first prints a note naming both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_CORE = Path(__file__).resolve().with_name("blas_core.py")
CORE_KEY = "openblas_core"
COMBOS = [(kind, mode) for kind in ("mvd", "stl") for mode in ("separate", "merged")]
TRAIN_ARGS = ("--seed", "3", "--epochs", "3", "--baseline-mlp")
RSS_CHECKS = {"default": [], "symmetric-sqrt": ["--norm-mode", "symmetric_sqrt"],
              "unit": ["--norm-mode", "unit"], "prob-1": ["--prob", "1.0"]}


def _run(argv: list, src: Path, threads: int) -> bytes:
    """The stdout of ``python ARGV``, run as every command of the matrix runs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                          check=True).stdout


def _psld(args: list, out: Path, src: Path, threads: int) -> None:
    """Run ``python -m psld ARGS`` with its stdout saved to ``out/stdout``."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "stdout").write_bytes(_run(["-m", "psld", *args], src, threads))


def run_matrix(work: Path, src: Path, threads: int) -> None:
    data = work / "data"
    _psld(["synth", "--nodes", "64", "--seed", "3", "--out", str(data)], data, src, threads)
    series, adjacency = str(data / "series.csv"), str(data / "adjacency.csv")
    runs = {f"{kind}-{mode}": ["--decomposer", kind, "--mode", mode] for kind, mode in COMBOS}
    runs["stl-merged-wide-kernel"] = runs["stl-merged"] + ["--kappa-t", "131", "--kappa-s", "9"]
    runs["mvd-separate-one-subgraph"] = runs["mvd-separate"] + ["--n-sub", "1"]
    runs["mvd-separate-uneven-blocks"] = runs["mvd-separate"] + ["--n-sub", "1",
                                                                 "--minibatch", "47"]
    for name, flags in runs.items():
        run = work / name
        _psld(["train", "--data", series, "--adjacency", adjacency, "--out", str(run),
               *TRAIN_ARGS, *flags], run, src, threads)
        for split in ("val", "test"):
            for scale in ([], ["--denormalize"]):
                out = run / f"eval-{split}{'-denormalize' if scale else ''}"
                _psld(["eval", "--checkpoint", str(run / "checkpoint.psld"), "--data", series,
                       "--split", split, *scale,
                       "--dump-predictions", str(out / "predictions.csv")], out, src, threads)
    uneven = work / "data-700"
    _psld(["synth", "--nodes", "64", "--length", "700", "--seed", "3", "--out", str(uneven)],
          uneven, src, threads)
    out = work / "mvd-separate" / "eval-test-uneven-chunks"
    _psld(["eval", "--checkpoint", str(work / "mvd-separate" / "checkpoint.psld"), "--data",
           str(uneven / "series.csv"), "--dump-predictions", str(out / "predictions.csv")],
          out, src, threads)
    for kind, mode in COMBOS:
        _psld(["gradcheck", "--decomposer", kind, "--mode", mode, "--n-seeds", "20"],
              work / f"gradcheck-{kind}-{mode}", src, threads)
    for name, flags in RSS_CHECKS.items():
        _psld(["rss-check", *flags], work / f"rss-check-{name}", src, threads)
    large = work / "data-1024"
    _psld(["synth", "--nodes", "1024", "--seed", "0", "--out", str(large)], large, src, threads)
    run = work / "mvd-separate-1024"
    _psld(["train", "--data", str(large / "series.csv"), "--out", str(run),
           "--seed", "0", "--epochs", "2"], run, src, threads)
    out = run / "eval-val"
    _psld(["eval", "--checkpoint", str(run / "checkpoint.psld"), "--data",
           str(large / "series.csv"), "--split", "val",
           "--dump-predictions", str(out / "predictions.csv")], out, src, threads)


def digests(root: Path) -> dict:
    """sha256 of every file under root but manifests, by its path relative to root."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def compare(a: dict, b: dict) -> list:
    """Names of the artifacts whose digest differs or that only one side has."""
    return [name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]


# The kind the --compare summary counts an artifact under, by its file name;
# any other file is "other"
KIND_OF = {"checkpoint.psld": "checkpoint", "checkpoint.psld.json": "checkpoint",
           "metrics.json": "metrics.json/epochs.csv", "epochs.csv": "metrics.json/epochs.csv",
           "predictions.csv": "prediction dump", "stdout": "stdout"}
KINDS = ("checkpoint", "metrics.json/epochs.csv", "prediction dump", "stdout", "other")


def kind(name: str) -> str:
    return KIND_OF.get(name.rsplit("/", 1)[-1], "other")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path, help="write the digests of one run to this JSON")
    action.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--threads", type=int, default=2, help="OPENBLAS_NUM_THREADS")
    parser.add_argument("--src", type=Path, default=SRC, help="the psld source to import")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        cores = a.pop(CORE_KEY, None), b.pop(CORE_KEY, None)
        if None not in cores and cores[0] != cores[1]:
            print(f"note: A ran on OpenBLAS core {cores[0]}, B on {cores[1]}; "
                  "artifact bytes can differ between cores")
        names = compare(a, b)
        if not names:
            print(f"identical: {len(a)} artifacts")
            return 0
        for name in names:
            where = "differs" if name in a and name in b else f"only in {'A' if name in a else 'B'}"
            print(f"{where}: {name}")
        counts = [sum(kind(name) == k for name in names) for k in KINDS]
        print(f"{len(names)} of {len(a.keys() | b.keys())} artifacts differ: "
              + ", ".join(f"{k} {n}" for k, n in zip(KINDS, counts)))
        return 1
    src = args.src.resolve()
    with tempfile.TemporaryDirectory() as work:
        run_matrix(Path(work), src, args.threads)
        found = digests(Path(work))
    core = _run([str(BLAS_CORE)], src, args.threads).decode().strip()
    args.out.write_text(json.dumps({**found, CORE_KEY: core.removeprefix("OpenBLAS core: ")},
                                   indent=1, sort_keys=True) + "\n")
    print(f"{len(found)} artifacts -> {args.out} ({core})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
