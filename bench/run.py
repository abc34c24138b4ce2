"""Benchmark of the `psld train` sequence on seeded synthetic workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload train-small --seed 0 --seconds 30 --trace 0

The workload's CSVs are written once per (nodes, length, seed) by
`psld synth` into ``bench/.cache``. One untimed warm-up sequence runs
first; then sequences run back to back until ``--seconds`` have passed.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of one extra traced
sequence. Every sequence must write the same checkpoint bytes and test
MSE as the warm-up and beat the last-value baseline; otherwise the run
fails and exits with 1. See NOTES.md for what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
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
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"

SERIES_LENGTH = 600
MIN_SETUPS = 5
TAIL_MARGIN = 10


@dataclass(frozen=True)
class Workload:
    nodes: int
    decomposer: str
    mode: str
    epochs: int
    why: str


WORKLOADS = {
    "train-small": Workload(
        64, "mvd", "separate", 10,
        "the paper's default 64-node problem: head forward/backward and Adam dominate, "
        "data-path changes should not move it"),
    "train-small-stl-merged": Workload(
        64, "stl", "merged", 10,
        "merged block-diagonal head and stl moving averages: Adam and decompose carry "
        "more weight, so separate/merged splits show"),
    "train-large": Workload(
        1024, "mvd", "separate", 2,
        "1024 nodes, 12 MB CSV: CSV parsing, edge re-validation, n^2 adjacency, window "
        "copies and full-split evaluation dominate"),
}

END_TO_END = {
    "setup_s": "s",
    "epoch0_s": "s",
    "epoch_s": "s",
    "eval_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "test_mse": "mse",
}

PER_LAYER = {
    "model.forward.train_s": "s",
    "model.loss_and_backward.s": "s",
    "model.adam_step.s": "s",
    "decomposition.decompose.s": "s",
    "decomposition.decompose.rows": "count",
    "sampler.rss_partition.s": "s",
    "sampler.rss_partition.calls": "count",
    "sampler.rss_partition.bytes": "bytes",
    "sampler.rss_partition.window_use_ratio": "ratio",
    "dataset.load_csv.s": "s",
    "dataset.apply_norm.s": "s",
    "dataset.apply_norm.calls": "count",
    "dataset.restrict_time.s": "s",
    "training.prepare_store.s": "s",
    "training.prepare_store.calls": "count",
    "training.evaluate.self_s": "s",
    "training.evaluate.rows": "count",
    "model.forward.eval_s": "s",
    "model.forward.eval_cache_mb_max": "MiB",
    "training.train.self_s": "s",
    "model.save_checkpoint.s": "s",
    "trace.overhead_s": "s",
}


def blas_threads() -> int:
    return min(2, os.cpu_count() or 1)


def tail(samples: list) -> dict | None:
    """Highest whole percentile with at least TAIL_MARGIN samples above it (nearest rank)."""
    n = len(samples)
    if n <= TAIL_MARGIN:
        return None
    pct = 100 * (n - TAIL_MARGIN) // n
    rank = max(1, math.ceil(pct * n / 100))
    return {"percentile": pct, "value": sorted(samples)[rank - 1], "samples": n}


def _openblas_threads():
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    try:
        return ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
    except (IndexError, OSError, AttributeError):
        return None


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "psld").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads(),
        "openblas_threads": _openblas_threads(),
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def measure(workload_name: str, seed: int, seconds: int, trace: bool, out_dir: Path,
            attempts: list):
    """Run the workload and return (metrics, details); attempts[0] counts sequences."""
    import sequence
    from psld.training import TrainConfig
    from spans import Tracer

    workload = WORKLOADS[workload_name]
    config = TrainConfig(decomposer=workload.decomposer, mode=workload.mode,
                         epochs=workload.epochs, seed=seed)
    series, adjacency = sequence.inputs(CACHE / "data", workload.nodes, SERIES_LENGTH, seed)

    def run():
        attempts[0] += 1
        gc.collect()  # every sequence starts from the same collector state
        result = sequence.run_sequence(series, adjacency, config, out_dir)
        sequence.check(result, reference or result)
        return result

    reference = None
    reference = run()  # warm-up, not timed
    timed = []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        timed.append(run())
    setups = [r.setup_s for r in timed]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(sequence.setup(series, adjacency, config)[1])
    run_s = statistics.median(r.run_s for r in timed)
    epochs = [t for r in timed for t in r.epoch_s[1:]]
    details = {
        "sequences": len(timed),
        "checkpoint_sha256": reference.checkpoint_sha256,
        "test_mse": reference.test_mse,
        "last_value_mse": reference.last_value_mse,
        "epoch_s_samples": len(epochs),
        "epoch_s_tail": tail(epochs),
        "samples": {
            "setup_s": setups,
            "epoch0_s": [r.epoch_s[0] for r in timed],
            "eval_s": [r.eval_s for r in timed],
            "run_s": [r.run_s for r in timed],
        },
    }
    if trace:
        with Tracer() as tracer:
            traced = run()
        metrics = sequence.layer_metrics(tracer.spans, config)
        metrics["trace.overhead_s"] = traced.run_s - run_s
        spans_file = CACHE / f"spans-{workload_name}-s{seed}.json"
        spans_file.write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent] for s in tracer.spans]))
        details["spans"] = {"count": len(tracer.spans), "file": str(spans_file.relative_to(ROOT))}
        return metrics, details
    metrics = {
        "setup_s": statistics.median(setups),
        "epoch0_s": statistics.median(details["samples"]["epoch0_s"]),
        "epoch_s": statistics.median(epochs),
        "eval_s": statistics.median(details["samples"]["eval_s"]),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_mse": reference.test_mse,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psld" / "__init__.py").is_file():
        print(f"error: no psld sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    sys.path.insert(0, str(SRC))

    units = PER_LAYER if args.trace else END_TO_END
    out_dir = CACHE / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    attempts = [0]
    try:
        metrics, details = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), out_dir, attempts)
        failed = 0
    except Exception:  # any failure is a failed run, reported below
        traceback.print_exc()
        metrics, details, failed = {}, {}, 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("details " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "environment": environment(), **details}))
    print(json.dumps({
        "correct": not failed,
        "attempted": max(attempts[0], 1),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
