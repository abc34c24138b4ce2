"""One `psld train` sequence, its inputs, its checks and its per-layer figures.

Importing this module imports numpy and ``psld``; ``run.py`` does so only
after it has fixed the BLAS thread count and put the checkout's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from psld import cli, dataset, model, training
from spans import self_times


class BenchFailure(Exception):
    """A run whose output fails one of the benchmark's correctness checks."""


@dataclass
class SequenceResult:
    setup_s: float
    epoch_s: list
    eval_s: float
    run_s: float
    test_mse: float
    last_value_mse: float
    checkpoint_sha256: str


def inputs(cache: Path, nodes: int, length: int, seed: int) -> tuple:
    """Series and adjacency CSVs for (nodes, length, seed), written once by `psld synth`."""
    target = cache / f"n{nodes}-l{length}-s{seed}"
    series, adjacency = target / "series.csv", target / "adjacency.csv"
    if not (series.is_file() and adjacency.is_file()):
        partial = target.with_name(f"{target.name}.partial-{os.getpid()}")
        shutil.rmtree(partial, ignore_errors=True)
        code = cli.main(["synth", "--nodes", str(nodes), "--length", str(length),
                         "--seed", str(seed), "--out", str(partial)])
        if code != 0:
            raise BenchFailure(f"psld synth exited with {code}")
        shutil.rmtree(target, ignore_errors=True)
        os.replace(partial, target)
    return series, adjacency


def setup(series: Path, adjacency: Path, config):
    """Load the CSVs and normalise, as `psld train` does before training."""
    started = time.perf_counter()
    store = dataset.load_csv(series, adjacency)
    training.prepare_store(store, config)
    return store, time.perf_counter() - started


def _digest(checkpoint: Path) -> str:
    digest = hashlib.sha256()
    for path in (checkpoint, Path(f"{checkpoint}.json")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_round_trip(checkpoint: Path, params) -> None:
    loaded, _ = model.load_checkpoint(checkpoint)
    written = model.named_tensors(params)
    read = model.named_tensors(loaded)
    if [n for n, _ in written] != [n for n, _ in read] or not all(
            np.array_equal(a, b) for (_, a), (_, b) in zip(written, read)):
        raise BenchFailure(f"{checkpoint} does not load back to the trained parameters")


def run_sequence(series: Path, adjacency: Path, config, out_dir: Path) -> SequenceResult:
    """load_csv -> train -> prepare_store -> evaluate(test) -> baseline -> save_checkpoint."""
    started = time.perf_counter()
    store, setup_s = setup(series, adjacency, config)
    params, reports = training.train(store, config)
    normed, ranges, _ = training.prepare_store(store, config)
    eval_started = time.perf_counter()
    test = training.evaluate(params, normed, config, ranges["test"])
    eval_s = time.perf_counter() - eval_started
    last_value = training.baseline_last_value(normed, config, ranges["test"])
    checkpoint = out_dir / "checkpoint.psld"
    model.save_checkpoint(checkpoint, params, config.to_dict())
    run_s = time.perf_counter() - started
    _check_round_trip(checkpoint, params)
    return SequenceResult(setup_s, [r.wall_time_s for r in reports], eval_s, run_s,
                          test["mse"], last_value["mse"], _digest(checkpoint))


def check(result: SequenceResult, reference: SequenceResult) -> None:
    """Quality beats the last-value baseline and every run repeats the reference bytes."""
    if not math.isfinite(result.test_mse) or not result.test_mse < result.last_value_mse:
        raise BenchFailure(f"test mse {result.test_mse} does not beat the last-value "
                           f"baseline {result.last_value_mse}")
    if (result.checkpoint_sha256, result.test_mse) != (reference.checkpoint_sha256,
                                                       reference.test_mse):
        raise BenchFailure(
            f"run gave checkpoint {result.checkpoint_sha256} and test mse {result.test_mse}, "
            f"the first run gave {reference.checkpoint_sha256} and {reference.test_mse}")


def layer_metrics(spans: list, config) -> dict:
    """Per-layer figures from the spans of one traced sequence.

    Times are summed span durations (``.s``) or self times (``.self_s``).
    Rows, bytes, cache sizes and the window-use ratio are computed from
    the wrapped calls' arguments and results.
    """
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1

    def counters(name):
        return [s.counters for s in spans if s.name == name]

    forward = [(s.counters, s.duration) for s in spans if s.name == "model.forward"]
    windows = [w for c in counters("sampler.rss_partition") for w in c["windows"]]
    return {
        "model.forward.train_s": sum(d for c, d in forward if c["training"]),
        "model.loss_and_backward.s": total["model.loss_and_backward"],
        "model.adam_step.s": total["model.adam_step"],
        "decomposition.decompose.s": total["decomposition.decompose"],
        "decomposition.decompose.rows": sum(c["rows"] for c in counters("decomposition.decompose")),
        "sampler.rss_partition.s": total["sampler.rss_partition"],
        "sampler.rss_partition.calls": calls["sampler.rss_partition"],
        "sampler.rss_partition.bytes": sum(c["bytes"] for c in counters("sampler.rss_partition")),
        "sampler.rss_partition.window_use_ratio":
            sum(min(config.minibatch, w) for w in windows) / sum(windows),
        "dataset.load_csv.s": total["dataset.load_csv"],
        "dataset.apply_norm.s": total["dataset.apply_norm"],
        "dataset.apply_norm.calls": calls["dataset.apply_norm"],
        "dataset.restrict_time.s": total["dataset.restrict_time"],
        "training.prepare_store.s": total["training.prepare_store"],
        "training.prepare_store.calls": calls["training.prepare_store"],
        "training.evaluate.self_s": own["training.evaluate"],
        "training.evaluate.rows": sum(c["rows"] for c in counters("training.evaluate")),
        "model.forward.eval_s": sum(d for c, d in forward if not c["training"]),
        "model.forward.eval_cache_mb_max":
            max(c["cache_bytes"] for c, _ in forward if not c["training"]) / 2**20,
        "training.train.self_s": own["training.train"],
        "model.save_checkpoint.s": total["model.save_checkpoint"],
    }
