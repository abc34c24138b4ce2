"""Self-tests of the benchmark: span arithmetic, tracer clean-up, BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import sequence  # noqa: E402
from psld import sampler, training  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("train", 0.0, 10.0, None),
        Span("partition", 1.0, 3.0, 0),
        Span("evaluate", 4.0, 9.0, 0),
        Span("predict", 4.5, 8.5, 2),
        Span("forward", 5.0, 8.0, 3),
        Span("save", 11.0, 12.0, None),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 3.0, 1.0]
    assert sum(self_times(spans)) == 11.0


def test_tail_keeps_ten_samples_above_it():
    assert run.tail(list(range(10))) is None
    samples = [float(i) for i in range(29)]
    t = run.tail(samples)
    assert t["percentile"] == 65 and t["samples"] == 29
    assert sum(s > t["value"] for s in samples) >= 10


def test_traced_run_restores_bindings_and_bytes(tmp_path):
    series, adjacency = sequence.inputs(tmp_path / "data", 24, 200, 3)
    config = training.TrainConfig(epochs=2, l_in=12, l_out=12, n_subgraphs=4, seed=3)
    plain = sequence.run_sequence(series, adjacency, config, tmp_path)
    originals = (training.rss_partition, sampler.rss_partition, training.evaluate)
    with Tracer() as tracer:
        assert training.rss_partition is not originals[0]
        traced = sequence.run_sequence(series, adjacency, config, tmp_path)
    assert (training.rss_partition, sampler.rss_partition, training.evaluate) == originals
    assert tracer.replaced
    for module, attr, original in tracer.replaced:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    assert (traced.checkpoint_sha256, traced.test_mse) == (plain.checkpoint_sha256,
                                                           plain.test_mse)

    names = {s.name for s in tracer.spans}
    assert {"training.train", "sampler.rss_partition", "model.predict"} <= names
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans
               if s.parent is not None}
    assert parents["model.predict"] == "training.evaluate"
    metrics = sequence.layer_metrics(tracer.spans, config)
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert metrics["sampler.rss_partition.calls"] == config.epochs
    assert metrics["training.prepare_store.calls"] == 3


def test_benchmark_json_names_the_defined_workloads_and_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"][1:] == ["bench/run.py"] and spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
