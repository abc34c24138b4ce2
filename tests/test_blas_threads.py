"""The byte contract across BLAS thread counts.

Each case trains the same config in two child processes, one under
``OPENBLAS_NUM_THREADS=1`` and one under ``=2``, and compares the
checkpoint and ``metrics.json`` bytes. The thread count must be set before
numpy loads its BLAS, hence the child processes. Where the BLAS does not
read the variable, or the host has one CPU, both children run alike.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
# seed 3, 3 epochs: the config of the thread-count defect's first report
TRAIN_ARGS = ("--epochs", "3", "--seed", "3")


def _psld(*args, threads: int = 1) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "psld", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """``series(nodes)``: the series CSV of ``psld synth --seed 3``, made once per node count."""
    made = {}

    def make(nodes: int) -> Path:
        if nodes not in made:
            out = tmp_path_factory.mktemp(f"blas-{nodes}") / "data"
            _psld("synth", "--nodes", str(nodes), "--seed", "3", "--out", str(out))
            made[nodes] = out / "series.csv"
        return made[nodes]

    return make


@pytest.mark.parametrize("nodes,kind,mode,extra", [
    (64, "mvd", "separate", ()),
    (64, "mvd", "merged", ()),
    (64, "stl", "separate", ()),
    pytest.param(64, "stl", "merged", (), marks=pytest.mark.xfail(
        raises=AssertionError,
        reason="the merged stl head's output product a @ (Wp @ W2).T at 64 rows, "
               "(64, 384) @ (384, 108), rounds differently under 1 and 2 OpenBLAS threads")),
    # one subgraph: 64 nodes x 32 windows = 2048-row steps, each run as two
    # row blocks (training.STEP_ROWS)
    (64, "mvd", "separate", ("--n-sub", "1")),
    # one subgraph: 57 nodes x 32 windows = 1824-row steps, each run as two
    # 912-row blocks, a length that is not 0 or 31 mod 32
    pytest.param(57, "mvd", "separate", ("--n-sub", "1"), marks=pytest.mark.xfail(
        raises=AssertionError,
        reason="the weight-gradient sums over a 912-row block, g_out.T @ a, "
               "(36, 912) @ (912, 128), and d_h1.T @ z, (128, 912) @ (912, 36), "
               "round differently under 1 and 2 OpenBLAS threads")),
], ids=["mvd-separate", "mvd-merged", "stl-separate", "stl-merged", "mvd-separate-n-sub-1",
        "mvd-separate-57-nodes-n-sub-1"])
def test_artifacts_do_not_depend_on_blas_threads(series, tmp_path, nodes, kind, mode, extra):
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        _psld("train", "--data", str(series(nodes)), "--out", str(out), "--decomposer", kind,
              "--mode", mode, *TRAIN_ARGS, *extra, threads=threads)
        outs.append(out)
    for name in ("checkpoint.psld", "metrics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
