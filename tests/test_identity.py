"""The byte-identity harness's digests and its comparison (``scripts/identity.py``)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", SCRIPT)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

DIGESTS = {"mvd-separate/checkpoint.psld": "a" * 64, "mvd-separate/metrics.json": "b" * 64,
           "gradcheck-stl-merged/stdout": "c" * 64}


def _write(path, digests):
    path.write_text(json.dumps(digests))
    return str(path)


def test_identical_digests_pass(tmp_path, capsys):
    a, b = _write(tmp_path / "a.json", DIGESTS), _write(tmp_path / "b.json", dict(DIGESTS))
    assert identity.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == "identical: 3 artifacts\n"


def _summary(total, checkpoint=0, sidecar=0, metrics=0, dumps=0, stdout=0, other=0):
    """The ``--compare`` line that counts the differing artifacts by kind."""
    differ = checkpoint + sidecar + metrics + dumps + stdout + other
    return (f"{differ} of {total} artifacts differ: checkpoint {checkpoint}, "
            f"sidecar {sidecar}, metrics.json/epochs.csv {metrics}, prediction dump {dumps}, "
            f"stdout {stdout}, other {other}\n")


@pytest.mark.parametrize("change,want", [
    ({"mvd-separate/metrics.json": "d" * 64}, "differs: mvd-separate/metrics.json"),
    ({"mvd-separate/epochs.csv": "e" * 64}, "only in B: mvd-separate/epochs.csv"),
])
def test_one_entry_difference_is_named(tmp_path, capsys, change, want):
    a = _write(tmp_path / "a.json", DIGESTS)
    b = _write(tmp_path / "b.json", {**DIGESTS, **change})
    summary = _summary(len({**DIGESTS, **change}), metrics=1)
    assert identity.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out == want + "\n" + summary
    assert identity.main(["--compare", b, a]) == 1
    assert capsys.readouterr().out == want.replace("only in B", "only in A") + "\n" + summary


def test_summary_counts_each_kind(tmp_path, capsys):
    names = ["mvd-separate/checkpoint.psld", "mvd-separate/checkpoint.psld.json",
             "mvd-separate/metrics.json", "mvd-separate/epochs.csv",
             "mvd-separate/eval-val/predictions.csv", "mvd-separate/eval-val/stdout",
             "gradcheck-mvd-merged/stdout", "data/series.csv", "data/adjacency.csv"]
    a = _write(tmp_path / "a.json", {**dict.fromkeys(names, "a" * 64), "same/stdout": "c" * 64})
    b = _write(tmp_path / "b.json", {**dict.fromkeys(names, "b" * 64), "same/stdout": "c" * 64})
    assert identity.main(["--compare", a, b]) == 1
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[:-1] == [f"differs: {name}\n" for name in sorted(names)]
    assert lines[-1] == _summary(10, checkpoint=1, sidecar=1, metrics=2, dumps=1, stdout=2,
                                 other=2)


def test_digests_leave_out_manifests(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "manifest.json").write_text("{}")
    (tmp_path / "run" / "stdout").write_bytes(b"")
    assert identity.digests(tmp_path) == {
        "run/stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}


SKYLAKE = "SkylakeX | config: OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH"
HASWELL = "Haswell | config: OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH"


def _with_core(core):
    """DIGESTS as ``--out`` writes them on ``core``; None for a file that names none."""
    return dict(DIGESTS) if core is None else {**DIGESTS, identity.CORE_KEY: core}


@pytest.mark.parametrize("core_a,core_b,note", [
    (SKYLAKE, SKYLAKE, ""),
    (SKYLAKE, HASWELL, f"note: A ran on OpenBLAS core {SKYLAKE}, B on {HASWELL}; "
                       "artifact bytes can differ between cores\n"),
    (SKYLAKE, None, ""),  # a file written before the core was recorded
], ids=["same-core", "other-core", "old-file"])
def test_core_is_noted_when_it_differs_and_not_counted(tmp_path, capsys, core_a, core_b, note):
    # the core key is no artifact: it never fails a comparison, and
    # neither the count nor the exit code sees it
    a = _write(tmp_path / "a.json", _with_core(core_a))
    b = _write(tmp_path / "b.json", _with_core(core_b))
    assert identity.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == note + "identical: 3 artifacts\n"
    b = _write(tmp_path / "b.json", {**_with_core(core_b), "gradcheck-stl-merged/stdout": "d" * 64})
    assert identity.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out == (note + "differs: gradcheck-stl-merged/stdout\n"
                                       + _summary(3, stdout=1))


def test_blas_core_script_prints_one_line():
    proc = subprocess.run([sys.executable, str(identity.BLAS_CORE)], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.startswith("OpenBLAS core: ") and proc.stdout.count("\n") == 1
