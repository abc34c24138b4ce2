"""The byte-identity harness's digests and its comparison (``scripts/identity.py``)."""

import importlib.util
import json
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


@pytest.mark.parametrize("change,want", [
    ({"mvd-separate/metrics.json": "d" * 64}, "differs: mvd-separate/metrics.json"),
    ({"mvd-separate/epochs.csv": "e" * 64}, "only in B: mvd-separate/epochs.csv"),
])
def test_one_entry_difference_is_named(tmp_path, capsys, change, want):
    a = _write(tmp_path / "a.json", DIGESTS)
    b = _write(tmp_path / "b.json", {**DIGESTS, **change})
    assert identity.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out == want + "\n"
    assert identity.main(["--compare", b, a]) == 1
    assert capsys.readouterr().out == want.replace("only in B", "only in A") + "\n"


def test_digests_leave_out_manifests(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "manifest.json").write_text("{}")
    (tmp_path / "run" / "stdout").write_bytes(b"")
    assert identity.digests(tmp_path) == {
        "run/stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}
