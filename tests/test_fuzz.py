"""Loaders fed truncated and mutated bytes raise only the package's errors.

Each test starts from a valid input, cuts it, overwrites a few bytes and
inserts a few, then loads the result. A loader may refuse it with a
``PsldError`` (the CLI's usage error is one) or an ``OSError``; any other
exception escaping is a bug.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psld import cli
from psld.dataset import SeriesStore, load_csv, save_adjacency_csv, save_csv
from psld.exceptions import PsldError
from psld.model import init_params, load_checkpoint, save_checkpoint
from psld.numerics import Rng

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
REFUSALS = (PsldError, OSError)


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """``base`` cut at a drawn length (often none), with bytes overwritten and inserted."""
    cut = draw(st.one_of(st.just(len(base)), st.integers(0, len(base))))
    data = bytearray(base[:cut])
    for _ in range(draw(st.integers(0, 6))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    at = draw(st.integers(0, len(data)))
    data[at:at] = draw(st.binary(max_size=6))
    return bytes(data)


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict:
    """The bytes of a checkpoint and sidecar, series and adjacency CSVs and a config."""
    root = tmp_path_factory.mktemp("valid")
    params = init_params("stl", 4, 3, 2, 0.1, "merged", Rng(0))
    save_checkpoint(root / "checkpoint.psld", params, {"l_in": 4})
    store = SeriesStore(values=np.arange(15).reshape(3, 5) / 7, node_ids=("a", "b", "c"),
                        adjacency=((0, 1, 0.5), (1, 2, 2.0)))
    save_csv(store, root / "series.csv")
    save_adjacency_csv(store, root / "adjacency.csv")
    (root / "config.txt").write_text("# run\nl-in=12\nmode = merged\nsplit=6:2:2\n"
                                     "baseline-mlp=yes\nlam=0.5\n", encoding="utf-8")
    return {path.name: path.read_bytes() for path in root.iterdir()}


def _write(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


@FUZZ
@given(st.data())
def test_load_checkpoint(tmp_path, valid, data):
    path = _write(tmp_path / "c.psld", data.draw(mutated(valid["checkpoint.psld"])))
    _write(tmp_path / "c.psld.json", data.draw(mutated(valid["checkpoint.psld.json"])))
    try:
        load_checkpoint(path)
    except REFUSALS:
        pass


@FUZZ
@given(st.data())
def test_load_csv(tmp_path, valid, data):
    series = _write(tmp_path / "s.csv", data.draw(mutated(valid["series.csv"])))
    adjacency = _write(tmp_path / "a.csv", data.draw(mutated(valid["adjacency.csv"])))
    try:
        load_csv(series, adjacency)
    except REFUSALS:
        pass


@FUZZ
@given(st.data())
def test_config_tokens(tmp_path, valid, data):
    path = _write(tmp_path / "config.txt", data.draw(mutated(valid["config.txt"])))
    _, commands = cli.build_parser()
    try:
        cli._config_tokens(path, commands["train"])
    except REFUSALS:
        pass


def test_unmutated_inputs_load(tmp_path, valid):
    # the fuzzed inputs start valid, so a refusal above comes from a mutation
    path = _write(tmp_path / "c.psld", valid["checkpoint.psld"])
    _write(tmp_path / "c.psld.json", valid["checkpoint.psld.json"])
    assert load_checkpoint(path)[0].kind == "stl"
    store = load_csv(_write(tmp_path / "s.csv", valid["series.csv"]),
                     _write(tmp_path / "a.csv", valid["adjacency.csv"]))
    assert store.values.shape == (3, 5) and len(store.adjacency) == 4
    _, commands = cli.build_parser()
    tokens = cli._config_tokens(_write(tmp_path / "config.txt", valid["config.txt"]),
                                commands["train"])
    assert len(tokens) == 5
