import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psld.dataset import (
    SIGMA_FLOOR,
    SeriesStore,
    apply_norm,
    fit_norm_stats,
    generate_synthetic,
    load_csv,
    restrict_time,
    save_adjacency_csv,
    save_csv,
    split_ranges,
)
from psld.exceptions import FormatError, ParseError, ShapeError
from psld.numerics import Rng
from psld.training import _stack_split


class TestSeriesStore:
    def test_shape_and_ids(self, tiny_store):
        assert tiny_store.n_nodes == 3
        assert tiny_store.l_data == 10
        assert tiny_store.node_ids == ("a", "b", "c")

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(ShapeError):
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a",), adjacency=())

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                        adjacency=((0, 0, 1.0),))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                        adjacency=((0, 5, 1.0),))


class TestNormalization:
    def test_frozen_values(self):
        store = SeriesStore(values=np.array([[1.0, 2.0, 3.0]]),
                            node_ids=("a",), adjacency=())
        stats = fit_norm_stats(store, 3)
        assert stats.mu[0] == pytest.approx(2.0, abs=1e-15)
        assert stats.sigma[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        normed = apply_norm(store, stats, SIGMA_FLOOR)
        assert normed.values[0, 0] == pytest.approx(-1.2247448713915890, abs=1e-12)
        assert normed.values[0, 2] == pytest.approx(+1.2247448713915890, abs=1e-12)

    def test_stats_use_train_prefix_only(self):
        vals = np.array([[1.0, 1.0, 1.0, 100.0]])
        store = SeriesStore(values=vals, node_ids=("a",), adjacency=())
        stats = fit_norm_stats(store, 3)
        # the 100.0 sits outside the fit range
        assert stats.mu[0] == 1.0
        assert stats.sigma[0] == 0.0

    def test_round_trip(self, synth_store):
        stats = fit_norm_stats(synth_store, 120)
        normed = apply_norm(synth_store, stats, SIGMA_FLOOR)
        scale = np.maximum(stats.sigma, SIGMA_FLOOR)[:, None]
        back = normed.values * scale + stats.mu[:, None]
        assert np.max(np.abs(back - synth_store.values)) <= 1e-10

    def test_train_len_too_small(self, tiny_store):
        with pytest.raises(ValueError):
            fit_norm_stats(tiny_store, 1)

    def test_sigma_floor_guards_constant_rows(self):
        store = SeriesStore(values=np.full((1, 6), 4.0),
                            node_ids=("a",), adjacency=())
        stats = fit_norm_stats(store, 6)
        normed = apply_norm(store, stats, SIGMA_FLOOR)
        assert np.all(np.isfinite(normed.values))
        assert np.all(normed.values == 0.0)


class TestSplitsAndWindows:
    def test_split_ranges_default(self):
        r = split_ranges(100, (0.6, 0.2, 0.2))
        assert r == {"train": (0, 60), "val": (60, 80), "test": (80, 100)}

    def test_split_ranges_cover_everything(self):
        for l_data in range(10, 50):
            r = split_ranges(l_data, (0.6, 0.2, 0.2))
            assert r["train"][0] == 0
            assert r["train"][1] == r["val"][0]
            assert r["val"][1] == r["test"][0]
            assert r["test"][1] == l_data

    # windows as evaluation and the baselines stack them: one row per
    # (window, node), window-major
    def test_window_count_exhaustive(self, tiny_store):
        # over every feasible (l_in, l_out) in a length-10 store
        for l_in in range(1, 9):
            for l_out in range(1, 10 - l_in):
                x, y, n_win = _stack_split(tiny_store, l_in, l_out, (0, 10))
                assert n_win == 10 - l_in - l_out + 1
                assert x.shape == (n_win * 3, l_in)
                assert y.shape == (n_win * 3, l_out)

    def test_window_contents_and_overlap(self, tiny_store):
        x, y, _ = _stack_split(tiny_store, 4, 2, (0, 10))
        v = tiny_store.values
        assert np.array_equal(x[:3], v[:, 0:4])  # window 0, nodes 0..2
        assert np.array_equal(y[:3], v[:, 4:6])
        assert np.array_equal(x[3:6], v[:, 1:5])  # window 1
        # stride one: successive inputs share l_in - 1 steps
        assert np.array_equal(x[:3, 1:], x[3:6, :-1])

    def test_boundary_single_window(self, tiny_store):
        x, y, n_win = _stack_split(tiny_store, 6, 4, (0, 10))
        assert n_win == 1
        assert np.array_equal(x, tiny_store.values[:, :6])
        assert np.array_equal(y, tiny_store.values[:, 6:])

    def test_too_short_split_names_minimum(self, tiny_store):
        with pytest.raises(ValueError) as exc:
            _stack_split(tiny_store, 8, 4, (0, 10))
        assert "12" in str(exc.value)

    def test_restrict_time(self, tiny_store):
        sub = restrict_time(tiny_store, 2, 7)
        assert sub.l_data == 5
        assert sub.values[0, 0] == 2.0


class TestCsv:
    def test_round_trip_exact(self, synth_store, tmp_path):
        p = tmp_path / "series.csv"
        a = tmp_path / "adj.csv"
        save_csv(synth_store, p)
        save_adjacency_csv(synth_store, a)
        back = load_csv(p, a)
        assert back.node_ids == synth_store.node_ids
        assert np.array_equal(back.values, synth_store.values)
        assert set(back.adjacency) == set(synth_store.adjacency)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_csv(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,1,2,3\nb,4,5\n")
        with pytest.raises(FormatError) as exc:
            load_csv(p)
        assert "line 2" in str(exc.value)

    def test_non_numeric_names_line_and_field(self, tmp_path):
        # field index counts data values, the id column excluded
        p = tmp_path / "bad.csv"
        p.write_text("a,1,2,3\nb,4,oops,6\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 2" in str(exc.value)
        assert "field 2" in str(exc.value)

    def test_blank_lines_skipped_physical_numbering(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("a,1,2\n\nb,3,nope\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_line_and_field(self, tmp_path, token):
        p = tmp_path / "bad.csv"
        p.write_text(f"a,1,2,3\nb,4,{token},6\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 2" in str(exc.value)
        assert "field 2" in str(exc.value)
        assert "non-finite" in str(exc.value)

    def test_non_finite_value_without_id_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,5,inf\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 2, field 3" in str(exc.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_adjacency_non_finite_weight_names_line_and_field(self, tmp_path, token):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\nc,5,6\n")
        a.write_text(f"0,1,1.0\n1,2,{token}\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, a)
        assert "line 2" in str(exc.value)
        assert "field 3" in str(exc.value)
        assert "non-finite" in str(exc.value)

    def test_adjacency_adds_both_directions(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("0,1,2.5\n")
        store = load_csv(p, a)
        assert (0, 1, 2.5) in store.adjacency
        assert (1, 0, 2.5) in store.adjacency

    def test_adjacency_default_weight_is_one(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("0,1\n")
        store = load_csv(p, a)
        assert (0, 1, 1.0) in store.adjacency

    def test_adjacency_bad_field_count(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("0,1,1.0,extra\n")
        with pytest.raises(FormatError):
            load_csv(p, a)

    def test_adjacency_non_integer_index(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("a,b,1.0\n")
        with pytest.raises(ParseError):
            load_csv(p, a)


class TestSynthetic:
    def test_deterministic(self):
        s1 = generate_synthetic(5, 100, Rng(3))
        s2 = generate_synthetic(5, 100, Rng(3))
        assert np.array_equal(s1.values, s2.values)
        assert s1.adjacency == s2.adjacency

    def test_shapes_and_ids(self):
        s = generate_synthetic(4, 80, Rng(0))
        assert s.values.shape == (4, 80)
        assert s.node_ids == ("n000", "n001", "n002", "n003")

    def test_noiseless_pure_sinusoid_matches_draw_order(self):
        # with modulation/trend/noise off, row i is amp*sin(2*pi*t/period)
        # where (amp, period_mod, period, slope) are drawn in that order
        # from the node child stream.
        rng = Rng(11)
        s = generate_synthetic(3, 100, rng, noise_sigma=0.0,
                               modulation=False, trend=False)
        for i in range(3):
            g = Rng(11).child("node", i).gen
            amp = g.uniform(0.5, 2.0)
            g.uniform(80.0, 160.0)  # modulation period, drawn even if unused
            period = g.uniform(12.0, 24.0)
            g.uniform(-1.0, 1.0)  # slope
            t = np.arange(100)
            want = amp * np.sin(2.0 * np.pi * t / period)
            assert np.max(np.abs(s.values[i] - want)) <= 1e-12

    def test_modulation_makes_variance_drift(self):
        s = generate_synthetic(1, 600, Rng(5), noise_sigma=0.0,
                               modulation=True, trend=False)
        row = s.values[0]
        blocks = row.reshape(6, 100)
        v = blocks.var(axis=1)
        # amplitude modulation should move block variance by well over 10%
        assert v.max() > 1.1 * v.min()

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_edges_symmetric_no_self_loops(self, seed):
        s = generate_synthetic(6, 80, Rng(seed), radius=0.5)
        pairs = {(a, b) for a, b, _ in s.adjacency}
        for a, b, _ in s.adjacency:
            assert a != b
            assert (b, a) in pairs
