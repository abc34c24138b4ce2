import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from psld.decomposition import (
    ComponentBundle,
    MvdConfig,
    StlConfig,
    decompose,
    linear_map,
    make_config,
    moving_average,
    mvd_decompose,
    mvd_recombine,
    part_names,
    recombine,
    stl_decompose,
    stl_recombine,
)
from psld.exceptions import ShapeError
from psld.numerics import Rng


def random_rows():
    return Rng(0).gen.standard_normal((3, 16))


def rows(min_len=8, max_len=64):
    return hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6).map(
            lambda s: (s[0], max(s[1] * 8, min_len))
        ),
        elements=st.floats(-100, 100, allow_nan=False),
    )


class TestMovingAverage:
    def test_frozen_oracle_k3(self):
        # edge padding: [1,1,2,4,8,8]; centered width-3 means
        got = moving_average(np.array([[1.0, 2.0, 4.0, 8.0]]), 3)
        want = np.array([[4.0 / 3.0, 7.0 / 3.0, 14.0 / 3.0, 20.0 / 3.0]])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_kernel_one_is_identity(self):
        x = random_rows()
        assert np.array_equal(moving_average(x, 1), x)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros((1, 8)), 4)

    def test_linear_ramp_interior_exact(self):
        # a centered mean of an affine sequence reproduces it away from edges
        x = (2.0 * np.arange(20.0) + 3.0)[None, :]
        got = moving_average(x, 5)
        assert np.max(np.abs(got[:, 2:-2] - x[:, 2:-2])) <= 1e-12

    def test_preserves_shape_nd(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert moving_average(x, 3).shape == (2, 3, 4)

    def test_constant_invariant(self):
        x = np.full((2, 16), 7.5)
        assert np.max(np.abs(moving_average(x, 7) - x)) <= 1e-12


class TestMvd:
    def test_frozen_oracle(self):
        y = np.array([[1.0, 2.0, 3.0]])
        cfg = MvdConfig()
        b = mvd_decompose(y, cfg)
        m, v, r = b.parts["m"], b.parts["v"], b.parts["r"]
        assert m.shape == (1, 1) and v.shape == (1, 1)
        assert m[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert v[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        want_r = np.array([-1.0, 0.0, 1.0]) / (2.0 / 3.0 + 1e-5)
        assert np.max(np.abs(r[0] - want_r)) <= 1e-12

    def test_residual_row_mean_zero(self, synth_store):
        b = mvd_decompose(synth_store.values, MvdConfig())
        assert np.max(np.abs(b.parts["r"].mean(axis=-1))) <= 1e-10

    def test_round_trip(self, synth_store):
        cfg = MvdConfig()
        b = mvd_decompose(synth_store.values, cfg)
        back = mvd_recombine(b, cfg)
        assert np.max(np.abs(back - synth_store.values)) <= 1e-12

    @given(rows())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, y):
        cfg = MvdConfig()
        back = mvd_recombine(mvd_decompose(y, cfg), cfg)
        assert np.max(np.abs(back - y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            mvd_decompose(np.zeros(5), MvdConfig())

    @given(length=st.integers(2, 256), log_eps=st.floats(-12, 2),
           log_scale=st.floats(-8, 8), log_ratio=st.floats(-3, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_residual_stays_within_its_bound(self, length, log_eps, log_scale, log_ratio,
                                             seed):
        # random normal rows of any scale, and a spike row whose variance
        # lies within three decades of epsilon on either side
        eps = 10.0 ** log_eps
        y = np.vstack([10.0 ** log_scale * Rng(seed).gen.standard_normal((8, length)),
                       spike_row(length, eps * 10.0 ** log_ratio)])
        r = mvd_decompose(y, MvdConfig(eps)).parts["r"]
        assert np.max(np.abs(r)) <= residual_bound(length, eps) * (1 + 1e-12)

    def test_spike_window_reaches_the_bound(self):
        # at the defaults' window of 36 and epsilon 1e-5, a spike row of
        # variance epsilon peaks at the bound, about 935.4
        eps = MvdConfig().epsilon
        bound = residual_bound(36, eps)
        assert bound == pytest.approx(935.4143466934853, rel=1e-15)
        r = mvd_decompose(spike_row(36, eps), MvdConfig(eps)).parts["r"]
        assert np.max(np.abs(r)) == pytest.approx(bound, rel=1e-9)


def residual_bound(length, epsilon):
    """The most |r| an mvd window of ``length`` values reaches: sqrt(L - 1) / (2 sqrt(eps)).

    A value lies at most sqrt((L - 1) v) from its row's mean, for population
    variance v (Samuelson's inequality), and sqrt(v) / (v + eps) peaks at
    1 / (2 sqrt(eps)), where v = eps.
    """
    return math.sqrt(length - 1) / (2.0 * math.sqrt(epsilon))


def spike_row(length, variance):
    """One row of zeros but a first value, of population variance ``variance``.

    A spike a over L - 1 zeros has variance a^2 (L - 1) / L^2, and its
    spike lies sqrt((L - 1) v) from the mean, as far as any value can.
    """
    row = np.zeros((1, length))
    row[0, 0] = length * math.sqrt(variance / (length - 1))
    return row


class TestStl:
    def test_round_trip_exact(self, synth_store):
        cfg = StlConfig()
        b = stl_decompose(synth_store.values, cfg)
        back = stl_recombine(b, cfg)
        # telescoping sum, exact to the last bit
        assert np.max(np.abs(back - synth_store.values)) <= 1e-12

    def test_parts_sum_to_input(self, synth_store):
        b = stl_decompose(synth_store.values, StlConfig())
        total = b.parts["t"] + b.parts["s"] + b.parts["r"]
        assert np.max(np.abs(total - synth_store.values)) <= 1e-12

    def test_trend_of_slow_ramp_tracks_it(self):
        x = np.linspace(0.0, 10.0, 200)[None, :]
        b = stl_decompose(x, StlConfig(kappa_t=25, kappa_s=7))
        mid = slice(30, 170)
        assert np.max(np.abs(b.parts["t"][:, mid] - x[:, mid])) <= 1e-9

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            StlConfig(kappa_t=4)
        with pytest.raises(ValueError):
            StlConfig(kappa_s=0)


def assert_map_matches_decompose(x, cfg):
    """x @ linear_map(cfg, l)[part] is decompose(x, cfg)'s part within
    (kappa_t + kappa_s + l) * eps * max|x| on each row.

    Both sides round a linear map of x: the moving averages' sums of
    kappa_t and kappa_s terms, and the product's sums of l terms over
    weights whose magnitudes add up to at most 4 for each output. Random
    windows came within 0.13 of the bound. Underflow to subnormals rounds
    absolutely, hence the bound's l subnormal steps.
    """
    length = x.shape[1]
    maps, parts = linear_map(cfg, length), decompose(x, cfg).parts
    rel = (cfg.kappa_t + cfg.kappa_s + length) * np.finfo(np.float64).eps
    bound = rel * np.max(np.abs(x), axis=1, keepdims=True) + length * 2.0 ** -1074
    assert tuple(maps) == part_names("stl")
    for name, part in parts.items():
        assert maps[name].shape == (length, length)
        assert np.all(np.abs(x @ maps[name] - part) <= bound), name


class TestLinearMap:
    """stl's parts as matrices of the window: the maps predict folds into its heads."""

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 48)),
                        elements=st.floats(-100, 100, allow_nan=False)),
           kappa_t=st.integers(0, 70).map(lambda i: 2 * i + 1),
           kappa_s=st.integers(0, 20).map(lambda i: 2 * i + 1))
    def test_map_is_the_decomposition_property(self, x, kappa_t, kappa_s):
        assert_map_matches_decompose(x, StlConfig(kappa_t, kappa_s))

    @pytest.mark.parametrize("length,kappa_t,kappa_s", [(12, 131, 7), (12, 1, 1), (36, 25, 7),
                                                        (36, 1, 7), (5, 3, 131), (1, 25, 7)])
    def test_map_is_the_decomposition(self, length, kappa_t, kappa_s):
        # kernels of 1 and kernels wider than the window included
        x = Rng(length).gen.standard_normal((9, length)) * 10.0 ** np.arange(-4, 5)[:, None]
        assert_map_matches_decompose(x, StlConfig(kappa_t, kappa_s))

    def test_maps_are_stl_of_the_identity(self):
        cfg = StlConfig(9, 3)
        got, want = linear_map(cfg, 20), stl_decompose(np.eye(20), cfg).parts
        assert all(np.array_equal(got[name], want[name]) for name in want)

    def test_mvd_is_not_linear(self):
        assert linear_map(MvdConfig(), 36) is None
        with pytest.raises(TypeError):
            linear_map(object(), 36)


class TestDispatch:
    def test_part_names(self):
        assert part_names("mvd") == ("m", "v", "r")
        assert part_names("stl") == ("t", "s", "r")
        with pytest.raises(ValueError):
            part_names("wavelet")

    def test_make_config(self):
        assert isinstance(make_config("mvd"), MvdConfig)
        cfg = make_config("stl", kappa_t=11, kappa_s=5)
        assert (cfg.kappa_t, cfg.kappa_s) == (11, 5)

    def test_decompose_recombine_dispatch(self, synth_store):
        for kind in ("mvd", "stl"):
            cfg = make_config(kind)
            b = decompose(synth_store.values, cfg)
            assert b.kind == kind
            assert set(b.parts) == set(part_names(kind))
            back = recombine(b, cfg)
            assert np.max(np.abs(back - synth_store.values)) <= 1e-12

    def test_bundle_rejects_wrong_parts(self):
        with pytest.raises(ValueError):
            ComponentBundle(kind="mvd", parts={"m": np.zeros((1, 1))})


def padded_window_mean(series, kernel):
    """numpy's mean over each window of the edge-padded series, which
    moving_average agrees with within assert_near_numpy_mean's bound."""
    a = np.asarray(series, dtype=np.float64)
    if kernel == 1:
        return a.copy()
    return padded_windows(a, kernel).mean(-1)


def padded_window_fold(series, kernel):
    """The order moving_average must match to the bit: each window of the
    edge-padded series folded left to right, then +0.0, then / kernel."""
    a = np.asarray(series, dtype=np.float64)
    if kernel == 1:
        return a.copy()
    windows = padded_windows(a, kernel)
    total = windows[..., 0].copy()
    for i in range(1, kernel):
        total += windows[..., i]
    return (total + 0.0) / kernel


def padded_windows(a, kernel):
    half = kernel // 2
    padded = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(half, half)], mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=-1)


def assert_near_numpy_mean(got, a, kernel):
    """got is numpy's mean of each window within 2 * kernel * eps times the
    window's mean |value|, plus the smallest subnormal. A left fold and
    numpy's pairwise sum each err by at most about kernel * eps / 2 times
    that magnitude (below 8 values both are left folds), and each of the
    two divisions rounds once."""
    bound = 2 * kernel * np.finfo(np.float64).eps * padded_window_mean(np.abs(a), kernel)
    assert np.all(np.abs(got - padded_window_mean(a, kernel)) <= bound + 5e-324)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# signed zeros, the smallest subnormals, a normal near the subnormal range
# and values whose sums overflow
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.0, -2.5)
KERNELS = (1, 3, 5, 7, 9, 15, 23, 25, 63, 127, 129, 131, 255, 257, 301, 513)


def mixed_rows(n_rows, length, seed):
    gen = Rng(seed).gen
    scale = 10.0 ** gen.integers(-6, 7, (n_rows, length))
    a = gen.standard_normal((n_rows, length)) * scale
    specials = gen.random((n_rows, length)) < 0.3
    a[specials] = gen.choice(SPECIAL_VALUES, int(specials.sum()))
    if n_rows:
        a[0] = -0.0  # an all-(-0.0) window averages to +0.0
    return a


class TestMovingAverageBits:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_padded_window_fold(self, kernel):
        with np.errstate(over="ignore", invalid="ignore"):
            for length in (1, 2, 3, 7, 8, 9, 16, 36, 100, 128, 129, 200):
                for n_rows in (0, 1, 5):
                    a = mixed_rows(n_rows, length, seed=kernel * 1000 + length)
                    assert_same_bits(moving_average(a, kernel), padded_window_fold(a, kernel))

    @pytest.mark.parametrize("n_rows", (64, 512, 513))
    def test_matches_on_tall_blocks(self, n_rows):
        with np.errstate(over="ignore", invalid="ignore"):
            for kernel in (7, 25, 131):
                a = mixed_rows(n_rows, 36, seed=n_rows + kernel)
                assert_same_bits(moving_average(a, kernel), padded_window_fold(a, kernel))

    def test_negative_zero_windows_average_to_positive_zero(self):
        for kernel in (3, 9, 25, 131):
            got = moving_average(np.full((2, 12), -0.0), kernel)
            assert not np.signbit(got).any()

    def test_any_layout_and_rank(self):
        base = mixed_rows(6, 40, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            for a in (base[1], base.reshape(2, 3, 40), base[:, ::2], base.T,
                      np.lib.stride_tricks.sliding_window_view(base[1], 9)):
                for kernel in (5, 25, 131):
                    got = moving_average(a, kernel)
                    assert got.flags.c_contiguous
                    assert_same_bits(got, padded_window_fold(a, kernel))

    @settings(max_examples=150, deadline=None)
    @given(
        a=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40),
            elements=st.one_of(st.sampled_from(SPECIAL_VALUES),
                               st.floats(allow_nan=False, allow_infinity=False)),
        ),
        kernel=st.integers(0, 150).map(lambda i: 2 * i + 1),
    )
    def test_matches_padded_window_fold_property(self, a, kernel):
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(moving_average(a, kernel), padded_window_fold(a, kernel))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_agrees_with_numpy_mean(self, kernel):
        for length in (1, 7, 36, 200):
            a = Rng(kernel).gen.standard_normal((5, length)) * 10.0 ** np.arange(-2, 3)[:, None]
            assert_near_numpy_mean(moving_average(a, kernel), a, kernel)

    @settings(max_examples=150, deadline=None)
    @given(
        a=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40),
            # no window sum of up to 301 values this size overflows
            elements=st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-1e300, 1e300)),
        ),
        kernel=st.integers(0, 150).map(lambda i: 2 * i + 1),
    )
    def test_agrees_with_numpy_mean_property(self, a, kernel):
        assert_near_numpy_mean(moving_average(a, kernel), a, kernel)


class TestStlBits:
    @pytest.mark.parametrize("kappa_t,kappa_s", [(25, 7), (1, 1), (9, 3), (131, 9), (301, 129)])
    def test_parts_match_padded_window_fold(self, kappa_t, kappa_s):
        a = mixed_rows(7, 36, seed=kappa_t)
        a[1:] = Rng(kappa_s).gen.standard_normal((6, 36))
        b = stl_decompose(a, StlConfig(kappa_t, kappa_s))
        trend = padded_window_fold(a, kappa_t)
        seasonal = padded_window_fold(a - trend, kappa_s)
        want = {"t": trend, "s": seasonal, "r": a - trend - seasonal}
        for name, part in b.parts.items():
            assert part.flags.c_contiguous
            assert_same_bits(part, want[name])

    @pytest.mark.parametrize("kappa_t", (25, 127))
    def test_peak_memory_does_not_grow_with_kernel(self, kappa_t):
        a = Rng(0).gen.standard_normal((1344, 36))
        tracemalloc.start()
        try:
            stl_decompose(a, StlConfig(kappa_t, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * a.nbytes
