"""Label and input decomposers with exact recombination.

Both decomposers treat rows as independent channels and operate along the
last axis (time). Leading axes are batch axes, so stacked minibatches of
windows go through unchanged.

``mvd`` splits a window into its per-row mean, the population variance of
the centered window, and a variance-scaled residual. ``stl`` splits it
into a moving-average trend, a moving-average seasonal part of the
detrended series, and the remainder. stl is therefore linear in the
window, and ``linear_map`` gives each of its parts as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError

PART_NAMES = {"mvd": ("m", "v", "r"), "stl": ("t", "s", "r")}
KINDS = tuple(PART_NAMES)


def part_names(kind: str) -> tuple:
    if kind not in PART_NAMES:
        raise ValueError(f"unknown decomposer kind {kind!r}")
    return PART_NAMES[kind]


@dataclass(frozen=True)
class MvdConfig:
    """epsilon keeps the residual division away from zero variance."""

    epsilon: float = 1e-5

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass(frozen=True)
class StlConfig:
    """Odd moving-average kernels for trend (kappa_t) and seasonal (kappa_s)."""

    kappa_t: int = 25
    kappa_s: int = 7

    def __post_init__(self):
        for name, k in (("kappa_t", self.kappa_t), ("kappa_s", self.kappa_s)):
            if k < 1 or k % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 1, got {k}")


def make_config(kind: str, epsilon: float = MvdConfig.epsilon,
                kappa_t: int = StlConfig.kappa_t, kappa_s: int = StlConfig.kappa_s):
    if kind == "mvd":
        return MvdConfig(epsilon)
    if kind == "stl":
        return StlConfig(kappa_t, kappa_s)
    raise ValueError(f"unknown decomposer kind {kind!r}")


@dataclass(frozen=True)
class ComponentBundle:
    """Named components of one decomposition.

    For mvd, parts m and v keep a reduced last axis of length 1 so they
    broadcast over rows; r has the full shape. For stl all three parts
    have the full shape.
    """

    kind: str
    parts: dict

    def __post_init__(self):
        if tuple(self.parts.keys()) != part_names(self.kind):
            raise ValueError(
                f"{self.kind} bundle needs parts {part_names(self.kind)}, "
                f"got {tuple(self.parts.keys())}"
            )


def moving_average(series: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average along the last axis with replicate padding.

    Output length equals input length; kernel 1 is the identity. Each
    window's padded values are added left to right, p[t] + p[t+1] + ... +
    p[t+kernel-1]; then +0.0 is added, so an all-(-0.0) window gives +0.0,
    and the sum is divided by the kernel. All windows are summed at once
    by kernel - 1 whole-array adds over shifted time slices.
    """
    a = np.asarray(series, dtype=np.float64)
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"moving-average kernel must be odd and >= 1, got {kernel}")
    if a.shape[-1] < 1:
        raise ShapeError(f"cannot average an empty time axis, shape {a.shape}")
    if kernel == 1:
        return a.copy()
    length, half = a.shape[-1], kernel // 2
    # A time-major copy with pad repeated edge rows at each end. Edge padding
    # takes half rows, but every slice read from it has length rows, and one
    # that lies wholly in a pad reads only the repeated row, so a longer pad
    # would hold nothing new (see _shifted).
    pad = min(half, length)
    flat = a.reshape(-1, length)
    padded = np.empty((length + 2 * pad, len(flat)))
    padded[:pad] = flat[:, 0]
    padded[pad : pad + length] = flat.T
    padded[pad + length :] = flat[:, -1]
    start = pad - half
    total = _shifted(padded, start, length) + _shifted(padded, start + 1, length)
    for i in range(2, kernel):
        total += _shifted(padded, start + i, length)
    del padded  # freed before the output is allocated
    total += 0.0
    out = np.empty(a.shape)
    np.divide(total, kernel, out=out.reshape(-1, length).T)
    return out


def _shifted(padded: np.ndarray, start: int, size: int) -> np.ndarray:
    """padded[start : start + size], moved inside padded if it starts
    before 0 or ends past the end: such a slice lies wholly in a pad, so
    every row it reads is that pad's repeated row."""
    lo = min(max(start, 0), len(padded) - size)
    return padded[lo : lo + size]


def mvd_decompose(y: np.ndarray, cfg: MvdConfig) -> ComponentBundle:
    """Per-row mean m, population variance v of the centered rows, and
    residual r = (y - m) / (v + epsilon)."""
    a = np.asarray(y, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] < 1:
        raise ShapeError(f"mvd needs a 2-D or batched window, got shape {a.shape}")
    m = a.mean(axis=-1, keepdims=True)
    centered = a - m
    v = centered.var(axis=-1, keepdims=True)
    r = centered / (v + cfg.epsilon)
    return ComponentBundle("mvd", {"m": m, "v": v, "r": r})


def mvd_recombine(bundle: ComponentBundle, cfg: MvdConfig) -> np.ndarray:
    """Exact inverse: r * (v + epsilon) + m."""
    if bundle.kind != "mvd":
        raise ValueError(f"expected an mvd bundle, got {bundle.kind!r}")
    m, v, r = bundle.parts["m"], bundle.parts["v"], bundle.parts["r"]
    if m.shape != v.shape or m.shape[-1] != 1 or m.shape[:-1] != r.shape[:-1]:
        raise ShapeError(
            f"inconsistent mvd component shapes m={m.shape} v={v.shape} r={r.shape}"
        )
    return r * (v + cfg.epsilon) + m


def stl_decompose(y: np.ndarray, cfg: StlConfig) -> ComponentBundle:
    """Trend by kappa_t average, seasonal by kappa_s average of the
    detrended series, remainder r = y - t - s."""
    a = np.asarray(y, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] < 1:
        raise ShapeError(f"stl needs a 2-D or batched window, got shape {a.shape}")
    trend = moving_average(a, cfg.kappa_t)
    detrended = a - trend
    seasonal = moving_average(detrended, cfg.kappa_s)
    resid = detrended - seasonal
    return ComponentBundle("stl", {"t": trend, "s": seasonal, "r": resid})


def stl_recombine(bundle: ComponentBundle, cfg: StlConfig) -> np.ndarray:
    """Exact inverse by telescoping: t + s + r."""
    if bundle.kind != "stl":
        raise ValueError(f"expected an stl bundle, got {bundle.kind!r}")
    t, s, r = bundle.parts["t"], bundle.parts["s"], bundle.parts["r"]
    if not (t.shape == s.shape == r.shape):
        raise ShapeError(
            f"inconsistent stl component shapes t={t.shape} s={s.shape} r={r.shape}"
        )
    return t + s + r


def decompose(y: np.ndarray, cfg) -> ComponentBundle:
    if isinstance(cfg, MvdConfig):
        return mvd_decompose(y, cfg)
    if isinstance(cfg, StlConfig):
        return stl_decompose(y, cfg)
    raise TypeError(f"unsupported decomposer config {type(cfg).__name__}")


def linear_map(cfg, length: int) -> dict | None:
    """Each part's (length, length) matrix M, with ``x @ M`` that part of
    ``decompose(x, cfg)`` up to rounding, or None if the decomposer is not
    linear.

    stl is linear: its moving averages and differences are fixed linear
    maps of the window, so row i of M is the part of the unit window e_i,
    and the matrices are ``stl_decompose`` run on the identity's rows. mvd
    is not: its variance and the residual's division by it are not linear
    in the window, and it gives None.
    """
    if isinstance(cfg, MvdConfig):
        return None
    if isinstance(cfg, StlConfig):
        return stl_decompose(np.eye(length), cfg).parts
    raise TypeError(f"unsupported decomposer config {type(cfg).__name__}")


def recombine(bundle: ComponentBundle, cfg) -> np.ndarray:
    if isinstance(cfg, MvdConfig):
        return mvd_recombine(bundle, cfg)
    if isinstance(cfg, StlConfig):
        return stl_recombine(bundle, cfg)
    raise TypeError(f"unsupported decomposer config {type(cfg).__name__}")
