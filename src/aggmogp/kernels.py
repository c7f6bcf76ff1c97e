"""Squared exponential kernels and their aggregation integrals.

Latent processes share a unit signal variance; amplitude lives in the
mixing weights, so a kernel is fully described by its length scale. Three
covariance primitives are provided:

* point to point (``eval``),
* point to interval and interval to interval in closed form via the error
  function (1-D only),
* grid sums for arbitrary member-point sets, either naive
  (``support_cov_grid``) or grouped by squared distance
  (``support_cov_bucketed``), which is exact because the kernel only sees
  the distance.

The model and prediction modules use the vectorized building blocks
(``sq_dists``, ``se_value``, ``se_value_dlog``, ``se_antideriv2``,
``se_antideriv2_dlog`` and ``se_point_interval``); the model's support
covariance table builds grid sums from per-axis grams instead of
distance histograms. The scalar primitives, ``support_cov_grid``,
``DistanceHistogram`` and ``support_cov_bucketed`` are tested reference
implementations.

The closed forms build on the identity that
``F(z) = sqrt(pi/2) * b * z * erf(z / (sqrt(2) b)) + b^2 * exp(-z^2 / (2 b^2))``
has second derivative ``exp(-z^2 / (2 b^2))``, so the rectangle integral is
an alternating sum of four F evaluations. F is even, and the alternating
sum is grouped as ``(F1 + F4) - (F2 + F3)`` so that swapping the two
intervals reproduces the result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DimensionMismatch, LengthMismatch
from .geometry import GridSpec, Interval

_HALF_SQRT_2PI = np.sqrt(np.pi / 2.0)


@dataclass(frozen=True)
class SEKernel:
    """Squared exponential kernel with unit signal variance.

    The only free parameter is the log length scale; signal variance is
    pinned to 1 because output amplitudes are carried by mixing weights.
    """

    log_length_scale: float

    SIGNAL_VARIANCE = 1.0

    def __post_init__(self):
        object.__setattr__(self, "log_length_scale", float(self.log_length_scale))
        if not np.isfinite(self.log_length_scale):
            raise ValueError("log length scale must be finite")

    @property
    def length_scale(self) -> float:
        return float(np.exp(self.log_length_scale))

    @classmethod
    def from_length_scale(cls, length_scale: float) -> "SEKernel":
        if length_scale <= 0:
            raise ValueError("length scale must be positive")
        return cls(np.log(length_scale))


@dataclass(frozen=True)
class KernelSet:
    """Ordered collection of latent-process kernels."""

    kernels: tuple[SEKernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.kernels) == 0:
            raise ValueError("kernel set must not be empty")

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self):
        return iter(self.kernels)

    def __getitem__(self, i) -> SEKernel:
        return self.kernels[i]

    @property
    def log_length_scales(self) -> np.ndarray:
        return np.array([k.log_length_scale for k in self.kernels])

    @property
    def length_scales(self) -> np.ndarray:
        return np.exp(self.log_length_scales)

    @classmethod
    def from_length_scales(cls, scales) -> "KernelSet":
        return cls(tuple(SEKernel.from_length_scale(s) for s in scales))

    @classmethod
    def from_log_length_scales(cls, log_scales) -> "KernelSet":
        return cls(tuple(SEKernel(s) for s in log_scales))


# Vectorized building blocks. These accept arrays and are shared by the
# scalar primitives below and the batched covariance assembly in the model
# module, so both routes evaluate the same expressions.


def sq_dists(a, b):
    """Squared distances between the rows of two (n, ndim) point arrays."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def se_value(sq_dist, length_scale):
    """exp(-d^2 / (2 b^2)) for squared distances ``sq_dist``."""
    b2 = length_scale * length_scale
    return np.exp(np.asarray(sq_dist) / (-2.0 * b2))


def se_value_dlog(sq_dist, length_scale):
    """Derivative of :func:`se_value` with respect to log length scale."""
    sq_dist = np.asarray(sq_dist)
    b2 = length_scale * length_scale
    return np.exp(sq_dist / (-2.0 * b2)) * (sq_dist / b2)


def se_antideriv2(z, length_scale):
    """Second antiderivative F of the kernel profile, F'' = se profile."""
    z = np.asarray(z)
    b = length_scale
    u = z / (np.sqrt(2.0) * b)
    return _HALF_SQRT_2PI * b * z * erf(u) + b * b * np.exp((z * z) / (-2.0 * b * b))


def se_antideriv2_dlog(z, length_scale):
    """Derivative of F with respect to log length scale at fixed z."""
    z = np.asarray(z)
    b = length_scale
    u = z / (np.sqrt(2.0) * b)
    gauss = np.exp((z * z) / (-2.0 * b * b))
    # dF/db = sqrt(pi/2) z erf(u) + 2 b exp(-z^2 / (2 b^2)); chain by b.
    return b * (_HALF_SQRT_2PI * z * erf(u) + 2.0 * b * gauss)


def se_point_interval(x, lo, hi, length_scale):
    """Integral of the kernel profile from lo to hi, source point at x."""
    b = length_scale
    s = np.sqrt(2.0) * b
    return _HALF_SQRT_2PI * b * (erf((hi - x) / s) - erf((lo - x) / s))


def se_double_interval(lo1, hi1, lo2, hi2, length_scale):
    """Double integral of the kernel profile over [lo1,hi1] x [lo2,hi2]."""
    f1 = se_antideriv2(hi1 - lo2, length_scale)
    f2 = se_antideriv2(lo1 - lo2, length_scale)
    f3 = se_antideriv2(hi1 - hi2, length_scale)
    f4 = se_antideriv2(lo1 - hi2, length_scale)
    # Grouping keeps interval swap bit-exact; see module docstring.
    return (f1 + f4) - (f2 + f3)


# Scalar primitives.


def eval(kernel: SEKernel, x, x2) -> float:
    """Kernel value between two points of equal dimension."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatch(
            f"points of dimension {a.shape} and {b.shape} are not comparable"
        )
    d2 = float(np.sum((a - b) ** 2))
    return float(se_value(d2, kernel.length_scale))


def integral_point_interval(kernel: SEKernel, x, interval: Interval) -> float:
    """Closed-form integral of k(x, .) over an interval (1-D)."""
    xv = float(np.asarray(x).reshape(()))
    return float(
        se_point_interval(xv, interval.lo, interval.hi, kernel.length_scale)
    )


def double_integral_interval(
    kernel: SEKernel, first: Interval, second: Interval
) -> float:
    """Closed-form double integral of the kernel over two intervals.

    For intervals separated by many length scales the alternating erf sum
    cancels almost completely; the result is then exact only to roughly
    1e-16 of the individual terms, which is far below any covariance
    entry that matters.
    """
    return float(
        se_double_interval(
            first.lo, first.hi, second.lo, second.hi, kernel.length_scale
        )
    )


def support_cov_grid(kernel: SEKernel, weights_n, points_n, weights_m, points_m) -> float:
    """Weighted double sum of kernel values over two member-point sets."""
    wn = np.asarray(weights_n, dtype=float)
    wm = np.asarray(weights_m, dtype=float)
    pn = np.asarray(points_n, dtype=float)
    pm = np.asarray(points_m, dtype=float)
    if pn.ndim == 1:
        pn = pn[:, None]
    if pm.ndim == 1:
        pm = pm[:, None]
    if pn.shape[1] != pm.shape[1]:
        raise DimensionMismatch(
            f"point sets of dimension {pn.shape[1]} and {pm.shape[1]}"
        )
    if wn.shape[0] != pn.shape[0] or wm.shape[0] != pm.shape[0]:
        raise LengthMismatch("weight vectors must match their point sets")
    d2 = ((pn[:, None, :] - pm[None, :, :]) ** 2).sum(axis=2)
    return float(wn @ se_value(d2, kernel.length_scale) @ wm)


@dataclass(frozen=True)
class DistanceHistogram:
    """Pair counts grouped by exact squared distance.

    Grid regularity makes equal index offsets produce bit-identical
    squared distances, so grouping by the float value itself is safe. The
    counts must account for every pair of member points.
    """

    sq_dists: np.ndarray
    counts: np.ndarray
    n_left: int
    n_right: int

    def __post_init__(self):
        sq = np.asarray(self.sq_dists, dtype=float)
        ct = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "sq_dists", sq)
        object.__setattr__(self, "counts", ct)
        if sq.shape != ct.shape or sq.ndim != 1:
            raise ValueError("sq_dists and counts must be 1-D and aligned")
        if int(ct.sum()) != self.n_left * self.n_right:
            raise ValueError(
                f"histogram counts sum to {int(ct.sum())}, expected"
                f" {self.n_left * self.n_right}"
            )

    @classmethod
    def from_member_indices(cls, grid: GridSpec, left, right) -> "DistanceHistogram":
        """Build from two member-index sets on one grid.

        Index offsets are grouped exactly (integer arithmetic), then each
        distinct offset contributes a single squared distance, so equal
        offsets share one float value bit for bit.
        """
        li = grid.multi_index(np.asarray(left, dtype=np.int64))
        ri = grid.multi_index(np.asarray(right, dtype=np.int64))
        diff = np.abs(li[:, None, :] - ri[None, :, :])
        key = np.ravel_multi_index(
            tuple(diff[:, :, d].ravel() for d in range(grid.ndim)), grid.shape
        )
        uniq, counts = np.unique(key, return_counts=True)
        offs = np.stack(np.unravel_index(uniq, grid.shape), axis=1)
        cell = np.asarray(grid.cell_size)
        sq = ((offs * cell) ** 2).sum(axis=1)
        order = np.argsort(sq, kind="stable")
        return cls(
            sq_dists=sq[order],
            counts=counts[order],
            n_left=li.shape[0],
            n_right=ri.shape[0],
        )

    def as_dict(self) -> dict:
        return {float(d): int(c) for d, c in zip(self.sq_dists, self.counts)}


def support_cov_bucketed(
    kernel: SEKernel, hist: DistanceHistogram, norm_left: float, norm_right: float
) -> float:
    """Constant-weight support covariance from a distance histogram.

    ``norm_left`` and ``norm_right`` are the per-point weights (1/count
    for averaging, 1 for summation); constant weights are what makes the
    distance grouping exact.
    """
    vals = se_value(hist.sq_dists, kernel.length_scale)
    return float(norm_left * norm_right * (hist.counts @ vals))
