"""Squared exponential kernels and their aggregation integrals.

Latent processes share a unit signal variance; amplitude lives in the
mixing weights, so a kernel is fully described by its length scale. The
model and prediction modules use the vectorized building blocks here:
squared distances (``sq_dists``), the kernel profile and its
log-length-scale derivative (``se_value``, ``se_value_dlog``), and the
1-D closed forms via the error function: point to interval
(``se_point_interval``, ``se_point_interval_dlog``) and the second
antiderivative ``se_antideriv2`` with its derivative ``se_antideriv2_dlog``,
from which the model's support covariance table builds interval-to-interval
integrals. Grid sums are built by the same table from per-axis grams.

The closed forms build on the identity that
``F(z) = sqrt(pi/2) * b * z * erf(z / (sqrt(2) b)) + b^2 * exp(-z^2 / (2 b^2))``
has second derivative ``exp(-z^2 / (2 b^2))``, so the rectangle integral is
an alternating sum of four F evaluations. F is even; the table
(``SupportCovTable._fill``) evaluates it once per distinct ``|z|`` and
groups the alternating sum as ``(F1 + F4) - (F2 + F3)``, so that
swapping the two intervals reproduces the result bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf


_HALF_SQRT_2PI = np.sqrt(np.pi / 2.0)


# Vectorized building blocks; every one accepts arrays.


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


def se_point_interval_dlog(x, lo, hi, length_scale):
    """Derivative of :func:`se_point_interval` in log length scale: the
    integral less ``(t - x) exp(-(t - x)^2 / (2 b^2))`` from t = lo to hi."""
    u, v, c = hi - x, lo - x, -0.5 / (length_scale * length_scale)
    edge = u * np.exp(c * u * u) - v * np.exp(c * v * v)
    return se_point_interval(x, lo, hi, length_scale) - edge
