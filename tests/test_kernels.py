"""Kernel primitives against quadrature oracles and hand-computed values."""

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from aggmogp.errors import (
    DegenerateInterval,
    DimensionMismatch,
    LengthMismatch,
)
from aggmogp.geometry import GridSpec, Interval
from aggmogp.kernels import (
    se_antideriv2,
    se_antideriv2_dlog,
    se_point_interval,
    se_point_interval_dlog,
    se_value,
    se_value_dlog,
)
from oracles import (
    DistanceHistogram,
    kernel_eval,
    se_double_interval,
    support_cov_bucketed,
    support_cov_grid,
)


def profile(d, b):
    return np.exp(-(d * d) / (2.0 * b * b))


def quad_point_interval(x, lo, hi, b):
    val, err = quad(
        lambda t: profile(t - x, b), lo, hi, limit=200, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-12
    return val

def quad_double_interval(lo1, hi1, lo2, hi2, b):
    val, err = dblquad(
        lambda t, u: profile(t - u, b), lo1, hi1, lambda _: lo2, lambda _: hi2
    )
    assert err < 1e-11
    return val


class TestSEKernel:
    def test_frozen_values(self):
        k1 = 1.0
        # exp(-1/2) at unit distance, unit scale.
        np.testing.assert_allclose(
            kernel_eval(k1, 0.0, 1.0), 0.6065306597, atol=1e-10
        )
        # Doubling distance and scale together leaves the value unchanged.
        k2 = 2.0
        np.testing.assert_allclose(
            kernel_eval(k2, 0.0, 2.0), 0.6065306597, atol=1e-10
        )

    def test_zero_distance(self):
        k = 0.7
        assert kernel_eval(k, 1.3, 1.3) == 1.0

    def test_symmetry(self):
        k = 0.4
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=2)
            assert kernel_eval(k, x, y) == kernel_eval(k, y, x)

    def test_multidimensional_points(self):
        k = 1.0
        got = kernel_eval(k, [0.0, 0.0], [3.0, 4.0])
        np.testing.assert_allclose(got, np.exp(-12.5))

    def test_dimension_mismatch(self):
        k = 1.0
        with pytest.raises(DimensionMismatch):
            kernel_eval(k, [0.0], [0.0, 1.0])


class TestPointIntervalIntegral:
    def test_against_quadrature(self):
        cases = [
            (0.0, Interval(-1.0, 1.0), 1.0),
            (0.3, Interval(0.0, 2.0), 0.5),
            (-2.0, Interval(1.0, 4.0), 1.7),
            (5.0, Interval(0.0, 1.0), 0.25),
        ]
        for x, iv, b in cases:
            got = se_point_interval(x, iv.lo, iv.hi, b)
            want = quad_point_interval(x, iv.lo, iv.hi, b)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_full_line_limit(self):
        # Integrating over (-50, 50) at unit scale captures the whole
        # Gaussian mass: sqrt(2 pi).
        k = 1.0
        got = se_point_interval(0.0, -50.0, 50.0, k)
        np.testing.assert_allclose(got, 2.5066282746, atol=1e-10)
        np.testing.assert_allclose(got, np.sqrt(2.0 * np.pi), atol=1e-12)

    def test_dlog_matches_finite_differences(self):
        # Points left of, at, inside and right of [lo, hi].
        h, lo, hi = 1e-6, -0.4, 1.1
        x = np.array([-3.0, -1.0, -0.4, 0.0, 0.7, 1.1, 1.6, 4.0])
        for b in [0.3, 1.0, 2.5]:
            got = se_point_interval_dlog(x, lo, hi, b)
            want = (
                se_point_interval(x, lo, hi, b * np.exp(h))
                - se_point_interval(x, lo, hi, b * np.exp(-h))
            ) / (2.0 * h)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


class TestDoubleIntervalIntegral:
    def test_against_quadrature(self):
        cases = [
            (Interval(0.0, 1.0), Interval(0.0, 1.0), 1.0),
            (Interval(0.0, 2.0), Interval(1.0, 3.0), 0.6),
            (Interval(-1.0, 0.5), Interval(2.0, 2.5), 0.8),
            (Interval(0.0, 0.3), Interval(0.1, 0.2), 2.0),
        ]
        for iv1, iv2, b in cases:
            got = se_double_interval(iv1.lo, iv1.hi, iv2.lo, iv2.hi, b)
            want = quad_double_interval(iv1.lo, iv1.hi, iv2.lo, iv2.hi, b)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_swap_is_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = float(rng.uniform(-3, 3))
            b_ = a + float(rng.uniform(0.1, 2))
            c = float(rng.uniform(-3, 3))
            d = c + float(rng.uniform(0.1, 2))
            b = float(rng.uniform(0.2, 2))
            iv1, iv2 = Interval(a, b_), Interval(c, d)
            assert se_double_interval(
                iv1.lo, iv1.hi, iv2.lo, iv2.hi, b
            ) == se_double_interval(iv2.lo, iv2.hi, iv1.lo, iv1.hi, b)

    def test_wide_kernel_limit(self):
        # At a length scale of 1e6 the kernel is flat over unit intervals,
        # so the averaged double integral approaches 1.
        k = 1e6
        val = se_double_interval(0.0, 1.0, 3.0, 4.0, k)
        np.testing.assert_allclose(val, 1.0, atol=1e-6)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            Interval(2.0, 2.0)


class TestAntiderivative:
    def test_second_derivative_is_profile(self):
        # F''(z) should reproduce the kernel profile; central differences.
        b = 0.7
        h = 1e-4
        for z in [-2.0, -0.3, 0.0, 0.5, 1.7]:
            f2 = (
                se_antideriv2(z + h, b)
                - 2.0 * se_antideriv2(z, b)
                + se_antideriv2(z - h, b)
            ) / (h * h)
            np.testing.assert_allclose(f2, profile(z, b), atol=1e-6)

    def test_even_function(self):
        b = 1.3
        for z in [0.1, 0.9, 2.4]:
            assert se_antideriv2(z, b) == se_antideriv2(-z, b)

    def test_dlog_matches_finite_differences(self):
        h = 1e-6
        for z in [-1.5, 0.0, 0.4, 2.0]:
            for b in [0.3, 1.0, 2.5]:
                got = se_antideriv2_dlog(z, b)
                want = (
                    se_antideriv2(z, b * np.exp(h))
                    - se_antideriv2(z, b * np.exp(-h))
                ) / (2.0 * h)
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


class TestSEValueDerivative:
    def test_dlog_matches_finite_differences(self):
        h = 1e-6
        d2 = np.array([0.0, 0.3, 1.0, 7.5])
        for b in [0.5, 1.0, 3.0]:
            got = se_value_dlog(d2, b)
            want = (se_value(d2, b * np.exp(h)) - se_value(d2, b * np.exp(-h))) / (
                2.0 * h
            )
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-10)


class TestGridPathConvergence:
    def grid_average(self, iv1, iv2, b, per_unit):
        n1 = max(2, int(round(iv1.length * per_unit)))
        n2 = max(2, int(round(iv2.length * per_unit)))
        # Midpoint discretization of both intervals.
        p1 = iv1.lo + (np.arange(n1) + 0.5) * (iv1.length / n1)
        p2 = iv2.lo + (np.arange(n2) + 0.5) * (iv2.length / n2)
        w1 = np.full(n1, 1.0 / n1)
        w2 = np.full(n2, 1.0 / n2)
        return support_cov_grid(b, w1, p1, w2, p2)

    def test_matches_closed_form_at_fine_resolution(self):
        cases = [
            (Interval(0.0, 1.0), Interval(0.5, 2.0), 0.5),
            (Interval(0.0, 2.0), Interval(0.0, 2.0), 1.0),
            (Interval(-1.0, 0.0), Interval(1.0, 2.5), 0.7),
        ]
        for iv1, iv2, b in cases:
            closed = se_double_interval(iv1.lo, iv1.hi, iv2.lo, iv2.hi, b) / (
                iv1.length * iv2.length
            )
            grid = self.grid_average(iv1, iv2, b, per_unit=1000)
            np.testing.assert_allclose(grid, closed, atol=1e-4)

    def test_error_non_increasing_over_doublings(self):
        iv1, iv2, b = Interval(0.0, 1.0), Interval(0.5, 2.0), 0.5
        closed = se_double_interval(iv1.lo, iv1.hi, iv2.lo, iv2.hi, b) / (
            iv1.length * iv2.length
        )
        errors = []
        for per_unit in (1000, 2000, 4000):
            errors.append(abs(self.grid_average(iv1, iv2, b, per_unit) - closed))
        assert errors[1] <= errors[0] + 1e-15
        assert errors[2] <= errors[1] + 1e-15


class TestSupportCovGrid:
    def test_single_points_reduce_to_eval(self):
        k = 0.8
        got = support_cov_grid(k, [1.0], [[0.0]], [1.0], [[1.2]])
        np.testing.assert_allclose(got, kernel_eval(k, 0.0, 1.2), atol=1e-15)

    def test_two_point_hand_case(self):
        k = 1.0
        got = support_cov_grid(
            k, [0.5, 0.5], [0.0, 1.0], [1.0], [2.0]
        )
        want = 0.5 * (profile(2.0, 1.0) + profile(1.0, 1.0))
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_explicit_double_loop(self):
        rng = np.random.default_rng(5)
        k = 0.6
        for _ in range(10):
            pn = rng.normal(size=(4, 2))
            pm = rng.normal(size=(3, 2))
            wn = rng.uniform(size=4)
            wm = rng.uniform(size=3)
            want = 0.0
            for i in range(4):
                for j in range(3):
                    d = np.sqrt(((pn[i] - pm[j]) ** 2).sum())
                    want += wn[i] * wm[j] * profile(d, 0.6)
            got = support_cov_grid(k, wn, pn, wm, pm)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_dimension_mismatch(self):
        k = 1.0
        with pytest.raises(DimensionMismatch):
            support_cov_grid(k, [1.0], [[0.0]], [1.0], [[0.0, 1.0]])

    def test_weight_length_mismatch(self):
        k = 1.0
        with pytest.raises(LengthMismatch):
            support_cov_grid(k, [1.0, 1.0], [[0.0]], [1.0], [[0.0]])

    def test_psd_gram_over_random_supports(self):
        rng = np.random.default_rng(17)
        k = 0.5
        pts = rng.uniform(0, 4, size=(30, 1))
        supports = []
        for _ in range(8):
            idx = rng.choice(30, size=int(rng.integers(2, 7)), replace=False)
            supports.append((np.full(idx.size, 1.0 / idx.size), pts[idx]))
        M = np.empty((8, 8))
        for i, (wi, pi) in enumerate(supports):
            for j, (wj, pj) in enumerate(supports):
                M[i, j] = support_cov_grid(k, wi, pi, wj, pj)
        eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
        assert eigs.min() >= -1e-10


class TestDistanceHistogram:
    def test_hand_counts_1d(self):
        grid = GridSpec(origin=(0.0,), cell_size=(1.0,), shape=(8,))
        hist = DistanceHistogram.from_member_indices(grid, [0, 1], [0, 1])
        assert hist.as_dict() == {0.0: 2, 1.0: 2}

    def test_counts_cover_all_pairs(self):
        grid = GridSpec(origin=(0.0, 0.0), cell_size=(1.0, 0.5), shape=(5, 5))
        rng = np.random.default_rng(2)
        for _ in range(10):
            left = rng.choice(25, size=int(rng.integers(1, 8)), replace=False)
            right = rng.choice(25, size=int(rng.integers(1, 8)), replace=False)
            hist = DistanceHistogram.from_member_indices(grid, left, right)
            assert int(hist.counts.sum()) == left.size * right.size

    def test_counts_sum_invariant_enforced(self):
        with pytest.raises(ValueError):
            DistanceHistogram(
                sq_dists=np.array([0.0]),
                counts=np.array([3]),
                n_left=2,
                n_right=2,
            )

    def test_bucketed_frozen_value(self):
        # Four pairs at distance zero, averaging norms 1/2 each: the
        # aggregate covariance of two identical supports is exactly 1.
        hist = DistanceHistogram(
            sq_dists=np.array([0.0]), counts=np.array([4]), n_left=2, n_right=2
        )
        k = 1.0
        assert support_cov_bucketed(k, hist, 0.5, 0.5) == 1.0

    def test_equal_offsets_share_one_float(self):
        grid = GridSpec(origin=(0.0,), cell_size=(0.1,), shape=(50,))
        hist = DistanceHistogram.from_member_indices(
            grid, [0, 10, 20], [5, 15, 25]
        )
        # Offsets 5, 15 and 25 each appear multiple times across the
        # cross product; the histogram must collapse them exactly.
        assert hist.sq_dists.size == len(set(hist.sq_dists.tolist()))


class TestBucketedEquivalence:
    def test_matches_naive_on_random_cellsets(self):
        rng = np.random.default_rng(23)
        grid = GridSpec(origin=(0.0, 0.0), cell_size=(0.3, 0.7), shape=(9, 7))
        pts = grid.points
        for trial in range(25):
            k = float(rng.uniform(0.2, 3.0))
            left = rng.choice(63, size=int(rng.integers(1, 12)), replace=False)
            right = rng.choice(63, size=int(rng.integers(1, 12)), replace=False)
            hist = DistanceHistogram.from_member_indices(grid, left, right)
            nl = 1.0 / left.size
            nr = 1.0 / right.size
            got = support_cov_bucketed(k, hist, nl, nr)
            want = support_cov_grid(
                k,
                np.full(left.size, nl),
                pts[left],
                np.full(right.size, nr),
                pts[right],
            )
            np.testing.assert_allclose(got, want, rtol=1e-12)
