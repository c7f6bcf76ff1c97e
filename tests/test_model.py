"""Covariance assembly, likelihood, KL and dataset plumbing.

The central oracle materializes the aggregation matrix A and the full
grid gram K and compares assemble_C against A K A^T + Sigma directly.
"""

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    cells_support,
    interval_support,
    oracle_covariance,
    se_gram,
    single_series_dataset,
    two_domain_instance,
    two_series_instance,
    unit_grid_domain,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from aggmogp import model, utils
from aggmogp.errors import (
    CholeskyFailure,
    DataError,
    DimensionMismatch,
)
from aggmogp.geometry import SUM
from aggmogp.model import (
    JITTER_BASE,
    AggregatedDataset,
    DatasetRecord,
    ModelState,
    assemble_C,
    chol_solve,
    chol_with_jitter,
    floor_active,
    floor_var,
    init_state,
    kl_weights,
    latent_sign_flips,
    log_likelihood,
    override_length_scales,
    sample_weights,
    uniform_rules,
)

LOG_2PI = np.log(2.0 * np.pi)


def point_dataset(centers, values, n_grid=8, hi=None, attribute_id="a0"):
    """Single-cell supports at the given grid indices: point observations."""
    dom = unit_grid_domain(n_grid, 0.0, hi if hi is not None else float(n_grid))
    supports = [cells_support([c], f"p{c}", dom.id) for c in centers]
    return dom, single_series_dataset(dom, supports, values, attribute_id)


class TestAssembleAgainstOracle:
    def test_two_attribute_block_instance(self):
        domain, dataset, records = two_series_instance()
        dd = dataset.prepared("d0")
        rng = np.random.default_rng(42)
        W = rng.standard_normal((2, 2))
        scales = np.array([0.9, 2.4])
        noise = np.array([0.05, 0.08])
        got = assemble_C(dd, W, scales, np.log(noise))
        want = oracle_covariance(domain, records, W, scales, noise)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_interval_supports_with_sum_rule(self):
        # Sum aggregation keeps interval supports on the grid path, so the
        # explicit A matrix applies exactly.
        dom = unit_grid_domain(32, 0.0, 8.0)
        supports = [
            interval_support(0.0, 2.0, "s0"),
            interval_support(2.0, 5.0, "s1"),
            interval_support(5.0, 8.0, "s2"),
        ]
        ds = single_series_dataset(
            dom, supports, [1.0, -2.0, 0.5], rules=(SUM, SUM, SUM)
        )
        dd = ds.prepared("d0")
        W = np.array([[0.7, -1.1]])
        scales = np.array([0.5, 1.5])
        got = assemble_C(dd, W, scales, np.log([0.01]))
        want = oracle_covariance(dom, ds.records, W, scales, [0.01])
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_closed_form_path_matches_fine_grid(self):
        # Averaged intervals take the erf route; a much finer grid than the
        # domain's own shows both paths integrate the same kernel.
        dom = unit_grid_domain(16, 0.0, 4.0)
        supports = [
            interval_support(0.0, 1.0, "s0"),
            interval_support(1.0, 2.5, "s1"),
            interval_support(2.5, 4.0, "s2"),
        ]
        ds = single_series_dataset(dom, supports, [0.3, -0.1, 0.8])
        dd = ds.prepared("d0")
        W = np.array([[1.2]])
        scale = 0.7
        got = assemble_C(dd, W, [scale], np.log([0.0001]))
        fine = unit_grid_domain(4000, 0.0, 4.0)
        ds_fine = single_series_dataset(fine, supports, [0.3, -0.1, 0.8])
        want = oracle_covariance(fine, ds_fine.records, W, [scale], [0.0001])
        np.testing.assert_allclose(got, want, atol=1e-4)


class TestAssembleCases:
    def test_two_point_frozen_example(self):
        # Two unit-weight point observations one length scale apart:
        # off-diagonal exp(-1/2), diagonal 1 + noise 0.1.
        dom, ds = point_dataset([2, 3], [0.1, -0.2])
        dd = ds.prepared("d0")
        C = assemble_C(
            dd,
            np.array([[1.0]]),
            [1.0],
            np.log([0.1]),
        )
        want = np.array([[1.1, 0.6065306597], [0.6065306597, 1.1]])
        np.testing.assert_allclose(C, want, atol=1e-10)

    def test_zero_weights_leave_noise_only(self):
        _, dataset, _ = two_series_instance()
        dd = dataset.prepared("d0")
        C = assemble_C(
            dd,
            np.zeros((2, 2)),
            [1.0, 2.0],
            np.log([0.3, 0.4]),
        )
        want = np.diag(dd.expand_rows(np.array([0.3, 0.4])))
        np.testing.assert_allclose(C, want, atol=1e-15)

    def test_exact_symmetry(self):
        _, dataset, _ = two_series_instance()
        dd = dataset.prepared("d0")
        rng = np.random.default_rng(3)
        C = assemble_C(
            dd,
            rng.standard_normal((2, 2)),
            [0.8, 1.7],
            np.log([0.1, 0.1]),
        )
        assert np.array_equal(C, C.T)

    def test_point_supports_reduce_to_plain_gram(self):
        centers = [0, 2, 5, 7]
        dom, ds = point_dataset(centers, [0.0, 1.0, -1.0, 0.5])
        dd = ds.prepared("d0")
        W = np.array([[0.9]])
        scale = 1.3
        C = assemble_C(dd, W, [scale], np.log([0.2]))
        pts = dom.grid.points[centers, 0]
        want = 0.81 * se_gram(pts, scale) + 0.2 * np.eye(4)
        np.testing.assert_allclose(C, want, atol=1e-10)

    def test_weight_shape_checked(self):
        _, dataset, _ = two_series_instance()
        dd = dataset.prepared("d0")
        with pytest.raises(DimensionMismatch):
            assemble_C(
                dd,
                np.zeros((3, 2)),
                [1.0, 1.0],
                np.log([0.1, 0.1]),
            )


class TestLogLikelihood:
    def test_standard_normal_frozen(self):
        # Unit covariance absorbs the 1e-8 jitter far below the tolerance.
        np.testing.assert_allclose(
            log_likelihood(np.array([0.0]), np.eye(1)), -0.9189385332, atol=1e-8
        )
        np.testing.assert_allclose(
            log_likelihood(np.array([1.0]), np.eye(1)), -1.4189385332, atol=1e-8
        )
        np.testing.assert_allclose(
            log_likelihood(np.zeros(2), np.eye(2)), -1.8378770664, atol=1e-8
        )

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 5
            B = rng.standard_normal((n, n))
            C = B @ B.T + n * np.eye(n)
            y = rng.standard_normal(n)
            want = (
                -0.5 * y @ np.linalg.solve(C, y)
                - 0.5 * np.linalg.slogdet(C)[1]
                - 0.5 * n * LOG_2PI
            )
            np.testing.assert_allclose(log_likelihood(y, C), want, atol=1e-7)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(1)
        n = 6
        B = rng.standard_normal((n, n))
        C = B @ B.T + n * np.eye(n)
        y = rng.standard_normal(n)
        perm = rng.permutation(n)
        base = log_likelihood(y, C)
        permuted = log_likelihood(y[perm], C[np.ix_(perm, perm)])
        np.testing.assert_allclose(permuted, base, atol=1e-9)


class TestCholWithJitter:
    def test_base_jitter_on_healthy_matrix(self):
        C = np.diag([2.0, 4.0])
        L, jitter = chol_with_jitter(C)
        np.testing.assert_allclose(jitter, 1e-8 * 3.0)
        np.testing.assert_allclose(L @ L.T, C + jitter * np.eye(2), atol=1e-14)

    def test_escalation_on_rank_deficiency(self):
        # Rank-1 matrix: the base jitter is enough here, but a strongly
        # negative eigenvalue forces escalation and eventually failure.
        v = np.array([1.0, 1.0])
        C = np.outer(v, v)
        L, jitter = chol_with_jitter(C)
        assert jitter >= 1e-8

    def test_failure_on_indefinite(self):
        C = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(CholeskyFailure):
            chol_with_jitter(C)

    @staticmethod
    def one_negative_eigenvalue(eig):
        # I - (1 - eig) v v^T with unit v: eigenvalue eig along v, 1 elsewhere.
        v = np.full(4, 0.5)
        return np.eye(4) - (1.0 - eig) * np.outer(v, v)

    def test_escalation_stops_at_the_needed_jitter(self):
        C = self.one_negative_eigenvalue(-5e-7)
        L, jitter = chol_with_jitter(C)
        # 1e-7 * mean(diag) = 7.5e-8 is too little; 1e-6 * mean(diag) is enough.
        assert jitter == pytest.approx(1e-6 * np.mean(np.diag(C)), rel=1e-12)
        np.testing.assert_allclose(L @ L.T, C + jitter * np.eye(4), atol=1e-14)

    def test_no_attempt_past_the_cap(self):
        # Jitter 1e-3 * mean(diag) would factorize this, but the cap is 1e-4.
        C = self.one_negative_eigenvalue(-5e-4)
        last = 1e-4 * np.mean(np.diag(C))
        with pytest.raises(CholeskyFailure, match=f"at jitter {last:.3e}$"):
            chol_with_jitter(C)

    def test_failure_on_nonfinite(self):
        C = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(CholeskyFailure):
            chol_with_jitter(C)


@st.composite
def jittered_spd(draw):
    """``(C, escalations)``: a random symmetric matrix whose factorization
    succeeds after that many tenfold jitter escalations (zero, one or
    two), from random orthonormal axes and eigenvalues, one of them
    ``-5 * 10**(escalations - 9)`` times the mean diagonal when negative."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(0.1, 10.0, n) * 10.0 ** draw(st.integers(-3, 3))
    escalations = draw(st.integers(0, 2)) if n > 1 else 0
    if escalations:
        ratio = 5.0 * 10.0 ** (escalations - 9)
        # mean diag m = (P + eig[0]) / n with eig[0] = -ratio * m.
        eig[0] = -ratio * np.sum(eig[1:]) / (n + ratio)
    C = (q * eig) @ q.T
    return 0.5 * (C + C.T), escalations


class TestLapackPathMatchesScipy:
    """The direct LAPACK calls equal scipy's wrappers bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(draw=jittered_spd())
    def test_factor_and_solves(self, draw):
        C, escalations = draw
        n = C.shape[0]
        L, jitter = chol_with_jitter(C)
        mult = JITTER_BASE
        for _ in range(escalations):
            mult *= 10.0
        assert jitter == mult * np.mean(np.diag(C))
        expected = scipy.linalg.cholesky(
            C + jitter * np.eye(n), lower=True, check_finite=False
        )
        assert L.tobytes() == expected.tobytes()
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, 3))
        for b in (matrix[:, 0], matrix, np.asfortranarray(matrix)):
            want = scipy.linalg.cho_solve((L, True), b, check_finite=False)
            assert chol_solve(L, b).tobytes() == want.tobytes()
        inplace = np.asfortranarray(matrix)
        solved = chol_solve(L, inplace, overwrite_b=True)
        assert solved.tobytes() == want.tobytes()
        assert np.shares_memory(solved, inplace)


class TestKL:
    def test_identical_distributions(self):
        assert kl_weights(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_mean_shift(self):
        # KL(N(1,1) || N(0,1)) = 1/2.
        np.testing.assert_allclose(
            kl_weights(1.0, 0.0, 0.0, 0.0), 0.5, atol=1e-12
        )

    def test_variance_ratio(self):
        # KL(N(0,2) || N(0,1)) = (2 - 1 - ln 2) / 2.
        np.testing.assert_allclose(
            kl_weights(0.0, np.log(2.0), 0.0, 0.0), 0.1534264097, atol=1e-10
        )

    def test_sums_over_shape(self):
        q_mean = np.array([[1.0, 0.0], [0.0, 0.0]])
        got = kl_weights(q_mean, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_allclose(got, 0.5, atol=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            qm, pm = rng.normal(size=2)
            qlv, plv = rng.uniform(-3, 2, size=2)
            assert kl_weights(qm, qlv, pm, plv) >= -1e-12


class TestSampleWeights:
    def test_zero_eps_returns_mean(self):
        m = np.array([[0.3, -0.7]])
        got = sample_weights(m, np.zeros_like(m), np.zeros_like(m))
        np.testing.assert_array_equal(got, m)

    def test_frozen_value(self):
        # 0.5 + 1 * sqrt(0.04) = 0.7.
        got = sample_weights(
            np.array([0.5]), np.array([np.log(0.04)]), np.array([1.0])
        )
        np.testing.assert_allclose(got, [0.7], atol=1e-12)

    def test_floored_variance_pins_draw_to_mean(self):
        got = sample_weights(np.array([2.0]), np.array([-60.0]), np.array([5.0]))
        assert abs(got[0] - 2.0) <= 5.0 * 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample_weights(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((1, 2)))


class TestFloors:
    def test_floor_var(self):
        np.testing.assert_allclose(floor_var(np.log(0.5)), 0.5)
        assert floor_var(-100.0) == pytest.approx(1e-12)

    def test_floor_active_mask(self):
        lv = np.array([0.0, -50.0])
        np.testing.assert_array_equal(floor_active(lv), [1.0, 0.0])


class TestNormalization:
    def test_zero_mean_unit_population_variance(self):
        _, dataset, _ = two_series_instance(seed=5)
        for rec in dataset.records:
            y = dataset.normalized(rec)
            np.testing.assert_allclose(y.mean(), 0.0, atol=1e-12)
            np.testing.assert_allclose(np.var(y), 1.0, atol=1e-12)

    def test_zero_variance_series_keeps_scale_one(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        supports = [interval_support(0.0, 4.0, "s0"), interval_support(4.0, 8.0, "s1")]
        ds = single_series_dataset(dom, supports, [3.0, 3.0])
        mean, scale = ds.transforms[("d0", "a0")]
        assert mean == 3.0
        assert scale == 1.0
        np.testing.assert_array_equal(ds.normalized(ds.records[0]), [0.0, 0.0])

    def test_scale_of_huge_series_does_not_overflow(self):
        # Squared deviations of 1e200 overflow; the scale must not.
        dom = unit_grid_domain(8, 0.0, 8.0)
        supports = [interval_support(0.0, 4.0, "s0"), interval_support(4.0, 8.0, "s1")]
        ds = single_series_dataset(dom, supports, [1e200, -1e200])
        assert ds.transforms[("d0", "a0")] == (0.0, 1e200)
        np.testing.assert_array_equal(ds.normalized(ds.records[0]), [1.0, -1.0])

    def test_values_near_the_float_limit_normalize_finitely(self):
        # values - mean overflows here although mean and scale are finite.
        dom = unit_grid_domain(12, 0.0, 12.0)
        supports = [
            interval_support(4.0 * k, 4.0 * (k + 1), f"s{k}") for k in range(3)
        ]
        ds = single_series_dataset(dom, supports, [-1.7e308, 1.7e308, 1.7e308])
        mean, scale = ds.transforms[("d0", "a0")]
        assert np.isfinite(mean) and np.isfinite(scale)
        y = ds.prepared("d0").y
        np.testing.assert_allclose(y, [-np.sqrt(2.0), np.sqrt(0.5), np.sqrt(0.5)])
        np.testing.assert_allclose(np.mean(y), 0.0, atol=1e-12)

    def test_denormalize_round_trip(self):
        _, dataset, _ = two_series_instance(seed=2)
        rec = dataset.records[0]
        y = dataset.normalized(rec)
        back = dataset.denormalize("d0", "a0", y)
        np.testing.assert_allclose(back, rec.values, atol=1e-12)

    def test_denormalize_variances(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        supports = [interval_support(0.0, 4.0, "s0"), interval_support(4.0, 8.0, "s1")]
        ds = single_series_dataset(dom, supports, [1.0, 5.0])
        _, scale = ds.transforms[("d0", "a0")]
        vals, var = ds.denormalize("d0", "a0", np.zeros(2), np.ones(2))
        np.testing.assert_allclose(var, np.full(2, scale * scale))

    def test_one_scale_per_attribute_across_domains(self):
        dataset = two_domain_instance(seed=3)
        r0 = dataset.record_for("d0", "a0")
        r1 = dataset.record_for("d1", "a0")
        dev = np.concatenate([r0.values - r0.values.mean(), r1.values - r1.values.mean()])
        pooled = np.sqrt(np.sum(dev * dev) / dev.size)
        m0, s0 = dataset.transforms[("d0", "a0")]
        m1, s1 = dataset.transforms[("d1", "a0")]
        assert s0 == s1
        np.testing.assert_allclose(s0, pooled, rtol=1e-14)
        # Means stay per series.
        assert m0 == r0.values.mean()
        assert m1 == r1.values.mean()
        np.testing.assert_allclose(dataset.normalized(r0).mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(dataset.normalized(r1).mean(), 0.0, atol=1e-12)
        y = np.concatenate([dataset.normalized(r0), dataset.normalized(r1)])
        np.testing.assert_allclose(np.mean(y * y), 1.0, rtol=1e-12)
        # Model files list transforms in this order, so it follows the records.
        assert list(dataset.transforms) == [r.key for r in dataset.records]
        # Attributes observed on one domain only keep their own spread.
        for key in (("d0", "a1"), ("d1", "a2")):
            rec = dataset.record_for(*key)
            assert dataset.transforms[key] == (rec.values.mean(), rec.values.std())

    def test_zero_variance_attribute_keeps_scale_one_across_domains(self):
        doms = {d: unit_grid_domain(8, 0.0, 8.0, domain_id=d) for d in ("d0", "d1")}
        records = []
        for d, level in (("d0", 3.0), ("d1", 7.0)):
            supports = [
                interval_support(0.0, 4.0, "s0", domain_id=d),
                interval_support(4.0, 8.0, "s1", domain_id=d),
            ]
            records += single_series_dataset(doms[d], supports, [level, level]).records
        ds = AggregatedDataset(doms, ("a0",), records)
        assert ds.transforms == {("d0", "a0"): (3.0, 1.0), ("d1", "a0"): (7.0, 1.0)}


class TestDatasetValidation:
    def test_value_count_mismatch(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        with pytest.raises(DataError):
            single_series_dataset(
                dom, [interval_support(0.0, 4.0, "s0")], [1.0, 2.0]
            )

    def test_non_finite_values(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        with pytest.raises(DataError):
            single_series_dataset(dom, [interval_support(0.0, 4.0, "s0")], [np.nan])

    def test_unknown_domain(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(dom, [interval_support(0.0, 4.0, "s0")], [1.0])
        with pytest.raises(DataError):
            AggregatedDataset({"other": dom}, ("a0",), ds.records)

    def test_unknown_attribute(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(dom, [interval_support(0.0, 4.0, "s0")], [1.0])
        with pytest.raises(DataError):
            AggregatedDataset({"d0": dom}, ("b0",), ds.records)

    def test_duplicate_pair(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(dom, [interval_support(0.0, 4.0, "s0")], [1.0])
        with pytest.raises(DataError):
            AggregatedDataset({"d0": dom}, ("a0",), ds.records * 2)

    def test_missing_transform_rejected(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(dom, [interval_support(0.0, 4.0, "s0")], [1.0])
        with pytest.raises(DataError):
            AggregatedDataset({"d0": dom}, ("a0",), ds.records, transforms={})


class TestDatasetViews:
    def test_drop_observation(self):
        dom = unit_grid_domain(12, 0.0, 12.0)
        supports = [
            interval_support(0.0, 4.0, "s0"),
            interval_support(4.0, 8.0, "s1"),
            interval_support(8.0, 12.0, "s2"),
        ]
        ds = single_series_dataset(dom, supports, [1.0, 2.0, 3.0])
        reduced, held = ds.drop_observation("d0", "a0", 1)
        assert held.values[0] == 2.0
        assert held.partition.supports[0].id == "s1"
        rec = reduced.records[0]
        assert rec.partition.support_ids() == ("s0", "s2")
        np.testing.assert_array_equal(rec.values, [1.0, 3.0])
        # Transforms are inherited from the full dataset, not recomputed.
        assert reduced.transforms[("d0", "a0")] == ds.transforms[("d0", "a0")]

    def test_drop_only_observation_rejected(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(dom, [interval_support(0.0, 4.0, "s0")], [1.0])
        with pytest.raises(DataError):
            ds.drop_observation("d0", "a0", 0)

    def test_as_point_observations(self):
        _, dataset, _ = two_series_instance()
        pts = dataset.as_point_observations()
        assert all(r.as_points for r in pts.records)
        assert pts.transforms == dataset.transforms

    def test_point_view_uses_centroids(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(
            dom,
            [interval_support(0.0, 4.0, "s0"), interval_support(4.0, 8.0, "s1")],
            [1.0, 2.0],
        ).as_point_observations()
        dd = ds.prepared("d0")
        np.testing.assert_allclose(dd.cov.centroids[0], [2.0])
        np.testing.assert_allclose(dd.cov.centroids[1], [6.0])

    def test_domain_order_and_attribute_lists(self):
        _, dataset, _ = two_series_instance()
        assert dataset.domain_order() == ("d0",)
        assert dataset.attributes_in("d0") == ("a0", "a1")
        assert dataset.total_attribute_count == 2


class TestModelState:
    def test_pack_unpack_round_trip(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=4)
        theta = state.pack()
        rebuilt = state.unpack(theta)
        np.testing.assert_array_equal(rebuilt.pack(), theta)

    def test_unpack_length_check(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            state.unpack(np.zeros(state.n_params + 1))

    def test_init_deterministic(self):
        _, dataset, _ = two_series_instance()
        a = init_state(dataset, 3, seed=7)
        b = init_state(dataset, 3, seed=7)
        np.testing.assert_array_equal(a.pack(), b.pack())
        c = init_state(dataset, 3, seed=8)
        assert not np.array_equal(a.pack(), c.pack())

    def test_init_length_scales_staggered(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        # Base scale is a fifth of the 8-unit extent, staggered +-10%.
        np.testing.assert_allclose(
            np.exp(state.log_length_scales), [1.6 * 0.9, 1.6 * 1.1]
        )
        single = init_state(dataset, 1, seed=0)
        np.testing.assert_allclose(np.exp(single.log_length_scales), [1.6])

    def test_init_variances(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        np.testing.assert_allclose(state.q_log_var["d0"], np.log(0.01))
        np.testing.assert_allclose(state.noise_log_var["d0"], np.log(0.1))
        np.testing.assert_array_equal(state.prior_mean, np.zeros((2, 2)))
        np.testing.assert_array_equal(state.prior_log_var, np.zeros((2, 2)))

    def test_attr_rows(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        np.testing.assert_array_equal(state.attr_rows("d0"), [0, 1])

    def test_override_length_scales(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        override_length_scales(state, [0.5, 0.25])
        np.testing.assert_allclose(np.exp(state.log_length_scales), [0.5, 0.25])
        with pytest.raises(DimensionMismatch):
            override_length_scales(state, [0.5])
        for bad in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                override_length_scales(state, [0.5, bad])
        np.testing.assert_allclose(state.length_scales, [0.5, 0.25])

    def test_init_shares_rows_across_domains(self):
        dataset = two_domain_instance()
        state = init_state(dataset, 3, seed=5)
        # One draw per observed catalogue attribute (a0, a1, a2), rows
        # handed to every domain that observes the attribute.
        draws = 0.1 * utils.stream(5, 0).standard_normal((3, 3))
        np.testing.assert_array_equal(state.q_mean["d0"], draws[[0, 1]])
        np.testing.assert_array_equal(state.q_mean["d1"], draws[[0, 2]])

    def test_single_domain_init_is_one_block_draw(self):
        _, dataset, _ = two_series_instance()
        want = 0.1 * utils.stream(4, 0).standard_normal((2, 2))
        state = init_state(dataset, 2, seed=4)
        np.testing.assert_array_equal(state.q_mean["d0"], want)
        # Unobserved catalogue attributes take no draw.
        wider = AggregatedDataset(dataset.domains, ("a0", "extra", "a1"), dataset.records)
        np.testing.assert_array_equal(init_state(wider, 2, seed=4).q_mean["d0"], want)

    def test_copy_is_deep_for_arrays(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        dup = state.copy()
        dup.q_mean["d0"][0, 0] += 1.0
        assert state.q_mean["d0"][0, 0] != dup.q_mean["d0"][0, 0]


def random_two_domain_state(seed):
    dataset = two_domain_instance(seed=seed)
    state = init_state(dataset, 2, seed=seed)
    rng = np.random.default_rng(seed + 500)
    state.prior_mean = rng.normal(size=state.prior_mean.shape)
    state.prior_log_var = rng.uniform(-2.0, 1.0, size=state.prior_log_var.shape)
    for v in state.domain_ids:
        state.q_mean[v] = rng.normal(size=state.q_mean[v].shape)
        state.q_log_var[v] = rng.uniform(-3.0, 0.0, size=state.q_log_var[v].shape)
    return dataset, state


def domain_kl(state, v):
    rows = state.attr_rows(v)
    return kl_weights(
        state.q_mean[v],
        state.q_log_var[v],
        state.prior_mean[rows],
        state.prior_log_var[rows],
    )


class TestLatentOrientation:
    def test_reflection_with_eps_keeps_domain_loglik(self):
        dataset, state = random_two_domain_state(seed=1)
        rng = np.random.default_rng(9)
        for v in state.domain_ids:
            dd = dataset.prepared(v)
            eps = rng.standard_normal(state.q_mean[v].shape)
            C = assemble_C(dd, state.draw_weights(v, eps), state.length_scales, state.noise_log_var[v])
            flipped = state.copy()
            flipped.q_mean[v][:, 1] *= -1.0
            eps_flipped = eps.copy()
            eps_flipped[:, 1] *= -1.0
            C_flipped = assemble_C(
                dd, flipped.draw_weights(v, eps_flipped), state.length_scales, state.noise_log_var[v]
            )
            assert log_likelihood(dd.y, C_flipped) == log_likelihood(dd.y, C)

    def test_flips_exactly_the_columns_that_lower_the_kl(self):
        n_flipped = 0
        for seed in range(20):
            _, state = random_two_domain_state(seed)
            flips = latent_sign_flips(state)
            for v in state.domain_ids:
                before = domain_kl(state, v)
                for l in range(state.num_latents):
                    reflected = state.copy()
                    reflected.q_mean[v][:, l] *= -1.0
                    after = domain_kl(reflected, v)
                    if flips[v][l]:
                        assert after < before
                        n_flipped += 1
                    else:
                        assert after >= before - 1e-12
        assert n_flipped > 0

    def test_no_flip_at_the_prior(self):
        _, state = random_two_domain_state(seed=4)
        for v in state.domain_ids:
            state.q_mean[v] = state.prior_mean[state.attr_rows(v)].copy()
        flips = latent_sign_flips(state)
        assert not any(f.any() for f in flips.values())


class TestUniformRules:
    def test_default_average(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(
            dom,
            [interval_support(0.0, 4.0, "s0"), interval_support(4.0, 8.0, "s1")],
            [1.0, 2.0],
        )
        rules = uniform_rules(ds.records[0].partition)
        assert all(r.kind == "average" for r in rules)
        assert len(rules) == 2

    def test_explicit_rule(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        ds = single_series_dataset(
            dom, [interval_support(0.0, 8.0, "s0")], [1.0]
        )
        rules = uniform_rules(ds.records[0].partition, SUM)
        assert rules[0].kind == "sum"


class TestVarianceFloorConstants:
    def test_values(self):
        assert model.VARIANCE_FLOOR == 1e-12
        assert model.JITTER_BASE == 1e-8
        assert model.JITTER_MAX == 1e-4
