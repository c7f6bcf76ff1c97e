"""Posterior prediction against brute-force joint-Gaussian conditioning.

The oracle builds the dense joint covariance over (per-attribute grid
fields, observations) with explicit aggregation matrices and conditions
with plain solves; the library must reproduce its means and covariances
to tight tolerance for fixed weight samples.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from conftest import (
    aggregation_matrix,
    cells_support,
    field_gram,
    interval_support,
    single_series_dataset,
    square_grid_domain,
    two_series_instance,
    unit_grid_domain,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    drop_observation,
    left_out_by_mpmath,
    left_out_by_solves,
    membership,
    pooled_point_mixture,
)
from test_support_cov import cell_set_records, grid_domains, interval_records

from aggmogp import model, prediction
from aggmogp.errors import DataError, DimensionMismatch, OutOfBounds
from aggmogp.inference import TrainConfig, fit
from aggmogp.geometry import (
    AVERAGE,
    SUM,
    AggregationRule,
    Domain,
    GridSpec,
    Partition,
    grid_block_partition,
    interval_bins,
)
from aggmogp.model import AggregatedDataset, DatasetRecord, uniform_rules
from aggmogp.model import (
    JITTER_BASE,
    SupportCovTable,
    init_state,
    override_length_scales,
)
from aggmogp.prediction import (
    conditional_posterior,
    cross_cov_H,
    draw_weight_samples,
    latent_point_support,
    predict_grid,
    predict_left_out,
    predict_supports,
)


def se_cross(a, b, scale):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * scale * scale))


def oracle_conditional(domain, records, W, scales, noise_vars, y, query, sel):
    """Condition the joint Gaussian over (fields, observations) directly.

    ``sel`` lists the attribute rows of ``W`` the query covers; query
    columns are attribute-major like the library's. The observation block
    receives the same relative jitter the library's factorization adds.
    """
    W = np.asarray(W, dtype=float)
    query = np.asarray(query, dtype=float)
    A = aggregation_matrix(domain, records)
    K_ff = field_gram(domain, W, scales)
    grid_pts = domain.grid.points
    n_q = query.shape[0]
    K_fq = np.zeros((K_ff.shape[0], len(sel) * n_q))
    K_qq = np.zeros((len(sel) * n_q,) * 2)
    for l, scale in enumerate(scales):
        cg = se_cross(grid_pts, query, scale)
        qg = se_cross(query, query, scale)
        K_fq += np.kron(np.outer(W[:, l], W[sel, l]), cg)
        K_qq += np.kron(np.outer(W[sel, l], W[sel, l]), qg)
    sig = np.concatenate(
        [
            np.full(len(rec.partition.supports), float(s2))
            for rec, s2 in zip(records, noise_vars)
        ]
    )
    C = A @ K_ff @ A.T + np.diag(sig)
    jitter = JITTER_BASE * float(np.mean(np.diag(C)))
    C_j = C + jitter * np.eye(C.shape[0])
    H = A @ K_fq
    solve = np.linalg.solve(C_j, np.column_stack([y[:, None], H]))
    mean = H.T @ solve[:, 0]
    cov = K_qq - H.T @ solve[:, 1:]
    return mean, cov


def reference_state(dataset, seed=0, scales=(1.2, 0.6), noise=(0.05, 0.08)):
    state = init_state(dataset, 2, seed=seed)
    override_length_scales(state, scales)
    state.noise_log_var["d0"] = np.log(np.asarray(noise, dtype=float))
    return state


class TestConditioningOracle:
    def test_full_grid_queries_match_joint_conditioning(self):
        domain, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        rng = np.random.default_rng(3)
        W = rng.standard_normal((2, 2))
        query = domain.grid.points
        post = conditional_posterior(query, W, state, dataset, "d0")
        y = dataset.prepared("d0").y
        mean, cov = oracle_conditional(
            domain, recs, W, (1.2, 0.6), (0.05, 0.08), y, query, [0, 1]
        )
        np.testing.assert_allclose(post.mean, mean, atol=1e-8)
        np.testing.assert_allclose(post.cov, cov, atol=1e-8)
        assert post.attr_ids == ("a0", "a1")
        assert post.n_query == query.shape[0]

    def test_offgrid_queries_match_joint_conditioning(self):
        domain, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        rng = np.random.default_rng(4)
        W = rng.standard_normal((2, 2))
        # Deliberately between cell centers.
        query = np.array([[0.11], [1.73], [3.999], [7.31]])
        post = conditional_posterior(query, W, state, dataset, "d0")
        y = dataset.prepared("d0").y
        mean, cov = oracle_conditional(
            domain, recs, W, (1.2, 0.6), (0.05, 0.08), y, query, [0, 1]
        )
        np.testing.assert_allclose(post.mean, mean, atol=1e-8)
        np.testing.assert_allclose(post.cov, cov, atol=1e-8)

    def test_single_attribute_selection(self):
        domain, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        rng = np.random.default_rng(5)
        W = rng.standard_normal((2, 2))
        query = np.array([[0.5], [2.5], [6.25]])
        post = conditional_posterior(
            query, W, state, dataset, "d0", attributes=["a1"]
        )
        y = dataset.prepared("d0").y
        mean, cov = oracle_conditional(
            domain, recs, W, (1.2, 0.6), (0.05, 0.08), y, query, [1]
        )
        np.testing.assert_allclose(post.mean, mean, atol=1e-8)
        np.testing.assert_allclose(post.cov, cov, atol=1e-8)
        assert post.attr_ids == ("a1",)

    def test_attribute_order_follows_request(self):
        domain, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        W = np.array([[0.9, -0.4], [0.2, 1.1]])
        query = np.array([[1.0], [5.0]])
        both = conditional_posterior(
            query, W, state, dataset, "d0", attributes=["a1", "a0"]
        )
        y = dataset.prepared("d0").y
        mean, cov = oracle_conditional(
            domain, recs, W, (1.2, 0.6), (0.05, 0.08), y, query, [1, 0]
        )
        np.testing.assert_allclose(both.mean, mean, atol=1e-8)
        np.testing.assert_allclose(both.cov, cov, atol=1e-8)


class TestCrossCov:
    def test_point_support_at_query_is_kernel_value(self):
        domain = unit_grid_domain(8)
        sup = cells_support([3], "s0")
        dataset = single_series_dataset(domain, [sup], [0.7])
        dd = dataset.prepared("d0")
        pt = domain.grid.points[3]
        h = latent_point_support(dd, pt[None, :], 1.3)
        np.testing.assert_allclose(h, [[1.0]], rtol=1e-14)

    def test_zero_weights_give_zero_cross_cov(self):
        domain, dataset, _ = two_series_instance()
        dd = dataset.prepared("d0")
        state = reference_state(dataset)
        query = np.array([[1.0], [2.0]])
        H = cross_cov_H(
            [latent_point_support(dd, query, s) for s in state.length_scales],
            dd,
            np.zeros((2, 2)),
            np.arange(2),
            {},
        )
        assert H.shape == (12, 4)
        assert np.all(H == 0.0)

    def test_closed_form_interval_row_matches_quadrature(self):
        # An interval support with the average rule takes the erf route;
        # adaptive quadrature of the kernel over the interval is the oracle.
        domain = unit_grid_domain(32, 0.0, 4.0)
        sup = [
            interval_support(0.25, 1.5, "i0"),
            interval_support(1.5, 3.75, "i1"),
        ]
        dataset = single_series_dataset(domain, sup, [0.1, 0.2])
        dd = dataset.prepared("d0")
        scale = 0.8
        queries = np.array([[0.1], [1.9], [3.6]])
        h = latent_point_support(dd, queries, scale)
        for r, s in enumerate(sup):
            lo, hi = s.body.lo, s.body.hi
            for c, q in enumerate(queries[:, 0]):
                val, err = scipy.integrate.quad(
                    lambda x: np.exp(-((x - q) ** 2) / (2 * scale**2)),
                    lo,
                    hi,
                    epsabs=1e-13,
                    epsrel=1e-13,
                )
                assert err < 1e-12
                np.testing.assert_allclose(h[r, c], val / (hi - lo), atol=1e-10)

    def test_grid_row_converges_to_quadrature(self):
        # Cell-set rows use the member-point sum; refining the grid must
        # drive them toward the continuous integral.
        scale = 0.7
        q = 1.3
        lo, hi = 0.0, 2.0
        val, _ = scipy.integrate.quad(
            lambda x: np.exp(-((x - q) ** 2) / (2 * scale**2)),
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        target = val / (hi - lo)
        errs = []
        for n in (50, 100, 200):
            domain = unit_grid_domain(n, lo, hi)
            sup = cells_support(range(n), "all")
            dataset = single_series_dataset(domain, [sup], [0.0])
            dd = dataset.prepared("d0")
            h = latent_point_support(dd, np.array([[q]]), scale)
            errs.append(abs(h[0, 0] - target))
        assert errs[0] < 1e-4
        assert errs[0] >= errs[1] >= errs[2]


class TestQueryValidation:
    def test_out_of_extent_query_raises(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        W = np.zeros((2, 2))
        with pytest.raises(OutOfBounds):
            conditional_posterior([[9.5]], W, state, dataset, "d0")
        with pytest.raises(OutOfBounds):
            conditional_posterior([[-0.5]], W, state, dataset, "d0")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("helper", ["conditional_posterior"])
    def test_non_finite_query_raises(self, helper, bad):
        # Every extent comparison with NaN is false, so a NaN query would
        # otherwise reach the kernels and come back as a NaN prediction.
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        query = [[1.0], [bad]]
        with pytest.raises(OutOfBounds, match="non-finite"):
            conditional_posterior(query, np.ones((2, 2)), state, dataset, "d0")

    @pytest.mark.parametrize("shape", [(3, 3), (2, 5), (1, 2)])
    @pytest.mark.parametrize("observed", [True, False], ids=["data", "empty"])
    def test_misshaped_weight_sample_raises(self, observed, shape):
        # The domain models two attributes on two latents; any other shape
        # is refused before conditioning, with or without observations.
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        if not observed:
            dataset = dataset.replace_records(())
        with pytest.raises(DimensionMismatch, match="weight sample"):
            conditional_posterior([[1.0]], np.ones(shape), state, dataset, "d0")

    def test_boundary_query_allowed(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        W = np.zeros((2, 2))
        post = conditional_posterior([[0.0], [8.0]], W, state, dataset, "d0")
        assert post.n_query == 2

    def test_dimension_mismatch(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        with pytest.raises(DimensionMismatch):
            conditional_posterior(
                np.zeros((3, 2)), np.zeros((2, 2)), state, dataset, "d0"
            )

    def test_flat_query_list_accepted(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        post = conditional_posterior(
            [1.0, 2.0, 3.0], np.zeros((2, 2)), state, dataset, "d0"
        )
        assert post.n_query == 3


class TestEmptyConditioning:
    def test_prior_returned_without_observations(self):
        domain, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        empty = dataset.replace_records(())
        W = np.array([[0.8, -0.3], [0.5, 0.9]])
        query = np.array([[0.5], [4.0], [7.5]])
        post = conditional_posterior(query, W, state, empty, "d0")
        assert np.all(post.mean == 0.0)
        prior = np.zeros((6, 6))
        for l, scale in enumerate((1.2, 0.6)):
            prior += np.kron(
                np.outer(W[:, l], W[:, l]), se_cross(query, query, scale)
            )
        np.testing.assert_allclose(post.cov, prior, atol=1e-12)

    def test_unknown_domain_raises(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        with pytest.raises(DataError):
            conditional_posterior(
                [[0.5]], np.zeros((2, 2)), state, dataset, "nope"
            )

    def test_unmodeled_attribute_raises(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        with pytest.raises(DataError):
            conditional_posterior(
                [[0.5]], np.zeros((2, 2)), state, dataset, "d0",
                attributes=["a7"],
            )


class TestPredictiveMixture:
    """The pooled Monte Carlo mixture of per-draw conditional posteriors."""

    def test_single_sample_pooling_identity(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        q, mean, var, clamped = predict_grid(state, dataset, "d0", "a0", 1, seed=9)
        (W,) = draw_weight_samples(state, "d0", 1, seed=9)
        comp = conditional_posterior(q, W, state, dataset, "d0", ["a0"])
        np.testing.assert_allclose(mean, comp.mean, atol=1e-12)
        np.testing.assert_allclose(var, np.diag(comp.cov), atol=1e-12)
        assert clamped == 0

    def test_same_seed_reproducible(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        a = predict_grid(state, dataset, "d0", "a1", 4, seed=21)
        b = predict_grid(state, dataset, "d0", "a1", 4, seed=21)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_component_variance_not_above_prior(self):
        # Conditioning on data cannot inflate variance for a fixed sample.
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        empty = dataset.replace_records(())
        q = np.array([[2.0], [5.0]])
        for W in draw_weight_samples(state, "d0", 3, seed=2):
            comp = conditional_posterior(q, W, state, dataset, "d0")
            prior = conditional_posterior(q, W, state, empty, "d0")
            assert np.all(np.diag(comp.cov) <= np.diag(prior.cov) + 1e-8)

    @pytest.mark.parametrize(
        "predict",
        [
            lambda sv, ds, n: predict_supports(
                ds.record_for("d0", "a0").partition, sv, ds, n, seed=0
            ),
            lambda sv, ds, n: predict_left_out(sv, ds, "d0", "a0", n, seed=0),
            lambda sv, ds, n: predict_grid(sv, ds, "d0", "a0", n, seed=0),
        ],
        ids=["supports", "left_out", "grid"],
    )
    def test_invalid_sample_count(self, predict):
        # One case per helper, each over every bad count, so the three
        # helpers keep one test id apiece.
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        for count in (0, 2.5, None, "x"):
            with pytest.raises(DataError, match="n_samples"):
                predict(state, dataset, count)

    def test_integral_float_sample_count(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        want = predict_grid(state, dataset, "d0", "a0", 2, seed=0)
        got = predict_grid(state, dataset, "d0", "a0", 2.0, seed=0)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


class TestDrawWeightSamples:
    def test_reproducible_and_distinct(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        a = draw_weight_samples(state, "d0", 3, seed=5)
        b = draw_weight_samples(state, "d0", 3, seed=5)
        for wa, wb in zip(a, b):
            assert np.array_equal(wa, wb)
        assert not np.array_equal(a[0], a[1])

    def test_floored_variance_pins_draws_to_mean(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        state.q_log_var["d0"][:] = np.log(1e-300)
        draws = draw_weight_samples(state, "d0", 4, seed=5)
        for W in draws:
            np.testing.assert_allclose(W, state.q_mean["d0"], atol=1e-5)


class TestPredictGrid:
    def test_matches_mixture_diagonal(self):
        domain, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        query, mean, var, clamped = predict_grid(
            state, dataset, "d0", "a0", n_samples=5, seed=7
        )
        assert query.shape == (64, 1)
        mix = pooled_point_mixture(
            domain.grid.points, state, dataset, "d0", 5, seed=7,
            attributes=["a0"],
        )
        np.testing.assert_allclose(mean, mix.mean, atol=1e-10)
        np.testing.assert_allclose(var, np.diag(mix.cov), atol=1e-10)
        assert clamped == mix.clamped

    def test_empty_observations_prior_variance(self):
        _, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        empty = dataset.replace_records(())
        _, mean, var, _ = predict_grid(
            state, empty, "d0", "a0", n_samples=200, seed=3
        )
        assert np.all(mean == 0.0)
        # Pooled variance = E[sum_l w_l^2] over the variational posterior.
        m = state.q_mean["d0"][0]
        v = np.exp(state.q_log_var["d0"][0])
        expected = float(np.sum(m * m + v))
        np.testing.assert_allclose(var, expected, rtol=0.25)

    def test_grid_cells_match_member_sums(self):
        # The grid's cells take the point-support integrals from the
        # table's cross covariance with one-hot rows (cross); the oracle's
        # points sum the kernel over member points (at_points). Custom
        # weights exercise the general rows.
        domain = square_grid_domain(6)
        rng = np.random.default_rng(5)
        records = []
        for attr, shape in (("a0", (2, 2)), ("a1", (3, 2))):
            part = grid_block_partition(domain, attr, shape, id_prefix=f"{attr}b")
            rules = [
                AggregationRule(
                    AggregationRule.CUSTOM,
                    tuple(rng.uniform(0.2, 2.0, len(s.body.cells))),
                )
                for s in part.supports
            ]
            records.append(
                DatasetRecord(
                    domain_id="d0", attribute_id=attr, partition=part,
                    rules=tuple(rules),
                    values=rng.standard_normal(len(part.supports)),
                )
            )
        dataset = AggregatedDataset({"d0": domain}, ("a0", "a1"), records)
        state = reference_state(dataset, scales=(0.4, 0.2))
        query, mean, var, clamped = predict_grid(state, dataset, "d0", "a1", 4, 2)
        mix = pooled_point_mixture(
            domain.grid.points, state, dataset, "d0", 4, 2, attributes=["a1"]
        )
        np.testing.assert_array_equal(query, domain.grid.points)
        np.testing.assert_allclose(mean, mix.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(var, np.diag(mix.cov), rtol=1e-12, atol=1e-12)
        assert clamped == mix.clamped


class TestPriorSpread:
    """A draw's prior spread of the targets, full or diagonal, equals the
    sum over latents of ``np.kron((w wᵀ or w²), P_l)`` byte for byte."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_kron_sum(self, data):
        n_attrs, L, m = (data.draw(st.integers(1, top)) for top in (4, 3, 6))
        full = data.draw(st.booleans())
        attr_idx = np.array(
            data.draw(
                st.lists(st.integers(0, n_attrs - 1), min_size=1, unique=True)
            ),
            dtype=np.int64,
        )
        values = st.floats(-10.0, 10.0)
        W = data.draw(arrays(float, (n_attrs, L), elements=values))
        shape = (L, m, m) if full else (L, m)
        priors = data.draw(arrays(float, shape, elements=values))
        n = attr_idx.size * m
        want = np.zeros((n, n) if full else n)
        for l, block in enumerate(priors):
            w = W[attr_idx, l]
            want += np.kron(np.outer(w, w) if full else w * w, block)
        got = prediction._prior_spread(W, attr_idx, priors)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestDrawInvariantBlocks:
    """The support covariances and point-support integrals depend on the
    length scales only, so each call builds them once per latent however
    many weight draws it conditions on, and not at all without data."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"point_support": [], "latent_cov": []}
        real_point = prediction.latent_point_support
        real_cov = SupportCovTable.latent_cov

        def point_support(dd, query, length_scale):
            counts["point_support"].append(length_scale)
            return real_point(dd, query, length_scale)

        def latent_cov(table, length_scale, with_grad=False):
            counts["latent_cov"].append(length_scale)
            return real_cov(table, length_scale, with_grad)

        monkeypatch.setattr(prediction, "latent_point_support", point_support)
        monkeypatch.setattr(SupportCovTable, "latent_cov", latent_cov)
        return counts

    def calls(self, run, counts, with_data):
        _, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        if not with_data:
            dataset = dataset.replace_records(())
        run(state, dataset, recs)
        return counts["point_support"], counts["latent_cov"]

    HELPERS = {
        "predict_supports": lambda state, ds, recs: predict_supports(
            recs[0].partition, state, ds, n_samples=5, seed=1
        ),
        "predict_grid": lambda state, ds, recs: predict_grid(
            state, ds, "d0", "a0", n_samples=5, seed=1
        ),
        "conditional_posterior": lambda state, ds, recs: conditional_posterior(
            [[0.5], [4.0]], np.ones((2, 2)), state, ds, "d0"
        ),
    }

    @pytest.mark.parametrize("with_data", [True, False])
    @pytest.mark.parametrize("helper", sorted(HELPERS))
    def test_once_per_latent_per_call(self, counts, helper, with_data):
        point, cov = self.calls(self.HELPERS[helper], counts, with_data)
        expected = [1.2, 0.6] if with_data else []
        assert point == expected
        assert cov == expected

    def test_left_out_builds_support_covariances_only(self, counts):
        # Held-out supports are rows of each draw's own C, so the call
        # integrates no observation row against a target.
        def left_out(state, ds, recs):
            return predict_left_out(state, ds, "d0", "a1", n_samples=5, seed=1)

        point, cov = self.calls(left_out, counts, with_data=True)
        assert point == []
        assert cov == [1.2, 0.6]

    def test_one_column_per_target_support(self, monkeypatch):
        # Member cells are pooled per target support once per call, so
        # each draw's cross covariance has one column per support.
        columns = []
        real = prediction.cross_cov_H

        def cross_cov_H(point_support, *args, **kwargs):
            columns.append([h_l.shape[1] for h_l in point_support])
            return real(point_support, *args, **kwargs)

        monkeypatch.setattr(prediction, "cross_cov_H", cross_cov_H)
        _, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        predict_supports(recs[1].partition, state, dataset, n_samples=5, seed=1)
        n = len(recs[1].partition.supports)
        assert columns == [[n, n]] * 5


def pinned_state(dataset, seed=0, scales=(0.8, 0.5)):
    """State with floored noise and variational variances: draws are the
    fixed q_mean up to 1e-6 and the posterior interpolates the data."""
    state = init_state(dataset, 2, seed=seed)
    override_length_scales(state, scales)
    rng = np.random.default_rng(seed + 100)
    state.q_mean["d0"] = rng.standard_normal(state.q_mean["d0"].shape)
    state.q_log_var["d0"][:] = np.log(1e-13)
    state.noise_log_var["d0"][:] = np.log(1e-13)
    return state


class TestPredictSupports:
    def test_reproduces_training_values_with_floored_noise(self):
        domain, dataset, recs = two_series_instance()
        state = pinned_state(dataset)
        pred = predict_supports(
            recs[0].partition, state, dataset, n_samples=4, seed=11
        )
        np.testing.assert_allclose(
            pred.values, dataset.normalized(recs[0]), atol=1e-3
        )
        pred_b = predict_supports(
            recs[1].partition, state, dataset, n_samples=4, seed=11
        )
        np.testing.assert_allclose(
            pred_b.values, dataset.normalized(recs[1]), atol=1e-3
        )

    def test_nested_refinement_consistent(self):
        domain, dataset, _ = two_series_instance()
        state = pinned_state(dataset)
        coarse = grid_block_partition(domain, "a0", (16,), id_prefix="c")
        fine = grid_block_partition(domain, "a0", (4,), id_prefix="r")
        pc = predict_supports(coarse, state, dataset, n_samples=6, seed=4)
        pf = predict_supports(fine, state, dataset, n_samples=6, seed=4)
        pooled = pf.values.reshape(4, 4).mean(axis=1)
        np.testing.assert_allclose(pc.values, pooled, atol=1e-6)

    def test_sum_rule_scales_average_by_member_count(self):
        domain, dataset, _ = two_series_instance()
        state = pinned_state(dataset)
        target = grid_block_partition(domain, "a0", (8,), id_prefix="t")
        avg = predict_supports(target, state, dataset, n_samples=3, seed=1)
        tot = predict_supports(
            target, state, dataset, n_samples=3, seed=1,
            rules=tuple(SUM for _ in target.supports),
        )
        np.testing.assert_allclose(tot.values, 8.0 * avg.values, rtol=1e-10)
        np.testing.assert_allclose(
            tot.variances, 64.0 * avg.variances, rtol=1e-8, atol=1e-12
        )

    def test_empty_view_predicts_prior_mean(self):
        domain, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        empty = dataset.replace_records(())
        target = grid_block_partition(domain, "a0", (16,), id_prefix="e")
        pred = predict_supports(target, state, empty, n_samples=3, seed=0)
        assert np.all(pred.values == 0.0)
        assert np.all(pred.variances >= 0.0)

    def test_variances_nonnegative(self):
        domain, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        target = grid_block_partition(domain, "a1", (4,), id_prefix="v")
        pred = predict_supports(target, state, dataset, n_samples=7, seed=13)
        assert np.all(pred.variances >= 0.0)
        assert pred.clamped >= 0

    def test_rule_count_mismatch(self):
        domain, dataset, _ = two_series_instance()
        state = reference_state(dataset)
        target = grid_block_partition(domain, "a0", (16,), id_prefix="m")
        with pytest.raises(DataError):
            predict_supports(
                target, state, dataset, n_samples=1, seed=0, rules=(AVERAGE,)
            )


def block_instance(domain, blocks, seed=0):
    """Attributes a0 and a1 observed on cell blocks of the given shapes."""
    rng = np.random.default_rng(seed)
    records = []
    for attr, shape in zip(("a0", "a1"), blocks):
        part = grid_block_partition(domain, attr, shape, id_prefix=f"{attr}b")
        records.append(
            DatasetRecord(
                domain_id="d0",
                attribute_id=attr,
                partition=part,
                rules=uniform_rules(part),
                values=rng.standard_normal(len(part.supports)),
            )
        )
    return AggregatedDataset({"d0": domain}, ("a0", "a1"), records)


def box_grid_domain(shape):
    """Domain on a grid of unit cells with the given shape."""
    ndim = len(shape)
    grid = GridSpec(origin=(0.5,) * ndim, cell_size=(1.0,) * ndim, shape=shape)
    return Domain(id="d0", extent=grid.extent_box(), grid=grid)


PROPERTY_WORLDS = {
    1: (unit_grid_domain(12), ((3,), (4,)), (2.0, 1.0)),
    2: (square_grid_domain(6), ((2, 2), (3, 3)), (0.4, 0.2)),
    3: (box_grid_domain((4, 3, 3)), ((2, 1, 1), (2, 3, 3)), (2.0, 1.0)),
}


@st.composite
def target_partitions(draw, ndim):
    """Disjoint supports on a small grid, each with a drawn rule.

    Cell sets group arbitrary (not necessarily adjacent) cells; on the
    1-D grid intervals cover drawn runs of consecutive cell centers.
    """
    domain = PROPERTY_WORLDS[ndim][0]
    n_points = domain.grid.n_points
    attr = draw(st.sampled_from(("a0", "a1")))
    if ndim == 1 and draw(st.booleans()):
        cuts = draw(st.sets(st.integers(1, n_points - 1)))
        bounds = [0, *sorted(cuts), n_points]
        runs = [(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        kept = [r for r in runs if draw(st.booleans())] or runs[:1]
        supports = [
            interval_support(lo + 0.25, hi - 0.25, f"t{k}")
            for k, (lo, hi) in enumerate(kept)
        ]
    else:
        labels = draw(
            st.lists(st.integers(0, 4), min_size=n_points, max_size=n_points)
        )
        groups = sorted(set(labels) - {0}) or [0]
        supports = [
            cells_support([i for i, lab in enumerate(labels) if lab == g], f"t{g}")
            for g in groups
        ]
    part = Partition(attribute_id=attr, domain_id="d0", supports=tuple(supports))
    rules = []
    for support in part.supports:
        kind = draw(st.sampled_from(("average", "sum", "custom")))
        if kind == "custom":
            n = membership(support, domain.grid).size
            weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
            rules.append(AggregationRule(AggregationRule.CUSTOM, tuple(weights)))
        else:
            rules.append(AVERAGE if kind == "average" else SUM)
    return part, tuple(rules)


class TestSupportsMatchPooledGridMixture:
    """Support predictions equal the grid mixture pooled through A.

    For every draw the support posterior is the point posterior pushed
    through the explicit aggregation matrix, and mixture moments commute
    with that linear map, so values are ``A m`` and variances
    ``diag(A S Aᵀ)`` of the pooled grid mixture ``(m, S)``.
    """

    def check(self, ndim, target, seed):
        domain, blocks, scales = PROPERTY_WORLDS[ndim]
        dataset = block_instance(domain, blocks)
        state = reference_state(dataset, scales=scales)
        part, rules = target
        pred = predict_supports(part, state, dataset, 3, seed, rules=rules)
        mix = pooled_point_mixture(
            domain.grid.points, state, dataset, "d0", 3, seed,
            attributes=[part.attribute_id],
        )
        target_rec = SimpleNamespace(partition=part, rules=rules)
        A = aggregation_matrix(domain, [target_rec])
        values = A @ mix.mean
        variances = np.einsum("ij,jk,ik->i", A, mix.cov, A)
        assert pred.clamped == 0 and mix.clamped == 0
        np.testing.assert_allclose(pred.values, values, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(pred.variances, variances, rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(target=target_partitions(1), seed=st.integers(0, 2**16))
    def test_one_dimensional_grid(self, target, seed):
        self.check(1, target, seed)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(target=target_partitions(2), seed=st.integers(0, 2**16))
    def test_two_dimensional_grid(self, target, seed):
        self.check(2, target, seed)

    # Three axes: the target priors and cross covariances take two
    # dense mode products besides the last axis's fibres.
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(target=target_partitions(3), seed=st.integers(0, 2**16))
    def test_three_dimensional_grid(self, target, seed):
        self.check(3, target, seed)


def loo_dataset(domain, records, seed=0):
    """Records with seeded standard-normal values over one domain."""
    rng = np.random.default_rng(seed)
    records = [
        replace(rec, values=rng.standard_normal(len(rec.partition.supports)))
        for rec in records
    ]
    attrs = tuple(rec.attribute_id for rec in records)
    return AggregatedDataset({domain.id: domain}, attrs, records)


def fitted_state(dataset, latents=2, iters=25):
    config = TrainConfig(learning_rate=0.03, max_iters=iters, seed=0)
    state, _ = fit(dataset, config, init_state(dataset, latents, seed=0))
    return state


def mixed_rule_records(domain, shapes, seed=0):
    """One block record per shape; rules cycle average, sum and custom."""
    rng = np.random.default_rng(seed)
    records = []
    for attr, shape in zip(("a0", "a1", "a2"), shapes):
        part = grid_block_partition(domain, attr, shape, id_prefix=f"{attr}b")
        rules = []
        for k, support in enumerate(part.supports):
            if k % 3 == 2:
                n = membership(support, domain.grid).size
                custom = tuple(rng.uniform(-2.0, 2.0, n))
                rules.append(AggregationRule(AggregationRule.CUSTOM, custom))
            else:
                rules.append(AVERAGE if k % 3 == 0 else SUM)
        records.append(
            DatasetRecord(
                domain_id="d0",
                attribute_id=attr,
                partition=part,
                rules=tuple(rules),
                values=np.zeros(len(part.supports)),
            )
        )
    return records


@st.composite
def loo_worlds(draw):
    """Random supports and rules in one or two records, some drawn as
    point observations, with a drawn state; at least one record folds."""
    ndim = draw(st.integers(1, 2))
    domain = draw(grid_domains(ndim))
    if ndim == 1 and draw(st.booleans()):
        records = draw(interval_records(domain, points=True))
    else:
        records = draw(cell_set_records(domain, points=True))
    assume(any(len(r.partition.supports) >= 2 for r in records))
    dataset = loo_dataset(domain, records, seed=draw(st.integers(0, 2**16)))
    latents = draw(st.integers(1, 3))
    state = init_state(dataset, latents, seed=draw(st.integers(0, 99)))
    scales = [draw(st.floats(0.3, 4.0)) for _ in range(state.num_latents)]
    override_length_scales(state, scales)
    noise = [draw(st.floats(1e-3, 0.3)) for _ in records]
    state.noise_log_var["d0"] = np.log(np.asarray(noise))
    return state, dataset


class TestLeftOutMatchesRefactoredFolds:
    """``predict_left_out`` equals ``left_out_by_solves``, one direct
    solve per fold of each draw's ``C``, on every record that folds, to
    1e-9 of the largest value and variance.

    Grid-row records are also checked against ``predict_supports`` on
    each of ``oracles.drop_observation``'s reduced datasets, at the same state
    and weight draws: there a target support and an observed row are
    the same weight row. The sides differ by design in one thing: each
    reduced fit factors its own ``C`` with jitter ``JITTER_BASE ·
    mean(diag)`` of that matrix. Holding out a sum- or custom-rule row,
    whose prior variance is far from the mean, moves that jitter enough
    to shift a fold by a few 1e-9 relative, so ``jitter_free`` checks
    compare the identity itself at a negligible base jitter, and one
    check bounds the gap at the production jitter by 1e-8. Closed-form
    and point rows have no such reference: ``C`` integrates an interval
    exactly and takes a point row at its centroid, while a target
    support is its rule over the member cells.
    """

    def check(
        self, state, dataset, n_samples=5, seed=3, tol=1e-9, jitter_free=True
    ):
        with pytest.MonkeyPatch.context() as mp:
            if jitter_free:
                mp.setattr(model, "JITTER_BASE", 1e-300)
            return self._check(state, dataset, n_samples, seed, tol)

    def _check(self, state, dataset, n_samples, seed, tol):
        folded = 0
        for rec in dataset.records:
            n = len(rec.partition.supports)
            if n < 2:
                continue
            args = (state, dataset, *rec.key, n_samples, seed)
            pred = predict_left_out(*args)
            wants = [(left_out_by_solves(*args), 1e-9)]
            if self.grid_rows(dataset, rec):
                folds = self.reduced_fits(state, dataset, rec, n_samples, seed)
                wants.append((folds, tol))
            for want, atol in wants:
                for got, ref in zip((pred.values, pred.variances), want):
                    scale = np.max(np.abs(ref))
                    np.testing.assert_allclose(got, ref, rtol=0, atol=atol * scale)
            folded += 1
        return folded

    @staticmethod
    def grid_rows(dataset, rec):
        dd = dataset.prepared(rec.domain_id)
        rows = dd.blocks[dd.attr_ids.index(rec.attribute_id)]
        return bool(np.all(dd.cov.index[rows] < dd.cov.n_grid))

    @staticmethod
    def reduced_fits(state, dataset, rec, n_samples, seed):
        folds = []
        for k in range(len(rec.partition.supports)):
            reduced, held = drop_observation(dataset, *rec.key, k)
            fold = predict_supports(
                held.partition, state, reduced, n_samples, seed, rules=held.rules
            )
            folds.append((fold.values[0], fold.variances[0]))
        return np.array(folds).T

    def test_closed_form_intervals_with_several_attributes(self):
        domain = unit_grid_domain(48, 0.0, 4.0)
        records = [
            DatasetRecord(
                domain_id="d0",
                attribute_id=attr,
                partition=part,
                rules=uniform_rules(part),
                values=np.zeros(len(part.supports)),
            )
            for attr, bins in (("a0", 8), ("a1", 6), ("a2", 4))
            for part in [interval_bins(domain, attr, bins, id_prefix=attr)]
        ]
        dataset = loo_dataset(domain, records)
        dd = dataset.prepared("d0")
        assert (dd.cov.n_grid, dd.cov.n_weighted) == (0, dd.n_obs)
        state = fitted_state(dataset)
        assert self.check(state, dataset) == 3
        assert self.check(state, dataset, jitter_free=False) == 3

    def test_grid_blocks_with_average_sum_and_custom_rules(self):
        domain = square_grid_domain(8)
        dataset = loo_dataset(domain, mixed_rule_records(domain, ((2, 2), (4, 2))))
        state = fitted_state(dataset)
        assert self.check(state, dataset) == 2
        assert self.check(state, dataset, tol=1e-8, jitter_free=False) == 2

    def test_point_record(self):
        domain = square_grid_domain(8)
        blocks, points = mixed_rule_records(domain, ((2, 4), (4, 2)))
        dataset = loo_dataset(domain, [blocks, replace(points, as_points=True)])
        assert self.check(fitted_state(dataset), dataset) == 2

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(world=loo_worlds(), seed=st.integers(0, 2**16))
    def test_random_partitions(self, world, seed):
        state, dataset = world
        assert self.check(state, dataset, seed=seed) >= 1


def twin_world(noise, scale, weights=(1.3, -0.7), weight_var=None):
    """Two attributes on the same eight 2-cell blocks of a 16-cell line,
    mixed from one latent of length scale ``scale``: a1 observes every
    support of a0, so each a0 row is pinned by its twin as ``noise``
    falls. Variational means are ``weights``; ``weight_var`` replaces
    ``init_state``'s variational variances."""
    domain = unit_grid_domain(16)
    rng = np.random.default_rng(0)
    records = []
    for attr in ("a0", "a1"):
        part = grid_block_partition(domain, attr, (2,), id_prefix=attr)
        records.append(
            DatasetRecord(
                domain_id="d0",
                attribute_id=attr,
                partition=part,
                rules=uniform_rules(part),
                values=rng.standard_normal(len(part.supports)),
            )
        )
    dataset = AggregatedDataset({"d0": domain}, ("a0", "a1"), records)
    state = init_state(dataset, 1, seed=0)
    override_length_scales(state, [scale])
    state.q_mean["d0"] = np.array(weights)[:, None]
    if weight_var is not None:
        state.q_log_var["d0"][:] = np.log(weight_var)
    state.noise_log_var["d0"][:] = np.log(noise)
    return state, dataset


class TestLeftOutVarianceFloor:
    """Each draw's fold variance is floored at zero before pooling.

    Attribute a1 observes every support of a0, both near noise-free and
    mixed from one latent, so a held-out a0 support is fixed by its twin
    up to the jitter and its true variance is about 1e-8. The library's
    folds get it to roundoff (``TestLeftOutAgainstMpmath``), but the
    block inversion identity written out below, the form an earlier
    ``predict_left_out`` took, subtracts terms of order ``1/P_rr`` there
    and leaves roundoff of about 1e-6, negative for some folds by more
    than 1e-10. The library's folds stay positive here, so none of them
    is floored.
    """

    def test_negative_draw_variances_are_floored(self):
        state, dataset = twin_world(1e-13, 12.0)
        domain, records = dataset.domains["d0"], dataset.records
        pred = predict_left_out(state, dataset, "d0", "a0", n_samples=1, seed=0)

        # Explicit folds on the jittered joint covariance of the one draw.
        (W,) = draw_weight_samples(state, "d0", 1, seed=0)
        A = aggregation_matrix(domain, records)
        K = field_gram(domain, W, state.length_scales)
        C = A @ K @ A.T + 1e-13 * np.eye(A.shape[0])
        C += JITTER_BASE * np.mean(np.diag(C)) * np.eye(A.shape[0])
        n = len(records[0].partition.supports)
        target = A[:n]
        prior = np.einsum("ij,jk,ik->i", target, K, target)
        h = A @ K @ target.T
        variances = []
        for r in range(n):
            keep = np.arange(A.shape[0]) != r
            solved = np.linalg.solve(C[np.ix_(keep, keep)], h[keep, r])
            variances.append(prior[r] - h[keep, r] @ solved)
        # The same folds through the block inversion identity.
        h[np.arange(n), np.arange(n)] = 0.0
        P = np.linalg.inv(C)
        cross = np.sum(h * P[:, :n], axis=0)
        block = prior - (np.sum(h * (P @ h), axis=0) - cross**2 / np.diag(P)[:n])
        assert np.min(block) < -1e-10

        assert pred.clamped == 0
        assert np.all(pred.variances >= 0.0)
        np.testing.assert_allclose(
            pred.variances,
            np.maximum(variances, 0.0),
            rtol=0,
            atol=1e-5 * np.max(prior),
        )


class TestLeftOutAgainstMpmath:
    """Every draw's folds match ``oracles.left_out_by_mpmath``, 60-digit
    solves of each fold on the same float64 jittered ``C``: variances to
    1e-13 of the row's prior plus noise variance, means to 1e-7 of the
    largest ``|y|``. The twin worlds run from a held-out row pinned to a
    variance of about 1e-8 by its noise-free twin, through noise 1e-6
    and 1e-2, to a weak signal under unit noise, whose fold means are
    a few 1e-6."""

    TWIN_WORLDS = {
        "pinned": (1e-13, 12.0),
        "noise-1e-6": (1e-6, 3.0),
        "noise-1e-2": (1e-2, 12.0),
        "weak-signal": (1.0, 3.0, (1.3e-3, -0.7e-3), 1e-12),
    }

    def check(self, state, dataset, attribute_id, n_samples, seed):
        pytest.importorskip("mpmath")
        draws = []
        real_pool = prediction._pool

        def pool(means, variances):
            draws.append((means, variances))
            return real_pool(means, variances)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prediction, "_pool", pool)
            predict_left_out(state, dataset, "d0", attribute_id, n_samples, seed)
        ((means, variances),) = draws
        want_means, want_variances, scales = left_out_by_mpmath(
            state, dataset, "d0", attribute_id, n_samples, seed
        )
        y_max = np.max(np.abs(dataset.prepared("d0").y))
        assert np.all(
            np.abs(np.array(variances) - np.maximum(want_variances, 0.0))
            <= 1e-13 * scales
        )
        assert np.all(np.abs(np.array(means) - want_means) <= 1e-7 * y_max)

    @pytest.mark.parametrize("world", sorted(TWIN_WORLDS))
    def test_twin_worlds(self, world):
        state, dataset = twin_world(*self.TWIN_WORLDS[world])
        self.check(state, dataset, "a0", n_samples=2, seed=0)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(world=loo_worlds(), seed=st.integers(0, 2**16))
    def test_random_partitions(self, world, seed):
        state, dataset = world
        assume(dataset.prepared("d0").n_obs <= 24)
        rec = max(dataset.records, key=lambda r: len(r.partition.supports))
        self.check(state, dataset, rec.attribute_id, n_samples=1, seed=seed)


class TestPoolOneDraw:
    """With one draw, pooling gives back that draw's variances bit for
    bit. On the pinned twin world the uncentred form ``E[v + m²] − E[m]²``
    loses them to roundoff of order eps·m²."""

    HELPERS = {
        "left_out": lambda s, ds: predict_left_out(s, ds, "d0", "a0", 1, 0).variances,
        "grid": lambda s, ds: predict_grid(s, ds, "d0", "a0", 1, 0)[2],
        "supports": lambda s, ds: predict_supports(
            ds.records[0].partition, s, ds, 1, 0
        ).variances,
    }

    @pytest.mark.parametrize("helper", sorted(HELPERS))
    def test_pooled_variances_are_the_draws(self, monkeypatch, helper):
        state, dataset = twin_world(1e-13, 12.0)
        draws = []
        real_pool = prediction._pool

        def pool(means, variances):
            draws.append(variances)
            return real_pool(means, variances)

        monkeypatch.setattr(prediction, "_pool", pool)
        pooled = self.HELPERS[helper](state, dataset)
        ((variances,),) = draws
        assert pooled.tobytes() == variances.tobytes()


class TestClampCount:
    """``clamped`` counts the per-draw variances that roundoff leaves
    negative and the floor raises to zero."""

    def test_floor_counts_what_it_raises(self):
        var = np.array([-1e-20, 0.0, 2.0, -3.0, 1e-300])
        assert prediction._floor(var) == 2
        assert var.tolist() == [0.0, 0.0, 2.0, 0.0, 1e-300]

    def test_roundoff_level_target_is_counted(self):
        # On the twin world at a length scale of 1e9 cells, the contrast
        # of a block's two cells has a prior variance near 1e-18 and is
        # fixed by the data, so its conditioned variance is roundoff of
        # either sign.
        state, dataset = twin_world(1e-13, 1e9)
        part = dataset.records[0].partition
        contrast = AggregationRule(AggregationRule.CUSTOM, (1.0, -1.0))
        rules = (contrast,) * len(part.supports)
        pred = predict_supports(part, state, dataset, 4, 0, rules=rules)
        assert 0 < pred.clamped <= 4 * len(part.supports)
        assert np.all(pred.variances >= 0.0)

    def test_well_posed_world_counts_none(self):
        _, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        assert predict_left_out(state, dataset, "d0", "a0", 8, 0).clamped == 0
        assert predict_grid(state, dataset, "d0", "a0", 8, 0)[3] == 0
        assert predict_supports(recs[0].partition, state, dataset, 8, 0).clamped == 0


class TestOneSolveVariances:
    """Conditioned variances come from ``Z = L⁻¹ H``, one triangular solve
    per draw: the full covariance is ``prior - Zᵀ Z`` and the diagonal
    ``prior - colsum(Z ∘ Z)``, where the two-solve form took
    ``H ∘ C⁻¹ H``."""

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_covariance_is_exactly_symmetric(self, ndim):
        if ndim == 1:
            _, dataset, _ = two_series_instance()
            query = np.array([[0.11], [1.73], [3.999], [5.5], [7.31]])
            scales = (1.2, 0.6)
        else:
            dataset = block_instance(square_grid_domain(6), ((2, 2), (3, 3)))
            query = np.array([[0.1, 0.9], [0.35, 0.4], [0.5, 0.5], [0.95, 0.05]])
            scales = (0.4, 0.2)
        state = reference_state(dataset, scales=scales)
        rng = np.random.default_rng(ndim)
        for _ in range(3):
            W = rng.standard_normal((2, 2))
            cov = conditional_posterior(query, W, state, dataset, "d0").cov
            assert np.array_equal(cov, cov.T)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(world=loo_worlds(), seed=st.integers(0, 2**16))
    def test_variances_match_two_solve_form(self, world, seed):
        state, dataset = world
        dd = dataset.prepared("d0")
        n = dd.domain.grid.n_points
        cells = model.WeightRows(dd.domain.grid, np.arange(n), np.ones(n), [1] * n)
        attr_idx = np.arange(dd.n_attrs)
        priors = np.ones((state.num_latents, n))
        blocks = prediction._draw_invariants(dd, cells, state.length_scales)
        latents, point_support = blocks
        noise = state.noise_log_var["d0"]
        for W in draw_weight_samples(state, "d0", 3, seed):
            _, var, _ = prediction._condition(
                dd, state, blocks, attr_idx, priors, W, {}
            )
            prior = prediction._prior_spread(W, attr_idx, priors)
            chol, _ = model.chol_with_jitter(
                model.assemble_from_latents(dd, W, latents, noise)
            )
            H = cross_cov_H(point_support, dd, W, attr_idx, {})
            want = prior - np.sum(H * scipy.linalg.cho_solve((chol, True), H), axis=0)
            assert np.all(np.abs(var - np.maximum(want, 0.0)) <= 1e-12 * prior)
            assert np.all((var >= 0.0) & (var <= prior))

    @pytest.mark.parametrize("helper", ["predict_grid", "predict_supports"])
    def test_one_triangular_solve_per_draw(self, monkeypatch, helper):
        # Mean and variances share one solve, on one (observations ×
        # (targets + 1)) block whose last column is y.
        seen = []
        real = prediction.lower_solve

        def record(L, b):
            seen.append(np.array(b))
            return real(L, b)

        monkeypatch.setattr(prediction, "lower_solve", record)
        _, dataset, recs = two_series_instance()
        state = reference_state(dataset)
        dd = dataset.prepared("d0")
        if helper == "predict_grid":
            predict_grid(state, dataset, "d0", "a0", n_samples=5, seed=1)
            n_targets = dd.domain.grid.n_points
        else:
            predict_supports(recs[1].partition, state, dataset, n_samples=5, seed=1)
            n_targets = len(recs[1].partition.supports)
        assert [b.shape for b in seen] == [(dd.n_obs, n_targets + 1)] * 5
        assert all(np.array_equal(b[:, -1], dd.y) for b in seen)
