"""Baseline models as restrictions of the shared training pipeline."""

import numpy as np
import pytest
from conftest import (
    cells_support,
    se_gram,
    single_series_dataset,
    two_series_instance,
    unit_grid_domain,
)

from aggmogp.baselines import (
    fit_view,
    restrict_to_domain,
    restrict_to_series,
    training_view,
)
from aggmogp.errors import DataError
from aggmogp.inference import TrainConfig, fit, refined_elbo
from aggmogp.model import JITTER_BASE, assemble_C, init_state
from aggmogp.prediction import conditional_posterior

FAST = TrainConfig(max_iters=25, seed=0)


class TestRestrictions:
    def test_series_view_keeps_parent_transform(self):
        _, dataset, recs = two_series_instance()
        sub = restrict_to_series(dataset, "d0", "a1")
        assert sub.attributes == ("a1",)
        assert len(sub.records) == 1
        assert sub.transforms[("d0", "a1")] == dataset.transforms[("d0", "a1")]
        np.testing.assert_array_equal(
            sub.normalized(recs[1]), dataset.normalized(recs[1])
        )

    def test_series_view_unknown_pair(self):
        _, dataset, _ = two_series_instance()
        with pytest.raises(DataError):
            restrict_to_series(dataset, "d0", "a9")

    def test_domain_view_keeps_catalogue_order(self):
        _, dataset, _ = two_series_instance()
        sub = restrict_to_domain(dataset, "d0")
        assert sub.attributes == ("a0", "a1")
        assert len(sub.records) == 2

    def test_domain_view_without_records(self):
        _, dataset, _ = two_series_instance()
        with pytest.raises(DataError):
            restrict_to_domain(dataset, "d9")


class TestSingleSeriesBaseline:
    def test_matches_manual_restricted_fit(self):
        _, dataset, _ = two_series_instance()
        view = training_view(dataset, "agp", "d0", "a0")
        base, _ = fit_view(view, 1, FAST, init_seed=3)
        sub = restrict_to_series(dataset, "d0", "a0")
        init = init_state(sub, 1, seed=3)
        state, _ = fit(sub, FAST, init)
        assert np.array_equal(base.pack(), state.pack())

    def test_selector_required_for_multiple_records(self):
        _, dataset, _ = two_series_instance()
        with pytest.raises(DataError):
            training_view(dataset, "agp")

    def test_single_record_needs_no_selector(self):
        domain = unit_grid_domain(16, 0.0, 4.0)
        sup = [cells_support([i], f"p{i}") for i in (1, 6, 11)]
        dataset = single_series_dataset(domain, sup, [0.3, -0.2, 0.9])
        view = training_view(dataset, "agp")
        base, _ = fit_view(view, 1, TrainConfig(max_iters=0, seed=0))
        assert base.attributes == ("a0",)

    def test_ignores_other_series(self):
        # The single-series baseline must not see the other record at all.
        domain, dataset, recs = two_series_instance()
        altered = dataset.replace_records(
            (recs[0], type(recs[1])(
                domain_id="d0",
                attribute_id="a1",
                partition=recs[1].partition,
                rules=recs[1].rules,
                values=recs[1].values + 5.0,
            ))
        )
        a, _ = fit_view(training_view(dataset, "agp", "d0", "a0"), 1, FAST)
        b, _ = fit_view(training_view(altered, "agp", "d0", "a0"), 1, FAST)
        assert np.array_equal(a.pack(), b.pack())

    def test_point_supports_reduce_to_plain_gp(self):
        # With single-cell supports and pinned parameters the baseline
        # posterior is textbook GP regression with kernel w^2 gamma.
        domain = unit_grid_domain(16, 0.0, 4.0)
        idx = [1, 5, 9, 14]
        sup = [cells_support([i], f"p{i}") for i in idx]
        values = [0.4, -0.7, 1.1, 0.2]
        dataset = single_series_dataset(domain, sup, values)
        view = training_view(dataset, "agp")
        st, _ = fit_view(
            view, 1, TrainConfig(max_iters=0, seed=0), init_length_scales=[0.9]
        )
        w = 1.3
        sigma2 = 0.04
        st.noise_log_var["d0"][:] = np.log(sigma2)
        query = np.array([[0.3], [1.7], [3.4]])
        post = conditional_posterior(
            query, np.array([[w]]), st, view, "d0"
        )
        pts = domain.grid.points[idx]
        y = view.prepared("d0").y
        K = w * w * se_gram(pts, 0.9)
        C = K + sigma2 * np.eye(4)
        C = C + JITTER_BASE * np.mean(np.diag(C)) * np.eye(4)
        d2 = (pts[:, None, 0] - query[None, :, 0]) ** 2
        cross = w * w * np.exp(-d2 / (2 * 0.9**2))
        mean = cross.T @ np.linalg.solve(C, y)
        cov = w * w * se_gram(query, 0.9) - cross.T @ np.linalg.solve(C, cross)
        np.testing.assert_allclose(post.mean, mean, atol=1e-8)
        np.testing.assert_allclose(post.cov, cov, atol=1e-8)


class TestPointObservationBaseline:
    def test_matches_manual_pipeline(self):
        _, dataset, _ = two_series_instance()
        base, _ = fit_view(training_view(dataset, "slfm"), 2, FAST, init_seed=1)
        sub = restrict_to_domain(dataset, "d0").as_point_observations()
        init = init_state(sub, 2, seed=1)
        state, _ = fit(sub, FAST, init)
        assert np.array_equal(base.pack(), state.pack())

    def test_single_domain_needs_no_selector(self):
        _, dataset, _ = two_series_instance()
        view = training_view(dataset, "slfm")
        base, _ = fit_view(view, 1, TrainConfig(max_iters=0, seed=0))
        assert base.domain_ids == ("d0",)

    def test_point_supports_make_views_agree(self):
        # When every support is a single cell the point view changes
        # nothing: same covariance, same objective.
        domain = unit_grid_domain(12, 0.0, 3.0)
        idx = [0, 4, 8, 11]
        sup = [cells_support([i], f"p{i}") for i in idx]
        dataset = single_series_dataset(domain, sup, [0.1, 0.5, -0.3, 0.8])
        points = dataset.as_point_observations()
        state = init_state(dataset, 2, seed=0)
        W = state.q_mean["d0"]
        C_cells = assemble_C(
            dataset.prepared("d0"), W, state.length_scales, state.noise_log_var["d0"]
        )
        C_pts = assemble_C(
            points.prepared("d0"), W, state.length_scales, state.noise_log_var["d0"]
        )
        np.testing.assert_allclose(C_cells, C_pts, atol=1e-14)
        ea = refined_elbo(dataset, state, seed=0, n_samples=8)
        eb = refined_elbo(points, state, seed=0, n_samples=8)
        np.testing.assert_allclose(ea, eb, rtol=1e-10)

    def test_wide_supports_change_the_covariance(self):
        # Collapsing a wide support to its centroid discards real
        # structure; the assembled covariances must differ noticeably.
        _, dataset, _ = two_series_instance()
        points = dataset.as_point_observations()
        state = init_state(dataset, 2, seed=0)
        W = state.q_mean["d0"] + 1.0
        C_agg = assemble_C(
            dataset.prepared("d0"), W, state.length_scales, state.noise_log_var["d0"]
        )
        C_pts = assemble_C(
            points.prepared("d0"), W, state.length_scales, state.noise_log_var["d0"]
        )
        assert np.max(np.abs(C_agg - C_pts)) > 1e-3

    def test_selector_required_for_multiple_domains(self):
        d0 = unit_grid_domain(8, 0.0, 2.0, domain_id="d0")
        d1 = unit_grid_domain(8, 0.0, 2.0, domain_id="d1")
        from aggmogp.geometry import Partition
        from aggmogp.model import AggregatedDataset, DatasetRecord, uniform_rules

        recs = []
        for dom in (d0, d1):
            part = Partition(
                attribute_id="a0",
                domain_id=dom.id,
                supports=(
                    cells_support(range(4), "s0", domain_id=dom.id),
                    cells_support(range(4, 8), "s1", domain_id=dom.id),
                ),
            )
            recs.append(
                DatasetRecord(
                    domain_id=dom.id,
                    attribute_id="a0",
                    partition=part,
                    rules=uniform_rules(part),
                    values=np.array([0.2, 0.4]),
                )
            )
        dataset = AggregatedDataset(
            {"d0": d0, "d1": d1}, ("a0",), tuple(recs)
        )
        with pytest.raises(DataError):
            training_view(dataset, "slfm")
        view = training_view(dataset, "slfm", "d1")
        base, _ = fit_view(view, 2, TrainConfig(max_iters=0, seed=0))
        assert base.domain_ids == ("d1",)
