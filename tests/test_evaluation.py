"""Error metric, synthetic generator, model selection and the harness.

The generator check is a Monte Carlo moment test: values drawn across
many seeds must reproduce the explicitly assembled covariance diagonal
within standard-error bounds.
"""

import json

import numpy as np
import pytest
from conftest import (
    oracle_covariance,
    two_series_instance,
    unit_grid_domain,
)

from aggmogp import evaluation, prediction
from aggmogp.errors import (
    CholeskyFailure,
    CrossValidationError,
    DataError,
    ZeroTruth,
)
from aggmogp.evaluation import (
    ExperimentSpec,
    SynthConfig,
    argmin_first,
    choose_latents,
    cv_select_L,
    latent_request,
    mape,
    run_experiment,
    synth_generate,
)
from aggmogp.geometry import weight_vector, membership, AVERAGE
from aggmogp.inference import TrainConfig
from dataclasses import replace


class TestMape:
    def test_exact_prediction_is_zero(self):
        assert mape([1.0, 2.0, -3.0], [1.0, 2.0, -3.0]) == 0.0

    def test_frozen_value(self):
        # |2-1|/2 = 0.5, |4-5|/4 = 0.25, mean 0.375
        np.testing.assert_allclose(mape([2.0, 4.0], [1.0, 5.0]), 0.375)

    def test_zero_truth_raises_with_indices(self):
        with pytest.raises(ZeroTruth) as info:
            mape([1.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(info.value.indices, [1, 3])

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            mape([1.0, 2.0], [1.0])
        with pytest.raises(DataError):
            mape(np.ones((2, 2)), np.ones((2, 2)))


class TestArgminFirst:
    def test_basic(self):
        assert argmin_first([3.0, 1.0, 2.0]) == 1

    def test_ties_go_to_the_earliest(self):
        assert argmin_first([2.0, 1.0, 1.0]) == 1
        assert argmin_first([1.0, 1.0, 1.0]) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            argmin_first([])


class TestLatentChoice:
    def test_request_rule(self):
        assert latent_request(2) == 2
        assert latent_request("3") == 3
        assert latent_request("cv") == "cv"
        for bad in (0, -1, "0", "abc", None, [2], float("inf")):
            with pytest.raises(DataError, match="--latents"):
                latent_request(bad, "--latents")

    def test_spec_holds_the_checked_count(self):
        spec = ExperimentSpec(
            target_domain="d0",
            target_attribute="a0",
            method="amogp",
            train_level="coarse",
            test_level="fine",
            num_latents="2",
        )
        assert spec.num_latents == 2

    @pytest.mark.parametrize(
        "field, match",
        [({"seeds": (0, -1)}, "seeds"), ({"n_pred_samples": 0}, "n_pred_samples")],
    )
    def test_spec_refuses_negative_seeds_and_no_draws(self, field, match):
        with pytest.raises(DataError, match=match):
            ExperimentSpec(
                target_domain="d0",
                target_attribute="a0",
                method="amogp",
                train_level="coarse",
                test_level="fine",
                **field,
            )

    def test_fixed_counts_run_no_cross_validation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cross-validation ran")

        monkeypatch.setattr(evaluation, "cv_select_L", refuse)
        _, dataset, _ = two_series_instance()
        config = TrainConfig(max_iters=1)
        assert choose_latents(dataset, "agp", 5, config, None, 5) == (1, None)
        assert choose_latents(dataset, "agp", "cv", config, None, 5) == (1, None)
        assert choose_latents(dataset, "amogp", 3, config, None, 5) == (3, None)

    def test_cv_request_returns_the_selection(self):
        _, dataset, _ = two_series_instance()
        config = TrainConfig(learning_rate=0.02, max_iters=3)
        chosen, result = choose_latents(dataset, "amogp", "cv", config, [1, 2], 5)
        assert result == cv_select_L(dataset, [1, 2], config, n_pred_samples=5)
        assert chosen == result.chosen


def flat_cfg(seed=0):
    dom = unit_grid_domain(24, 0.0, 3.0)
    return SynthConfig(
        domains=(dom,),
        attributes=("a0",),
        length_scales=(1e6,),
        levels={"obs": {"d0": 6}},
        weights={"d0": np.array([[1.0]])},
        noise_var=0.0,
        seed=seed,
    )


class TestSynthGenerator:
    def test_huge_scale_gives_near_constant_values(self):
        res = synth_generate(flat_cfg())
        values = res.datasets["obs"].records[0].values
        assert np.ptp(values) < 1e-2

    def test_zero_noise_means_values_equal_truth(self):
        res = synth_generate(flat_cfg())
        rec = res.datasets["obs"].records[0]
        np.testing.assert_array_equal(rec.values, res.truth["obs"][("d0", "a0")])

    def test_zero_weights_leave_only_the_offset(self):
        cfg = replace(
            flat_cfg(),
            weights={"d0": np.array([[0.0]])},
            value_offset=7.0,
            length_scales=(0.5,),
        )
        res = synth_generate(cfg)
        np.testing.assert_array_equal(
            res.datasets["obs"].records[0].values, np.full(6, 7.0)
        )

    def test_same_seed_is_bit_identical(self):
        a = synth_generate(flat_cfg(seed=5))
        b = synth_generate(flat_cfg(seed=5))
        np.testing.assert_array_equal(
            a.datasets["obs"].records[0].values,
            b.datasets["obs"].records[0].values,
        )
        np.testing.assert_array_equal(a.weights["d0"], b.weights["d0"])

    def test_seeds_differ(self):
        a = synth_generate(flat_cfg(seed=0))
        b = synth_generate(flat_cfg(seed=1))
        assert not np.array_equal(
            a.datasets["obs"].records[0].values,
            b.datasets["obs"].records[0].values,
        )

    def test_truth_pools_the_field(self):
        dom = unit_grid_domain(16, 0.0, 2.0)
        cfg = SynthConfig(
            domains=(dom,),
            attributes=("a0", "a1"),
            length_scales=(0.4, 0.9),
            levels={"obs": {"d0": 4}},
            noise_var=0.01,
            seed=3,
        )
        res = synth_generate(cfg)
        part = res.partitions["obs"][("d0", "a1")]
        for n, support in enumerate(part.supports):
            members = membership(support, dom.grid)
            w = weight_vector(support, dom.grid, AVERAGE)
            np.testing.assert_allclose(
                res.truth["obs"][("d0", "a1")][n],
                w @ res.fields["d0"][1, members],
                rtol=1e-12,
            )

    def test_prior_routing_for_drawn_weights(self):
        cfg = replace(
            flat_cfg(),
            weights=None,
            prior_mean=np.full((1, 1), 50.0),
            prior_var=np.full((1, 1), 1e-12),
        )
        res = synth_generate(cfg)
        np.testing.assert_allclose(res.weights["d0"], 50.0, atol=1e-4)

    def test_field_shapes(self):
        res = synth_generate(flat_cfg())
        assert res.fields["d0"].shape == (1, 24)
        assert res.weights["d0"].shape == (1, 1)

    def test_unknown_level_domain_raises(self):
        cfg = replace(flat_cfg(), levels={"obs": {"nope": 4}})
        with pytest.raises(DataError):
            synth_generate(cfg)

    def test_wrong_weight_shape_raises(self):
        cfg = replace(flat_cfg(), weights={"d0": np.ones((2, 3))})
        with pytest.raises(DataError):
            synth_generate(cfg)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_length_scale_raises(self, scale):
        cfg = replace(flat_cfg(), length_scales=(scale,))
        with pytest.raises(DataError, match="length scales"):
            synth_generate(cfg)

    def test_no_latent_kernel_raises(self):
        cfg = replace(flat_cfg(), length_scales=(), weights=None)
        with pytest.raises(DataError, match="at least one latent kernel"):
            synth_generate(cfg)

    def test_moments_match_assembled_covariance(self):
        # 800 independent worlds; per-support variance must sit within
        # four standard errors of the oracle diagonal.
        dom = unit_grid_domain(24, 0.0, 3.0)
        W = np.array([[0.9, -0.5]])
        scales = (0.7, 1.8)
        noise = 0.05
        base = SynthConfig(
            domains=(dom,),
            attributes=("a0",),
            length_scales=scales,
            levels={"obs": {"d0": 3}},
            weights={"d0": W},
            noise_var=noise,
            seed=0,
        )
        n_draws = 800
        draws = np.empty((n_draws, 3))
        rec0 = None
        for s in range(n_draws):
            res = synth_generate(replace(base, seed=s))
            rec = res.datasets["obs"].records[0]
            rec0 = rec0 or rec
            draws[s] = rec.values
        target = np.diag(
            oracle_covariance(dom, [rec0], W, scales, [noise])
        )
        emp = draws.var(axis=0, ddof=1)
        # Var of a variance estimate for Gaussians: 2 sigma^4 / (n - 1).
        se = target * np.sqrt(2.0 / (n_draws - 1))
        assert np.all(np.abs(emp - target) < 4.0 * se)
        np.testing.assert_allclose(
            draws.mean(axis=0), 0.0, atol=4.0 * np.sqrt(target.max() / n_draws)
        )


def selection_dataset(seed):
    dom = unit_grid_domain(48, 0.0, 1.0)
    W = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, -0.8], [-0.6, 0.7]])
    cfg = SynthConfig(
        domains=(dom,),
        attributes=("a0", "a1", "a2", "a3"),
        length_scales=(0.08, 0.25),
        levels={"obs": {"d0": 8}},
        weights={"d0": W},
        noise_var=5e-3,
        value_offset={"a0": 4.0, "a1": 5.0, "a2": 6.0, "a3": 7.0},
        seed=seed,
    )
    return synth_generate(cfg).datasets["obs"]


class TestCvSelectL:
    def test_single_candidate_is_returned(self):
        data = selection_dataset(0)
        res = cv_select_L(
            data,
            (2,),
            TrainConfig(learning_rate=0.02, max_iters=5, seed=0),
            target=("d0", "a0"),
            n_pred_samples=5,
        )
        assert res.chosen == 2
        assert res.candidates == (2,)
        assert res.fold_count == 8

    def test_candidates_deduplicated_and_sorted(self):
        data = selection_dataset(0)
        res = cv_select_L(
            data,
            (3, 1, 1),
            TrainConfig(learning_rate=0.02, max_iters=3, seed=0),
            target=("d0", "a1"),
            n_pred_samples=3,
        )
        assert res.candidates == (1, 3)

    def test_invalid_candidates(self):
        data = selection_dataset(0)
        with pytest.raises(DataError):
            cv_select_L(data, (), TrainConfig())
        with pytest.raises(DataError):
            cv_select_L(data, (0, 2), TrainConfig())

    def test_zero_held_out_value_raises(self):
        dom = unit_grid_domain(12, 0.0, 3.0)
        from conftest import single_series_dataset, cells_support

        sup = [cells_support(range(4 * k, 4 * k + 4), f"s{k}") for k in range(3)]
        data = single_series_dataset(dom, sup, [0.0, 1.0, 2.0])
        with pytest.raises(ZeroTruth):
            cv_select_L(
                data,
                (1,),
                TrainConfig(max_iters=2, seed=0),
                n_pred_samples=2,
            )

    def test_closed_form_failure_is_wrapped(self, monkeypatch):
        data = selection_dataset(0)

        def boom(C):
            raise CholeskyFailure("staged failure")

        monkeypatch.setattr(prediction, "chol_with_jitter", boom)
        with pytest.raises(CrossValidationError) as info:
            cv_select_L(
                data,
                (1, 2),
                TrainConfig(max_iters=2, seed=0),
                target=("d0", "a1"),
                n_pred_samples=2,
            )
        assert "(d0, a1)" in str(info.value)
        assert "1 latents" in str(info.value)
        assert isinstance(info.value.__cause__, CholeskyFailure)

    def test_one_fit_per_candidate(self, monkeypatch):
        data = selection_dataset(0)
        calls = []
        real_fit = evaluation.fit

        def counted(dataset, config, init):
            calls.append((dataset, init.num_latents))
            return real_fit(dataset, config, init)

        monkeypatch.setattr(evaluation, "fit", counted)
        res = cv_select_L(
            data,
            (1, 3),
            TrainConfig(learning_rate=0.02, max_iters=3, seed=0),
            n_pred_samples=3,
        )
        assert res.fold_count == 32
        assert [L for _, L in calls] == [1, 3]
        assert all(ds is data for ds, _ in calls)

    def test_single_support_records_cannot_fold(self):
        dom = unit_grid_domain(8, 0.0, 2.0)
        from conftest import single_series_dataset, cells_support

        data = single_series_dataset(dom, [cells_support(range(8), "all")], [1.0])
        with pytest.raises(DataError):
            cv_select_L(data, (1,), TrainConfig(max_iters=2))

    def test_recovers_latent_count_region_without_refits(self):
        # Four series mixed from two latent processes; leave-one-out
        # selection should land on 2 or 3 latents in most seeds. One
        # latent underfits badly; four adds unneeded variance. Folds are
        # scored in closed form at the full fit's state.
        hits = 0
        chosen = []
        for seed in range(10):
            data = selection_dataset(seed)
            res = cv_select_L(
                data,
                (1, 2, 3, 4),
                TrainConfig(learning_rate=0.03, max_iters=120, seed=seed),
                target=("d0", "a0"),
                n_pred_samples=100,
            )
            chosen.append(res.chosen)
            if res.chosen in (2, 3):
                hits += 1
        assert hits >= 7, f"chose {chosen}"


def harness_cfg():
    doms = tuple(
        unit_grid_domain(24, 0.0, 1.0, domain_id=f"d{k}") for k in range(2)
    )
    return SynthConfig(
        domains=doms,
        attributes=("a0", "a1"),
        length_scales=(0.15, 0.4),
        levels={
            "coarse": {d.id: 4 for d in doms},
            "fine": {d.id: 12 for d in doms},
        },
        noise_var=1e-3,
        value_offset={"a0": 5.0, "a1": 8.0},
        seed=0,
    )


class TestRunExperiment:
    @pytest.mark.parametrize(
        "method, as_points, domains, candidates",
        [
            ("slfm", True, {"d0"}, (1, 2)),
            ("amogp-trans", False, {"d0", "d1"}, (1, 2, 3, 4)),
        ],
    )
    def test_cv_scores_the_training_view(
        self, monkeypatch, method, as_points, domains, candidates
    ):
        seen = []

        real = evaluation.cv_select_L

        def capture(dataset, cands, config, **kwargs):
            result = real(dataset, cands, config, **kwargs)
            seen.append((dataset, result.candidates))
            return result

        monkeypatch.setattr(evaluation, "cv_select_L", capture)
        spec = ExperimentSpec(
            target_domain="d0",
            target_attribute="a0",
            method=method,
            train_level="coarse",
            test_level="fine",
            num_latents="cv",
            seeds=(0,),
            n_pred_samples=5,
            train_config=TrainConfig(learning_rate=0.02, max_iters=3),
        )
        report = run_experiment(spec, harness_cfg())
        assert report.failures == ()
        [(dataset, cands)] = seen
        assert cands == candidates
        assert {r.domain_id for r in dataset.records} == domains
        assert all(r.as_points == as_points for r in dataset.records)

    def test_empty_seed_list(self):
        spec = ExperimentSpec(
            target_domain="d0",
            target_attribute="a0",
            method="amogp",
            train_level="coarse",
            test_level="fine",
            seeds=(),
        )
        report = run_experiment(spec, harness_cfg())
        assert report.seeds_run == ()
        assert report.mape_mean is None
        assert report.mape_se is None
        assert report.failures == ()
        json.dumps(report.to_dict())

    def test_single_seed_smoke(self):
        spec = ExperimentSpec(
            target_domain="d0",
            target_attribute="a0",
            method="amogp",
            train_level="coarse",
            test_level="fine",
            num_latents=2,
            seeds=(1,),
            n_pred_samples=20,
            train_config=TrainConfig(learning_rate=0.02, max_iters=40),
        )
        report = run_experiment(spec, harness_cfg())
        assert report.seeds_run == (1,)
        assert report.mape_mean is not None and report.mape_mean >= 0.0
        assert report.mape_se == 0.0
        assert report.chosen_latents == (2,)
        assert set(report.coregionalization) == {"d0"}
        assert report.coregionalization["d0"].shape == (2, 2)
        json.dumps(report.to_dict())

    def test_transfer_method_sees_other_domains(self):
        spec = ExperimentSpec(
            target_domain="d0",
            target_attribute="a0",
            method="amogp-trans",
            train_level="coarse",
            test_level="fine",
            aux_level="fine",
            num_latents=1,
            seeds=(0,),
            n_pred_samples=10,
            train_config=TrainConfig(learning_rate=0.02, max_iters=25),
        )
        report = run_experiment(spec, harness_cfg())
        assert report.seeds_run == (0,)
        assert set(report.coregionalization) == {"d0", "d1"}

    def test_agp_always_uses_one_latent(self):
        spec = ExperimentSpec(
            target_domain="d0",
            target_attribute="a0",
            method="agp",
            train_level="coarse",
            test_level="fine",
            num_latents=5,
            seeds=(0,),
            n_pred_samples=10,
            train_config=TrainConfig(learning_rate=0.02, max_iters=25),
        )
        report = run_experiment(spec, harness_cfg())
        assert report.chosen_latents == (1,)

    def test_missing_level_lands_in_failures(self):
        spec = ExperimentSpec(
            target_domain="d0",
            target_attribute="a0",
            method="amogp",
            train_level="nope",
            test_level="fine",
            seeds=(0, 1),
            train_config=TrainConfig(max_iters=5),
        )
        report = run_experiment(spec, harness_cfg())
        assert report.seeds_run == ()
        assert len(report.failures) == 2
        assert report.mape_mean is None

    def test_unknown_method_rejected(self):
        with pytest.raises(DataError):
            ExperimentSpec(
                target_domain="d0",
                target_attribute="a0",
                method="mystery",
                train_level="coarse",
                test_level="fine",
            )

    def test_bad_latent_count_rejected(self):
        with pytest.raises(DataError):
            ExperimentSpec(
                target_domain="d0",
                target_attribute="a0",
                method="amogp",
                train_level="coarse",
                test_level="fine",
                num_latents=0,
            )
