"""Training: gradients against finite differences, optimizer behavior.

Gradient checks perturb the packed parameter vector with the eps draws
held fixed, so the stochastic objective is a deterministic function of
the parameters and central differences apply directly.
"""

import logging

import numpy as np
import pytest
from conftest import (
    interval_support,
    single_series_dataset,
    two_domain_instance,
    two_series_instance,
    unit_grid_domain,
)
from scipy.optimize import minimize_scalar

from aggmogp import inference, utils
from aggmogp.errors import NonFiniteELBO
from aggmogp.evaluation import SynthConfig, synth_generate
from aggmogp.inference import (
    AdamOptimizer,
    TrainConfig,
    draw_eps,
    elbo_with_grad,
    estimate_elbo,
    fit,
    refined_elbo,
)
from aggmogp.model import (
    SupportCovTable,
    assemble_C,
    init_state,
    kl_weights,
    latent_sign_flips,
    log_likelihood,
)

GROUPS = (
    "log_length_scales",
    "prior_mean",
    "prior_log_var",
    "q_mean",
    "q_log_var",
    "noise_log_var",
)


def randomized_state(dataset, num_latents, seed):
    """A parameter point with every group away from the variance floor."""
    state = init_state(dataset, num_latents, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    state.log_length_scales = rng.uniform(-1.0, 0.5, size=num_latents)
    state.prior_mean = rng.normal(size=state.prior_mean.shape)
    state.prior_log_var = rng.uniform(-2.0, 0.5, size=state.prior_log_var.shape)
    for v in state.domain_ids:
        state.q_mean[v] = rng.normal(size=state.q_mean[v].shape)
        state.q_log_var[v] = rng.uniform(-3.0, -0.5, size=state.q_log_var[v].shape)
        state.noise_log_var[v] = rng.uniform(-3.0, -1.0, size=state.noise_log_var[v].shape)
    return state


def fd_gradient(dataset, state, eps_draws, h=1e-4):
    theta = state.pack()
    out = np.empty_like(theta)
    for k in range(theta.size):
        plus = theta.copy()
        plus[k] += h
        minus = theta.copy()
        minus[k] -= h
        f_plus = estimate_elbo(dataset, state.unpack(plus), eps_draws)
        f_minus = estimate_elbo(dataset, state.unpack(minus), eps_draws)
        out[k] = (f_plus - f_minus) / (2.0 * h)
    return out


def group_slices(state):
    """(name, slice) pairs over the packed layout."""
    L = state.num_latents
    S = len(state.attributes)
    out = []
    pos = 0

    def cut(name, size):
        nonlocal pos
        out.append((name, slice(pos, pos + size)))
        pos += size

    cut("log_length_scales", L)
    cut("prior_mean", S * L)
    cut("prior_log_var", S * L)
    for v in state.domain_ids:
        Sv = len(state.domain_attributes[v])
        cut(f"q_mean[{v}]", Sv * L)
        cut(f"q_log_var[{v}]", Sv * L)
        cut(f"noise_log_var[{v}]", Sv)
    return out


class TestGradients:
    def test_matches_central_differences_per_group(self):
        _, dataset, _ = two_series_instance()
        for point in range(3):
            state = randomized_state(dataset, 2, seed=point)
            rng = utils.stream(123 + point, 1)
            eps = draw_eps(state, rng, 1)
            analytic = elbo_with_grad(dataset, state, eps)[1].pack()
            numeric = fd_gradient(dataset, state, eps)
            for name, sl in group_slices(state):
                a = analytic[sl]
                n = numeric[sl]
                denom = max(float(np.linalg.norm(n)), 1e-8)
                rel = float(np.linalg.norm(a - n)) / denom
                assert rel < 1e-4, f"group {name} at point {point}: rel {rel:.2e}"

    def test_floored_variances_have_zero_gradient(self):
        _, dataset, _ = two_series_instance()
        state = randomized_state(dataset, 2, seed=0)
        state.q_log_var["d0"][:] = -60.0
        state.prior_log_var[:] = -60.0
        rng = utils.stream(5, 1)
        eps = draw_eps(state, rng, 1)
        grads = elbo_with_grad(dataset, state, eps)[1]
        np.testing.assert_array_equal(grads.q_log_var["d0"], 0.0)
        np.testing.assert_array_equal(grads.prior_log_var, 0.0)

    def test_duplicate_draws_match_single(self):
        _, dataset, _ = two_series_instance()
        state = randomized_state(dataset, 2, seed=1)
        rng = utils.stream(7, 1)
        eps = draw_eps(state, rng, 1)
        doubled = [eps[0], eps[0]]
        v1, g1 = elbo_with_grad(dataset, state, eps)
        v2, g2 = elbo_with_grad(dataset, state, doubled)
        np.testing.assert_allclose(v2, v1, rtol=1e-14)
        np.testing.assert_allclose(g2.pack(), g1.pack(), rtol=1e-12, atol=1e-14)

    def test_prior_mean_gradient_hand_case(self):
        # The prior mean only enters the KL, so its ELBO gradient is
        # sum over domains of (posterior mean - prior mean) / prior var.
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        state.q_mean["d0"][:] = 1.0
        state.prior_mean[:] = 0.0
        state.prior_log_var[:] = 0.0
        eps = draw_eps(state, utils.stream(0, 1), 1)
        grads = elbo_with_grad(dataset, state, eps)[1]
        np.testing.assert_allclose(grads.prior_mean, np.ones((2, 2)), atol=1e-12)


class TestElboValue:
    def test_zero_eps_matches_component_formulas(self):
        # With eps = 0 the weight sample is the variational mean, so the
        # estimate decomposes into a plain Gaussian likelihood minus KL.
        _, dataset, _ = two_series_instance()
        state = randomized_state(dataset, 2, seed=3)
        Sv = len(state.domain_attributes["d0"])
        eps = [{"d0": np.zeros((Sv, state.num_latents))}]
        got = estimate_elbo(dataset, state, eps)
        dd = dataset.prepared("d0")
        C = assemble_C(
            dd, state.q_mean["d0"], state.length_scales, state.noise_log_var["d0"]
        )
        want = log_likelihood(dd.y, C) - kl_weights(
            state.q_mean["d0"],
            state.q_log_var["d0"],
            state.prior_mean,
            state.prior_log_var,
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_needs_at_least_one_draw(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        with pytest.raises(ValueError):
            estimate_elbo(dataset, state, [])

    def test_refined_elbo_reproducible(self):
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        a = refined_elbo(dataset, state, seed=11, n_samples=32)
        b = refined_elbo(dataset, state, seed=11, n_samples=32)
        assert a == b


class TestLatentCovOncePerEvaluation:
    """Support covariances depend on the length scales only, so one
    evaluation builds each domain's once per latent, whatever the number
    of weight draws."""

    def counted(self, monkeypatch):
        calls = []
        real = SupportCovTable.latent_cov

        def latent_cov(table, length_scale, with_grad=False):
            calls.append(with_grad)
            return real(table, length_scale, with_grad)

        monkeypatch.setattr(SupportCovTable, "latent_cov", latent_cov)
        return calls

    def test_refined_elbo(self, monkeypatch):
        dataset = two_domain_instance()
        state = init_state(dataset, 3, seed=0)
        calls = self.counted(monkeypatch)
        refined_elbo(dataset, state, seed=0, n_samples=256)
        assert calls == [False] * (2 * 3)

    def test_elbo_with_grad(self, monkeypatch):
        dataset = two_domain_instance()
        state = init_state(dataset, 3, seed=0)
        calls = self.counted(monkeypatch)
        eps = draw_eps(state, np.random.default_rng(0), 4)
        elbo_with_grad(dataset, state, eps)
        assert calls == [True] * (2 * 3)


class TestStationaryPoint:
    def test_length_scale_gradient_vanishes_at_golden_section_optimum(self):
        # Freeze the weights (variational variance at the floor) so the
        # objective depends on the length scale alone, locate the optimum
        # by golden-section search, and check the analytic gradient there.
        dom = unit_grid_domain(16, 0.0, 4.0)
        supports = [interval_support(float(k), float(k + 1), f"s{k}") for k in range(4)]
        rng = np.random.default_rng(0)
        ds = single_series_dataset(dom, supports, rng.standard_normal(4))
        state = init_state(ds, 1, seed=0)
        state.q_mean["d0"][:] = 1.0
        state.q_log_var["d0"][:] = -60.0
        state.prior_mean[:] = 1.0
        eps = draw_eps(state, utils.stream(0, 1), 1)

        def objective(log_scale):
            s = state.copy()
            s.log_length_scales = np.array([log_scale])
            return -estimate_elbo(ds, s, eps)

        res = minimize_scalar(
            objective,
            bracket=(np.log(0.2), np.log(0.4), np.log(1.6)),
            method="golden",
            options={"xtol": 1e-12},
        )
        opt = state.copy()
        opt.log_length_scales = np.array([res.x])
        grads = elbo_with_grad(ds, opt, eps)[1]
        assert abs(grads.log_length_scales[0]) < 1e-6


class TestFit:
    def small_config(self, **kw):
        base = dict(max_iters=40, seed=0, learning_rate=0.01)
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_trajectories(self):
        _, dataset, _ = two_series_instance()
        cfg = self.small_config()
        init = init_state(dataset, 2, seed=0)
        s1, t1 = fit(dataset, cfg, init)
        s2, t2 = fit(dataset, cfg, init)
        np.testing.assert_array_equal(s1.pack(), s2.pack())
        assert t1.elbo == t2.elbo
        assert t1.final_elbo == t2.final_elbo

    def test_zero_iterations_is_identity(self):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        state, trace = fit(dataset, self.small_config(max_iters=0), init)
        np.testing.assert_array_equal(state.pack(), init.pack())
        assert trace.improvement == 0.0
        assert trace.final_elbo == trace.init_elbo
        assert trace.elbo == []

    def test_improves_on_init(self):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        _, trace = fit(dataset, self.small_config(max_iters=150), init)
        assert trace.final_elbo > trace.init_elbo

    def test_best_snapshot_returned(self):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        state, trace = fit(dataset, self.small_config(max_iters=60), init)
        assert trace.best_iteration >= 0
        assert trace.elbo[trace.best_iteration] == max(trace.elbo)

    def test_fixed_eps_windows_non_decreasing(self):
        # Adam on one frozen draw ascends a deterministic objective, so
        # the estimate 100 steps on is never lower.
        _, dataset, _ = two_series_instance()
        state = init_state(dataset, 2, seed=0)
        eps = draw_eps(state, utils.stream(0, 1), 1)
        adam = AdamOptimizer(0.005)
        theta = state.pack()
        elbo = []
        for _ in range(300):
            value, grads = elbo_with_grad(dataset, state.unpack(theta), eps)
            elbo.append(value)
            theta = adam.step(theta, -grads.pack())
        elbo = np.array(elbo)
        lag = 100
        assert np.all(np.isfinite(elbo))
        assert np.all(elbo[lag:] >= elbo[:-lag] - 1e-9)

    def test_convergence_stops_early(self):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        cfg = self.small_config(
            max_iters=500, convergence_window=10, convergence_tol=1e30
        )
        _, trace = fit(dataset, cfg, init)
        # The first comparison fires as soon as both windows exist.
        assert len(trace.elbo) == 20
        assert trace.stop_reason == "converged"

    @pytest.mark.parametrize("max_iters", [0, 12])
    def test_budget_stop_is_reported(self, max_iters):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        cfg = self.small_config(max_iters=max_iters, convergence_tol=0.0)
        _, trace = fit(dataset, cfg, init)
        assert len(trace.elbo) + trace.backoffs == max_iters
        assert trace.stop_reason == "budget"

    @pytest.mark.parametrize(
        "tol, reason, iters", [(1e30, "converged", 4), (0.0, "budget", 6)]
    )
    def test_stop_reason_logged_once(self, caplog, tol, reason, iters):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        caplog.set_level(logging.DEBUG, logger="aggmogp.inference")
        cfg = self.small_config(
            max_iters=6, convergence_window=2, convergence_tol=tol
        )
        _, trace = fit(dataset, cfg, init)
        records = [r for r in caplog.records if r.name == "aggmogp.inference"]
        assert [r.getMessage() for r in records] == [
            f"stopped after {iters} iterations (0 backoffs): {reason}"
        ]
        assert records[0].levelno == logging.DEBUG
        assert trace.stop_reason == reason

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unusable_init_raises_structured_error(self):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        init.q_mean["d0"][:] = 1e200
        with pytest.raises(NonFiniteELBO) as info:
            fit(dataset, self.small_config(max_iters=50), init)
        assert info.value.iteration == 0

    def test_persistent_failure_exhausts_backoffs(self, monkeypatch):
        from aggmogp import inference
        from aggmogp.errors import CholeskyFailure

        def broken(dataset, state, eps):
            raise CholeskyFailure("staged")

        monkeypatch.setattr(inference, "elbo_with_grad", broken)
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        with pytest.raises(NonFiniteELBO) as info:
            fit(dataset, self.small_config(max_iters=50), init)
        # Five halvings are allowed; the sixth consecutive failure aborts.
        assert info.value.iteration == 5

    def test_final_rescoring_failure_raises_structured_error(self, monkeypatch):
        from aggmogp import inference
        from aggmogp.errors import CholeskyFailure

        real = inference.refined_elbo
        calls = {"n": 0}

        def fails_after_training(dataset, state, seed):
            calls["n"] += 1
            if calls["n"] > 1:
                raise CholeskyFailure("staged")
            return real(dataset, state, seed)

        monkeypatch.setattr(inference, "refined_elbo", fails_after_training)
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        with pytest.raises(NonFiniteELBO) as info:
            fit(dataset, self.small_config(max_iters=10), init)
        # Only the final re-scoring of the best iterate failed.
        assert calls["n"] == 2
        assert isinstance(info.value.__cause__, CholeskyFailure)
        assert 0 <= info.value.iteration < 10

    @pytest.mark.parametrize("failure", ["cholesky", "nan-value", "inf-gradient"])
    def test_transient_failure_recovers_with_halved_rate(self, monkeypatch, failure):
        # A raised factorization failure and a non-finite value or
        # gradient that raised nothing take the same backoff.
        from aggmogp import inference
        from aggmogp.errors import CholeskyFailure

        real = inference.elbo_with_grad
        calls = {"n": 0}

        def flaky(dataset, state, eps):
            calls["n"] += 1
            if calls["n"] > 2:
                return real(dataset, state, eps)
            if failure == "cholesky":
                raise CholeskyFailure("staged")
            value, grads = real(dataset, state, eps)
            if failure == "nan-value":
                return np.nan, grads
            grads.log_length_scales[0] = np.inf
            return value, grads

        monkeypatch.setattr(inference, "elbo_with_grad", flaky)
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        state, trace = fit(dataset, self.small_config(max_iters=20), init)
        assert trace.backoffs == 2
        # The two failed iterations are not recorded; training resumes at
        # a quarter of the configured rate.
        assert trace.iterations[0] == 2
        np.testing.assert_allclose(trace.learning_rate[0], 0.01 * 0.25)
        assert np.all(np.isfinite(state.pack()))

    def test_trace_rows(self):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        _, trace = fit(dataset, self.small_config(max_iters=5), init)
        rows = trace.rows()
        assert len(rows) == 5
        assert rows[0][0] == 0
        assert rows[0][2] == 0.01

    def test_progress_goes_to_the_logger_not_stdout(self, caplog, capsys):
        _, dataset, _ = two_series_instance()
        init = init_state(dataset, 2, seed=0)
        caplog.set_level(logging.INFO, logger="aggmogp.inference")
        fit(dataset, self.small_config(max_iters=10, log_every=4), init)
        records = [r for r in caplog.records if r.name == "aggmogp.inference"]
        assert [r.getMessage()[:11] for r in records] == [
            "iter      0", "iter      4", "iter      8"
        ]
        assert all(r.levelno == logging.INFO for r in records)
        assert capsys.readouterr().out == ""


class TestOrientationAlignment:
    def misaligned_state(self):
        """Random two-domain state whose d1 columns oppose the prior."""
        dataset = two_domain_instance(seed=2)
        state = randomized_state(dataset, 2, seed=3)
        state.q_mean["d1"] = -state.prior_mean[state.attr_rows("d1")] + 0.05
        return dataset, state

    def test_step_keeps_likelihood_lowers_kl_and_negates_moment(self):
        dataset, state = self.misaligned_state()
        adam = AdamOptimizer(0.01)
        adam.m = np.random.default_rng(0).normal(size=state.n_params)
        moment = state.unpack(adam.m)
        aligned = state.unpack(inference._align_orientation(state, state.pack(), adam))
        flips = latent_sign_flips(state)
        assert flips["d1"].all()
        assert inference._kl_total(aligned) < inference._kl_total(state)
        eps = draw_eps(state, utils.stream(7, 1), 3)
        eps_aligned = [
            {v: e[v] * np.where(flips[v], -1.0, 1.0) for v in e} for e in eps
        ]
        ll = estimate_elbo(dataset, state, eps) + inference._kl_total(state)
        ll_aligned = estimate_elbo(dataset, aligned, eps_aligned) + inference._kl_total(aligned)
        np.testing.assert_allclose(ll_aligned, ll, rtol=1e-12)
        new_moment = state.unpack(adam.m)
        for v in state.domain_ids:
            sign = np.where(flips[v], -1.0, 1.0)
            np.testing.assert_array_equal(aligned.q_mean[v], state.q_mean[v] * sign)
            np.testing.assert_array_equal(new_moment.q_mean[v], moment.q_mean[v] * sign)
            np.testing.assert_array_equal(new_moment.q_log_var[v], moment.q_log_var[v])
        np.testing.assert_array_equal(new_moment.prior_mean, moment.prior_mean)

    def test_never_raises_kl(self):
        for seed in range(10):
            dataset = two_domain_instance(seed=seed)
            state = randomized_state(dataset, 2, seed=seed)
            adam = AdamOptimizer(0.01)
            adam.m = np.zeros(state.n_params)
            aligned = state.unpack(inference._align_orientation(state, state.pack(), adam))
            assert inference._kl_total(aligned) <= inference._kl_total(state)

    def test_single_domain_fit_never_aligns(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("alignment ran on a single-domain fit")

        monkeypatch.setattr(inference, "_align_orientation", forbidden)
        _, dataset, _ = two_series_instance()
        fit(dataset, TrainConfig(max_iters=20, learning_rate=0.05), init_state(dataset, 2))

    def test_fit_aligns_a_misaligned_start(self):
        dataset, init = self.misaligned_state()
        cfg = TrainConfig(max_iters=2, learning_rate=0.01, seed=0)
        state, trace = fit(dataset, cfg, init)
        # The iterate after the first step is aligned and, with the KL
        # drop, scores best.
        assert trace.best_iteration == 1
        flips = latent_sign_flips(state)
        assert not any(f.any() for f in flips.values())


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for rate in (np.nan, np.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="convergence_tol"):
            TrainConfig(convergence_tol=np.nan)
        with pytest.raises(ValueError):
            TrainConfig(max_iters=-1)
        with pytest.raises(ValueError):
            TrainConfig(num_elbo_samples=0)
        with pytest.raises(ValueError):
            TrainConfig(convergence_window=0)
        with pytest.raises(ValueError):
            TrainConfig(convergence_tol=-1e-6)
        with pytest.raises(ValueError):
            TrainConfig(log_every=-1)
        # Zero stays valid: it turns logging and the convergence stop off.
        TrainConfig(convergence_tol=0.0, log_every=0)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        # Bias correction makes the first update lr * sign(grad) up to eps.
        adam = AdamOptimizer(0.1)
        p = adam.step(np.zeros(3), np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(p, [-0.1, 0.1, -0.1], atol=1e-6)

    def test_snapshot_restore_round_trip(self):
        adam = AdamOptimizer(0.05)
        g = np.array([0.3, -0.7])
        p = adam.step(np.zeros(2), g)
        snap = adam.snapshot()
        p_after = adam.step(p, g)
        adam.restore(snap)
        p_replay = adam.step(p, g)
        np.testing.assert_array_equal(p_replay, p_after)


class TestLengthScaleRecovery:
    def test_recovers_generator_scale_in_most_seeds(self):
        # Four unit-extent domains share the 0.3-scale kernel; one
        # realization per domain gives the shared estimate roughly twelve
        # correlation lengths of evidence. A single [0, 1] realization
        # holds about three and is far too noisy to pin the scale down.
        hits = 0
        for seed in range(10):
            doms = tuple(
                unit_grid_domain(48, 0.0, 1.0, domain_id=f"d{k}") for k in range(4)
            )
            cfg = SynthConfig(
                domains=doms,
                attributes=("a0",),
                length_scales=(0.3,),
                levels={"obs": {d.id: 24 for d in doms}},
                weights={d.id: np.array([[1.0]]) for d in doms},
                noise_var=1e-4,
                seed=seed,
            )
            data = synth_generate(cfg).datasets["obs"]
            init = init_state(data, 1, seed=seed)
            state, _ = fit(
                data,
                TrainConfig(learning_rate=0.03, max_iters=1000, seed=seed),
                init,
            )
            fitted = float(np.exp(state.log_length_scales[0]))
            if 0.24 <= fitted <= 0.36:
                hits += 1
        assert hits >= 8, f"recovered the scale in only {hits}/10 seeds"
