"""Release acceptance suite: one test per shipping criterion.

Each test prints a single ``criterion NN`` line with PASS or FAIL plus a
short detail (visible under ``pytest -s``), then asserts. Oracles are
reimplemented here from first principles rather than imported from the
unit suites, so a regression in a shared helper cannot hide a regression
in the library.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    aggregation_matrix,
    cells_support,
    field_gram,
    interval_support,
    oracle_covariance,
    single_series_dataset,
    two_series_instance,
    unit_grid_domain,
)
from scipy.integrate import dblquad, quad
from scipy.special import logsumexp

from aggmogp import baselines, utils
from aggmogp.evaluation import SynthConfig, mape, synth_generate
from aggmogp.geometry import (
    AVERAGE,
    Domain,
    GridSpec,
    Interval,
    Partition,
    grid_block_partition,
)
from aggmogp.inference import (
    TrainConfig,
    draw_eps,
    elbo_with_grad,
    estimate_elbo,
    fit,
    refined_elbo,
)
from aggmogp.kernels import KernelSet, se_double_interval, se_point_interval
from aggmogp.model import (
    JITTER_BASE,
    AggregatedDataset,
    DatasetRecord,
    assemble_C,
    floor_var,
    init_state,
    log_likelihood,
    override_length_scales,
)
from aggmogp.prediction import conditional_posterior, predict_supports


def report(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def se_cross(a, b, scale):
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * scale * scale))


def joint_conditional(domain, records, W, scales, noise_vars, y, query, sel):
    """Condition the explicit joint Gaussian over (fields, observations)."""
    W = np.asarray(W, dtype=float)
    query = np.asarray(query, dtype=float)
    A = aggregation_matrix(domain, records)
    K_ff = field_gram(domain, W, scales)
    grid_pts = domain.grid.points
    n_q = query.shape[0]
    K_fq = np.zeros((K_ff.shape[0], len(sel) * n_q))
    K_qq = np.zeros((len(sel) * n_q,) * 2)
    for l, scale in enumerate(scales):
        K_fq += np.kron(np.outer(W[:, l], W[sel, l]), se_cross(grid_pts, query, scale))
        K_qq += np.kron(np.outer(W[sel, l], W[sel, l]), se_cross(query, query, scale))
    sig = np.concatenate(
        [
            np.full(len(rec.partition.supports), float(s2))
            for rec, s2 in zip(records, noise_vars)
        ]
    )
    C = A @ K_ff @ A.T + np.diag(sig)
    C_j = C + JITTER_BASE * float(np.mean(np.diag(C))) * np.eye(C.shape[0])
    H = A @ K_fq
    solve = np.linalg.solve(C_j, np.column_stack([y[:, None], H]))
    return H.T @ solve[:, 0], K_qq - H.T @ solve[:, 1:]


def packed_groups(state):
    """(name, slice) pairs over the packed parameter layout."""
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


def off_floor_state(dataset, num_latents, seed):
    """A randomized parameter point with every variance away from its floor."""
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


def central_differences(dataset, state, eps_draws, h=1e-4):
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


def test_criterion_01_covariance_assembly_oracle():
    t0 = time.perf_counter()
    domain, dataset, records = two_series_instance()
    dd = dataset.prepared("d0")
    rng = np.random.default_rng(7)
    W = rng.standard_normal((2, 2))
    scales = (0.9, 2.4)
    noise = (0.05, 0.08)
    got = assemble_C(
        dd, W, KernelSet.from_length_scales(scales), np.log(np.asarray(noise))
    )
    want = oracle_covariance(domain, records, W, scales, noise)
    err = float(np.abs(got - want).max())
    elapsed = time.perf_counter() - t0
    ok = err < 1e-8 and elapsed < 1.0
    report(1, "covariance assembly oracle", ok, f"max err {err:.2e}, {elapsed:.2f}s")
    assert err < 1e-8
    assert elapsed < 1.0


def test_criterion_02_joint_conditioning_oracle():
    t0 = time.perf_counter()
    domain, dataset, records = two_series_instance()
    scales = (1.2, 0.6)
    noise = (0.05, 0.08)
    state = init_state(dataset, 2, seed=0)
    override_length_scales(state, scales)
    state.noise_log_var["d0"] = np.log(np.asarray(noise, dtype=float))
    rng = np.random.default_rng(3)
    W = rng.standard_normal((2, 2))
    query = domain.grid.points
    post = conditional_posterior(query, W, state, dataset, "d0")
    y = dataset.prepared("d0").y
    mean, cov = joint_conditional(domain, records, W, scales, noise, y, query, [0, 1])
    err_m = float(np.abs(post.mean - mean).max())
    err_c = float(np.abs(post.cov - cov).max())
    elapsed = time.perf_counter() - t0
    ok = err_m < 1e-8 and err_c < 1e-8 and elapsed < 5.0
    report(
        2,
        "joint conditioning oracle",
        ok,
        f"mean err {err_m:.2e}, cov err {err_c:.2e}, {elapsed:.2f}s",
    )
    assert err_m < 1e-8
    assert err_c < 1e-8
    assert elapsed < 5.0


def test_criterion_03_kernel_integral_oracle():
    t0 = time.perf_counter()
    point_cases = [
        (0.3, Interval(0.0, 1.0), 0.5),
        (-0.2, Interval(0.5, 2.0), 0.8),
        (1.0, Interval(0.0, 1.0), 2.0),
    ]
    worst_quad = 0.0
    for x, iv, b in point_cases:
        got = se_point_interval(x, iv.lo, iv.hi, b)
        want, _ = quad(
            lambda t: np.exp(-((x - t) ** 2) / (2.0 * b * b)),
            iv.lo,
            iv.hi,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        worst_quad = max(worst_quad, abs(got - want))
    double_cases = [
        (Interval(0.0, 1.0), Interval(0.5, 2.0), 0.5),
        (Interval(0.0, 2.0), Interval(0.0, 2.0), 1.0),
        (Interval(-1.0, 0.0), Interval(1.0, 2.5), 0.7),
    ]
    for iv1, iv2, b in double_cases:
        got = se_double_interval(iv1.lo, iv1.hi, iv2.lo, iv2.hi, b)
        want, _ = dblquad(
            lambda s, t: np.exp(-((s - t) ** 2) / (2.0 * b * b)),
            iv1.lo,
            iv1.hi,
            iv2.lo,
            iv2.hi,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        worst_quad = max(worst_quad, abs(got - want))

    def grid_average(iv1, iv2, b, per_unit):
        n1 = max(2, int(round(iv1.length * per_unit)))
        n2 = max(2, int(round(iv2.length * per_unit)))
        p1 = iv1.lo + (np.arange(n1) + 0.5) * (iv1.length / n1)
        p2 = iv2.lo + (np.arange(n2) + 0.5) * (iv2.length / n2)
        return np.full(n1, 1.0 / n1) @ se_cross(p1, p2, b) @ np.full(n2, 1.0 / n2)

    def closed_average(iv1, iv2, b):
        got = se_double_interval(iv1.lo, iv1.hi, iv2.lo, iv2.hi, b)
        return got / (iv1.length * iv2.length)

    worst_grid = 0.0
    for iv1, iv2, b in double_cases:
        closed = closed_average(iv1, iv2, b)
        worst_grid = max(worst_grid, abs(grid_average(iv1, iv2, b, 1000) - closed))
    iv1, iv2, b = double_cases[0]
    closed = closed_average(iv1, iv2, b)
    errs = [
        abs(grid_average(iv1, iv2, b, per_unit) - closed)
        for per_unit in (250, 500, 1000, 2000)
    ]
    monotone = all(errs[i + 1] <= errs[i] for i in range(3))
    elapsed = time.perf_counter() - t0
    ok = worst_quad < 1e-10 and worst_grid < 1e-4 and monotone and elapsed < 10.0
    report(
        3,
        "kernel integral oracle",
        ok,
        f"quad err {worst_quad:.2e}, grid err {worst_grid:.2e},"
        f" doubling errs {['%.2e' % e for e in errs]}, {elapsed:.2f}s",
    )
    assert worst_quad < 1e-10
    assert worst_grid < 1e-4
    assert monotone, f"grid error not non-increasing over doublings: {errs}"
    assert elapsed < 10.0


def test_criterion_04_gradient_check():
    t0 = time.perf_counter()
    _, dataset, _ = two_series_instance()
    worst = 0.0
    for point in range(5):
        state = off_floor_state(dataset, 2, seed=point)
        eps = draw_eps(state, utils.stream(123 + point, 1), 1)
        analytic = elbo_with_grad(dataset, state, eps)[1].pack()
        numeric = central_differences(dataset, state, eps)
        for name, sl in packed_groups(state):
            a = analytic[sl]
            n = numeric[sl]
            rel = float(np.linalg.norm(a - n)) / max(float(np.linalg.norm(n)), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4, f"group {name} at point {point}: rel {rel:.2e}"
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(4, "gradient check", ok, f"worst group rel {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_05_elbo_lower_bounds_evidence():
    t0 = time.perf_counter()
    dom = unit_grid_domain(16, 0.0, 2.0)
    supports = [
        interval_support(0.5 * i, 0.5 * (i + 1), f"s{i}", dom.id) for i in range(4)
    ]
    rng = np.random.default_rng(42)
    dataset = single_series_dataset(dom, supports, rng.normal(0.0, 1.0, 4))
    cfg = TrainConfig(learning_rate=0.02, max_iters=400, seed=0)
    state, _ = fit(dataset, cfg, init_state(dataset, 1, seed=0))

    dd = dataset.prepared("d0")
    m = float(state.prior_mean[0, 0])
    var = float(floor_var(state.prior_log_var)[0, 0])
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    logliks = np.array(
        [
            log_likelihood(
                dd.y,
                assemble_C(
                    dd,
                    np.array([[m + np.sqrt(2.0 * var) * x]]),
                    state.kernels,
                    state.noise_log_var["d0"],
                ),
            )
            for x in nodes
        ]
    )
    log_evidence = float(logsumexp(logliks + np.log(weights)) - 0.5 * np.log(np.pi))
    estimates = np.array(
        [refined_elbo(dataset, state, seed=s, n_samples=256) for s in range(20)]
    )
    mean = float(estimates.mean())
    se = float(estimates.std(ddof=1)) / np.sqrt(len(estimates))
    gap = log_evidence - mean
    elapsed = time.perf_counter() - t0
    ok = mean <= log_evidence + 3.0 * se + 1e-9 and elapsed < 30.0
    report(
        5,
        "elbo lower bounds evidence",
        ok,
        f"elbo {mean:.4f} +- {se:.4f}, log evidence {log_evidence:.4f},"
        f" gap {gap:.4f}, {elapsed:.2f}s",
    )
    assert mean <= log_evidence + 3.0 * se + 1e-9, (
        f"mean estimated bound {mean:.6f} exceeds log evidence"
        f" {log_evidence:.6f} by more than 3 SE ({se:.2e})"
    )
    assert elapsed < 30.0


def test_criterion_06_generative_moments():
    t0 = time.perf_counter()
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
    n_draws = 2000
    draws = np.empty((n_draws, 3))
    rec0 = None
    for s in range(n_draws):
        res = synth_generate(replace(base, seed=s))
        rec = res.datasets["obs"].records[0]
        rec0 = rec0 or rec
        draws[s] = rec.values
    target = np.diag(oracle_covariance(dom, [rec0], W, scales, [noise]))
    emp = draws.var(axis=0, ddof=1)
    # Var of a Gaussian variance estimate: 2 sigma^4 / (n - 1).
    se = target * np.sqrt(2.0 / (n_draws - 1))
    z = float(np.abs((emp - target) / se).max())
    elapsed = time.perf_counter() - t0
    ok = z < 3.0 and elapsed < 60.0
    report(6, "generative moments", ok, f"worst z {z:.2f} over {n_draws} draws, {elapsed:.2f}s")
    assert z < 3.0, f"empirical variance off by {z:.2f} SE"
    assert elapsed < 60.0


def test_criterion_07_aggregation_consistency():
    t0 = time.perf_counter()
    domain, dataset, records = two_series_instance()
    # Floored noise and variational variances: the posterior interpolates
    # the data, so refining onto the training partition must give it back.
    state = init_state(dataset, 2, seed=0)
    override_length_scales(state, (0.8, 0.5))
    rng = np.random.default_rng(100)
    state.q_mean["d0"] = rng.standard_normal(state.q_mean["d0"].shape)
    state.q_log_var["d0"][:] = np.log(1e-13)
    state.noise_log_var["d0"][:] = np.log(1e-13)
    worst_repro = 0.0
    for rec in records:
        pred = predict_supports(rec.partition, state, dataset, n_samples=4, seed=11)
        worst_repro = max(
            worst_repro, float(np.abs(pred.values - dataset.normalized(rec)).max())
        )
    coarse = grid_block_partition(domain, "a0", (16,), id_prefix="c")
    fine = grid_block_partition(domain, "a0", (4,), id_prefix="r")
    pc = predict_supports(coarse, state, dataset, n_samples=6, seed=4)
    pf = predict_supports(fine, state, dataset, n_samples=6, seed=4)
    pooled = pf.values.reshape(4, 4).mean(axis=1)
    worst_nest = float(np.abs(pc.values - pooled).max())
    elapsed = time.perf_counter() - t0
    ok = worst_repro < 1e-3 and worst_nest < 1e-6
    report(
        7,
        "aggregation consistency",
        ok,
        f"training repro err {worst_repro:.2e}, nesting err {worst_nest:.2e}, {elapsed:.2f}s",
    )
    assert worst_repro < 1e-3
    assert worst_nest < 1e-6


def test_criterion_08_grid_assembly_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    grid = GridSpec(origin=(0.0, 0.0), cell_size=(0.25, 0.6), shape=(10, 8))
    domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
    pts = grid.points
    worst = 0.0
    for _ in range(50):
        b = float(rng.uniform(0.2, 3.0))
        left = rng.choice(80, size=int(rng.integers(1, 15)), replace=False)
        right = rng.choice(80, size=int(rng.integers(1, 15)), replace=False)
        records = [
            DatasetRecord(
                "d0",
                attr,
                Partition(attr, "d0", (cells_support(cells, f"{attr}s"),)),
                (AVERAGE,),
                np.zeros(1),
            )
            for attr, cells in (("a0", left), ("a1", right))
        ]
        dataset = AggregatedDataset({"d0": domain}, ("a0", "a1"), records)
        got = dataset.prepared("d0").cov.latent_cov(b)[0, 1]
        # The weighted double sum over both member sets, written out.
        want = sum(
            np.exp(-np.sum((pts[i] - pts[j]) ** 2) / (2.0 * b * b))
            / (left.size * right.size)
            for i in left
            for j in right
        )
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(
        8,
        "grid assembly equivalence",
        ok,
        f"worst rel err {worst:.2e} over 50 pairs, {elapsed:.2f}s",
    )
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_09_coarsening_and_transfer_ordering():
    t0 = time.perf_counter()
    d0 = unit_grid_domain(96, 0.0, 3.0, domain_id="d0")
    d1 = unit_grid_domain(48, 0.0, 1.0, domain_id="d1")
    d2 = unit_grid_domain(48, 0.0, 1.0, domain_id="d2")
    doms = (d0, d1, d2)
    attrs = ("a0", "a1", "a2")
    W = np.array([[1.0, 0.4], [-0.8, 0.5], [0.75, -0.5]])
    n_seeds = 10
    n_chain = 0
    n_mono = 0
    n_vs_single = 0
    n_vs_one_attr = 0
    n_vs_factor = 0
    for seed in range(n_seeds):
        synth_cfg = SynthConfig(
            domains=doms,
            attributes=attrs,
            length_scales=(0.08, 0.30),
            levels={
                "c20": {"d0": 20},
                "c13": {"d0": 13},
                "c9": {"d0": 9},
                "f20": {"d0": 20},
                "aux": {"d1": 16, "d2": 16},
                "test": {"d0": 60},
            },
            weights={d.id: W for d in doms},
            noise_var=1e-4,
            value_offset={"a0": 5.0, "a1": 6.0, "a2": 7.0},
            seed=seed,
        )
        res = synth_generate(synth_cfg)

        def rec_of(level, dom_id, attr):
            return res.datasets[level].record_for(dom_id, attr)

        def target_ds(level):
            recs = (
                rec_of(level, "d0", "a0"),
                rec_of("f20", "d0", "a1"),
                rec_of("f20", "d0", "a2"),
            )
            return AggregatedDataset({"d0": d0}, attrs, recs)

        aux = tuple(
            rec_of("aux", dom_id, a) for dom_id in ("d1", "d2") for a in attrs
        )
        ds9 = target_ds("c9")
        joint = AggregatedDataset(
            {d.id: d for d in doms}, attrs, ds9.records + aux
        )
        cfg = TrainConfig(learning_rate=0.02, max_iters=700, seed=seed)
        cfg_joint = replace(cfg, max_iters=1200)

        def score(state, ds):
            pred = predict_supports(
                res.partitions["test"][("d0", "a0")], state, ds, 100, seed
            )
            vals = ds.denormalize("d0", "a0", pred.values)
            return mape(res.truth["test"][("d0", "a0")], vals)

        agp = baselines.fit_agp(ds9, "d0", "a0", config=cfg, init_seed=seed)
        m_agp = score(agp.state, agp.dataset)
        slfm = baselines.fit_slfm(ds9, 2, domain_id="d0", config=cfg, init_seed=seed)
        m_slfm = score(slfm.state, slfm.dataset)
        st_single, _ = fit(ds9, cfg, init_state(ds9, 2, seed=seed))
        m_single = score(st_single, ds9)
        st_joint, _ = fit(joint, cfg_joint, init_state(joint, 2, seed=seed))
        m_joint = score(st_joint, joint)
        monos = [m_single]
        for level in ("c13", "c20"):
            ds = target_ds(level)
            st, _ = fit(ds, cfg, init_state(ds, 2, seed=seed))
            monos.append(score(st, ds))
        m13, m20 = monos[1], monos[2]
        chain = m_joint < m_single and m_single <= m_agp and m_single <= m_slfm
        mono = m20 <= m13 and m13 <= monos[0]
        n_chain += chain
        n_mono += mono
        n_vs_single += m_joint < m_single
        n_vs_one_attr += m_joint < m_agp
        n_vs_factor += m_joint < m_slfm
        print(
            f"  seed {seed}: joint {m_joint:.4f} single {m_single:.4f}"
            f" one-attr {m_agp:.4f} factor {m_slfm:.4f} |"
            f" c20 {m20:.4f} c13 {m13:.4f} c9 {monos[0]:.4f} |"
            f" chain={'y' if chain else 'n'} mono={'y' if mono else 'n'}"
        )
    elapsed = time.perf_counter() - t0
    ok = (
        n_chain >= 8
        and n_mono >= 8
        and n_vs_one_attr >= 8
        and elapsed < 900.0
    )
    report(
        9,
        "coarsening and transfer ordering",
        ok,
        f"chain {n_chain}/10, mono {n_mono}/10, joint<one-attr {n_vs_one_attr}/10,"
        f" joint<single {n_vs_single}/10, joint<factor {n_vs_factor}/10,"
        f" {elapsed:.0f}s",
    )
    assert elapsed < 900.0
    assert n_vs_one_attr >= 8, (
        f"joint fit beat the one-attribute baseline in {n_vs_one_attr}/10 seeds"
    )
    assert n_mono >= 8, f"error grew with coarseness in only {n_mono}/10 seeds"
    assert n_chain >= 8, (
        f"full ordering joint < single <= both baselines held in {n_chain}/10 seeds"
    )


def cli_args(*args):
    shim = "import sys; from aggmogp.cli import main; sys.exit(main(sys.argv[1:]))"
    return [sys.executable, "-c", shim, *args]


def test_criterion_10_byte_deterministic_pipeline(tmp_path):
    t0 = time.perf_counter()
    synth_cfg = {
        "format_version": 1,
        "synth": {
            "domains": [
                {
                    "id": "d0",
                    "extent": [[0.0, 1.0]],
                    "grid": {
                        "origin": [1.0 / 48],
                        "cell_size": [1.0 / 24],
                        "shape": [24],
                    },
                }
            ],
            "attributes": ["a0", "a1"],
            "length_scales": [0.15, 0.4],
            "levels": {"coarse": {"d0": 4}, "fine": {"d0": 12}},
            "noise_var": 0.001,
            "value_offset": {"a0": 5.0, "a1": 8.0},
            "seed": 0,
        },
    }
    fit_cfg = {
        "format_version": 1,
        "model": {"num_latents": 2},
        "training": {"learning_rate": 0.02, "max_iters": 40},
        "prediction": {"n_samples": 20},
    }
    eval_cfg = {
        "format_version": 1,
        "synth": synth_cfg["synth"],
        "training": {"learning_rate": 0.02, "max_iters": 30},
        "experiment": {
            "target_domain": "d0",
            "target_attribute": "a0",
            "method": "amogp",
            "train_level": "coarse",
            "test_level": "fine",
            "num_latents": 2,
            "seeds": [0, 1],
            "n_pred_samples": 20,
        },
    }
    paths = {}
    for name, doc in (("synth", synth_cfg), ("fit", fit_cfg), ("eval", eval_cfg)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths[name] = str(p)
    outputs = ("world-coarse.json", "world-fine.json", "world-truth.json",
               "model.json", "report.json")
    for run in ("r1", "r2"):
        d = tmp_path / run
        d.mkdir()
        steps = (
            cli_args("synth", "--config", paths["synth"], "--out", str(d / "world")),
            cli_args(
                "fit",
                "--dataset", str(d / "world-coarse.json"),
                "--config", paths["fit"],
                "--out", str(d / "model.json"),
            ),
            cli_args("eval", "--config", paths["eval"], "--out", str(d / "report.json")),
        )
        for argv in steps:
            proc = subprocess.run(argv, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr or proc.stdout
    mismatched = [
        name
        for name in outputs
        if (tmp_path / "r1" / name).read_bytes() != (tmp_path / "r2" / name).read_bytes()
    ]
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    report(
        10,
        "byte deterministic pipeline",
        ok,
        f"{len(outputs)} artifacts compared, mismatches {mismatched or 'none'},"
        f" {elapsed:.1f}s",
    )
    assert not mismatched, f"outputs differ between runs: {mismatched}"
