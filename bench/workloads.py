"""The benchmark workloads and the output checks they run.

One repetition of a workload is the pipeline a user runs: build the
dataset (``setup``), train (``fit``), refine onto the fine target
partition (``refine``) and predict on the target domain's grid
(``grid``). Every library call goes through its module attribute
(``inference.fit``, not a name imported here), so the traced run's
rebinding sees the benchmark's own calls too.

Each operation counts once in the ledger; it fails when it raises
``AggmogpError`` or when one of its output checks does not hold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import aggmogp.evaluation as evaluation
import aggmogp.inference as inference
import aggmogp.model as model
import aggmogp.prediction as prediction
from aggmogp.errors import AggmogpError

from . import worlds

LEARNING_RATE = 0.02
# Share of each step's time spent reading the host clock after it.
TICK_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """Budgets of one workload; every amount of work is fixed.

    With ``cv_candidates`` the fit step first selects a latent count by
    leave-one-out (``cv_select_L`` at ``cv_iters``, warm folds at a
    fifth of that). The fit, refine and grid steps always use
    ``latents``, so their work does not depend on which count the
    seed's data favours.
    """

    name: str
    make_world: Callable[[int], worlds.World]
    latents: int
    fit_iters: int
    draws: int
    setup_repeats: int
    cv_candidates: tuple = ()
    cv_iters: int = 0
    cv_draws: int = 100


def _loo_world(seed: int) -> worlds.World:
    return worlds.target_domain_view(worlds.transfer_world(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="transfer-1d",
            make_world=worlds.transfer_world,
            latents=2,
            fit_iters=300,
            draws=100,
            setup_repeats=20,
        ),
        Workload(
            name="blocks-2d",
            make_world=worlds.blocks_world,
            latents=2,
            fit_iters=100,
            draws=10,
            setup_repeats=1,
        ),
        Workload(
            name="loo-cv",
            make_world=_loo_world,
            latents=2,
            fit_iters=300,
            draws=100,
            setup_repeats=20,
            cv_candidates=(1, 2),
            cv_iters=100,
        ),
    )
}


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Set to a tracer's ``span`` for traced repetitions.
        self.span = None

    def run(self, op: str, call, checks):
        """Time ``call``, then apply ``checks(result)`` (a list of problems).

        Returns ``(result, seconds)``, or ``(None, seconds)`` when the
        operation failed.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.span is None:
                result = call()
            else:
                with self.span(f"bench.{op}"):
                    result = call()
        except AggmogpError as e:
            self.failed += 1
            self.problems.append(f"{op}: {type(e).__name__}: {e}")
            return None, time.perf_counter() - start
        seconds = time.perf_counter() - start
        problems = checks(result)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)
            return None, seconds
        return result, seconds


def mape(truth, values) -> float:
    """Scored here, not with the program's own ``mape``."""
    truth = np.asarray(truth, dtype=float)
    return float(np.mean(np.abs((truth - np.asarray(values)) / truth)))


def _finite(name, arr):
    return [] if np.all(np.isfinite(arr)) else [f"{name} not finite"]


def _nonneg(name, arr):
    return [] if np.all(np.asarray(arr) >= 0.0) else [f"{name} negative"]


def setup(world: worlds.World) -> model.AggregatedDataset:
    """Generated records to a dataset with every domain prepared."""
    ds = model.AggregatedDataset(world.domains, world.attributes, world.records)
    for domain_id in ds.domain_order():
        ds.prepared(domain_id)
    return ds


def check_setup(world, ds):
    rows = sum(len(r.values) for r in world.records)
    got = sum(ds.prepared(v).n_obs for v in ds.domain_order())
    problems = [] if got == rows else [f"{got} prepared rows, expected {rows}"]
    return problems + _finite("normalized values", np.concatenate(
        [ds.prepared(v).y for v in ds.domain_order()]
    ))


def check_fit(budget, result):
    state, trace = result
    ran = len(trace.iterations) + trace.backoffs
    problems = [] if ran == budget else [f"{ran} iterations, budget {budget}"]
    return (
        problems
        + _finite("final ELBO", trace.final_elbo)
        + _finite("parameters", state.pack())
    )


def check_cv(candidates, folds, result):
    problems = [] if result.chosen in candidates else [f"chose {result.chosen}"]
    if result.fold_count != folds:
        problems.append(f"{result.fold_count} folds, expected {folds}")
    return problems + _finite("fold errors", result.errors)


def check_refine(world, ds, pred):
    d, a = world.target
    values, variances = ds.denormalize(d, a, pred.values, pred.variances)
    n = len(world.test_partition.supports)
    if values.shape != (n,) or variances.shape != (n,):
        return [f"shape {values.shape}, expected ({n},)"]
    problems = _finite("refined values", values) + _finite("variances", variances)
    return problems + _nonneg("variances", variances)


def check_grid(world, ds, refined, result):
    d, _ = world.target
    _, mean, variance, _ = result
    n = ds.domains[d].grid.n_points
    if mean.shape != (n,) or variance.shape != (n,):
        return [f"grid shape {mean.shape}, expected ({n},)"]
    problems = _finite("grid mean", mean) + _finite("grid variance", variance)
    problems += _nonneg("grid variance", variance)
    if refined is not None and not problems:
        # With equal draw counts both helpers draw the same weight samples
        # from one seed, so the refined means are the grid means averaged
        # over each support.
        pooled = np.array(
            [mean[worlds.cells_of(s, ds.domains[d])].mean()
             for s in world.test_partition.supports]
        )
        if not np.allclose(pooled, refined.values, rtol=1e-9, atol=1e-9):
            gap = float(np.max(np.abs(pooled - refined.values)))
            problems.append(f"grid means disagree with refined values by {gap:.3e}")
    return problems


@dataclass
class Rep:
    """Timings (seconds) and outcomes of one pipeline repetition."""

    setup_s: list
    ticks: list
    fit_s: float | None = None
    cv_s: float | None = None
    refine_s: float | None = None
    grid_s: float | None = None
    refine_mape: float | None = None
    broadcast_mape: float | None = None
    cv_mape: float | None = None
    chosen: int | None = None
    iterations: int | None = None
    backoffs: int | None = None
    final_elbo: float | None = None

    @property
    def total_s(self) -> float:
        parts = [self.fit_s, self.refine_s, self.grid_s]
        return sum(self.setup_s) + sum(p for p in parts if p is not None)


def run_rep(work: Workload, world: worlds.World, seed: int, ledger: Ledger, clock) -> Rep:
    """One pass of the pipeline; later steps are skipped after a failure.

    The host clock ticks before the first step and, after each step, for
    ``TICK_SHARE`` of that step's time (at least once), so its readings
    sample the host over the whole repetition.
    """
    rep = Rep(setup_s=[], ticks=clock.ticks_for(0.0))

    def ticks_after(seconds):
        rep.ticks.extend(clock.ticks_for(TICK_SHARE * (seconds or 0.0)))

    for _ in range(work.setup_repeats):
        built, seconds = ledger.run(
            "setup", lambda: setup(world), lambda r: check_setup(world, r)
        )
        rep.setup_s.append(seconds)
        if built is None:
            return rep
        ds = built
    ticks_after(sum(rep.setup_s))
    d, a = world.target
    config = inference.TrainConfig(
        learning_rate=LEARNING_RATE,
        max_iters=work.fit_iters,
        seed=seed,
        convergence_tol=0.0,
    )
    if work.cv_candidates:
        folds = len(ds.record_for(d, a).partition.supports)
        cv, rep.cv_s = ledger.run(
            "cv",
            lambda: evaluation.cv_select_L(
                ds,
                work.cv_candidates,
                replace(config, max_iters=work.cv_iters),
                target=world.target,
                n_pred_samples=work.cv_draws,
            ),
            lambda r: check_cv(work.cv_candidates, folds, r),
        )
        if cv is None:
            return rep
        ticks_after(rep.cv_s)
        rep.chosen = cv.chosen
        rep.cv_mape = cv.errors[cv.candidates.index(cv.chosen)]
    fitted, fit_s = ledger.run(
        "fit",
        lambda: inference.fit(ds, config, model.init_state(ds, work.latents, seed=seed)),
        lambda r: check_fit(work.fit_iters, r),
    )
    rep.fit_s = fit_s + (rep.cv_s or 0.0)
    ticks_after(fit_s)
    if fitted is None:
        return rep
    state, trace = fitted
    rep.iterations = len(trace.iterations) + trace.backoffs
    rep.backoffs = trace.backoffs
    rep.final_elbo = trace.final_elbo
    refined, rep.refine_s = ledger.run(
        "refine",
        lambda: prediction.predict_supports(
            world.test_partition, state, ds, work.draws, seed
        ),
        lambda r: check_refine(world, ds, r),
    )
    if refined is not None:
        values = ds.denormalize(d, a, refined.values)
        rep.refine_mape = mape(world.truth, values)
        rep.broadcast_mape = mape(world.truth, world.baseline)
    ticks_after(rep.refine_s)
    _, rep.grid_s = ledger.run(
        "grid",
        lambda: prediction.predict_grid(state, ds, d, a, work.draws, seed),
        lambda r: check_grid(world, ds, refined, r),
    )
    ticks_after(rep.grid_s)
    return rep
