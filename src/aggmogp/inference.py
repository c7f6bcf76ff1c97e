"""Variational training of the aggregated multi-output GP.

The evidence lower bound sums, over domains, the expected Gaussian log
likelihood of the aggregated observations under sampled mixing weights,
minus the KL divergence from the weight prior. The expectation is a
Monte Carlo average over reparameterized weight draws, one per
optimization step by default, so the gradient is stochastic.

Gradients are hand-derived matrix calculus. With G = (alpha alpha^T -
C^{-1}) / 2 and alpha = C^{-1} y, the likelihood derivative against any
covariance parameter is trace(G dC/dtheta); the weight, length-scale and
noise derivatives below specialize that trace to the low-rank structure
of C. Factorization jitter is treated as constant.

The per-latent support covariances S_l and their length-scale
derivatives depend on the kernels alone, not on the weight draw, so one
evaluation builds each domain's once, before fanning the (draw, domain)
terms out; each term only mixes them with its weights, factors and
solves.

Randomness is a counter-based Philox stream keyed by the training seed.
Substream 1 drives the per-iteration eps draws, in the order: for every
sampled weight matrix, domains in catalogue order, each drawn as a
(local attributes, latents) standard normal block in row-major order,
sample index innermost. Substream 2 drives the 256-draw ELBO estimates
reported in the trace. Identical seeds give bit-identical trajectories.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import utils
from .errors import CholeskyFailure, NonFiniteELBO
from .model import (
    AggregatedDataset,
    ModelState,
    assemble_from_latents,
    chol_solve,
    chol_with_jitter,
    floor_active,
    floor_var,
    kl_weights,
    latent_sign_flips,
)

_LOG_2PI = np.log(2.0 * np.pi)
_log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Optimizer settings.

    ``num_elbo_samples`` is the Monte Carlo sample count per step.
    Convergence compares two adjacent moving averages of the ELBO
    estimate, each ``convergence_window`` steps wide, against
    ``convergence_tol`` relative change. ``log_every`` sends a progress
    line every that many iterations to the ``aggmogp.inference`` logger
    at INFO level; zero turns it off.
    """

    learning_rate: float = 0.001
    max_iters: int = 5000
    num_elbo_samples: int = 1
    seed: int = 0
    convergence_tol: float = 1e-6
    convergence_window: int = 50
    log_every: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.num_elbo_samples < 1:
            raise ValueError("num_elbo_samples must be >= 1")
        if self.convergence_window < 1:
            raise ValueError("convergence_window must be >= 1")
        if not self.convergence_tol >= 0:
            raise ValueError("convergence_tol must be >= 0 and not NaN")
        if self.log_every < 0:
            raise ValueError("log_every must be >= 0")


@dataclass
class TrainTrace:
    """Per-iteration record of a training run.

    ``elbo`` holds the stochastic estimate at the parameters of each
    completed iteration (at most ``max_iters`` entries). ``init_elbo``
    and ``final_elbo`` are 256-draw estimates of the initial state and of
    the returned best snapshot; ``improvement`` is their difference.
    ``stop_reason`` is ``"converged"`` when two adjacent ELBO windows
    agreed to the tolerance, else ``"budget"``: every one of
    ``max_iters`` iterations ran, backoffs included.
    """

    iterations: list = field(default_factory=list)
    elbo: list = field(default_factory=list)
    learning_rate: list = field(default_factory=list)
    wall_time: float = 0.0
    best_iteration: int = -1
    init_elbo: float = np.nan
    final_elbo: float = np.nan
    improvement: float = np.nan
    backoffs: int = 0
    stop_reason: str = "budget"

    def rows(self):
        """(iteration, elbo, learning rate) triples for the trace file."""
        return list(zip(self.iterations, self.elbo, self.learning_rate))


class AdamOptimizer:
    """Plain Adam with bias correction on flat parameter vectors."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = None
        self.v = None
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

    def snapshot(self):
        return (
            None if self.m is None else self.m.copy(),
            None if self.v is None else self.v.copy(),
            self.t,
        )

    def restore(self, snap):
        m, v, t = snap
        self.m = None if m is None else m.copy()
        self.v = None if v is None else v.copy()
        self.t = t


def draw_eps(state: ModelState, rng: np.random.Generator, n_samples: int):
    """Standard-normal draws for reparameterized weights.

    Returns a list over sample index of per-domain (local attributes,
    latents) blocks. Domains are visited in catalogue order; within a
    domain the block is drawn row-major with the sample index innermost.
    """
    per_domain = {}
    for v in state.domain_ids:
        Sv = len(state.domain_attributes[v])
        per_domain[v] = rng.standard_normal((Sv, state.num_latents, n_samples))
    return [
        {v: per_domain[v][:, :, t] for v in state.domain_ids}
        for t in range(n_samples)
    ]


def _latent_blocks(domain_data, length_scales, want_grad):
    """Per-latent support covariances ``[S_l]`` of one domain.

    Returns ``(latents, dlatents)``; ``dlatents`` holds the log length
    scale derivatives ``[dS_l]`` when ``want_grad`` is set, else None.
    Neither depends on the weight draw.
    """
    if not want_grad:
        return [domain_data.cov.latent_cov(s) for s in length_scales], None
    pairs = [domain_data.cov.latent_cov(s, with_grad=True) for s in length_scales]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _domain_loglik(domain_data, weights, latents, dlatents, noise_log_var):
    """Gaussian log likelihood of one domain, optionally with gradients.

    ``latents`` and ``dlatents`` come from :func:`_latent_blocks`; the
    gradients are computed when ``dlatents`` is given. Returns (loglik,
    grad_weights, grad_log_scales, grad_noise_log_var); gradient slots
    are None when not requested.
    """
    L = len(latents)
    C = assemble_from_latents(domain_data, weights, latents, noise_log_var)
    chol, _ = chol_with_jitter(C)
    y = domain_data.y
    alpha = chol_solve(chol, y)
    ll = float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(chol))) - 0.5 * y.size * _LOG_2PI
    )
    if dlatents is None:
        return ll, None, None, None
    n = y.size
    C_inv = chol_solve(chol, np.eye(n, order="F"), overwrite_b=True)
    G = 0.5 * (np.outer(alpha, alpha) - C_inv)
    W = np.asarray(weights)
    grad_W = np.zeros_like(W)
    grad_scales = np.zeros(L)
    for l in range(L):
        u = domain_data.expand_rows(W[:, l])
        grad_u = 2.0 * ((G * latents[l]) @ u)
        grad_W[:, l] = domain_data.reduce_rows(grad_u)
        grad_scales[l] = u @ ((G * dlatents[l]) @ u)
    diag_G = np.diag(G)
    grad_noise = (
        domain_data.reduce_rows(diag_G)
        * floor_var(noise_log_var)
        * floor_active(noise_log_var)
    )
    return ll, grad_W, grad_scales, grad_noise


def _kl_total(state: ModelState) -> float:
    total = 0.0
    for v in state.domain_ids:
        rows = state.attr_rows(v)
        total += kl_weights(
            state.q_mean[v],
            state.q_log_var[v],
            state.prior_mean[rows],
            state.prior_log_var[rows],
        )
    return total


def estimate_elbo(dataset: AggregatedDataset, state: ModelState, eps_draws) -> float:
    """Monte Carlo ELBO estimate at fixed eps draws."""
    value, _ = _elbo_impl(dataset, state, eps_draws, want_grad=False)
    return value


def elbo_with_grad(dataset: AggregatedDataset, state: ModelState, eps_draws):
    """:func:`estimate_elbo` and its exact gradient at the same draws.

    The gradient is a :class:`ModelState` whose parameter arrays hold the
    derivatives, so ``.pack()`` flattens it in the parameter vector
    layout. Floored variances contribute zero gradient.
    """
    return _elbo_impl(dataset, state, eps_draws, want_grad=True)


def _elbo_impl(dataset, state, eps_draws, want_grad):
    n_samples = len(eps_draws)
    if n_samples == 0:
        raise ValueError("need at least one eps draw")
    scales = np.exp(state.log_length_scales)
    if want_grad:
        acc = state.unpack(np.zeros_like(state.pack()))

    blocks = {
        v: _latent_blocks(dataset.prepared(v), scales, want_grad)
        for v in state.domain_ids
    }

    def one_term(args):
        v, eps = args
        W = state.draw_weights(v, eps)
        return _domain_loglik(
            dataset.prepared(v), W, *blocks[v], state.noise_log_var[v]
        )

    tasks = [(v, eps_t[v]) for eps_t in eps_draws for v in state.domain_ids]
    results = utils.parallel_map(one_term, tasks)
    total_ll = 0.0
    for (v, eps), res in zip(tasks, results):
        ll, grad_W, grad_scales, grad_noise = res
        total_ll += ll
        if want_grad:
            acc.log_length_scales += grad_scales
            acc.q_mean[v] += grad_W
            acc.q_log_var[v] += grad_W * eps
            acc.noise_log_var[v] += grad_noise
    total_ll /= n_samples
    value = total_ll - _kl_total(state)
    if not want_grad:
        return value, None
    inv = 1.0 / n_samples
    acc.log_length_scales *= inv
    for v in state.domain_ids:
        acc.noise_log_var[v] *= inv
        acc.q_mean[v] *= inv
        # Chain through w = mean + eps sqrt(var): d w / d log var is
        # eps sqrt(var) / 2, masked at the floor.
        sqrt_v = np.sqrt(floor_var(state.q_log_var[v]))
        acc.q_log_var[v] *= inv * 0.5 * sqrt_v * floor_active(state.q_log_var[v])
    # KL gradients; the ELBO subtracts the KL.
    for v in state.domain_ids:
        rows = state.attr_rows(v)
        vq = floor_var(state.q_log_var[v])
        vp = floor_var(state.prior_log_var[rows])
        dm = state.q_mean[v] - state.prior_mean[rows]
        acc.q_mean[v] -= dm / vp
        acc.q_log_var[v] -= (
            0.5 * (vq / vp - 1.0) * floor_active(state.q_log_var[v])
        )
        np.add.at(acc.prior_mean, rows, dm / vp)
        np.add.at(
            acc.prior_log_var,
            rows,
            0.5
            * ((vq + dm * dm) / vp - 1.0)
            * floor_active(state.prior_log_var[rows]),
        )
    return value, acc


_REFINED_DRAWS = 256
_MAX_BACKOFFS = 5


def refined_elbo(
    dataset: AggregatedDataset, state: ModelState, seed: int, n_samples: int = _REFINED_DRAWS
) -> float:
    """Lower-noise ELBO estimate from a dedicated substream (spawn key 2)."""
    rng = utils.stream(seed, 2)
    eps = draw_eps(state, rng, n_samples)
    return estimate_elbo(dataset, state, eps)


def _align_orientation(state: ModelState, theta: np.ndarray, adam: AdamOptimizer):
    """Reflect latent columns of the variational means toward the prior.

    Applies :func:`latent_sign_flips` to the parameter vector and negates
    the matching entries of Adam's first moment, so the optimizer keeps
    moving each reflected column the way it was moving before.
    """
    current = state.unpack(theta)
    flips = latent_sign_flips(current)
    if not any(f.any() for f in flips.values()):
        return theta
    moment = state.unpack(adam.m)
    for v, f in flips.items():
        current.q_mean[v][:, f] *= -1.0
        moment.q_mean[v][:, f] *= -1.0
    adam.m = moment.pack()
    return current.pack()


def _log_stop(trace: TrainTrace, iterations: int) -> None:
    _log.debug(
        "stopped after %d iterations (%d backoffs): %s",
        iterations,
        trace.backoffs,
        trace.stop_reason,
    )


def fit(
    dataset: AggregatedDataset, config: TrainConfig, init: ModelState
) -> tuple[ModelState, TrainTrace]:
    """Adam ascent on the stochastic ELBO; returns the best snapshot seen.

    Per iteration: draw fresh eps (substream 1 of the seed), evaluate the
    ELBO and its gradient at the current parameters, record the estimate,
    then take one Adam step on the negated objective.

    With more than one domain each step is followed by an orientation
    alignment: every latent column of a domain's variational means whose
    reflection is strictly closer to the shared prior is negated,
    together with its Adam first moment (see
    :func:`~aggmogp.model.latent_sign_flips`). The expected likelihood is
    invariant to the reflection and the KL only falls, so the ELBO never
    drops. Without it, domains can settle in opposite orientations and
    the shared prior then pools weights of opposite sign. A single-domain
    fit takes no such step.

    A non-finite value, gradient or failed factorization halves the
    learning rate, restores the previous iterate and retries, at most
    five times across the run; the sixth failure raises
    :class:`NonFiniteELBO` with the iteration index. A start point or
    returned iterate whose re-scoring fails to factorize raises it too,
    with iteration 0 or the returned iterate's index. Stops early when two
    adjacent moving-average windows of the ELBO agree to
    ``convergence_tol`` (relative). The returned state is the iterate
    with the best recorded estimate, re-scored with 256 fresh draws in
    the trace. Why the loop ended goes to ``trace.stop_reason`` and, once,
    to the ``aggmogp.inference`` logger at DEBUG level.
    """
    t_start = time.perf_counter()
    state = init.copy()
    trace = TrainTrace()
    try:
        trace.init_elbo = refined_elbo(dataset, init, config.seed)
    except CholeskyFailure as e:
        # Backoff cannot rescue a start point that does not evaluate.
        raise NonFiniteELBO(0, f"initial state not evaluable: {e}") from e
    if config.max_iters == 0:
        _log_stop(trace, 0)
        trace.final_elbo = trace.init_elbo
        trace.improvement = 0.0
        trace.wall_time = time.perf_counter() - t_start
        return state, trace
    rng = utils.stream(config.seed, 1)
    adam = AdamOptimizer(config.learning_rate)
    theta = state.pack()
    prev_theta = theta.copy()
    prev_adam = adam.snapshot()
    best_value = -np.inf
    best_theta = theta.copy()
    window = config.convergence_window
    it = 0
    while it < config.max_iters:
        eps = draw_eps(state, rng, config.num_elbo_samples)
        current = state.unpack(theta)
        failed = False
        try:
            value, grads = elbo_with_grad(dataset, current, eps)
            flat_grad = grads.pack()
            if not (np.isfinite(value) and np.all(np.isfinite(flat_grad))):
                failed = True
        except CholeskyFailure:
            failed = True
        if failed:
            trace.backoffs += 1
            if trace.backoffs > _MAX_BACKOFFS:
                raise NonFiniteELBO(it)
            adam.learning_rate *= 0.5
            theta = prev_theta.copy()
            adam.restore(prev_adam)
            it += 1
            continue
        trace.iterations.append(it)
        trace.elbo.append(value)
        trace.learning_rate.append(adam.learning_rate)
        if config.log_every and it % config.log_every == 0:
            _log.info("iter %6d  elbo % .6f  lr %g", it, value, adam.learning_rate)
        if value > best_value:
            best_value = value
            best_theta = theta.copy()
            trace.best_iteration = it
        prev_theta = theta.copy()
        prev_adam = adam.snapshot()
        theta = adam.step(theta, -flat_grad)
        if len(state.domain_ids) > 1:
            theta = _align_orientation(state, theta, adam)
        n_done = len(trace.elbo)
        if n_done >= 2 * window:
            recent = np.mean(trace.elbo[n_done - window :])
            older = np.mean(trace.elbo[n_done - 2 * window : n_done - window])
            denom = max(1.0, abs(older))
            if abs(recent - older) / denom < config.convergence_tol:
                trace.stop_reason = "converged"
                it += 1
                break
        it += 1
    _log_stop(trace, it)
    best_state = state.unpack(best_theta)
    try:
        trace.final_elbo = refined_elbo(dataset, best_state, config.seed)
    except CholeskyFailure as e:
        raise NonFiniteELBO(
            trace.best_iteration, f"best iterate not evaluable: {e}"
        ) from e
    trace.improvement = trace.final_elbo - trace.init_elbo
    trace.wall_time = time.perf_counter() - t_start
    return best_state, trace
