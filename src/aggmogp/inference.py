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

Training works on every domain at once. Each domain's catalogue rows
are stacked in catalogue order (``ModelState.catalogue``), and one
evaluation takes a (draws, stacked rows, latents) eps array, forms every
draw's weights in one broadcast and takes the KL on the stacked rows. It
adds each term's gradients into stacked arrays in task order, then writes
the whole gradient into one flat vector in ``pack()`` order through the
catalogue's index maps; the shared prior's rows add domain after domain.
The parameters, Adam's moments and each gradient are such vectors, and a
step works on states that view them (``ModelState.view``), so it copies
no state; sign alignment reads and writes the vectors through the same
maps.

Randomness is a counter-based Philox stream keyed by the training seed.
Substream 1 drives the per-iteration eps draws (:func:`draw_eps`): one
(stacked rows, latents, draws) standard normal block in row-major order,
so domain after domain, draw index innermost. Substream 2 drives the
64-draw ELBO estimates reported in the trace (:func:`refined_elbo`):
domains in catalogue order, each domain's blocks are one scrambled Sobol
point set over its attributes × latents, whose scramble the substream
draws. Identical seeds give bit-identical trajectories.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import utils
from .errors import CholeskyFailure, DimensionMismatch, NonFiniteELBO
from .model import (
    AggregatedDataset,
    ModelState,
    assemble_from_latents,
    chol_inverse,
    chol_with_jitter,
    floor_active,
    floor_var,
    kl_parts,
    latent_sign_flips,
    lower_solve,
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
        # Refused rather than truncated; integral floats become ints.
        counts = ("max_iters", "num_elbo_samples", "convergence_window", "log_every")
        for name in counts:
            value = getattr(self, name)
            count = utils.whole_number(value)
            if count is None:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, count)
        for name in ("learning_rate", "convergence_tol"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
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
    and ``final_elbo`` are :func:`refined_elbo` estimates (64 scrambled
    Sobol draws) of the initial state and of the returned best snapshot,
    at the same points; ``improvement`` is their difference.
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
    """Plain Adam with bias correction on flat parameter vectors, at the
    usual moment decays and denominator offset."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.m = self.v = None
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
        """Moments and step count by reference: :meth:`step` rebinds, not
        writes, ``m`` and ``v``, so a snapshot survives later steps."""
        return self.m, self.v, self.t

    def restore(self, snap):
        self.m, self.v, self.t = snap


def draw_eps(state: ModelState, rng: np.random.Generator, n_samples: int):
    """Standard-normal draws for reparameterized weights.

    Returns one (draws, stacked rows, latents) array over every domain's
    catalogue rows stacked in catalogue order (:meth:`ModelState.catalogue`).
    It is drawn as one (stacked rows, latents, draws) block in row-major
    order, so domain after domain, with the draw index innermost.
    """
    shape = (len(state.catalogue().rows), state.num_latents, n_samples)
    return np.ascontiguousarray(np.moveaxis(rng.standard_normal(shape), 2, 0))


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
    C = assemble_from_latents(domain_data, weights, latents, noise_log_var)
    chol, _ = chol_with_jitter(C)
    y = domain_data.y
    # yᵀC⁻¹y as |L⁻¹y|², one triangular solve; it solves a 1-D
    # right-hand side in place, so it gets a copy.
    z = lower_solve(chol, y.copy())
    ll = float(-0.5 * z @ z - np.log(chol.diagonal()).sum() - 0.5 * y.size * _LOG_2PI)
    if dlatents is None:
        return ll, None, None, None
    P = chol_inverse(chol)
    alpha = P @ y
    G = 0.5 * (alpha[:, None] * alpha - P)
    rows, n_attrs = domain_data.block_of_row, domain_data.n_attrs
    # Each latent's weights on the observation rows, as contiguous rows:
    # gemv rounds a strided vector differently.
    U = np.ascontiguousarray(weights.T[:, rows])
    grad_W = np.zeros_like(weights)
    grad_scales = np.zeros(len(latents))
    for l, u in enumerate(U):
        grad_u = 2.0 * ((G * latents[l]) @ u)
        grad_W[:, l] = np.bincount(rows, weights=grad_u, minlength=n_attrs)
        grad_scales[l] = u @ ((G * dlatents[l]) @ u)
    grad_noise = (
        np.bincount(rows, weights=G.diagonal(), minlength=n_attrs)
        * floor_var(noise_log_var)
        * floor_active(noise_log_var)
    )
    return ll, grad_W, grad_scales, grad_noise


def estimate_elbo(dataset: AggregatedDataset, state: ModelState, eps_draws) -> float:
    """Monte Carlo ELBO estimate at fixed eps draws, a (draws, stacked
    rows, latents) array as :func:`draw_eps` returns."""
    return _elbo_impl(dataset, state, eps_draws, want_grad=False)[0]


def elbo_with_grad(dataset: AggregatedDataset, state: ModelState, eps_draws):
    """:func:`estimate_elbo` and its exact gradient at the same draws.

    The gradient is a :class:`ModelState` whose parameter arrays hold the
    derivatives as views of one flat vector in ``pack()`` order, its
    ``vector``; ``.pack()`` returns a copy of it. Floored variances
    contribute zero gradient.
    """
    return _elbo_impl(dataset, state, eps_draws, want_grad=True)


def _elbo_impl(dataset, state, eps_draws, want_grad):
    eps = np.asarray(eps_draws, dtype=float)
    if len(eps) == 0:
        raise ValueError("need at least one eps draw")
    cat = state.catalogue()
    if eps.shape[1:] != cat.q_mean.shape:
        raise DimensionMismatch(
            f"eps draws of shape {eps.shape}, expected (draws, %d, %d)" % cat.q_mean.shape
        )
    n_samples = len(eps)
    ids, blocks = state.domain_ids, list(cat.blocks.values())
    scales = np.exp(state.log_length_scales)
    prepared = [dataset.prepared(v) for v in ids]
    covs = [_latent_blocks(dd, scales, want_grad) for dd in prepared]
    # Every domain's weights and prior rows, stacked in catalogue order.
    q_mean = np.concatenate([state.q_mean[v] for v in ids])
    q_log_var = np.concatenate([state.q_log_var[v] for v in ids])
    p_log_var = state.prior_log_var[cat.rows]
    vq, vp, dm, t, kl = kl_parts(q_mean, q_log_var, state.prior_mean[cat.rows], p_log_var)
    # sample_weights for every draw at once.
    sd = np.sqrt(vq)
    W = q_mean + eps * sd

    def one_term(task):
        draw, k = task
        noise = state.noise_log_var[ids[k]]
        return _domain_loglik(prepared[k], W[draw, blocks[k]], *covs[k], noise)

    tasks = [(draw, k) for draw in range(n_samples) for k in range(len(ids))]
    results = utils.parallel_map(one_term, tasks)
    total_ll = sum(ll for ll, *_ in results) / n_samples
    # Each domain's (Sv, L) block of the KL is summed on its own, then in order.
    value = total_ll - sum(float(kl[b].sum()) for b in blocks)
    if not want_grad:
        return value, None
    grad = np.zeros(state.n_params)
    g_scales = grad[: state.num_latents]
    # Likelihood gradients, stacked, added in task order.
    g_mean, g_log_var = np.zeros_like(q_mean), np.zeros_like(q_mean)
    g_noise = np.zeros(len(cat.rows))
    for (draw, k), (_, grad_W, grad_scales, grad_noise) in zip(tasks, results):
        b = blocks[k]
        g_scales += grad_scales
        g_mean[b] += grad_W
        g_log_var[b] += grad_W * eps[draw, b]
        g_noise[b] += grad_noise
    inv = 1.0 / n_samples
    g_scales *= inv
    g_noise *= inv
    g_mean *= inv
    # Chain through w = mean + eps sqrt(var): d w / d log var is
    # eps sqrt(var) / 2, masked at the floor.
    active = floor_active(q_log_var)
    g_log_var *= inv * 0.5 * sd * active
    # KL gradients; the ELBO subtracts the KL.
    kl_mean = dm / vp
    g_mean -= kl_mean
    g_log_var -= 0.5 * (vq / vp - 1.0) * active
    grad[cat.q_mean] = g_mean
    grad[cat.q_log_var] = g_log_var
    grad[cat.noise] = g_noise
    # Shared prior rows add domain after domain, in stack order.
    np.add.at(grad, cat.prior_mean, kl_mean)
    np.add.at(grad, cat.prior_log_var, 0.5 * t * floor_active(p_log_var))
    return value, state.view(grad)


_REFINED_DRAWS = 64
_MAX_BACKOFFS = 5


def refined_elbo(
    dataset: AggregatedDataset, state: ModelState, seed: int, n_samples: int = _REFINED_DRAWS
) -> float:
    """Lower-noise ELBO estimate from a dedicated substream (spawn key 2).

    Randomized quasi-Monte Carlo: domain by domain in catalogue order, the
    (local attributes, latents) eps blocks of the ``n_samples`` draws are
    one scrambled Sobol point set over that domain's attributes × latents
    (:func:`~aggmogp.utils.sobol_normals`, row-major), scrambled from the
    substream. The estimate stays unbiased, with far less error per draw
    than i.i.d. draws; power-of-two counts keep the point set balanced.
    ``n_samples`` passes :func:`~aggmogp.utils.count_request`.
    """
    n_samples = utils.count_request(n_samples, "n_samples")
    rng = utils.stream(seed, 2)
    L = state.num_latents
    blocks = []
    for v in state.domain_ids:
        Sv = len(state.domain_attributes[v])
        blocks.append(utils.sobol_normals(rng, n_samples, Sv * L).reshape(n_samples, Sv, L))
    return estimate_elbo(dataset, state, np.concatenate(blocks, axis=1))


def _align_orientation(state: ModelState, theta: np.ndarray, adam: AdamOptimizer):
    """Reflect latent columns of the variational means toward the prior.

    Applies :func:`latent_sign_flips` to the parameter vector ``theta``
    and negates the matching entries of it and of Adam's first moment in
    place, through the catalogue's index maps, so the optimizer keeps
    moving each reflected column the way it was moving before. Returns
    ``theta``.
    """
    flips = latent_sign_flips(state, theta)
    if any(f.any() for f in flips.values()):
        cat = state.catalogue()
        for v, f in flips.items():
            at = cat.q_mean[cat.blocks[v]][:, f]
            theta[at] *= -1.0
            adam.m[at] *= -1.0
    return theta


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
    with the best recorded estimate, re-scored in the trace by
    :func:`refined_elbo` at the same 64 scrambled Sobol draws as the
    start point. Why the loop ended goes to ``trace.stop_reason`` and,
    once, to the ``aggmogp.inference`` logger at DEBUG level.
    """
    t_start = time.perf_counter()
    trace = TrainTrace()
    try:
        trace.init_elbo = refined_elbo(dataset, init, config.seed)
    except CholeskyFailure as e:
        # Backoff cannot rescue a start point that does not evaluate.
        raise NonFiniteELBO(0, f"initial state not evaluable: {e}") from e
    rng = utils.stream(config.seed, 1)
    adam = AdamOptimizer(config.learning_rate)
    # adam.step returns a new vector and alignment writes only that one,
    # so the iterates kept below are never written after they are kept.
    prev_theta = best_theta = theta = init.pack()
    prev_adam = adam.snapshot()
    best_value = -np.inf
    window = config.convergence_window
    elbo = np.empty(config.max_iters)
    it = 0
    while it < config.max_iters:
        eps = draw_eps(init, rng, config.num_elbo_samples)
        try:
            value, grads = elbo_with_grad(dataset, init.view(theta), eps)
            flat_grad = grads.vector
            failed = not (np.isfinite(value) and np.all(np.isfinite(flat_grad)))
        except CholeskyFailure:
            failed = True
        if failed:
            trace.backoffs += 1
            if trace.backoffs > _MAX_BACKOFFS:
                raise NonFiniteELBO(it)
            adam.learning_rate *= 0.5
            theta = prev_theta
            adam.restore(prev_adam)
            it += 1
            continue
        trace.iterations.append(it)
        elbo[len(trace.elbo)] = value
        trace.elbo.append(value)
        trace.learning_rate.append(adam.learning_rate)
        if config.log_every and it % config.log_every == 0:
            _log.info("iter %6d  elbo % .6f  lr %g", it, value, adam.learning_rate)
        if value > best_value:
            best_value = value
            best_theta = theta
            trace.best_iteration = it
        prev_theta = theta
        prev_adam = adam.snapshot()
        theta = adam.step(theta, -flat_grad)
        if len(init.domain_ids) > 1:
            theta = _align_orientation(init, theta, adam)
        n_done = len(trace.elbo)
        if n_done >= 2 * window:
            recent = np.mean(elbo[n_done - window : n_done])
            older = np.mean(elbo[n_done - 2 * window : n_done - window])
            denom = max(1.0, abs(older))
            if abs(recent - older) / denom < config.convergence_tol:
                trace.stop_reason = "converged"
                it += 1
                break
        it += 1
    _log_stop(trace, it)
    best_state = init.unpack(best_theta)
    try:
        trace.final_elbo = refined_elbo(dataset, best_state, config.seed)
    except CholeskyFailure as e:
        raise NonFiniteELBO(
            trace.best_iteration, f"best iterate not evaluable: {e}"
        ) from e
    trace.improvement = trace.final_elbo - trace.init_elbo
    trace.wall_time = time.perf_counter() - t_start
    return best_state, trace
