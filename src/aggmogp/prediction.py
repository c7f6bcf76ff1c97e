"""Posterior prediction at points and aggregated onto supports.

For a fixed weight sample the latent mixture is a Gaussian process, so
the posterior over query values given one domain's aggregated
observations is Gaussian with the usual conditioning formulas; the
cross covariance between an observation row and a query point integrates
the kernel against that row's aggregation weights. Uncertainty over the
weights is handled by Monte Carlo: draw weight samples from the fitted
variational posterior, condition per sample, then pool the Gaussian
components into a single mean and covariance (mixture moments).

Every helper conditions each draw in one function and pools the draws
in another. What no draw changes is built once per call: the
per-latent support covariances ``S_l``, the integrals ``h_l`` of the
observation rows against the targets, and the targets' priors. Target
supports are weight rows ``A_t`` over the grid cells, like observed
grid supports (:func:`~aggmogp.model.weight_rows`); the default query of
:func:`predict_grid` is the one-hot row of every cell. Their ``h_l``
(:meth:`~aggmogp.model.SupportCovTable.cross`) and priors, the diagonal
of ``A_t K_l A_tᵀ``, come from one product
(:meth:`~aggmogp.model.WeightRows.product`); explicit query points take
their ``h_l`` from the same table
(:meth:`~aggmogp.model.SupportCovTable.at_points`). Each draw only
mixes these blocks with its weights, factors and solves, so a support
prediction's per-draw cross covariance has one column per support. Only
the full covariance of point queries materializes a query-cross-query
matrix. Leave-one-out predictions of a record's own supports
(:func:`predict_left_out`) come from the inverse of each draw's full
``C``, not a factorization per fold.

Weight draws for prediction come from substream 3 of the prediction
seed: one (local attributes, latents) standard-normal block per
component, domains not involved (prediction is per domain). The same
seed therefore draws the same samples in every prediction helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, model, utils
from .errors import DataError, DimensionMismatch, OutOfBounds
from .geometry import Domain, Partition
# se_point_interval is unused here; bench/tracing.py counts erf elements through it.
from .kernels import se_point_interval, se_value, sq_dists  # noqa: F401
from .model import (
    AggregatedDataset,
    DomainData,
    ModelState,
    chol_solve,
    chol_with_jitter,
)

# Pooled variances below this are reported through the clamp counter.
_CLAMP_TOL = -1e-10


def _as_query_array(query_points, domain: Domain) -> np.ndarray:
    q = np.asarray(query_points, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    if q.ndim != 2 or q.shape[1] != domain.ndim:
        raise DimensionMismatch(
            f"query points of shape {q.shape} on a {domain.ndim}-D domain"
        )
    if not np.all(np.isfinite(q)):
        raise OutOfBounds(
            f"query points on domain {domain.id!r} have non-finite coordinates"
        )
    for d, (lo, hi) in enumerate(domain.extent):
        tol = 1e-9 * max(hi - lo, 1.0)
        axis = q[:, d]
        if np.any(axis < lo - tol) or np.any(axis > hi + tol):
            raise OutOfBounds(
                f"query points leave the extent of domain {domain.id!r}"
                f" on axis {d}"
            )
    return q


def latent_point_support(
    domain_data: DomainData, query, length_scale: float
) -> np.ndarray:
    """Integrals of one kernel against every observation row's weights.

    ``query`` is the :class:`~aggmogp.model.WeightRows` of n targets over
    the grid cells, which go to the covariance table's
    :meth:`~aggmogp.model.SupportCovTable.cross`, or an (n, ndim) array of
    points, which go to its :meth:`~aggmogp.model.SupportCovTable.at_points`.
    Returns an (observation rows, n) array.
    """
    if isinstance(query, model.WeightRows):
        return domain_data.cov.cross(query.matrix, length_scale)
    return domain_data.cov.at_points(query, length_scale)


def _buffer(work: dict, name: str, shape, order="C") -> np.ndarray:
    """Array ``name`` of one prediction call's ``work`` dict, allocated
    on first request and reused by every later draw."""
    key = (name, tuple(shape), order)
    if key not in work:
        work[key] = np.empty(shape, order=order)
    return work[key]


def cross_cov_H(
    point_support,
    domain_data: DomainData,
    weights: np.ndarray,
    attr_indices=None,
    work=None,
) -> np.ndarray:
    """Covariance between observation rows and query values.

    ``point_support`` holds one (observation rows, queries) array per
    latent, all over the same queries: :func:`latent_point_support` at
    points, or its columns pooled per target support. Columns are
    attribute-major: for each selected local attribute (default all, in
    order) one block of one column per query. ``attr_indices`` selects local
    attribute rows of ``weights``. With a ``work`` dict (see
    :func:`_buffer`) the result and its one scratch array are reused
    from an earlier call.
    """
    W = np.asarray(weights, dtype=float)
    if attr_indices is None:
        attr_indices = np.arange(domain_data.n_attrs)
    attr_indices = np.asarray(attr_indices, dtype=np.int64)
    work = {} if work is None else work
    n_q = point_support[0].shape[1]
    H = _buffer(work, "H", (domain_data.n_obs, attr_indices.size * n_q))
    H.fill(0.0)
    scratch = _buffer(work, "scratch", (domain_data.n_obs, n_q))
    for l, h_l in enumerate(point_support):
        u_l = domain_data.expand_rows(W[:, l])
        for k, s_idx in enumerate(attr_indices):
            np.multiply(u_l[:, None], h_l, out=scratch)
            scratch *= W[s_idx, l]
            H[:, k * n_q : (k + 1) * n_q] += scratch
    return H


@dataclass
class ConditionalPosterior:
    """Gaussian posterior over query values for one weight sample.

    ``mean`` has one entry per (selected attribute, query point) in
    attribute-major order; ``cov`` is the matching square matrix.
    """

    mean: np.ndarray
    cov: np.ndarray
    n_query: int
    attr_ids: tuple[str, ...]


def _local_attr_indices(state, domain_data, attributes):
    # The state is the authority on modeled attributes; it agrees with
    # the record-derived order and still works when the domain carries no
    # observations at all (pure prior prediction).
    domain_id = domain_data.domain.id
    if domain_id not in state.domain_attributes:
        raise DataError(f"domain {domain_id!r} is not part of the fitted model")
    local = list(state.domain_attributes[domain_id])
    if attributes is None:
        wanted = local
    else:
        wanted = list(attributes)
    idx = []
    for a in wanted:
        if a not in local:
            raise DataError(
                f"attribute {a!r} is not modeled on domain"
                f" {domain_data.domain.id!r}"
            )
        idx.append(local.index(a))
    return np.asarray(idx, dtype=np.int64), tuple(wanted)


def _variances(spread: np.ndarray) -> np.ndarray:
    """Writable view of the variances in a covariance or variance vector."""
    return np.einsum("ii->i", spread) if spread.ndim == 2 else spread


def _draw_invariants(dd, query, length_scales):
    """Per-latent blocks of one call that no weight draw changes.

    Returns ``(latents, point_support)``: the support covariances
    ``[S_l]`` and the integrals ``[h_l]`` of the observation rows against
    ``query`` (points or weight rows, see :func:`latent_point_support`),
    both functions of the length scales alone. A domain without
    observations needs neither and gets None.
    """
    if dd.n_obs == 0:
        return None
    latents = [dd.cov.latent_cov(s) for s in length_scales]
    point_support = [latent_point_support(dd, query, s) for s in length_scales]
    return latents, point_support


def _factor_and_cross(dd, state, W, blocks, attr_idx, work):
    """Cholesky factor of ``C`` and cross covariance ``H`` of one draw.
    ``H`` is an array of the call's ``work`` dict, overwritten by the
    next draw."""
    latents, point_support = blocks
    noise = state.noise_log_var[dd.domain.id]
    # Called through its module, so layer tracing that rebinds
    # ``model.assemble_from_latents`` still sees prediction's calls.
    C = model.assemble_from_latents(dd, W, latents, noise)
    chol, _ = chol_with_jitter(C)
    H = cross_cov_H(point_support, dd, W, attr_idx, work)
    return chol, H


def _condition(dd, state, W, blocks, attr_idx, priors, work):
    """Gaussian posterior of the targets for one weight draw.

    Targets are the selected attributes at the queries of ``blocks``
    (from :func:`_draw_invariants`, or target supports from
    :func:`_support_targets`), attribute-major. ``priors`` holds each
    latent's unit-weight prior covariance of the targets, (latents, n,
    n), or only its diagonal, (latents, n); the result is ``(mean,
    covariance)`` or ``(mean, variances)`` to match, with variances
    floored at zero. ``work`` is the call's dict of arrays reused by every
    draw (see :func:`_buffer`).
    """
    W = np.asarray(W, dtype=float)
    full = priors.ndim == 3
    n = attr_idx.size * priors.shape[1]
    spread = np.zeros((n, n) if full else n)
    for l, block in enumerate(priors):
        w = W[attr_idx, l]
        spread += np.kron(np.outer(w, w) if full else w * w, block)
    if blocks is None:
        mean = np.zeros(n)
    else:
        chol, H = _factor_and_cross(dd, state, W, blocks, attr_idx, work)
        alpha = chol_solve(chol, dd.y)
        # LAPACK solves in Fortran order; the copy it would make is reused.
        solved = _buffer(work, "solved", H.shape, order="F")
        solved[...] = H
        solved = chol_solve(chol, solved, overwrite_b=True)
        mean = H.T @ alpha
        if full:
            spread -= H.T @ solved
        else:
            H *= solved
            spread -= np.sum(H, axis=0)
    var = _variances(spread)
    np.maximum(var, 0.0, out=var)
    return mean, spread


def _pool(means, spreads):
    """Mixture moments of equally weighted Gaussian components.

    ``spreads`` are covariances or variances. Returns ``(mean, spread,
    clamped)``; pooled variances below the clamp tolerance are counted
    in ``clamped``, and every negative one is floored at zero.
    """
    square = np.outer if spreads[0].ndim == 2 else np.multiply
    mean = np.mean(means, axis=0)
    second = np.zeros_like(spreads[0])
    for m, s in zip(means, spreads):
        second += s + square(m, m)
    second /= len(means)
    pooled = second - square(mean, mean)
    var = _variances(pooled)
    clamped = int(np.sum(var < _CLAMP_TOL))
    np.maximum(var, 0.0, out=var)
    return mean, pooled, clamped


def _point_posteriors(query_points, draws, state, dataset, domain_id, attributes):
    """One :class:`ConditionalPosterior` at the query points per weight draw."""
    dd = dataset.prepared(domain_id)
    query = _as_query_array(query_points, dd.domain)
    attr_idx, attr_ids = _local_attr_indices(state, dd, attributes)
    d2 = sq_dists(query, query)
    grams = np.stack([se_value(d2, s) for s in state.length_scales])
    blocks = _draw_invariants(dd, query, state.length_scales)
    work = {}
    return [
        ConditionalPosterior(
            *_condition(dd, state, W, blocks, attr_idx, grams, work),
            n_query=query.shape[0],
            attr_ids=attr_ids,
        )
        for W in draws
    ]


def conditional_posterior(
    query_points,
    weights: np.ndarray,
    state: ModelState,
    dataset: AggregatedDataset,
    domain_id: str,
    attributes=None,
) -> ConditionalPosterior:
    """Exact Gaussian conditioning for one fixed weight sample.

    With no observations in the domain the prior is returned unchanged.
    Small negative diagonal entries from the subtraction are clamped to
    zero.
    """
    return _point_posteriors(
        query_points, [weights], state, dataset, domain_id, attributes
    )[0]


@dataclass
class PredictiveMixture:
    """Pooled moments of per-sample Gaussian posteriors.

    ``pooled_cov`` is the mixture covariance: mean of component second
    moments minus the outer product of the pooled mean. ``clamped``
    counts pooled variances that came out negative beyond roundoff.
    """

    components: tuple[ConditionalPosterior, ...]
    pooled_mean: np.ndarray
    pooled_cov: np.ndarray
    clamped: int


def draw_weight_samples(
    state: ModelState, domain_id: str, n_samples: int, seed: int
) -> list[np.ndarray]:
    """Reparameterized weight draws used by every prediction helper;
    ``n_samples`` must be at least one."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = utils.stream(seed, 3)
    Sv = len(state.domain_attributes[domain_id])
    return [
        state.draw_weights(
            domain_id, rng.standard_normal((Sv, state.num_latents))
        )
        for _ in range(n_samples)
    ]


def predictive_mixture(
    query_points,
    state: ModelState,
    dataset: AggregatedDataset,
    domain_id: str,
    n_samples: int,
    seed: int,
    attributes=None,
) -> PredictiveMixture:
    """Monte Carlo predictive distribution over query values."""
    components = tuple(
        _point_posteriors(
            query_points,
            draw_weight_samples(state, domain_id, n_samples, seed),
            state,
            dataset,
            domain_id,
            attributes,
        )
    )
    pooled_mean, pooled_cov, clamped = _pool(
        [c.mean for c in components], [c.cov for c in components]
    )
    return PredictiveMixture(
        components=components,
        pooled_mean=pooled_mean,
        pooled_cov=pooled_cov,
        clamped=clamped,
    )


def _support_targets(target: Partition, rules, state, dd):
    """Validated set-up of the support predictors: ``(attr_idx, blocks,
    priors)``. The supports are weight rows ``A_t`` over the grid cells;
    their unit-weight priors are the diagonal of each latent's ``A_t K_l
    A_tᵀ``, and the :func:`_draw_invariants` blocks hold one column of
    ``h_l`` per support."""
    geometry.validate(dd.domain, [target])
    if rules is None:
        rules = tuple(geometry.AVERAGE for _ in target.supports)
    rules = tuple(rules)
    if len(rules) != len(target.supports):
        raise DataError("one aggregation rule per target support required")
    attr_idx, _ = _local_attr_indices(state, dd, [target.attribute_id])
    rows = model.weight_rows(dd.domain, target.supports, rules)
    priors = np.array(
        [np.diagonal(rows.product(rows.matrix, s)[0]) for s in state.length_scales]
    )
    return attr_idx, _draw_invariants(dd, rows, state.length_scales), priors


@dataclass
class SupportPrediction:
    """Aggregated predictions on a target partition (normalized units)."""

    values: np.ndarray
    variances: np.ndarray
    clamped: int


def predict_supports(
    target: Partition,
    state: ModelState,
    dataset: AggregatedDataset,
    n_samples: int,
    seed: int,
    rules=None,
) -> SupportPrediction:
    """Predict aggregated values and variances on a target partition.

    Each target support contributes its member grid points as queries,
    and the posterior is averaged (or summed, per rule) over them with
    the support's aggregation weights. Variances are those of the
    weighted sums, so nested refinements stay consistent with direct
    coarse predictions.
    """
    dd = dataset.prepared(target.domain_id)
    attr_idx, blocks, priors = _support_targets(target, rules, state, dd)
    work = {}
    draws = [
        _condition(dd, state, W, blocks, attr_idx, priors, work)
        for W in draw_weight_samples(state, target.domain_id, n_samples, seed)
    ]
    values, variances, clamped = _pool(*zip(*draws))
    return SupportPrediction(values=values, variances=variances, clamped=clamped)


def predict_left_out(
    state: ModelState,
    dataset: AggregatedDataset,
    domain_id: str,
    attribute_id: str,
    n_samples: int,
    seed: int,
) -> SupportPrediction:
    """Leave-one-out predictions on every support of one record.

    Entry k is :func:`predict_supports` on support k of the (domain,
    attribute) record given every other observation (the dataset of
    ``drop_observation``), at the same state and weight draws, up to
    roundoff and the jitter's dependence on ``mean(diag C)``. Per draw
    ``C`` is factored once; with ``P = C⁻¹``, ``α = P y`` and held-out
    row r, the mean is ``hᵀ(α - P[:, r] α_r / P_rr)`` and the variance
    ``prior - (hᵀ P h - (hᵀ P[:, r])² / P_rr)`` (block inversion;
    Rasmussen & Williams, GPML §5.4.2). Both hold for any ``h_r``, which
    is zeroed so that no term cancels against the held-out row's own.
    """
    dd = dataset.prepared(domain_id)
    rec = dataset.record_for(domain_id, attribute_id)
    rows = np.arange(dd.n_obs)[dd.blocks[dd.attr_ids.index(attribute_id)]]
    attr_idx, blocks, priors = _support_targets(rec.partition, rec.rules, state, dd)
    identity = np.eye(dd.n_obs)
    work = {}
    draws = []
    for W in draw_weight_samples(state, domain_id, n_samples, seed):
        chol, H = _factor_and_cross(dd, state, W, blocks, attr_idx, work)
        H[rows, np.arange(rows.size)] = 0.0
        P = chol_solve(chol, identity)
        alpha = P @ dd.y
        held = np.diagonal(P)[rows]
        cross = np.sum(H * P[:, rows], axis=0)
        mean = H.T @ alpha - cross * alpha[rows] / held
        var = W[attr_idx[0]] ** 2 @ priors - (
            np.sum(H * (P @ H), axis=0) - cross * cross / held
        )
        draws.append((mean, np.maximum(var, 0.0)))
    values, variances, clamped = _pool(*zip(*draws))
    return SupportPrediction(values=values, variances=variances, clamped=clamped)


def predict_grid(
    state: ModelState,
    dataset: AggregatedDataset,
    domain_id: str,
    attribute_id: str,
    n_samples: int,
    seed: int,
    query_points=None,
):
    """Pooled mean and per-point variance on the domain grid.

    Returns ``(query, mean, variance, clamped)`` where variance is the
    diagonal of the pooled mixture covariance.
    """
    dd = dataset.prepared(domain_id)
    if query_points is None:
        query = dd.domain.grid.points
        n = query.shape[0]
        # One-hot rows of the cells; never a product's right-hand side.
        at = model.WeightRows(dd.domain.grid, np.arange(n), np.ones(n), [1] * n, 0)
    else:
        query = at = _as_query_array(query_points, dd.domain)
    attr_idx, _ = _local_attr_indices(state, dd, [attribute_id])
    # Unit-weight point variances: every kernel is one at zero distance.
    priors = np.ones((state.num_latents, query.shape[0]))
    blocks = _draw_invariants(dd, at, state.length_scales)
    work = {}
    draws = [
        _condition(dd, state, W, blocks, attr_idx, priors, work)
        for W in draw_weight_samples(state, domain_id, n_samples, seed)
    ]
    mean, variance, clamped = _pool(*zip(*draws))
    return query, mean, variance, clamped
