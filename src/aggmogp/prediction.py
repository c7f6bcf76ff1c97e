"""Posterior prediction at points and aggregated onto supports.

For a fixed weight sample the latent mixture is a Gaussian process, so
the posterior over query values given one domain's aggregated
observations is Gaussian with the usual conditioning formulas; the
cross covariance between an observation row and a query point integrates
the kernel against that row's aggregation weights. Uncertainty over the
weights is handled by Monte Carlo: draw weight samples from the fitted
variational posterior, condition per sample, then pool the Gaussian
components into one mean and variance per target (mixture moments).

:func:`conditional_posterior` conditions on one given weight sample.
:func:`predict_supports`, :func:`predict_grid` and
:func:`predict_left_out` share one draw loop (``_draw_and_pool``): draw
the weights, run the helper's step on each draw (``_condition``, or a
leave-one-out fold), then pool the draws' means and variances
(``_pool``). What no draw changes is built once per call: the
per-latent support covariances ``S_l``, the integrals ``h_l`` of the
observation rows against the targets, and the targets' priors. Target
supports are weight rows ``A_t`` over the grid cells, like observed
grid supports (:func:`~aggmogp.model.weight_rows`); the targets of
:func:`predict_grid` are the one-hot rows of the cells. Their ``h_l``
come from the observed rows' product with the grid kernel
(:meth:`~aggmogp.model.SupportCovTable.cross`) and their priors, the
diagonal of ``A_t K_l A_tᵀ``, from pairs of cells within each target
(:meth:`~aggmogp.model.WeightRows.diagonal`); the point queries of
:func:`conditional_posterior` take their ``h_l`` from the same table
(:meth:`~aggmogp.model.SupportCovTable.at_points`). Each draw only
mixes these blocks with its weights into ``C`` and the cross covariance
``H``, so a support prediction's ``H`` has one column per support. It
factors ``C = L Lᵀ`` and makes one triangular solve, ``[Z | z] = L⁻¹ [H
| y]``: the mean is ``Zᵀ z`` and the variances are the prior less ``Zᵀ
Z`` (Rasmussen & Williams, GPML Algorithm 2.1). Variances that roundoff
leaves negative are floored at zero per draw and counted (``clamped``).
Only :func:`conditional_posterior`, which returns the full covariance of
its point queries, materializes a query-cross-query matrix. Leave-one-out
predictions of a record's own supports need no targets: they are rows
of each draw's own ``C``, and every fold comes from the same factor
``L`` by one triangular solve, not from a factorization per fold
(GPML eq. 5.12, see :func:`predict_left_out`).

Weight draws for prediction come from substream 3 of the prediction
seed: one (local attributes, latents) standard-normal block per
component, domains not involved (prediction is per domain). The same
seed therefore draws the same samples in every prediction helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
    chol_with_jitter,
    lower_solve,
)

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


def _buffer(work: dict, name: str, shape) -> np.ndarray:
    """C-order array ``name`` of one prediction call's ``work`` dict,
    allocated on first request and reused by every later draw."""
    key = (name, tuple(shape))
    if key not in work:
        work[key] = np.empty(shape)
    return work[key]


def cross_cov_H(
    point_support,
    domain_data: DomainData,
    weights: np.ndarray,
    attr_indices,
    work: dict,
) -> np.ndarray:
    """Covariance between observation rows and query values.

    ``point_support`` stacks one (observation rows, queries) array per
    latent, all over the same queries: :func:`latent_point_support` at
    points, or its columns pooled per target support. Columns are
    attribute-major: for each local attribute row of ``weights`` that
    ``attr_indices`` selects, in its order, one block of one column per
    query. The result is the leading columns of the C-order ``work``
    array ``"Hy"`` (see :func:`_buffer`), one column wider, whose last
    column :func:`_condition` fills with ``y`` and solves in place with
    them. Each block is one ``einsum`` over the latents written straight
    into its strided columns, with no scratch array.
    """
    W = np.asarray(weights, dtype=float)
    attr_indices = np.asarray(attr_indices, dtype=np.int64)
    n_q = point_support[0].shape[1]
    Hy = _buffer(work, "Hy", (domain_data.n_obs, attr_indices.size * n_q + 1))
    H = Hy[:, :-1]
    # Row i's weight on latent l, u_l[i], from its attribute's row of W.
    u = domain_data.expand_rows(W)
    for k, s_idx in enumerate(attr_indices):
        block = H[:, k * n_q : (k + 1) * n_q]
        np.einsum("il,liq->iq", u * W[s_idx], point_support, out=block)
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


def _draw_invariants(dd, query, length_scales):
    """Per-latent blocks of one call that no weight draw changes.

    Returns ``(latents, point_support)``: the support covariances
    ``[S_l]`` and the integrals ``h_l`` of the observation rows against
    ``query`` (points or weight rows, see :func:`latent_point_support`),
    stacked as one (latents, observation rows, queries) array, both
    functions of the length scales alone. A domain without observations
    needs neither and gets None.
    """
    if dd.n_obs == 0:
        return None
    latents = [dd.cov.latent_cov(s) for s in length_scales]
    point_support = np.stack(
        [latent_point_support(dd, query, s) for s in length_scales]
    )
    return latents, point_support


def _prior_spread(W, attr_idx, priors) -> np.ndarray:
    """The targets' prior covariance ``sum_l (w_l w_lᵀ) ⊗ priors[l]`` for
    one draw, or its diagonal when ``priors`` holds diagonals; each term
    is one broadcast product, entry for entry ``np.kron``'s."""
    full = priors.ndim == 3
    n = attr_idx.size * priors.shape[1]
    spread = np.zeros((n, n) if full else n)
    for l, block in enumerate(priors):
        w = W[attr_idx, l]
        if full:
            term = np.outer(w, w)[:, None, :, None] * block[:, None]
        else:
            term = (w * w)[:, None] * block
        spread += term.reshape(spread.shape)
    return spread


def _condition(dd, state, blocks, attr_idx, priors, W, work):
    """Gaussian posterior of the targets for one weight draw.

    Targets are the selected attributes at the queries of ``blocks``
    (from :func:`_draw_invariants`: points, grid cells or target
    supports), attribute-major. ``priors`` holds each
    latent's unit-weight prior covariance of the targets, (latents, n,
    n), or only its diagonal, (latents, n); the result is ``(mean,
    covariance, clamped)`` or ``(mean, variances, clamped)`` to match,
    with variances floored at zero and ``clamped`` the count of those
    the floor raised (:func:`_floor`). ``work`` is the call's dict of
    arrays reused by every draw (see :func:`_buffer`).

    With ``C = L Lᵀ``, one triangular solve gives ``[Z | z] = L⁻¹ [H |
    y]``, in place in the C-order array that :func:`cross_cov_H` writes
    ``H`` into. The mean is ``Zᵀ z``; the covariance is the prior less
    ``Zᵀ Z`` and the variances the prior less the column sums of ``Z ∘
    Z``, squared in place after the mean is read.
    """
    W = np.asarray(W, dtype=float)
    full = priors.ndim == 3
    spread = _prior_spread(W, attr_idx, priors)
    if blocks is None:
        mean = np.zeros(spread.shape[0])
    else:
        latents, point_support = blocks
        # Called through its module, so layer tracing that rebinds
        # ``model.assemble_from_latents`` still sees prediction's calls.
        C = model.assemble_from_latents(
            dd, W, latents, state.noise_log_var[dd.domain.id]
        )
        chol, _ = chol_with_jitter(C)
        H = cross_cov_H(point_support, dd, W, attr_idx, work)
        # [Z | z] = L⁻¹ [H | y], so Zᵀ Z = Hᵀ C⁻¹ H and Zᵀ z = Hᵀ C⁻¹ y,
        # solved in place in the array whose leading columns are H.
        Zz = _buffer(work, "Hy", (dd.n_obs, H.shape[1] + 1))
        Zz[:, -1] = dd.y
        lower_solve(chol, Zz)
        Z, z = Zz[:, :-1], Zz[:, -1]
        mean = Z.T @ z
        if full:
            # Run as one symmetric rank-k update, so exactly symmetric.
            spread -= Z.T @ Z
        else:
            # Squared whole: numpy runs a strided view's arithmetic slower.
            Zz *= Zz
            spread -= np.sum(Zz, axis=0)[:-1]
    # A writable view of the variances, on a covariance's diagonal.
    var = np.einsum("ii->i", spread) if full else spread
    return mean, spread, _floor(var)


def _floor(variances) -> int:
    """Floor one draw's variances at zero in place; returns how many
    were negative, the draw's count of clamped variances."""
    negative = variances < 0.0
    variances[negative] = 0.0
    return int(np.count_nonzero(negative))


def _pool(means, variances):
    """Mixture moments ``(mean, variances)`` of equally weighted Gaussian
    components with independent entries. The variances are pooled in the
    centred form ``mean(v) + mean((m − m̄)²)``, a sum of non-negative
    terms, so one draw's come back exactly and none is negative.
    """
    mean = np.mean(means, axis=0)
    pooled = np.zeros_like(variances[0])
    for m, v in zip(means, variances):
        d = m - mean
        pooled += v + d * d
    pooled /= len(means)
    return mean, pooled


def conditional_posterior(
    query_points,
    weights: np.ndarray,
    state: ModelState,
    dataset: AggregatedDataset,
    domain_id: str,
    attributes=None,
) -> ConditionalPosterior:
    """Exact Gaussian conditioning for one fixed weight sample, a (local
    attributes, latents) array.

    With no observations in the domain the prior is returned unchanged.
    Small negative diagonal entries from the subtraction are clamped to
    zero.
    """
    dd = dataset.prepared(domain_id)
    query = _as_query_array(query_points, dd.domain)
    attr_idx, attr_ids = _local_attr_indices(state, dd, attributes)
    W = np.asarray(weights, dtype=float)
    expected = (len(state.domain_attributes[domain_id]), state.num_latents)
    if W.shape != expected:
        raise DimensionMismatch(
            f"weight sample of shape {W.shape} on domain {domain_id!r},"
            f" which takes {expected}"
        )
    d2 = sq_dists(query, query)
    grams = np.stack([se_value(d2, s) for s in state.length_scales])
    blocks = _draw_invariants(dd, query, state.length_scales)
    mean, cov, _ = _condition(dd, state, blocks, attr_idx, grams, W, {})
    return ConditionalPosterior(mean, cov, n_query=query.shape[0], attr_ids=attr_ids)


def draw_weight_samples(
    state: ModelState, domain_id: str, n_samples: int, seed: int
) -> list[np.ndarray]:
    """Reparameterized weight draws used by every prediction helper;
    ``n_samples`` is a count of at least one
    (:func:`~aggmogp.utils.count_request`)."""
    n_samples = utils.count_request(n_samples, "n_samples")
    rng = utils.stream(seed, 3)
    Sv = len(state.domain_attributes[domain_id])
    return [
        state.draw_weights(
            domain_id, rng.standard_normal((Sv, state.num_latents))
        )
        for _ in range(n_samples)
    ]


def _draw_and_pool(dd, state, n_samples, seed, per_draw):
    """``per_draw(W, work)``, one draw's ``(mean, variances, clamped)``,
    on each of ``n_samples`` weight draws ``W`` with the call's ``work``
    dict (see :func:`_buffer`). Returns ``(mean, variances, clamped)``:
    the draws pooled by :func:`_pool`, and the sum of their clamp
    counts."""
    work = {}
    draws = [
        per_draw(W, work)
        for W in draw_weight_samples(state, dd.domain.id, n_samples, seed)
    ]
    means, variances, clamped = zip(*draws)
    return (*_pool(means, variances), sum(clamped))


@dataclass
class SupportPrediction:
    """Aggregated predictions on a target partition (normalized units).

    ``clamped`` counts the variances, over every weight draw, that came
    out negative from roundoff and were floored at zero before pooling.
    """

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
    coarse predictions. Each target's prior variance per latent, the
    diagonal of ``A_t K_l A_tᵀ``, sums over pairs of its own cells
    (:meth:`~aggmogp.model.WeightRows.diagonal`), so the targets'
    weight rows build no ``K A_tᵀ`` and no target × target matrix.
    """
    dd = dataset.prepared(target.domain_id)
    geometry.validate(dd.domain, [target])
    if rules is None:
        rules = tuple(geometry.AVERAGE for _ in target.supports)
    rules = tuple(rules)
    if len(rules) != len(target.supports):
        raise DataError("one aggregation rule per target support required")
    attr_idx, _ = _local_attr_indices(state, dd, [target.attribute_id])
    # Target supports are weight rows A_t over the grid cells; their
    # unit-weight priors are the diagonal of each latent's A_t K_l A_tᵀ.
    rows = model.weight_rows(dd.domain, target.supports, rules)
    priors = np.array([rows.diagonal(s) for s in state.length_scales])
    blocks = _draw_invariants(dd, rows, state.length_scales)
    condition = partial(_condition, dd, state, blocks, attr_idx, priors)
    return SupportPrediction(*_draw_and_pool(dd, state, n_samples, seed, condition))


def predict_left_out(
    state: ModelState,
    dataset: AggregatedDataset,
    domain_id: str,
    attribute_id: str,
    n_samples: int,
    seed: int,
) -> SupportPrediction:
    """Leave-one-out predictions on every support of one record.

    Each fold is the observation model's own leave-one-out: entry k is
    the noise-free value of the record's row k of ``C``, conditioned on
    every other observation at the same state and weight draws. Per
    draw ``C = L Lᵀ`` is factored once, and with ``P = C⁻¹`` held-out
    row r has mean ``y_r - (P y)_r / P_rr`` and variance
    ``1/P_rr - σ_r² - jitter`` (Rasmussen & Williams, GPML eq. 5.12),
    with ``σ_r²`` the row's noise and ``jitter`` the factor's. One
    triangular solve gives both in whitened form: with ``z_r = L⁻¹ e_r``
    for the unit column ``e_r`` and ``v_r = L⁻¹ y₍ᵣ₎`` for ``y`` with
    ``y_r`` zeroed, ``P_rr = z_rᵀ z_r`` and the mean is
    ``-z_rᵀ v_r / P_rr``, which never subtracts against ``y_r``. The
    solve runs in place on a C-order ``[e_r | y₍ᵣ₎]`` block that every
    draw refills, and fold variances that roundoff leaves negative are
    floored at zero and counted in ``clamped``.
    """
    dd = dataset.prepared(domain_id)
    dataset.record_for(domain_id, attribute_id)  # DataError for an unknown pair
    (a,), _ = _local_attr_indices(state, dd, [attribute_id])
    rows = np.arange(dd.n_obs)[dd.blocks[a]]
    latents = [dd.cov.latent_cov(s) for s in state.length_scales]
    noise = state.noise_log_var[domain_id]
    held_noise = dd.expand_rows(model.floor_var(noise))[rows]
    # Right-hand sides: each held-out row r's unit column e_r, then y₍ᵣ₎.
    unit = np.zeros((dd.n_obs, rows.size))
    unit[rows, np.arange(rows.size)] = 1.0
    rhs = np.hstack([unit, np.where(unit, 0.0, dd.y[:, None])])

    def fold(W, work):
        C = model.assemble_from_latents(dd, W, latents, noise)
        chol, jitter = chol_with_jitter(C)
        # Solved in place in a C-order buffer that every draw reuses.
        Z = _buffer(work, "folds", rhs.shape)
        Z[...] = rhs
        zv = lower_solve(chol, Z).reshape(dd.n_obs, 2, rows.size)
        # z ∘ z and z ∘ v as one product over the contiguous buffer.
        held, cross = np.sum(zv * zv[:, :1], axis=0)
        mean = -cross / held
        var = 1.0 / held - held_noise - jitter
        return mean, var, _floor(var)

    return SupportPrediction(*_draw_and_pool(dd, state, n_samples, seed, fold))


def predict_grid(
    state: ModelState,
    dataset: AggregatedDataset,
    domain_id: str,
    attribute_id: str,
    n_samples: int,
    seed: int,
):
    """Pooled mean and per-point variance at every cell of the domain
    grid, each cell a one-hot weight row.

    Returns ``(query, mean, variance, clamped)``: the cell centres, and
    per cell the pooled mean, the diagonal of the pooled mixture
    covariance and ``clamped``, the per-draw variances floored at zero,
    as in :class:`SupportPrediction`. Point queries off the cells go to
    :func:`conditional_posterior`.
    """
    dd = dataset.prepared(domain_id)
    query = dd.domain.grid.points
    n = query.shape[0]
    at = model.WeightRows(dd.domain.grid, np.arange(n), np.ones(n), [1] * n)
    attr_idx, _ = _local_attr_indices(state, dd, [attribute_id])
    # Unit-weight point variances: every kernel is one at zero distance.
    priors = np.ones((state.num_latents, query.shape[0]))
    blocks = _draw_invariants(dd, at, state.length_scales)
    condition = partial(_condition, dd, state, blocks, attr_idx, priors)
    mean, variance, clamped = _draw_and_pool(dd, state, n_samples, seed, condition)
    return query, mean, variance, clamped
