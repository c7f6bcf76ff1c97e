"""Reference constructions that only the tests use.

The model builds support covariances from per-axis grams and closed
forms (see ``aggmogp.model``). These are the literal constructions the
unit tests check those against: the kernel between two points, the
double integral over two intervals, a weighted double sum over two
member-point sets, and the same sum grouped by exact squared distance.
The pooled point mixture is the Monte Carlo predictive written out from
one conditional posterior per weight draw, and the leave-one-out oracles
condition each held-out row on all the others by a direct solve, in
float64 or at 60 decimal digits.

``elbo_by_domain`` is the training objective and its gradient written
domain by domain, with per-domain dicts of eps blocks, as the library
computed it before its one stacked pass; the stacked pass must match it
bit for bit.

Two references were library functions that no pipeline runs:
``log_likelihood``, the exact log evidence of one domain's rows for a
fixed weight sample (the brute-force evidence of the ELBO's bound), and
``drop_observation``, the explicit leave-one-out fold: a dataset with
one row of one record removed, and that row as its own record.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from aggmogp import model
from aggmogp.errors import DataError, DimensionMismatch, LengthMismatch
from aggmogp.geometry import GridSpec
from aggmogp.kernels import se_antideriv2, se_value
from aggmogp.prediction import conditional_posterior, draw_weight_samples


def multi_index(grid: GridSpec, cells) -> np.ndarray:
    """Per-axis integer indices of flat cells, shape ``(len(cells), ndim)``."""
    idx = np.asarray(cells, dtype=np.int64)
    return np.stack(np.unravel_index(idx, grid.shape), axis=1)


def kernel_eval(length_scale: float, x, x2) -> float:
    """Kernel value between two points of equal dimension."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatch(
            f"points of dimension {a.shape} and {b.shape} are not comparable"
        )
    d2 = float(np.sum((a - b) ** 2))
    return float(se_value(d2, length_scale))


def se_double_interval(lo1, hi1, lo2, hi2, length_scale):
    """Double integral of the kernel profile over [lo1,hi1] x [lo2,hi2],
    from four evaluations of its second antiderivative F. F is even, and
    the sum is grouped as ``(F1 + F4) - (F2 + F3)`` so that swapping the
    two intervals gives the same result bit for bit."""
    f1 = se_antideriv2(hi1 - lo2, length_scale)
    f2 = se_antideriv2(lo1 - lo2, length_scale)
    f3 = se_antideriv2(hi1 - hi2, length_scale)
    f4 = se_antideriv2(lo1 - hi2, length_scale)
    return (f1 + f4) - (f2 + f3)


def support_cov_grid(
    length_scale: float, weights_n, points_n, weights_m, points_m
) -> float:
    """Weighted double sum of kernel values over two member-point sets."""
    wn = np.asarray(weights_n, dtype=float)
    wm = np.asarray(weights_m, dtype=float)
    pn = np.asarray(points_n, dtype=float)
    pm = np.asarray(points_m, dtype=float)
    if pn.ndim == 1:
        pn = pn[:, None]
    if pm.ndim == 1:
        pm = pm[:, None]
    if pn.shape[1] != pm.shape[1]:
        raise DimensionMismatch(
            f"point sets of dimension {pn.shape[1]} and {pm.shape[1]}"
        )
    if wn.shape[0] != pn.shape[0] or wm.shape[0] != pm.shape[0]:
        raise LengthMismatch("weight vectors must match their point sets")
    d2 = ((pn[:, None, :] - pm[None, :, :]) ** 2).sum(axis=2)
    return float(wn @ se_value(d2, length_scale) @ wm)


@dataclass(frozen=True)
class DistanceHistogram:
    """Pair counts grouped by exact squared distance.

    Grid regularity makes equal index offsets produce bit-identical
    squared distances, so grouping by the float value itself is safe. The
    counts must account for every pair of member points.
    """

    sq_dists: np.ndarray
    counts: np.ndarray
    n_left: int
    n_right: int

    def __post_init__(self):
        sq = np.asarray(self.sq_dists, dtype=float)
        ct = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "sq_dists", sq)
        object.__setattr__(self, "counts", ct)
        if sq.shape != ct.shape or sq.ndim != 1:
            raise ValueError("sq_dists and counts must be 1-D and aligned")
        if int(ct.sum()) != self.n_left * self.n_right:
            raise ValueError(
                f"histogram counts sum to {int(ct.sum())}, expected"
                f" {self.n_left * self.n_right}"
            )

    @classmethod
    def from_member_indices(cls, grid: GridSpec, left, right) -> "DistanceHistogram":
        """Build from two member-index sets on one grid.

        Index offsets are grouped exactly (integer arithmetic), then each
        distinct offset contributes a single squared distance, so equal
        offsets share one float value bit for bit.
        """
        li = multi_index(grid, left)
        ri = multi_index(grid, right)
        diff = np.abs(li[:, None, :] - ri[None, :, :])
        key = np.ravel_multi_index(
            tuple(diff[:, :, d].ravel() for d in range(grid.ndim)), grid.shape
        )
        uniq, counts = np.unique(key, return_counts=True)
        offs = np.stack(np.unravel_index(uniq, grid.shape), axis=1)
        cell = np.asarray(grid.cell_size)
        sq = ((offs * cell) ** 2).sum(axis=1)
        order = np.argsort(sq, kind="stable")
        return cls(
            sq_dists=sq[order],
            counts=counts[order],
            n_left=li.shape[0],
            n_right=ri.shape[0],
        )

    def as_dict(self) -> dict:
        return {float(d): int(c) for d, c in zip(self.sq_dists, self.counts)}


def support_cov_bucketed(
    length_scale: float,
    hist: DistanceHistogram,
    norm_left: float,
    norm_right: float,
) -> float:
    """Constant-weight support covariance from a distance histogram.

    ``norm_left`` and ``norm_right`` are the per-point weights (1/count
    for averaging, 1 for summation); constant weights are what makes the
    distance grouping exact.
    """
    vals = se_value(hist.sq_dists, length_scale)
    return float(norm_left * norm_right * (hist.counts @ vals))


def scattered_grid_cov(table, length_scale: float):
    """``(S, dS)`` of a support covariance table whose rows are all grid
    rows, built the scattering way: the ``A K Aᵀ`` block and its
    derivative from ``table.grid_block`` into zeros, each averaged with
    its transpose and written into zeros through ``np.ix_`` at the rows
    against the columns, then at the columns against the rows. The
    block holds the table's distinct rows; ``np.ix_`` at ``table.index``
    expands it to every observation row."""
    rows = np.arange(table.n_grid)
    blocks = [np.zeros((table.n_grid, table.n_grid)) for _ in range(2)]
    table.grid_block(length_scale, blocks)
    out = []
    for block in blocks:
        block = 0.5 * (block + block.T)
        S = np.zeros((table.n, table.n))
        S[np.ix_(rows, rows)] = block
        S[np.ix_(rows, rows)] = block.T
        out.append(S[np.ix_(table.index, table.index)])
    return tuple(out)


def pooled_point_mixture(
    query_points, state, dataset, domain_id, n_samples, seed, attributes=None
):
    """Mixture moments of the conditional posteriors at the query points,
    one per weight draw of ``draw_weight_samples``.

    Returns ``mean``, ``cov`` (the mean of the components' second moments
    minus the outer product of the pooled mean) and ``clamped``, the
    number of pooled variances below -1e-10; negative variances are
    floored at zero.
    """
    draws = draw_weight_samples(state, domain_id, n_samples, seed)
    components = [
        conditional_posterior(query_points, W, state, dataset, domain_id, attributes)
        for W in draws
    ]
    mean = sum(c.mean for c in components) / n_samples
    second = sum(c.cov + np.outer(c.mean, c.mean) for c in components) / n_samples
    cov = second - np.outer(mean, mean)
    var = np.diag(cov)
    clamped = int(np.sum(var < -1e-10))
    cov[np.diag_indices_from(cov)] = np.maximum(var, 0.0)
    return SimpleNamespace(mean=mean, cov=cov, clamped=clamped)


def left_out_by_solves(
    state, dataset, domain_id, attribute_id, n_samples, seed
):
    """Leave-one-out of every row of one record, one solve per fold.

    Per weight draw of ``draw_weight_samples``, ``C`` is ``assemble_C``'s
    matrix plus the first jitter ``model.JITTER_BASE · mean(diag C)``
    that ``chol_with_jitter`` tries. Row r is conditioned on all other
    rows: mean ``c_rᵀ C₋ᵣ⁻¹ y₋ᵣ`` and variance ``k_r - c_rᵀ C₋ᵣ⁻¹ c_r``,
    where ``c_r`` is column r of ``C`` without its own entry and ``k_r``
    the row's noise-free prior variance, floored at zero. The draws are
    pooled by mixture moments. Returns ``(values, variances)``.
    """
    dd = dataset.prepared(domain_id)
    a = dd.attr_ids.index(attribute_id)
    rows = np.arange(dd.n_obs)[dd.blocks[a]]
    noise = state.noise_log_var[domain_id]
    means, variances = [], []
    for W in draw_weight_samples(state, domain_id, n_samples, seed):
        C = model.assemble_C(dd, W, state.length_scales, noise)
        prior = np.diag(C) - dd.expand_rows(model.floor_var(noise))
        C = C + model.JITTER_BASE * np.mean(np.diag(C)) * np.eye(dd.n_obs)
        mean, var = [], []
        for r in rows:
            keep = np.arange(dd.n_obs) != r
            c = C[keep, r]
            rhs = np.stack([dd.y[keep], c], axis=1)
            solved = np.linalg.solve(C[np.ix_(keep, keep)], rhs)
            mean.append(c @ solved[:, 0])
            var.append(max(prior[r] - c @ solved[:, 1], 0.0))
        means.append(np.array(mean))
        variances.append(np.array(var))
    mean = np.mean(means, axis=0)
    second = np.mean([v + m * m for m, v in zip(means, variances)], axis=0)
    return mean, np.maximum(second - mean * mean, 0.0)


def left_out_by_mpmath(
    state, dataset, domain_id, attribute_id, n_samples, seed
):
    """Leave-one-out of every row of one record, each fold solved at 60
    decimal digits.

    Per weight draw of ``draw_weight_samples``, ``C`` is the same float64
    jittered matrix as :func:`left_out_by_solves`'s, taken exactly into
    ``mpmath``. Row r is conditioned on all other rows by two solves
    against ``C₋ᵣ``: mean ``c_rᵀ C₋ᵣ⁻¹ y₋ᵣ`` and variance ``k_r - c_rᵀ
    C₋ᵣ⁻¹ c_r``, rounded to float64 only at the end. Returns ``(means,
    variances, scales)``, each (draws, rows): the folds of every draw,
    unpooled and unfloored, and each row's noise-free prior plus its
    noise variance, the diagonal of ``C`` before the jitter.
    """
    import mpmath

    dd = dataset.prepared(domain_id)
    a = dd.attr_ids.index(attribute_id)
    rows = np.arange(dd.n_obs)[dd.blocks[a]]
    noise = state.noise_log_var[domain_id]
    means, variances, scales = [], [], []
    with mpmath.workdps(60):
        for W in draw_weight_samples(state, domain_id, n_samples, seed):
            C = model.assemble_C(dd, W, state.length_scales, noise)
            prior = np.diag(C) - dd.expand_rows(model.floor_var(noise))
            scales.append(np.diag(C)[rows])
            C = C + model.JITTER_BASE * np.mean(np.diag(C)) * np.eye(dd.n_obs)
            mean, var = [], []
            for r in rows:
                keep = np.flatnonzero(np.arange(dd.n_obs) != r)
                reduced = mpmath.matrix(C[np.ix_(keep, keep)].tolist())
                c = mpmath.matrix(C[keep, r].tolist())
                y = mpmath.matrix(dd.y[keep].tolist())
                solved_y = mpmath.lu_solve(reduced, y)
                solved_c = mpmath.lu_solve(reduced, c)
                mean.append(float((c.T * solved_y)[0]))
                var.append(float(mpmath.mpf(prior[r]) - (c.T * solved_c)[0]))
            means.append(mean)
            variances.append(var)
    return np.array(means), np.array(variances), np.array(scales)


def log_likelihood(y, C) -> float:
    """Log density of ``y`` under a zero-mean Gaussian of covariance
    ``C``, through ``model.chol_with_jitter``'s factor."""
    y = np.asarray(y, dtype=float)
    L, _ = model.chol_with_jitter(C)
    alpha = scipy.linalg.cho_solve((L, True), y)
    return float(
        -0.5 * y @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * y.size * np.log(2.0 * np.pi)
    )


def drop_observation(dataset, domain_id, attribute_id, k):
    """Support ``k`` of one record held out: ``(reduced, held)``, the
    dataset without that support and its value, and a one-support record
    of the held-out row.

    A record with a single support cannot be reduced (a partition stays
    non-empty). Transforms are inherited unchanged, so the held-out value
    keeps its original normalization.
    """
    target = dataset.record_for(domain_id, attribute_id)
    supports = list(target.partition.supports)
    if len(supports) < 2:
        raise DataError(
            f"cannot hold out the only observation of pair"
            f" {(domain_id, attribute_id)}"
        )
    if not (0 <= k < len(supports)):
        raise DataError(f"support index {k} out of range")
    held_support = supports.pop(k)
    reduced = replace(
        target,
        partition=replace(target.partition, supports=tuple(supports)),
        rules=target.rules[:k] + target.rules[k + 1 :],
        values=np.delete(target.values, k),
    )
    held = replace(
        target,
        partition=replace(target.partition, supports=(held_support,)),
        rules=(target.rules[k],),
        values=target.values[k : k + 1].copy(),
    )
    records = [reduced if r is target else r for r in dataset.records]
    return dataset.replace_records(records), held


def _domain_loglik_by_columns(dd, weights, latents, dlatents, noise_log_var):
    """One domain's log likelihood and its gradients, one weight column
    at a time: ``(ll, grad_W, grad_log_scales, grad_noise_log_var)``."""
    C = model.assemble_from_latents(dd, weights, latents, noise_log_var)
    chol, _ = model.chol_with_jitter(C)
    y = dd.y
    z = model.lower_solve(chol, y.copy())
    ll = float(
        -0.5 * z @ z - np.sum(np.log(np.diag(chol))) - 0.5 * y.size * np.log(2.0 * np.pi)
    )
    if dlatents is None:
        return ll, None, None, None

    def reduce_rows(per_row):
        return np.bincount(dd.block_of_row, weights=per_row, minlength=dd.n_attrs)

    P = model.chol_inverse(chol)
    alpha = P @ y
    G = 0.5 * (np.outer(alpha, alpha) - P)
    W = np.asarray(weights)
    grad_W = np.zeros_like(W)
    grad_scales = np.zeros(len(latents))
    for l in range(len(latents)):
        u = dd.expand_rows(W[:, l])
        grad_W[:, l] = reduce_rows(2.0 * ((G * latents[l]) @ u))
        grad_scales[l] = u @ ((G * dlatents[l]) @ u)
    grad_noise = (
        reduce_rows(np.diag(G))
        * model.floor_var(noise_log_var)
        * model.floor_active(noise_log_var)
    )
    return ll, grad_W, grad_scales, grad_noise


def kl_terms_by_domain(state):
    """``(rows, blocks, parts)``: ``model.kl_parts`` of every domain's
    weights against its prior rows, stacked in catalogue order."""
    rows, blocks = state.catalogue()[:2]
    q_mean, q_log_var = (
        np.concatenate([arrays[v] for v in state.domain_ids])
        for arrays in (state.q_mean, state.q_log_var)
    )
    p_mean, p_log_var = state.prior_mean[rows], state.prior_log_var[rows]
    return rows, blocks, model.kl_parts(q_mean, q_log_var, p_mean, p_log_var)


def elbo_by_domain(dataset, state, eps_draws, want_grad):
    """The Monte Carlo ELBO, and with ``want_grad`` its gradient, written
    domain by domain: ``eps_draws`` is a list over draws of dicts of
    per-domain (local attributes, latents) blocks; every (draw, domain)
    term draws its own weights and adds its gradients into a state that
    views a zero vector, and the KL gradient is scattered one domain at a
    time. Returns ``(value, gradient state or None)``."""
    n_samples = len(eps_draws)
    scales = np.exp(state.log_length_scales)
    prepared = {v: dataset.prepared(v) for v in state.domain_ids}
    covs = {}
    for v, dd in prepared.items():
        pairs = [dd.cov.latent_cov(s, with_grad=want_grad) for s in scales]
        covs[v] = (
            ([p[0] for p in pairs], [p[1] for p in pairs]) if want_grad else (pairs, None)
        )
    rows, blocks, (vq, vp, dm, t, kl) = kl_terms_by_domain(state)
    sd = {v: np.sqrt(vq[b]) for v, b in blocks.items()}
    tasks = [(v, eps_t[v]) for eps_t in eps_draws for v in state.domain_ids]
    results = [
        _domain_loglik_by_columns(
            prepared[v], state.q_mean[v] + eps * sd[v], *covs[v], state.noise_log_var[v]
        )
        for v, eps in tasks
    ]
    if want_grad:
        acc = state.view(np.zeros(state.n_params))
    total_ll = 0.0
    for (v, eps), (ll, grad_W, grad_scales, grad_noise) in zip(tasks, results):
        total_ll += ll
        if want_grad:
            acc.log_length_scales += grad_scales
            acc.q_mean[v] += grad_W
            acc.q_log_var[v] += grad_W * eps
            acc.noise_log_var[v] += grad_noise
    total_ll /= n_samples
    kl_total = 0.0
    for b in blocks.values():
        kl_total += float(np.sum(kl[b]))
    value = total_ll - kl_total
    if not want_grad:
        return value, None
    inv = 1.0 / n_samples
    acc.log_length_scales *= inv
    g_mean = dm / vp
    g_var = 0.5 * (vq / vp - 1.0)
    g_prior_var = 0.5 * t * model.floor_active(state.prior_log_var[rows])
    for v, b in blocks.items():
        acc.noise_log_var[v] *= inv
        acc.q_mean[v] *= inv
        active = model.floor_active(state.q_log_var[v])
        acc.q_log_var[v] *= inv * 0.5 * sd[v] * active
        acc.q_mean[v] -= g_mean[b]
        acc.q_log_var[v] -= g_var[b] * active
        acc.prior_mean[rows[b]] += g_mean[b]
        acc.prior_log_var[rows[b]] += g_prior_var[b]
    return value, acc
