"""Model state and the aggregated-observation covariance machinery.

The generative story per domain: each latent process has a unit-variance
squared exponential kernel shared across domains; every attribute mixes
the latents with a weight row; an observation is the aggregation of the
mixed process over one support plus independent Gaussian noise. With the
latent processes integrated out, the observations of one domain are
jointly Gaussian with covariance

    C[(s,n),(s',n')] = sum_l w[s,l] w[s',l] * SupportCov_l(R_sn, R_s'n')
                       + delta(s,s') delta(n,n') * noise_var[s]

where SupportCov_l integrates kernel l against both supports' aggregation
weights. Weight rows get a Gaussian prior shared across domains; training
maximizes the evidence lower bound over a factorized Gaussian posterior
for the weights (see the inference module).

Every kernel integral over an observed support goes through one
aggregation operator (:class:`SupportCovTable`), built from a domain's
records; it alone decides how each row is integrated. Each distinct
support is integrated once, then expanded by one gather: rows that
integrate the same thing (attributes observed on shared supports) share
one distinct row. The distinct rows are numbered by kind, so each kind
below is one contiguous block. Every grid support, and every prediction
target (:func:`weight_rows`), is a row of a sparse weight matrix over
the grid cells (:class:`WeightRows`), and ``K`` is a Kronecker product
of per-axis grams (``se_value`` on each axis, and from its values the
log-length-scale derivative that ``se_value_dlog`` gives).
Each grid row is a sum of rank-one terms, its fibres along the last
axis merged where they repeat, and both roles of ``K`` take the per-axis
grams to those terms: training's covariances ``A K Aᵀ`` through their
Gram entries (:meth:`SupportCovTable.grid_block`), prediction's cross
covariances ``left K Aᵀ`` through the terms' columns of ``K Aᵀ``, a
block of terms at a time (:meth:`SupportCovTable.cross`); target priors
need only the diagonal of ``A K Aᵀ``, summed over pairs of cells within
each row. Average-rule interval supports on 1-D domains take the
closed-form erf integrals (the kernels module's ``se_antideriv2`` and
``se_antideriv2_dlog``, once per distinct argument, and
``se_point_interval`` at a point).
Point observations at support centroids evaluate ``se_value`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dtrtrs

from . import geometry, utils
from .errors import CholeskyFailure, DataError, DimensionMismatch
from .geometry import AggregationRule, Domain, Interval, Partition
from .kernels import (
    se_antideriv2,
    se_antideriv2_dlog,
    se_point_interval,
    se_value,
    se_value_dlog,
    sq_dists,
)

# All variances are optimized as exponents and floored here.
VARIANCE_FLOOR = 1e-12
LOG_VARIANCE_FLOOR = float(np.log(VARIANCE_FLOOR))

# Base jitter relative to the mean diagonal, escalated tenfold on failure.
JITTER_BASE = 1e-8
JITTER_MAX = 1e-4

# Bytes of the temporaries of one block of terms of the grid covariances
# (SupportCovTable.grid_block and SupportCovTable.cross).
WORK_BYTES = 1 << 20

# Kinds of support covariance table rows, in the table's row order.
_GRID, _CLOSED, _POINT = range(3)


def floor_var(log_var):
    """Variance from its exponent, floored at :data:`VARIANCE_FLOOR`."""
    return np.exp(np.maximum(np.asarray(log_var, dtype=float), LOG_VARIANCE_FLOOR))


def floor_active(log_var):
    """1.0 where the exponent is above the floor (gradient mask), else 0.0."""
    return (np.asarray(log_var, dtype=float) > LOG_VARIANCE_FLOOR).astype(float)


def sample_weights(q_mean, q_log_var, eps) -> np.ndarray:
    """Reparameterized weight draw: mean + eps * sqrt(floored variance)."""
    q_mean = np.asarray(q_mean, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != q_mean.shape:
        raise DimensionMismatch(
            f"eps draw of shape {eps.shape} against weights of shape {q_mean.shape}"
        )
    return q_mean + eps * np.sqrt(floor_var(q_log_var))


def kl_parts(q_mean, q_log_var, p_mean, p_log_var):
    """Entrywise factorized Gaussian KL pieces ``(vq, vp, dm, t, terms)``:
    ``terms = 0.5 (t + log vp - log vq)``, ``t = (vq + dm^2) / vp - 1``, from
    the floored exponents, so the log-variance difference is exact."""
    lq = np.maximum(np.asarray(q_log_var, dtype=float), LOG_VARIANCE_FLOOR)
    lp = np.maximum(np.asarray(p_log_var, dtype=float), LOG_VARIANCE_FLOOR)
    vq = np.exp(lq)
    vp = np.exp(lp)
    dm = np.asarray(q_mean, dtype=float) - np.asarray(p_mean, dtype=float)
    t = (vq + dm * dm) / vp - 1.0
    return vq, vp, dm, t, 0.5 * (t + lp - lq)


def latent_sign_flips(state: "ModelState", vector: np.ndarray) -> dict[str, np.ndarray]:
    """Per domain, a mask of the latent columns to reflect toward the prior.

    A domain's likelihood is unchanged when one of its latent columns of
    weights changes sign, but the shared prior is not. Column l of domain
    v is marked when its reflected variational mean is strictly closer to
    the prior in the prior's own metric, sum_s (mu + p)^2 / var_p <
    sum_s (mu - p)^2 / var_p. Reflecting a marked column lowers the KL
    term and leaves everything else in the ELBO unchanged. Reads the
    parameters from ``vector``, in the state's :meth:`~ModelState.pack`
    order, through the catalogue's index maps (:meth:`ModelState.catalogue`).
    """
    cat = state.catalogue()
    mu, p = vector[cat.q_mean], vector[cat.prior_mean]
    vp = floor_var(vector[cat.prior_log_var])
    keep = (mu - p) ** 2 / vp
    flip = (-mu - p) ** 2 / vp
    # Summed per domain block, so each column sum adds the rows in order.
    return {v: flip[b].sum(axis=0) < keep[b].sum(axis=0) for v, b in cat.blocks.items()}


def chol_with_jitter(C: np.ndarray):
    """Lower Cholesky factor of C plus escalating diagonal jitter.

    Jitter starts at ``1e-8 * mean(diag)`` and grows tenfold per failed
    attempt up to ``1e-4 * mean(diag)``; then :class:`CholeskyFailure`.
    Returns ``(L, jitter)``, with ``L`` from LAPACK ``dpotrf`` on one jittered
    copy of C: bitwise ``scipy.linalg.cholesky(C + jitter * I, lower=True)``.
    """
    C = np.asarray(C, dtype=float)
    if not np.isfinite(C).all():
        raise CholeskyFailure("covariance contains non-finite entries")
    n = C.shape[0]
    mean_diag = float(C.diagonal().sum()) / n if n else 0.0
    if not math.isfinite(mean_diag) or mean_diag <= 0:
        raise CholeskyFailure(f"covariance mean diagonal {mean_diag} is unusable")
    mult = JITTER_BASE
    while True:
        jitter = mult * mean_diag
        # Fortran order, so dpotrf factors this copy in place.
        A = np.add(C, 0.0, order="F")
        A.ravel(order="F")[:: n + 1] += jitter
        L, info = dpotrf(A, lower=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        # Tenfold steps reach 9.999999999999999e-05, a rounding
        # error short of JITTER_MAX, so compare with a margin.
        if mult >= JITTER_MAX * (1.0 - 1e-9):
            raise CholeskyFailure(f"factorization failed at jitter {jitter:.3e}")
        mult *= 10.0


def lower_solve(L: np.ndarray, b: np.ndarray):
    """``L⁻¹ b`` for C's lower factor ``L``; every solve against ``C`` is
    this one. For ``Z = L⁻¹ H`` the product ``Zᵀ Z`` is ``Hᵀ C⁻¹ H``, and
    ``Zᵀ z`` for ``z = L⁻¹ y`` is ``Hᵀ C⁻¹ y``.

    A 1-D ``b`` takes LAPACK ``dtrtrs``, bitwise
    ``scipy.linalg.solve_triangular(L, b, lower=True)``, and a contiguous
    float one is solved in place. A 2-D ``b`` takes BLAS ``dtrsm`` from
    the right on its transpose, ``Xᵀ Lᵀ = bᵀ``, which reads a C-order
    ``b`` as the Fortran-order ``bᵀ`` and is faster than ``dtrtrs`` on
    wide blocks; a C-order float ``b`` is solved in place. Any other
    ``b`` is copied first and left as it was. A zero on the diagonal of
    ``L`` raises ValueError."""
    if b.ndim == 1:
        x, info = dtrtrs(L, b, lower=1, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dtrtrs failed with info {info}")
        return x
    # dtrsm divides by the diagonal unchecked, where dtrtrs reports a zero.
    if np.count_nonzero(L.diagonal()) < L.shape[0]:
        raise ValueError("triangular factor has a zero on its diagonal")
    x = np.asarray(b, dtype=float, order="C")
    dtrsm(1.0, L, x.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    return x


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """``C⁻¹`` from C's lower factor ``L`` for training's gradient: ``Zᵀ Z``
    for ``Z = L⁻¹ I``, one triangular solve and one symmetric rank-k
    product, so the inverse is exactly symmetric."""
    Z = lower_solve(L, np.eye(L.shape[0]))
    return Z.T @ Z


@dataclass(frozen=True)
class DatasetRecord:
    """One aggregated observation series: a (domain, attribute) pair.

    ``rules`` holds one aggregation rule per support. ``as_points`` marks
    the record as point observations taken at the support centroids,
    which is how the centroid baseline reuses the machinery.
    """

    domain_id: str
    attribute_id: str
    partition: Partition
    rules: tuple[AggregationRule, ...]
    values: np.ndarray
    label: str | None = None
    as_points: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.partition.domain_id != self.domain_id:
            raise DataError(
                f"record for domain {self.domain_id!r} carries a partition"
                f" of domain {self.partition.domain_id!r}"
            )
        if self.partition.attribute_id != self.attribute_id:
            raise DataError(
                f"record for attribute {self.attribute_id!r} carries a partition"
                f" of attribute {self.partition.attribute_id!r}"
            )
        n = len(self.partition.supports)
        if values.ndim != 1 or values.size != n:
            raise DataError(
                f"record {self.domain_id}/{self.attribute_id}: {values.size}"
                f" values against {n} supports"
            )
        if not np.all(np.isfinite(values)):
            raise DataError(
                f"record {self.domain_id}/{self.attribute_id} has non-finite values"
            )
        if len(self.rules) != n:
            raise DataError(
                f"record {self.domain_id}/{self.attribute_id}: {len(self.rules)}"
                f" rules against {n} supports"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.domain_id, self.attribute_id)


def uniform_rules(partition: Partition, rule: AggregationRule | None = None):
    """One shared rule per support (averaging by default)."""
    rule = geometry.AVERAGE if rule is None else rule
    return tuple(rule for _ in partition.supports)


def _mode_product(factor: np.ndarray, tensor: np.ndarray, axis: int, out: np.ndarray):
    """``factor`` applied along one axis of ``tensor``, written to ``out``
    (same shape as ``tensor``), which is returned."""
    shape = tensor.shape
    pre = math.prod(shape[:axis])
    np.matmul(
        factor,
        tensor.reshape(pre, shape[axis], -1),
        out=out.reshape(pre, shape[axis], -1),
    )
    return out


def _grid_factors(grid, length_scale: float, with_grad: bool = False):
    """The SE kernel over a regular grid as per-axis grams ``[G_d]``, and
    ``[dG_d]`` when ``with_grad``, else None.

    On the cell centres the kernel factorizes over the axes, ``K = G_1 ⊗
    … ⊗ G_D`` with ``G_d`` the 1-D gram of axis d (C order: the last axis
    varies fastest), and its log-length-scale derivative follows by the
    product rule. Only the D small grams are ever evaluated; they are
    applied to the parts of rank-one terms (:meth:`SupportCovTable.grid_block`,
    :meth:`SupportCovTable.cross`) and to the fibres of target rows
    (:meth:`WeightRows.diagonal`).
    """
    # Recomputed per call: kept on every table, they raised the peak
    # memory of runs that rebuild datasets, and they cost little.
    axes = [grid.axis_coords(d)[:, None] for d in range(grid.ndim)]
    sq = [sq_dists(x, x) for x in axes]
    grams = [se_value(d2, length_scale) for d2 in sq]
    if not with_grad:
        return grams, None
    # se_value_dlog's exp(-d²/2b²) (d²/b²), from the grams' own exp.
    b2 = length_scale * length_scale
    return grams, [G * (d2 / b2) for G, d2 in zip(grams, sq)]


class WeightRows:
    """Aggregation weights of grid supports as a sparse matrix ``A``.

    Row r holds one support's weights over the flat grid cells (CSR), the
    next ``sizes[r]`` entries of ``cells`` and ``weights``, so every rule
    and every observed or target support share one representation. The
    first ``n_cols`` rows (default all) are the column rows, the rows
    that :meth:`diagonal` covers and whose terms :func:`_rank_one_terms`
    builds operators for. The entries group into fibres, one per (cell
    over the leading axes, row), each a weight vector over the last axis.

    It computes only the diagonal of ``A K Aᵀ`` (:meth:`diagonal`), for
    target priors. Every other product with ``K`` takes the rows'
    rank-one terms (:func:`_rank_one_terms`): training's ``A K Aᵀ``
    (:meth:`SupportCovTable.grid_block`) and prediction's ``left K Aᵀ``
    (:meth:`SupportCovTable.cross`).
    """

    def __init__(self, grid, cells, weights, sizes, n_cols: int | None = None):
        # Imported here, on the grid branch only: scipy.sparse adds about
        # 1.6 MiB to the peak memory of every process that loads it.
        from scipy.sparse import csr_matrix

        self.grid = grid
        n_rows = len(sizes)
        self.n_cols = n_rows if n_cols is None else n_cols
        ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.matrix = csr_matrix((weights, cells, ptr), shape=(n_rows, grid.n_points))
        lead, last = np.divmod(cells, grid.shape[-1])
        row = np.repeat(np.arange(n_rows), sizes)
        key, fibre = np.unique(lead * n_rows + row, return_inverse=True)
        self.fibre_lead, self.fibre_row = np.divmod(key, max(n_rows, 1))
        self.fibres = np.zeros((key.size, grid.shape[-1]))
        self.fibres[fibre.ravel(), last] = weights

    def diagonal(self, length_scale: float) -> np.ndarray:
        """``diag(A K Aᵀ)`` over the column rows, without ``K Aᵀ``.

        Row r's entry sums ``w_c w_c' k(c, c')`` over the pairs of its
        fibres: the last axis through one product of every fibre with its
        gram, the leading axes through their grams' entries at the two
        fibres' cells. Rows are batched by fibre count, so temporaries
        grow with the sum of each row's squared fibre count, never with
        that sum times the last axis's length.
        """
        grams, _ = _grid_factors(self.grid, length_scale)
        along = self.fibres @ grams[-1]
        # Each fibre's cell index on every leading axis (none on 1-D grids).
        lead = np.unravel_index(self.fibre_lead, self.grid.shape[:-1] or (1,))
        order = np.argsort(self.fibre_row, kind="stable")
        counts = np.bincount(self.fibre_row, minlength=self.n_cols)[: self.n_cols]
        starts = np.cumsum(counts) - counts
        out = np.zeros(self.n_cols)
        for k in np.unique(counts[counts > 0]):
            rows = np.flatnonzero(counts == k)
            # (rows, k): the fibres of each row of the batch.
            f = order[starts[rows][:, None] + np.arange(k)]
            pairs = np.matmul(along[f], self.fibres[f].transpose(0, 2, 1))
            for gram, cells in zip(grams[:-1], lead):
                at = cells[f]
                pairs *= gram[at[:, :, None], at[:, None, :]]
            out[rows] = pairs.sum(axis=(1, 2))
        return out


def _stacked(grid, entries, n_cols=None) -> WeightRows:
    """:class:`WeightRows` of ``(cells, weights)`` pairs, one per row."""
    cells, weights = zip(*entries)
    sizes = [c.size for c in cells]
    return WeightRows(
        grid, np.concatenate(cells), np.concatenate(weights), sizes, n_cols
    )


def weight_rows(domain: Domain, supports, rules) -> WeightRows:
    """Supports of ``domain``, one aggregation rule each, as the rows of
    one :class:`WeightRows` over its grid cells."""
    grid = domain.grid
    return _stacked(
        grid, [geometry.support_weights(s, grid, r) for s, r in zip(supports, rules)]
    )


def _rank_one_terms(rows: WeightRows):
    """Every row of ``rows`` as an exact sum of rank-one terms ``lead ⊗
    last`` over (leading-axes cells) ⊗ (last axis): a row's byte-identical
    fibres merge into one term, whose leading part sums their cells, so a
    box is one term (on 1-D grids every row is, with leading part 1).

    Returns ``(last, cells, at, ptr, owner, row)``: the terms' last parts
    (dense), their leading parts' cells with each term's offset into
    them, each row's offset into the terms (a row's terms are
    consecutive), each cell's term and each term's row. Then the column
    rows' operators (CSR): their terms' leading and last parts and their
    term-to-row sums, once and twice down a block diagonal, for a value
    over its derivative."""
    from scipy.sparse import block_diag, csr_matrix

    f, n_rows, n_cols = rows.fibres, rows.matrix.shape[0], rows.n_cols
    vector = np.unique(f.view((np.void, f.shape[1] * f.itemsize)), return_inverse=True)
    key = rows.fibre_row * len(f) + vector[1].ravel()
    key, term = np.unique(key, return_inverse=True)
    order = np.argsort(term, kind="stable")
    owner, row, n = term[order], key // len(f), key.size
    at = np.searchsorted(owner, np.arange(n + 1))
    ptr = np.searchsorted(row, np.arange(n_rows + 1))
    cells, last, m = rows.fibre_lead[order], f[order[at[:-1]]], ptr[n_cols]
    width = rows.grid.n_points // f.shape[1]
    ops = [
        csr_matrix((np.ones(at[m]), cells[: at[m]], at[: m + 1]), shape=(m, width)),
        csr_matrix(last[:m]),
        csr_matrix((np.ones(m), np.arange(m), ptr[: n_cols + 1]), shape=(n_cols, m)),
    ]
    twice = [block_diag([op, op], format="csr") for op in ops]
    return (last, cells, at, ptr, owner, row), (ops, twice)


def _lead_grams(grid, grams, dgrams, parts):
    """``G_lead parts`` for C-order ``parts`` over the leading-axes cells,
    ``G_lead`` the Kronecker product of the leading axes' grams, stacked
    over its log-length-scale derivative by the product rule when
    ``dgrams`` is given; one axis at a time by mode products."""
    value, deriv = parts.reshape(grid.shape[:-1] + (-1,)), None
    for axis in range(grid.ndim - 2, -1, -1):
        if dgrams is not None:
            step = _mode_product(dgrams[axis], value, axis, np.empty(value.shape))
            if deriv is not None:
                step += _mode_product(grams[axis], deriv, axis, np.empty(value.shape))
            deriv = step
        value = _mode_product(grams[axis], value, axis, np.empty(value.shape))
    stacked = [value] if deriv is None else [value, deriv]
    return np.stack(stacked).reshape(-1, parts.shape[1])


class SupportCovTable:
    """One domain's aggregated supports and their kernel integrals, for
    any length scale. Built from the records, it alone sorts each row,
    and it integrates each distinct support once: rows are keyed by what
    they integrate, every integral is taken over the ``n`` distinct rows,
    and one gather through ``index`` (each observation row's distinct
    row) expands the result to every observation row.

    The distinct rows are numbered by kind, in order of first appearance
    within each kind, so each kind is one contiguous block of ``S``:

    * rows ``[0, n_grid)`` are grid supports, rows of the weight matrix
      ``A`` (:class:`WeightRows`) keyed by their cells and weights, so
      the rule is part of the key; their entries are ``A K Aᵀ``, from
      per-axis grams of the rows' rank-one terms (:meth:`grid_block`);
    * rows ``[n_grid, n_weighted)`` are closed-form rows (1-D intervals
      with the average rule), keyed by ``(lo, hi)``: pairs of them take
      the erf double integral, with the antiderivative F evaluated once
      per distinct ``|z|`` and gathered (F is even, so this is exact),
      and points the erf integral (``closed_bounds``); paired with a
      grid or point row, a closed-form row counts as its row of ``A``,
      which then holds the leading ``n_weighted`` rows;
    * rows ``[n_weighted, n)`` are point rows (``as_points`` records),
      keyed by their support's centroid (``centroids``), which evaluate
      the kernel from it directly.
    """

    def __init__(self, domain: Domain, records):
        grid = self.grid = domain.grid
        keys, index, firsts = {}, [], []
        for rec in records:
            for s, r in zip(rec.partition.supports, rec.rules):
                if rec.as_points:
                    entry = geometry.centroid(s, grid)
                    key = (_POINT, entry.tobytes())
                # Intervals live on 1-D domains only (membership refuses others).
                elif isinstance(s.body, Interval) and r.kind == r.AVERAGE:
                    entry, key = None, (_CLOSED, s.body.lo, s.body.hi)
                else:
                    entry = geometry.support_weights(s, grid, r)
                    key = (_GRID, entry[0].tobytes(), entry[1].tobytes())
                k = keys.setdefault(key, len(keys))
                if k == len(firsts):  # the first row of a distinct support
                    if entry is None:  # refuses an interval holding no grid centre
                        entry = geometry.support_weights(s, grid, r)
                    firsts.append((key[0], s.body, entry))
                index.append(k)
        # Renumbered by kind, the key's first entry.
        order = np.argsort([f[0] for f in firsts], kind="stable")
        firsts = [firsts[k] for k in order]
        kinds = [f[0] for f in firsts]
        self.n, self.n_grid = len(kinds), kinds.count(_GRID)
        self.n_weighted = self.n - kinds.count(_POINT)
        self.index = np.argsort(order)[np.array(index, dtype=np.int64)]
        # Flat position of every pair of observation rows in an (n, n) array.
        self.pairs = self.index[:, None] * self.n + self.index
        cf = [f[1] for f in firsts[self.n_grid : self.n_weighted]]
        i, j = np.triu_indices(len(cf))
        # Flat positions in S of the closed-form pairs and their mirrors.
        r, c = self.n_grid + i, self.n_grid + j
        self.cf_upper, self.cf_lower = r * self.n + c, c * self.n + r
        lo = np.array([body.lo for body in cf])
        hi = np.array([body.hi for body in cf])
        self.closed_bounds = lo[:, None], hi[:, None]
        z = np.stack([hi[i] - lo[j], lo[i] - lo[j], hi[i] - hi[j], lo[i] - hi[j]])
        self.cf_norm = 1.0 / ((hi - lo)[i] * (hi - lo)[j])
        self.cf_abs_z, inverse = np.unique(np.abs(z).ravel(), return_inverse=True)
        self.cf_inverse = inverse.reshape(z.shape)
        # Closed-form rows join A only to meet grid or point rows.
        self.A = None
        if self.n_grid or 0 < self.n_weighted < self.n:
            entries = [f[2] for f in firsts[: self.n_weighted]]
            self.A = _stacked(grid, entries, self.n_grid)
        centroids = [f[2] for f in firsts[self.n_weighted :]]
        self.centroids = np.reshape(centroids, (-1, domain.ndim))
        self.point_sq_dists = sq_dists(self.centroids, self.centroids)
        self.point_grid_sq_dists = sq_dists(self.centroids, grid.points)

    def _fill(self, S, antideriv, profile, length_scale):
        """Closed-form and point blocks of S for one kernel primitive pair."""
        if self.cf_upper.size:
            f = antideriv(self.cf_abs_z, length_scale)[self.cf_inverse]
            vals = ((f[0] + f[3]) - (f[1] + f[2])) * self.cf_norm
            S.reshape(-1)[self.cf_upper] = vals
            S.reshape(-1)[self.cf_lower] = vals
        w = self.n_weighted
        if self.n > w:
            S[w:, w:] = profile(self.point_sq_dists, length_scale)
            if self.A is not None:
                to_grid = profile(self.point_grid_sq_dists, length_scale)
                cross = self.A.matrix @ to_grid.T
                S[:w, w:] = cross
                S[w:, :w] = cross.T

    @cached_property
    def terms(self):
        """The rank-one terms of ``A``'s rows (:func:`_rank_one_terms`),
        built on first use, so building a table does not pay for them;
        the grid rows lead ``A``, so their terms lead the terms."""
        return _rank_one_terms(self.A)

    def grid_block(self, length_scale: float, outs):
        """Writes ``A K Aᵀ`` at the grid rows' columns, transposed, into
        the leading (n_grid, n_weighted) block of ``outs[0]``, and its
        log-length-scale derivative into ``outs[1]`` if given: rows r, s
        sum ``(lead_t G_lead lead_uᵀ)(last_t G_last last_uᵀ)`` over their
        terms t, u (:func:`_rank_one_terms`, :func:`_lead_grams`). The
        grid rows' sparse term parts multiply the grams applied to the
        dense parts of a block of rows' terms; blocks keep temporaries
        within about :data:`WORK_BYTES`. It shares no work arrays between
        calls, so it takes no lock."""
        grid, k, g = self.grid, len(outs), self.n_grid
        (last, cells, at, ptr, owner, row), operators = self.terms
        lead_g, last_g, rows_g = operators[k - 1]
        grams, dgrams = _grid_factors(grid, length_scale, k > 1)
        # Bytes per term of a block: its dense parts, their gram products
        # and its products with the grid rows' terms and the grid rows,
        # counted alike with or without the derivative, so both take the
        # same blocks.
        m, n_lead = operators[0][0].shape
        per_term = 8 * (5 * (n_lead + last.shape[1]) + 4 * (m + g))
        r0 = 0
        while r0 < self.n_weighted:
            stop = np.searchsorted(ptr, ptr[r0] + WORK_BYTES // per_term, "right")
            r1 = max(r0 + 1, int(stop) - 1)
            a, b = ptr[r0], ptr[r1]
            # The value's rows over the derivative's, one product per gram,
            # so the value's arithmetic is the same with or without them.
            lasts = [factors[-1] @ last[a:b].T for factors in (grams, dgrams)[:k]]
            parts = last_g @ np.concatenate(lasts)
            if grid.ndim > 1:
                dense = np.zeros((n_lead, b - a))
                dense[cells[at[a] : at[b]], owner[at[a] : at[b]] - a] = 1.0
                along = lead_g @ _lead_grams(grid, grams, dgrams, dense)
                if k > 1:
                    along[m:] *= parts[:m]
                    parts[m:] *= along[:m]
                    parts[m:] += along[m:]
                parts[:m] *= along[:m]
            if b - a > r1 - r0:  # each row of the block sums its terms
                sums = np.zeros((b - a, r1 - r0))
                sums[np.arange(b - a), row[a:b] - r0] = 1.0
            for out, block in zip(outs, (rows_g @ parts).reshape(k, g, -1)):
                out[:g, r0:r1] = block @ sums if b - a > r1 - r0 else block
            r0 = r1

    def latent_cov(self, length_scale: float, with_grad: bool = False):
        """Support covariance matrix of every observation row for one
        kernel, optionally with its derivative with respect to the log
        length scale: the distinct rows' matrices, gathered at ``pairs``."""
        outs = [np.zeros((self.n, self.n)) for _ in range(1 + with_grad)]
        self._fill(outs[0], se_antideriv2, se_value, length_scale)
        if with_grad:
            self._fill(outs[1], se_antideriv2_dlog, se_value_dlog, length_scale)
        if self.n_grid:
            self.grid_block(length_scale, outs)
            g, w = self.n_grid, self.n_weighted
            for S in outs:
                # Averaged with its transpose, S is exactly symmetric, as
                # assembly assumes; the other rows of A mirror the grid rows.
                square = S[:g, :g]
                square += square.T
                square *= 0.5
                S[g:w, :g] = S[:g, g:w].T
        if with_grad:
            return outs[0].take(self.pairs), outs[1].take(self.pairs)
        return outs[0].take(self.pairs)

    def _direct(self, x, length_scale: float, point_sq_dists) -> np.ndarray:
        """Kernel integrals of the closed-form rows, then the point rows, at
        points ``x``: the erf integral over each interval per unit length,
        and the kernel from each centroid (``point_sq_dists`` away)."""
        lo, hi = self.closed_bounds
        closed = se_point_interval(x[:, 0], lo, hi, length_scale) / (hi - lo)
        return np.concatenate([closed, se_value(point_sq_dists, length_scale)])

    def at_points(self, x, length_scale: float) -> np.ndarray:
        """Integrals of one kernel against every row's weights at the (n,
        ndim) query points ``x``, an (all rows, n) array: for grid rows
        ``A`` times the kernel from the cells, then :meth:`_direct`, over
        the distinct rows, gathered at ``index``."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.n, x.shape[0]))
        out[self.n_grid :] = self._direct(x, length_scale, sq_dists(self.centroids, x))
        if self.n_grid:
            to_cells = se_value(sq_dists(self.grid.points, x), length_scale)
            out[: self.n_grid] = self.A.matrix[: self.n_grid] @ to_cells
        return out[self.index]

    def cross(self, left, length_scale: float) -> np.ndarray:
        """Integrals of one kernel against every row's weights and the
        sparse weight rows ``left`` over the grid cells, an (all rows,
        left rows) array.

        Grid rows take ``A K leftᵀ`` from their rank-one terms
        (:func:`_rank_one_terms`): term u's column of ``K Aᵀ`` is ``(G_lead
        lead_u) ⊗ (G_last last_u)`` (:func:`_lead_grams`). The columns are
        built a block of terms at a time, within about :data:`WORK_BYTES`
        for a ``left`` of up to one row per cell, and each block is
        multiplied by ``left``; when some row has more than one term, a
        0/1 product sums each row's terms. The other rows take
        :meth:`_direct` at the cells, pooled by ``left``. Both are taken
        over the distinct rows and gathered at ``index``. It shares no
        work arrays between calls, so it takes no lock.
        """
        out = np.empty((self.n, left.shape[0]))
        grid, g = self.grid, self.n_grid
        if g:
            (last, *_, row), ((lead_g, _, _), _) = self.terms
            grams, _ = _grid_factors(grid, length_scale)
            m = lead_g.shape[0]
            # Each grid term's parts times their grams, over the leading
            # cells and over the last axis, one column per term.
            lead = _lead_grams(grid, grams, None, lead_g.T.toarray())[:, None, :]
            along = grams[-1] @ last[:m].T
            # Bytes per term of a block: its column over the cells and its
            # product with a left of one row per cell.
            step = max(1, WORK_BYTES // (16 * grid.n_points))
            several = m > g  # some row has more than one term
            if several:
                out[:g] = 0.0
            for a in range(0, m, step):
                b = min(a + step, m)
                # C order, as scipy's sparse product is slow on any other.
                columns = (lead[..., a:b] * along[:, a:b]).reshape(grid.n_points, -1)
                block = left @ columns
                if several:
                    r0, r1 = row[a], row[b - 1] + 1
                    sums = np.zeros((b - a, r1 - r0))
                    sums[np.arange(b - a), row[a:b] - r0] = 1.0
                    out[r0:r1] += (block @ sums).T
                else:
                    out[a:b] = block.T
        at_cells = self._direct(grid.points, length_scale, self.point_grid_sq_dists)
        out[g:] = (left @ at_cells.T).T
        return out[self.index]


class DomainData:
    """One domain's observations prepared for covariance assembly.

    Rows are stacked attribute-major: all supports of the first local
    attribute, then the second, and so on, matching the attribute order
    of the global catalogue.
    """

    def __init__(self, domain: Domain, records, normalized_values):
        self.domain = domain
        self.records = tuple(records)
        self.attr_ids = tuple(r.attribute_id for r in self.records)
        sizes = [len(rec.partition.supports) for rec in self.records]
        ends = np.cumsum(sizes, dtype=np.int64).tolist()
        self.blocks = tuple(slice(end - n, end) for n, end in zip(sizes, ends))
        self.block_of_row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        self.n_obs = sum(sizes)
        y_parts = [np.asarray(y_norm, dtype=float) for y_norm in normalized_values]
        self.y = np.concatenate(y_parts) if y_parts else np.zeros(0)
        self.cov = SupportCovTable(domain, self.records)

    @property
    def n_attrs(self) -> int:
        return len(self.attr_ids)

    def expand_rows(self, per_attr: np.ndarray) -> np.ndarray:
        """Spread per-attribute values onto observation rows."""
        return np.asarray(per_attr)[self.block_of_row]


class AggregatedDataset:
    """Validated collection of aggregated observation series.

    At most one record per (domain, attribute) pair; geometry is fully
    validated on construction. Each series is centred on its own mean,
    and every series of one attribute is divided by one scale shared
    across domains: the pooled within-series population standard
    deviation ``sqrt(sum_v sum_n (y_vn - mean_v)^2 / sum_v N_v)``. The
    weight prior is shared across domains, so a raw weight must map to
    the same normalized weight in every domain; with a single domain this
    is plain per-series standardization. The (mean, scale) pair per
    series is kept for later denormalization. A zero-variance attribute
    keeps scale 1 so the flat-field degenerate case stays representable.
    """

    def __init__(self, domains, attributes, records, transforms=None):
        self.domains: dict[str, Domain] = dict(domains)
        self.attributes = tuple(attributes)
        self.records = tuple(records)
        if len(set(self.attributes)) != len(self.attributes):
            raise DataError("duplicate attribute ids in catalogue")
        seen = set()
        by_domain: dict[str, list[DatasetRecord]] = {}
        for rec in self.records:
            if rec.domain_id not in self.domains:
                raise DataError(f"record references unknown domain {rec.domain_id!r}")
            if rec.attribute_id not in self.attributes:
                raise DataError(
                    f"record references unknown attribute {rec.attribute_id!r}"
                )
            if rec.key in seen:
                raise DataError(
                    f"multiple records for pair {rec.key}; one partition per"
                    " (domain, attribute) pair"
                )
            seen.add(rec.key)
            by_domain.setdefault(rec.domain_id, []).append(rec)
        for domain_id, recs in by_domain.items():
            geometry.validate(self.domains[domain_id], [r.partition for r in recs])
        attr_rank = {a: i for i, a in enumerate(self.attributes)}
        self._by_domain = {
            v: tuple(sorted(recs, key=lambda r: attr_rank[r.attribute_id]))
            for v, recs in by_domain.items()
        }
        if transforms is None:
            scales = {}
            # Sums and squares of values past about 1e154 can overflow; such
            # an attribute is redone in units of its largest magnitude.
            with np.errstate(over="ignore", invalid="ignore"):
                means = {rec.key: rec.values.mean() for rec in self.records}
                for attr in dict.fromkeys(rec.attribute_id for rec in self.records):
                    group = [r for r in self.records if r.attribute_id == attr]
                    dev = np.concatenate([r.values - means[r.key] for r in group])
                    scale = float(np.sqrt(np.mean(dev * dev)))
                    if not np.isfinite(scale):
                        m = max(np.max(np.abs(r.values)) for r in group)
                        for r in group:
                            means[r.key] = m * np.mean(r.values / m)
                        dev = np.concatenate(
                            [r.values / m - means[r.key] / m for r in group]
                        )
                        scale = float(m * np.sqrt(np.mean(dev * dev)))
                    scales[attr] = scale if scale >= 1e-15 else 1.0
            transforms = {
                rec.key: (float(means[rec.key]), scales[rec.attribute_id])
                for rec in self.records
            }
        else:
            transforms = {k: (float(m), float(s)) for k, (m, s) in transforms.items()}
            for rec in self.records:
                if rec.key not in transforms:
                    raise DataError(f"missing normalization transform for {rec.key}")
        self.transforms = transforms
        self._prepared: dict[str, DomainData] = {}

    def domain_order(self) -> tuple[str, ...]:
        """Domains that carry records, in catalogue (insertion) order."""
        return tuple(v for v in self.domains if v in self._by_domain)

    def attributes_in(self, domain_id: str) -> tuple[str, ...]:
        return tuple(r.attribute_id for r in self._by_domain.get(domain_id, ()))

    def record_for(self, domain_id: str, attribute_id: str) -> DatasetRecord:
        for rec in self._by_domain.get(domain_id, ()):
            if rec.attribute_id == attribute_id:
                return rec
        raise DataError(f"no record for pair {(domain_id, attribute_id)}")

    def normalized(self, rec: DatasetRecord) -> np.ndarray:
        mean, scale = self.transforms[rec.key]
        # Near the float limit the difference overflows; scale it first.
        with np.errstate(over="ignore", invalid="ignore"):
            out = (rec.values - mean) / scale
        if not np.all(np.isfinite(out)):
            out = rec.values / scale - mean / scale
        return out

    def denormalize(self, domain_id, attribute_id, values, variances=None):
        """Map normalized predictions back to original units."""
        mean, scale = self.transforms[(domain_id, attribute_id)]
        values = np.asarray(values) * scale + mean
        if variances is None:
            return values
        return values, np.asarray(variances) * scale * scale

    def prepared(self, domain_id: str) -> DomainData:
        if domain_id not in self._prepared:
            if domain_id not in self.domains:
                raise DataError(f"unknown domain {domain_id!r}")
            recs = self._by_domain.get(domain_id, ())
            self._prepared[domain_id] = DomainData(
                self.domains[domain_id],
                recs,
                [self.normalized(r) for r in recs],
            )
        return self._prepared[domain_id]

    @property
    def total_attribute_count(self) -> int:
        """Number of (domain, attribute) series, the S of model selection."""
        return len(self.records)

    def replace_records(self, records) -> "AggregatedDataset":
        """Same catalogues and transforms, different records."""
        return AggregatedDataset(
            self.domains, self.attributes, records, transforms=self.transforms
        )

    def as_point_observations(self) -> "AggregatedDataset":
        """Every record recast as point observations at support centroids."""
        return self.replace_records(
            [replace(rec, as_points=True) for rec in self.records]
        )


class Catalogue(NamedTuple):
    """Index maps of a state's catalogue (:meth:`ModelState.catalogue`).

    The stack holds every domain's catalogue rows in catalogue order; a
    domain's rows are distinct. Each map gives, per stacked entry, its
    position in the :meth:`ModelState.pack` vector. Arrays are read-only.
    """

    rows: np.ndarray  # (stacked rows,): the catalogue row of each
    blocks: dict  # each domain's slice of the stack
    spans: list  # (start, stop, shape) per parameter array, pack order
    q_mean: np.ndarray  # (stacked rows, latents)
    q_log_var: np.ndarray  # (stacked rows, latents)
    noise: np.ndarray  # (stacked rows,)
    prior_mean: np.ndarray  # (stacked rows, latents): the row's prior entries
    prior_log_var: np.ndarray  # (stacked rows, latents)


@dataclass
class ModelState:
    """All free parameters plus the catalogue bookkeeping to index them.

    Weight priors are indexed by the global attribute catalogue and are
    shared across domains; variational weights and noise are per domain,
    covering only attributes that domain observes. Variances live as
    exponents (see :func:`floor_var`). A state from :meth:`view` or
    :meth:`unpack` holds its arrays as views of one flat ``vector``;
    rebinding an array detaches it from the vector.
    """

    attributes: tuple[str, ...]
    domain_ids: tuple[str, ...]
    domain_attributes: dict[str, tuple[str, ...]]
    num_latents: int
    log_length_scales: np.ndarray
    prior_mean: np.ndarray
    prior_log_var: np.ndarray
    q_mean: dict[str, np.ndarray]
    q_log_var: dict[str, np.ndarray]
    noise_log_var: dict[str, np.ndarray]
    # Not fields: set by view(), left out of the constructor and of ==.
    vector = None
    _index = None

    def __post_init__(self):
        S, L = len(self.attributes), self.num_latents
        if self.log_length_scales.shape != (L,):
            raise DimensionMismatch("log_length_scales must have one entry per latent")
        if self.prior_mean.shape != (S, L) or self.prior_log_var.shape != (S, L):
            raise DimensionMismatch("prior arrays must be (attributes, latents)")
        for v in self.domain_ids:
            Sv = len(self.domain_attributes[v])
            if self.q_mean[v].shape != (Sv, L) or self.q_log_var[v].shape != (Sv, L):
                raise DimensionMismatch(f"variational arrays for {v!r} misshaped")
            if self.noise_log_var[v].shape != (Sv,):
                raise DimensionMismatch(f"noise array for {v!r} misshaped")

    @property
    def length_scales(self) -> np.ndarray:
        return np.exp(self.log_length_scales)

    def catalogue(self) -> Catalogue:
        """The :class:`Catalogue`, built once per catalogue and shared by
        the states made from this one."""
        if self._index is None:
            ids, S, L = self.domain_ids, len(self.attributes), self.num_latents
            rank = {a: i for i, a in enumerate(self.attributes)}
            attrs = [self.domain_attributes[v] for v in ids]
            if any(len(set(a)) != len(a) for a in attrs):
                raise DataError("a domain lists an attribute twice")
            rows = np.array([rank[a] for a_v in attrs for a in a_v], dtype=np.int64)
            ends = np.cumsum([len(a) for a in attrs], dtype=np.int64).tolist()
            blocks = {v: slice(e - len(a), e) for v, a, e in zip(ids, attrs, ends)}
            shapes = [(L,), (S, L), (S, L)]
            for a in attrs:
                shapes += [(len(a), L), (len(a), L), (len(a),)]
            bounds = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
            spans = list(zip([0] + bounds, bounds, shapes))
            at = [np.arange(a, b).reshape(shape) for a, b, shape in spans]
            maps = [np.concatenate(at[k::3]) for k in (3, 4, 5)] + [at[1][rows], at[2][rows]]
            for a in (rows, *maps):
                a.flags.writeable = False
            self._index = Catalogue(rows, blocks, spans, *maps)
        return self._index

    def draw_weights(self, domain_id: str, eps: np.ndarray) -> np.ndarray:
        return sample_weights(self.q_mean[domain_id], self.q_log_var[domain_id], eps)

    # Flat parameter vector layout, in order: log length scales, prior
    # means, prior log variances, then per domain (catalogue order) the
    # variational means, variational log variances and noise exponents.
    # Training keeps the parameters, the Adam moments and each gradient
    # as such vectors and works on states that view them (see view).

    def pack(self) -> np.ndarray:
        parts = [self.log_length_scales, self.prior_mean, self.prior_log_var]
        for v in self.domain_ids:
            parts += [self.q_mean[v], self.q_log_var[v], self.noise_log_var[v]]
        return np.concatenate([part.ravel() for part in parts])

    def view(self, vector: np.ndarray) -> "ModelState":
        """State whose arrays view a flat vector in :meth:`pack` order, so
        writes through either land in both. A vector that is not float64
        is converted first, so the views see a copy. The catalogue fixes
        every shape, so the view is not validated again."""
        vector = np.asarray(vector, dtype=float)
        if vector.ndim != 1 or vector.size != self.n_params:
            raise DimensionMismatch(
                f"parameter vector of length {vector.size}, expected {self.n_params}"
            )
        arrays = [vector[a:b].reshape(shape) for a, b, shape in self.catalogue().spans]
        out = object.__new__(ModelState)
        vars(out).update(
            attributes=self.attributes,
            domain_ids=self.domain_ids,
            domain_attributes=dict(self.domain_attributes),
            num_latents=self.num_latents,
            log_length_scales=arrays[0],
            prior_mean=arrays[1],
            prior_log_var=arrays[2],
            q_mean=dict(zip(self.domain_ids, arrays[3::3])),
            q_log_var=dict(zip(self.domain_ids, arrays[4::3])),
            noise_log_var=dict(zip(self.domain_ids, arrays[5::3])),
            vector=vector,
            _index=self._index,
        )
        return out

    def unpack(self, vector: np.ndarray) -> "ModelState":
        """New state with parameters copied from a flat vector."""
        return self.view(np.array(vector, dtype=float))

    @property
    def n_params(self) -> int:
        S, L = len(self.attributes), self.num_latents
        local = sum(len(self.domain_attributes[v]) for v in self.domain_ids)
        return L + 2 * S * L + local * (2 * L + 1)


def init_state(
    dataset: AggregatedDataset, num_latents: int, seed: int = 0
) -> ModelState:
    """Deterministic initial state for a dataset.

    Length scales start at a fifth of the largest domain-axis extent with
    a ten percent deterministic stagger per latent; weight priors start
    standard normal; variational means get small seeded draws so latents
    can specialize, one draw per observed catalogue attribute (catalogue
    order, row-major), shared by every domain that observes it so all
    domains start in one latent orientation; variational variances start
    at 0.01 and noise at 0.1 (each attribute is normalized to unit pooled
    variance). ``num_latents`` is a count of at least one
    (:func:`~aggmogp.utils.count_request`).
    """
    num_latents = utils.count_request(num_latents, "num_latents")
    domain_ids = dataset.domain_order()
    if not domain_ids:
        raise DataError("dataset has no observation records")
    span = max(
        dataset.domains[v].axis_span(d)
        for v in domain_ids
        for d in range(dataset.domains[v].ndim)
    )
    base = 0.2 * span
    if num_latents == 1:
        stagger = np.zeros(1)
    else:
        stagger = np.linspace(-1.0, 1.0, num_latents)
    scales = base * (1.0 + 0.1 * stagger)
    # Substream 0 of the seed is reserved for initialization draws.
    rng = utils.stream(seed, 0)
    S = len(dataset.attributes)
    seen = {a for v in domain_ids for a in dataset.attributes_in(v)}
    observed = [a for a in dataset.attributes if a in seen]
    draws = dict(zip(observed, 0.1 * rng.standard_normal((len(observed), num_latents))))
    q_mean, q_log_var, noise_log_var = {}, {}, {}
    for v in domain_ids:
        Sv = len(dataset.attributes_in(v))
        q_mean[v] = np.array([draws[a] for a in dataset.attributes_in(v)])
        q_log_var[v] = np.full((Sv, num_latents), np.log(0.01))
        noise_log_var[v] = np.full(Sv, np.log(0.1))
    return ModelState(
        attributes=dataset.attributes,
        domain_ids=domain_ids,
        domain_attributes={v: dataset.attributes_in(v) for v in domain_ids},
        num_latents=num_latents,
        log_length_scales=np.log(scales),
        prior_mean=np.zeros((S, num_latents)),
        prior_log_var=np.zeros((S, num_latents)),
        q_mean=q_mean,
        q_log_var=q_log_var,
        noise_log_var=noise_log_var,
    )


def override_length_scales(state: ModelState, length_scales) -> ModelState:
    """Replace the kernel initialization in place (one scale per latent)."""
    arr = np.asarray(length_scales, dtype=float)
    if arr.shape != state.log_length_scales.shape:
        raise DimensionMismatch(
            f"{arr.size} length scales for {state.num_latents} latents"
        )
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError("length scales must be positive and finite")
    state.log_length_scales = np.log(arr)
    return state


def assemble_from_latents(
    domain_data: DomainData,
    weights: np.ndarray,
    latent_covs,
    noise_log_var: np.ndarray,
) -> np.ndarray:
    """Observation covariance from precomputed per-latent support covariances."""
    W = np.asarray(weights, dtype=float)
    if W.shape != (domain_data.n_attrs, len(latent_covs)):
        raise DimensionMismatch(
            f"weight sample of shape {W.shape}, expected"
            f" {(domain_data.n_attrs, len(latent_covs))}"
        )
    N = domain_data.n_obs
    C = np.zeros((N, N))
    for l, S_l in enumerate(latent_covs):
        u = domain_data.expand_rows(W[:, l])
        C += (u[:, None] * u[None, :]) * S_l
    sig = domain_data.expand_rows(floor_var(noise_log_var))
    C.reshape(-1)[:: N + 1] += sig
    return C


def assemble_C(
    domain_data: DomainData,
    weights: np.ndarray,
    length_scales,
    noise_log_var: np.ndarray,
) -> np.ndarray:
    """Observation covariance of one domain for a fixed weight sample.

    ``weights`` is the (local attributes, latents) sample,
    ``length_scales`` one kernel scale per latent, ``noise_log_var`` the
    per-local-attribute noise exponents. The result is exactly symmetric,
    as every ``S_l`` is, and holds no factorization jitter; jitter enters
    at factorization time (:func:`chol_with_jitter`).
    """
    latent_covs = [domain_data.cov.latent_cov(s) for s in length_scales]
    return assemble_from_latents(domain_data, weights, latent_covs, noise_log_var)
