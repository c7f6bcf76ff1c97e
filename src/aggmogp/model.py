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
records; it alone decides how each row is integrated. Average-rule
interval supports on 1-D domains take the closed-form erf integrals
(the kernels module's ``se_antideriv2`` and ``se_antideriv2_dlog``,
evaluated once per distinct argument, and ``se_point_interval`` at a
point). Every other grid support, and every prediction target
(:func:`weight_rows`), is a row of a sparse weight matrix over the grid
cells (:class:`WeightRows`). One product, ``left K Aᵀ``, gives the
covariances ``A K Aᵀ``, target priors and cross covariances, with ``K``
a Kronecker product of per-axis grams (``se_value`` and ``se_value_dlog``
on each axis), applied to a block of columns of ``Aᵀ`` at a time. Point
observations at support centroids evaluate ``se_value`` directly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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

_LOG_2PI = np.log(2.0 * np.pi)

# All variances are optimized as exponents and floored here.
VARIANCE_FLOOR = 1e-12
LOG_VARIANCE_FLOOR = float(np.log(VARIANCE_FLOOR))

# Base jitter relative to the mean diagonal, escalated tenfold on failure.
JITTER_BASE = 1e-8
JITTER_MAX = 1e-4

# Bytes of work arrays per weight-row operator (see WeightRows).
WORK_BYTES = 1 << 20


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


def kl_weights(q_mean, q_log_var, p_mean, p_log_var) -> float:
    """KL divergence between factorized Gaussian weight distributions.

    Sums the per-entry closed form over whatever shape is passed in; the
    floored exponents are used directly so the log-variance difference is
    exact.
    """
    q_mean = np.asarray(q_mean, dtype=float)
    p_mean = np.asarray(p_mean, dtype=float)
    lq = np.maximum(np.asarray(q_log_var, dtype=float), LOG_VARIANCE_FLOOR)
    lp = np.maximum(np.asarray(p_log_var, dtype=float), LOG_VARIANCE_FLOOR)
    vq = np.exp(lq)
    vp = np.exp(lp)
    dm = q_mean - p_mean
    terms = 0.5 * ((vq + dm * dm) / vp - 1.0 + lp - lq)
    return float(np.sum(terms))


def latent_sign_flips(state: "ModelState") -> dict[str, np.ndarray]:
    """Per domain, a mask of the latent columns to reflect toward the prior.

    A domain's likelihood is unchanged when one of its latent columns of
    weights changes sign, but the shared prior is not. Column l of domain
    v is marked when its reflected variational mean is strictly closer to
    the prior in the prior's own metric, sum_s (mu + p)^2 / var_p <
    sum_s (mu - p)^2 / var_p. Reflecting a marked column lowers the KL
    term and leaves everything else in the ELBO unchanged.
    """
    flips = {}
    for v in state.domain_ids:
        rows = state.attr_rows(v)
        mu = state.q_mean[v]
        p = state.prior_mean[rows]
        vp = floor_var(state.prior_log_var[rows])
        keep = np.sum((mu - p) ** 2 / vp, axis=0)
        flip = np.sum((-mu - p) ** 2 / vp, axis=0)
        flips[v] = flip < keep
    return flips


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


def chol_solve(L: np.ndarray, b: np.ndarray, overwrite_b: bool = False):
    """``C⁻¹ b`` from C's lower factor ``L`` by LAPACK ``dpotrs``, bitwise
    ``scipy.linalg.cho_solve((L, True), b)``; ``overwrite_b`` solves a
    Fortran-order matrix ``b`` in place."""
    x, info = dpotrs(L, b, lower=1, overwrite_b=overwrite_b)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def log_likelihood(y: np.ndarray, C: np.ndarray) -> float:
    """Log density of a zero-mean Gaussian, via jittered Cholesky."""
    y = np.asarray(y, dtype=float)
    L, _ = chol_with_jitter(C)
    alpha = chol_solve(L, y)
    return float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.size * _LOG_2PI
    )


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


class GridKernel:
    """The SE kernel over a domain's regular grid as per-axis factors.

    On the cell centres the kernel factorizes over the axes, ``K = G_1 ⊗
    … ⊗ G_D`` with ``G_d`` the 1-D gram of axis d (C order: the last axis
    varies fastest), and its log-length-scale derivative follows by the
    product rule. Only the D small grams are ever evaluated; weight rows
    apply them one axis at a time (:meth:`WeightRows.product`).
    """

    def __init__(self, grid):
        self.grid = grid

    def factors(self, length_scale: float, with_grad: bool = False):
        """Per-axis grams ``[G_d]``, and ``[dG_d]`` when ``with_grad``."""
        # Recomputed per call: kept on every table, they raised the peak
        # memory of runs that rebuild datasets, and they cost little.
        axes = [self.grid.axis_coords(d)[:, None] for d in range(self.grid.ndim)]
        sq = [sq_dists(x, x) for x in axes]
        grams = [se_value(d2, length_scale) for d2 in sq]
        if not with_grad:
            return grams, None
        return grams, [se_value_dlog(d2, length_scale) for d2 in sq]


class WeightRows:
    """Aggregation weights of grid supports as a sparse matrix ``A``.

    Row r holds one support's weights over the flat grid cells (CSR), the
    next ``sizes[r]`` entries of ``cells`` and ``weights``, so every rule
    and every observed or target support share one representation. The
    first ``n_cols`` rows (default all) are the column rows of ``K Aᵀ``;
    the others are only multiplied against it.

    Its one operation is :meth:`product`. ``K Aᵀ`` is never held whole:
    :meth:`_chunks` builds it a block of columns at a time in work arrays
    that the first call allocates, within :data:`WORK_BYTES`, and every
    later call reuses. A lock gives them to one caller at a time.
    """

    def __init__(self, grid, cells, weights, sizes, n_cols: int | None = None):
        # Imported here, on the grid branch only: scipy.sparse adds about
        # 1.6 MiB to the peak memory of every process that loads it.
        from scipy.sparse import csr_matrix

        self.kernel = GridKernel(grid)
        n_cols = len(sizes) if n_cols is None else n_cols
        self.n_cols = n_cols
        ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        shape = (len(sizes), grid.n_points)
        self.matrix = csr_matrix((weights, cells, ptr), shape=shape)
        # Along the last grid axis Aᵀ is sparse: the column rows' entries
        # group into fibres, one per (cell over the leading axes, column
        # row), each a short vector over the last axis.
        n_entries = int(ptr[n_cols])
        lead, last = np.divmod(cells[:n_entries], grid.shape[-1])
        row = np.repeat(np.arange(n_cols), sizes[:n_cols])
        key, fibre = np.unique(lead * n_cols + row, return_inverse=True)
        self.fibre_lead, self.fibre_row = np.divmod(key, max(n_cols, 1))
        self.fibres = np.zeros((key.size, grid.shape[-1]))
        self.fibres[fibre.ravel(), last] = weights[:n_entries]
        self._lock = threading.Lock()
        self._work = None

    def _work_arrays(self):
        """``(chunks, products, plan)``, made on first use.

        ``products`` holds the fibres times the last axis's gram and its
        derivative. Each row of ``chunks`` holds ``width`` columns over
        the grid: the value and derivative scatter targets (zero outside
        the fibres they receive), a scratch, and per further grid axis up
        to two ping-pong pairs for the mode products. ``width`` is as many
        columns as the rest of :data:`WORK_BYTES` allows, and at least
        two. ``plan`` holds per chunk its columns, its fibres, and their
        leading-axes cells and rows within the chunk.
        """
        if self._work is None:
            grid = self.kernel.grid
            products = np.zeros((2,) + self.fibres.shape)
            n_work = 3 + 2 * min(grid.ndim - 1, 2)
            width = (WORK_BYTES - products.nbytes) // (n_work * grid.n_points * 8)
            width = min(max(2, width), self.n_cols)
            order = np.argsort(self.fibre_row, kind="stable")
            bounds = np.searchsorted(
                self.fibre_row[order], np.arange(self.n_cols + 1)
            )
            plan = []
            for start in range(0, self.n_cols, width):
                # One column would take numpy's and scipy's matrix-vector
                # paths, which round differently from the matrix products
                # of wider chunks; a last chunk of one repeats a column.
                start = max(min(start, self.n_cols - 2), 0)
                stop = min(start + width, self.n_cols)
                fibres = order[bounds[start] : bounds[stop]]
                at = self.fibre_lead[fibres], self.fibre_row[fibres] - start
                plan.append((slice(start, stop), fibres, at))
            chunks = np.zeros((n_work, grid.n_points * width))
            self._work = chunks, products, plan
        return self._work

    def _chunks(self, length_scale: float, with_grad: bool):
        """``K Aᵀ`` over the column rows, one chunk of columns at a time.

        Yields ``(cols, KAᵀ[:, cols], dKAᵀ[:, cols])``, the derivative with
        respect to the log length scale or None, as (all cells, chunk)
        views into the work arrays that the next chunk overwrites. The
        caller holds the lock. The last axis acts on the fibres of
        ``Aᵀ``; every other axis is a dense mode product.
        """
        grid = self.kernel.grid
        grams, dgrams = self.kernel.factors(length_scale, with_grad)
        chunks, products, plan = self._work_arrays()
        lasts = [grams[-1], dgrams[-1]] if with_grad else [grams[-1]]
        products = products[: len(lasts)]
        # Every fibre in one product: a subset of a matrix product's rows
        # can round differently from the same rows of the whole product.
        for product, gram in zip(products, lasts):
            np.matmul(self.fibres, gram, out=product)
        for cols, fibres, (lead, rows) in plan:
            n = cols.stop - cols.start
            views = [c[: grid.n_points * n].reshape(grid.shape + (n,)) for c in chunks]
            value, deriv, scratch, *pairs = views
            targets = [v.reshape(-1, grid.shape[-1], n) for v in views[: len(lasts)]]
            try:
                for target, product in zip(targets, products):
                    target[lead, :, rows] = product[fibres]
                for step, axis in enumerate(range(grid.ndim - 2, -1, -1)):
                    v_out, d_out = pairs[2 * (step % 2) : 2 * (step % 2) + 2]
                    if with_grad:
                        _mode_product(grams[axis], deriv, axis, d_out)
                        d_out += _mode_product(dgrams[axis], value, axis, scratch)
                        deriv = d_out
                    value = _mode_product(grams[axis], value, axis, v_out)
                flat = (grid.n_points, n)
                yield (
                    cols,
                    value.reshape(flat),
                    deriv.reshape(flat) if with_grad else None,
                )
            finally:
                for target in targets:
                    target[lead, :, rows] = 0.0

    def product(self, left, length_scale: float, with_grad: bool = False):
        """``left K Aᵀ`` for sparse weight rows ``left`` over the grid
        cells, a (left rows, n_cols) array in Fortran order (so its
        transpose is C-contiguous), and its log-length-scale derivative
        or None."""
        value = np.empty((self.n_cols, left.shape[0])).T
        deriv = np.empty_like(value) if with_grad else None
        with self._lock:
            for cols, KAt, dKAt in self._chunks(length_scale, with_grad):
                value[:, cols] = left @ KAt
                if with_grad:
                    deriv[:, cols] = left @ dKAt
        return value, deriv


def weight_rows(domain: Domain, supports, rules, n_cols=None) -> WeightRows:
    """Supports of ``domain``, one aggregation rule each, as the rows of
    one :class:`WeightRows` over its grid cells, the first ``n_cols``
    (default all) its column rows."""
    grid = domain.grid
    members = [geometry.membership(s, grid) for s in supports]
    weights = [geometry.weight_vector(s, grid, r) for s, r in zip(supports, rules)]
    cells, weights = np.concatenate(members), np.concatenate(weights)
    return WeightRows(grid, cells, weights, [m.size for m in members], n_cols)


class SupportCovTable:
    """One domain's aggregated supports and their kernel integrals, for
    any length scale. Built from the records, it alone sorts each row:

    * closed-form rows (1-D intervals with the average rule): pairs of
      them take the erf double integral, with the antiderivative F
      evaluated once per distinct ``|z|`` and gathered (F is even, so
      this is exact), and points the erf integral (``closed_bounds``);
    * every other grid support is a row of the weight matrix ``A``
      (:class:`WeightRows`), and its entries are ``A K Aᵀ`` with ``K``
      applied through per-axis factors (:class:`GridKernel`); a
      closed-form row paired with a grid or point row counts as its row
      of ``A``;
    * point rows (``as_points`` records) evaluate the kernel from their
      support's centroid (``centroids``) directly.
    """

    def __init__(self, domain: Domain, records):
        rows = [
            (s, r, rec.as_points)
            for rec in records
            for s, r in zip(rec.partition.supports, rec.rules)
        ]
        # Intervals live on 1-D domains only (membership refuses others).
        kinds = [
            "point" if p
            else "closed" if isinstance(s.body, Interval) and r.kind == r.AVERAGE
            else "grid"
            for s, r, p in rows
        ]
        self.closed_rows, self.grid_rows, self.point_rows = (
            np.array([k for k, got in enumerate(kinds) if got == kind], dtype=np.int64)
            for kind in ("closed", "grid", "point")
        )
        self.direct_rows = np.concatenate([self.closed_rows, self.point_rows])
        self.n = len(rows)
        self.grid = domain.grid
        cf = [rows[k][0] for k in self.closed_rows]
        for support in cf:
            geometry.membership(support, self.grid)  # refuses an empty interval
        i, j = np.triu_indices(len(cf))
        # Flat positions in S of the closed-form pairs and their mirrors.
        r, c = self.closed_rows[i], self.closed_rows[j]
        self.cf_upper, self.cf_lower = r * self.n + c, c * self.n + r
        lo = np.array([s.body.lo for s in cf])
        hi = np.array([s.body.hi for s in cf])
        self.closed_bounds = lo[:, None], hi[:, None]
        z = np.stack([hi[i] - lo[j], lo[i] - lo[j], hi[i] - hi[j], lo[i] - hi[j]])
        self.cf_norm = 1.0 / ((hi - lo)[i] * (hi - lo)[j])
        self.cf_abs_z, inverse = np.unique(np.abs(z).ravel(), return_inverse=True)
        self.cf_inverse = inverse.reshape(z.shape)
        # Closed-form rows join A only to meet grid or point rows.
        self.a_rows = self.grid_rows
        if self.grid_rows.size or self.point_rows.size:
            self.a_rows = np.concatenate([self.grid_rows, self.closed_rows])
        self.A = None
        if self.a_rows.size:
            supports, rules, _ = zip(*[rows[k] for k in self.a_rows])
            self.A = weight_rows(domain, supports, rules, self.grid_rows.size)
        centroids = [geometry.centroid(rows[k][0], self.grid) for k in self.point_rows]
        self.centroids = np.reshape(centroids, (-1, domain.ndim))
        self.point_sq_dists = sq_dists(self.centroids, self.centroids)
        self.point_grid_sq_dists = sq_dists(self.centroids, self.grid.points)

    def _fill(self, S, antideriv, profile, length_scale):
        """Closed-form and point pairs of S for one kernel primitive pair."""
        if self.cf_upper.size:
            f = antideriv(self.cf_abs_z, length_scale)[self.cf_inverse]
            vals = ((f[0] + f[3]) - (f[1] + f[2])) * self.cf_norm
            S.reshape(-1)[self.cf_upper] = vals
            S.reshape(-1)[self.cf_lower] = vals
        if self.point_rows.size:
            S[np.ix_(self.point_rows, self.point_rows)] = profile(
                self.point_sq_dists, length_scale
            )
            if self.A is not None:
                to_grid = profile(self.point_grid_sq_dists, length_scale)
                cross = self.A.matrix @ to_grid.T
                S[np.ix_(self.a_rows, self.point_rows)] = cross
                S[np.ix_(self.point_rows, self.a_rows)] = cross.T

    def _fill_grid(self, S, block):
        """Rows of ``A`` against grid rows, from ``A K Aᵀ`` (or its derivative)."""
        k = self.grid_rows.size
        # The grid rows lead a_rows; average their block with its transpose
        # so S is exactly symmetric, as assembly assumes.
        block[:k] = 0.5 * (block[:k] + block[:k].T)
        S[np.ix_(self.a_rows, self.grid_rows)] = block
        S[np.ix_(self.grid_rows, self.a_rows)] = block.T

    def latent_cov(self, length_scale: float, with_grad: bool = False):
        """Support covariance matrix for one kernel, optionally with its
        derivative with respect to the log length scale."""
        S = np.zeros((self.n, self.n))
        self._fill(S, se_antideriv2, se_value, length_scale)
        if with_grad:
            dS = np.zeros((self.n, self.n))
            self._fill(dS, se_antideriv2_dlog, se_value_dlog, length_scale)
        if self.grid_rows.size:
            block, dblock = self.A.product(self.A.matrix, length_scale, with_grad)
            self._fill_grid(S, block)
            if with_grad:
                self._fill_grid(dS, dblock)
        return (S, dS) if with_grad else S

    def _direct(self, x, length_scale: float, point_sq_dists) -> np.ndarray:
        """Kernel integrals of the closed-form rows, then the point rows, at
        points ``x``: the erf integral over each interval per unit length,
        and the kernel from each centroid (``point_sq_dists`` away)."""
        lo, hi = self.closed_bounds
        closed = se_point_interval(x[:, 0], lo, hi, length_scale) / (hi - lo)
        return np.concatenate([closed, se_value(point_sq_dists, length_scale)])

    def at_points(self, x, length_scale: float) -> np.ndarray:
        """Integrals of one kernel against every row's weights at the (n,
        ndim) query points ``x``, an (all rows, n) array: :meth:`_direct`,
        and for grid rows ``A`` times the kernel from the cells."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.n, x.shape[0]))
        d2 = sq_dists(self.centroids, x)
        out[self.direct_rows] = self._direct(x, length_scale, d2)
        if self.grid_rows.size:
            to_cells = se_value(sq_dists(self.grid.points, x), length_scale)
            out[self.grid_rows] = self.A.matrix[: self.grid_rows.size] @ to_cells
        return out

    def cross(self, left, length_scale: float) -> np.ndarray:
        """Integrals of one kernel against every row's weights and the
        sparse weight rows ``left`` over the grid cells, an (all rows,
        left rows) array.

        Grid rows take ``(left K Aᵀ)ᵀ`` (:meth:`WeightRows.product`),
        which is the whole result when every row is a grid row. The
        other rows take :meth:`_direct` at the cells, pooled by ``left``.
        """
        if self.grid_rows.size == self.n:
            return self.A.product(left, length_scale)[0].T
        out = np.empty((self.n, left.shape[0]))
        if self.grid_rows.size:
            out[self.grid_rows] = self.A.product(left, length_scale)[0].T
        at_cells = self._direct(
            self.grid.points, length_scale, self.point_grid_sq_dists
        )
        out[self.direct_rows] = (left @ at_cells.T).T
        return out


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

    def reduce_rows(self, per_row: np.ndarray) -> np.ndarray:
        """Sum observation-row values into per-attribute totals."""
        return np.bincount(
            self.block_of_row, weights=np.asarray(per_row), minlength=self.n_attrs
        )


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

    def drop_observation(self, domain_id, attribute_id, support_idx):
        """LOO view: one support and its value removed from one record.

        Records with a single support cannot be reduced (the partition
        must stay non-empty). Transforms are inherited unchanged, so the
        held-out value keeps its original normalization.
        """
        target = self.record_for(domain_id, attribute_id)
        supports = list(target.partition.supports)
        if len(supports) < 2:
            raise DataError(
                f"cannot hold out the only observation of pair"
                f" {(domain_id, attribute_id)}"
            )
        if not (0 <= support_idx < len(supports)):
            raise DataError(f"support index {support_idx} out of range")
        held_support = supports.pop(support_idx)
        part = Partition(
            attribute_id=target.attribute_id,
            domain_id=target.domain_id,
            supports=tuple(supports),
        )
        rules = tuple(
            r for k, r in enumerate(target.rules) if k != support_idx
        )
        values = np.delete(target.values, support_idx)
        reduced = replace(
            target, partition=part, rules=rules, values=values
        )
        records = [reduced if r is target else r for r in self.records]
        held = DatasetRecord(
            domain_id=domain_id,
            attribute_id=attribute_id,
            partition=Partition(
                attribute_id=attribute_id,
                domain_id=domain_id,
                supports=(held_support,),
            ),
            rules=(target.rules[support_idx],),
            values=np.array([target.values[support_idx]]),
            as_points=target.as_points,
        )
        return self.replace_records(records), held


@dataclass
class ModelState:
    """All free parameters plus the catalogue bookkeeping to index them.

    Weight priors are indexed by the global attribute catalogue and are
    shared across domains; variational weights and noise are per domain,
    covering only attributes that domain observes. Variances live as
    exponents (see :func:`floor_var`).
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

    def attr_rows(self, domain_id: str) -> np.ndarray:
        """Global catalogue row per local attribute of a domain."""
        rank = {a: i for i, a in enumerate(self.attributes)}
        return np.array(
            [rank[a] for a in self.domain_attributes[domain_id]], dtype=np.int64
        )

    def draw_weights(self, domain_id: str, eps: np.ndarray) -> np.ndarray:
        return sample_weights(
            self.q_mean[domain_id], self.q_log_var[domain_id], eps
        )

    def copy(self) -> "ModelState":
        return ModelState(
            attributes=self.attributes,
            domain_ids=self.domain_ids,
            domain_attributes={v: t for v, t in self.domain_attributes.items()},
            num_latents=self.num_latents,
            log_length_scales=self.log_length_scales.copy(),
            prior_mean=self.prior_mean.copy(),
            prior_log_var=self.prior_log_var.copy(),
            q_mean={v: a.copy() for v, a in self.q_mean.items()},
            q_log_var={v: a.copy() for v, a in self.q_log_var.items()},
            noise_log_var={v: a.copy() for v, a in self.noise_log_var.items()},
        )

    # Flat parameter vector layout, in order: log length scales, prior
    # means, prior log variances, then per domain (catalogue order) the
    # variational means, variational log variances and noise exponents.

    def pack(self) -> np.ndarray:
        parts = [
            self.log_length_scales.ravel(),
            self.prior_mean.ravel(),
            self.prior_log_var.ravel(),
        ]
        for v in self.domain_ids:
            parts.extend(
                [
                    self.q_mean[v].ravel(),
                    self.q_log_var[v].ravel(),
                    self.noise_log_var[v].ravel(),
                ]
            )
        return np.concatenate(parts)

    def unpack(self, vector: np.ndarray) -> "ModelState":
        """New state with parameters taken from a flat vector."""
        vector = np.asarray(vector, dtype=float)
        out = self.copy()
        pos = 0

        def take(shape):
            nonlocal pos
            size = math.prod(shape)
            chunk = vector[pos : pos + size].reshape(shape).copy()
            pos += size
            return chunk

        S, L = len(self.attributes), self.num_latents
        out.log_length_scales = take((L,))
        out.prior_mean = take((S, L))
        out.prior_log_var = take((S, L))
        for v in self.domain_ids:
            Sv = len(self.domain_attributes[v])
            out.q_mean[v] = take((Sv, L))
            out.q_log_var[v] = take((Sv, L))
            out.noise_log_var[v] = take((Sv,))
        if pos != vector.size:
            raise DimensionMismatch(
                f"parameter vector of length {vector.size}, expected {pos}"
            )
        return out

    @property
    def n_params(self) -> int:
        return self.pack().size


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
    variance).
    """
    if num_latents < 1:
        raise ValueError("num_latents must be >= 1")
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
