"""Shared builders and brute-force oracles for the test suite.

The oracle helpers deliberately use the most literal construction
available (explicit aggregation matrices, full grid grams, dense joint
covariances) so they share no shortcuts with the library code they
check.
"""

import numpy as np
from oracles import membership, support_weights

from aggmogp.geometry import (
    AVERAGE,
    CellSet,
    Domain,
    GridSpec,
    Interval,
    Partition,
    Support,
    grid_block_partition,
)
from aggmogp.model import AggregatedDataset, DatasetRecord, uniform_rules


def unit_grid_domain(n, lo=0.0, hi=None, domain_id="d0"):
    """1-D domain whose n cell centers tile [lo, hi] (hi defaults to lo + n)."""
    if hi is None:
        hi = lo + float(n)
    h = (hi - lo) / n
    grid = GridSpec(origin=(lo + h / 2.0,), cell_size=(h,), shape=(n,))
    return Domain(id=domain_id, extent=((lo, hi),), grid=grid)


def square_grid_domain(n, lo=0.0, hi=1.0, domain_id="d0"):
    """2-D domain with an n x n cell-center grid on [lo, hi]^2."""
    h = (hi - lo) / n
    grid = GridSpec(
        origin=(lo + h / 2.0, lo + h / 2.0), cell_size=(h, h), shape=(n, n)
    )
    return Domain(id=domain_id, extent=((lo, hi), (lo, hi)), grid=grid)


def interval_support(lo, hi, sid, domain_id="d0"):
    return Support(id=sid, domain_id=domain_id, body=Interval(lo, hi))


def cells_support(cells, sid, domain_id="d0"):
    return Support(id=sid, domain_id=domain_id, body=CellSet(tuple(cells)))


def se_gram(points, length_scale):
    """Dense unit-variance SE gram over a point set, written out directly."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * length_scale * length_scale))


def aggregation_matrix(domain, records):
    """Explicit A matrix: observation rows against (attribute, grid point).

    Rows follow the record order and each record's support order, which
    is exactly how the library stacks one domain's observations. Columns
    are attribute-major over the full grid.
    """
    G = domain.grid.n_points
    rows = []
    for a_idx, rec in enumerate(records):
        for support, rule in zip(rec.partition.supports, rec.rules):
            row = np.zeros(len(records) * G)
            members = membership(support, domain.grid)
            w = support_weights(support, domain.grid, rule)[1]
            row[a_idx * G + members] = w
            rows.append(row)
    return np.vstack(rows)


def field_gram(domain, W, length_scales):
    """Joint covariance of the per-attribute fields at every grid point.

    Attribute-major ordering; entry for ((s, x), (s', x')) is
    sum_l W[s,l] W[s',l] gamma_l(x, x').
    """
    W = np.asarray(W, dtype=float)
    out = np.zeros((W.shape[0] * domain.grid.n_points,) * 2)
    for l, scale in enumerate(length_scales):
        G_l = se_gram(domain.grid.points, scale)
        out += np.kron(np.outer(W[:, l], W[:, l]), G_l)
    return out


def oracle_covariance(domain, records, W, length_scales, noise_vars):
    """A K A^T + Sigma with every factor materialized.

    ``noise_vars`` is one variance per record, spread over that record's
    observation rows.
    """
    A = aggregation_matrix(domain, records)
    K = field_gram(domain, W, length_scales)
    C = A @ K @ A.T
    sig = np.concatenate(
        [
            np.full(len(rec.partition.supports), float(s2))
            for rec, s2 in zip(records, noise_vars)
        ]
    )
    return C + np.diag(sig)


def two_series_instance(n_grid=64, seed=0, noise=(0.05, 0.08)):
    """The reference instance: one domain, two attributes, block supports.

    Attribute a0 is observed on 8 cell blocks, a1 on 4; values are a
    seeded standard normal draw. Cell-set supports keep every covariance
    on the grid-sum path, so explicit aggregation matrices reproduce the
    assembled covariance to machine precision.
    """
    domain = unit_grid_domain(n_grid, 0.0, 8.0)
    part_a = grid_block_partition(domain, "a0", (n_grid // 8,), id_prefix="a0b")
    part_b = grid_block_partition(domain, "a1", (n_grid // 4,), id_prefix="a1b")
    rng = np.random.default_rng(seed)
    rec_a = DatasetRecord(
        domain_id="d0",
        attribute_id="a0",
        partition=part_a,
        rules=uniform_rules(part_a),
        values=rng.standard_normal(len(part_a.supports)),
    )
    rec_b = DatasetRecord(
        domain_id="d0",
        attribute_id="a1",
        partition=part_b,
        rules=uniform_rules(part_b),
        values=rng.standard_normal(len(part_b.supports)),
    )
    dataset = AggregatedDataset({"d0": domain}, ("a0", "a1"), (rec_a, rec_b))
    return domain, dataset, (rec_a, rec_b)


def single_series_dataset(domain, supports, values, attribute_id="a0", rules=None):
    part = Partition(
        attribute_id=attribute_id, domain_id=domain.id, supports=tuple(supports)
    )
    if rules is None:
        rules = tuple(AVERAGE for _ in supports)
    rec = DatasetRecord(
        domain_id=domain.id,
        attribute_id=attribute_id,
        partition=part,
        rules=rules,
        values=np.asarray(values, dtype=float),
    )
    return AggregatedDataset({domain.id: domain}, (attribute_id,), (rec,))


def two_domain_instance(seed=0):
    """Two domains sharing attribute a0; a1 only on d0, a2 only on d1.

    The a0 series differ in location and spread between the domains, so
    per-series and pooled normalization give different scales. Cell-set
    supports keep every covariance on the grid-sum path.
    """
    d0 = unit_grid_domain(32, 0.0, 4.0, domain_id="d0")
    d1 = unit_grid_domain(16, 0.0, 2.0, domain_id="d1")
    rng = np.random.default_rng(seed)
    spec = (
        (d0, "a0", 4, 3.0, 5.0),
        (d0, "a1", 8, 1.0, 0.0),
        (d1, "a0", 4, 0.5, -1.0),
        (d1, "a2", 2, 2.0, 7.0),
    )
    records = []
    for dom, attr, block, spread, offset in spec:
        part = grid_block_partition(dom, attr, (block,), id_prefix=f"{attr}b")
        records.append(
            DatasetRecord(
                domain_id=dom.id,
                attribute_id=attr,
                partition=part,
                rules=uniform_rules(part),
                values=offset + spread * rng.standard_normal(len(part.supports)),
            )
        )
    return AggregatedDataset({"d0": d0, "d1": d1}, ("a0", "a1", "a2"), records)
