"""Support covariances against explicit aggregation matrices.

``SupportCovTable.latent_cov`` builds ``S_l`` from per-axis kernel
factors, a sparse weight matrix and distinct-argument closed forms, and
``cross`` and ``at_points`` the integrals against weight rows and at
points. The oracle here shares none of that: it writes every
observation row as a dense weight row over the grid points and the
support centroids, builds the full gram over those points, and takes
``W K Wᵀ``. A closed-form row (a 1-D interval with the average rule) is
its interval's integral per unit length against every row: the erf
double integral against another, pair by pair, and its erf point
integral at the grid points and centroids, pooled by ``W``, against any
other row.
"""

import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import cells_support, interval_support, se_gram
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import membership, scattered_grid_cov, se_double_interval, support_weights
from scipy.sparse import csr_matrix
from scipy.special import erf

import aggmogp
from aggmogp import model
from aggmogp.errors import EmptySupport
from aggmogp.geometry import (
    AVERAGE,
    SUM,
    AggregationRule,
    Domain,
    GridSpec,
    Interval,
    Partition,
    centroid,
    grid_block_partition,
)
from aggmogp.kernels import se_antideriv2_dlog, se_point_interval
from aggmogp.model import (
    JITTER_BASE,
    AggregatedDataset,
    DatasetRecord,
    DomainData,
    assemble_from_latents,
    chol_with_jitter,
    floor_var,
    init_state,
    uniform_rules,
)
from aggmogp.inference import TrainConfig, fit
from aggmogp.prediction import predict_grid

TOL = 1e-12


def domain_data(domain, records):
    return DomainData(domain, records, [r.values for r in records])


def closed_form_rows(domain, records):
    """Interval per observation row, or None where the row is not closed form."""
    out = []
    for rec in records:
        for support, rule in zip(rec.partition.supports, rec.rules):
            closed = (
                domain.ndim == 1
                and isinstance(support.body, Interval)
                and rule.kind == AggregationRule.AVERAGE
                and not rec.as_points
            )
            out.append(support.body if closed else None)
    return out


def dense_weight_rows(domain, records):
    """``(W, points)``: every observation row as a dense weight row over
    the grid points followed by the support centroids of point records."""
    grid = domain.grid
    rows, centroids = [], []
    for rec in records:
        for support, rule in zip(rec.partition.supports, rec.rules):
            if rec.as_points:
                centroids.append(centroid(support, grid))
                rows.append(("point", len(centroids) - 1))
            else:
                members = membership(support, grid)
                weights = support_weights(support, grid, rule)[1]
                rows.append(("grid", members, weights))
    points = np.vstack([grid.points] + [c[None, :] for c in centroids])
    W = np.zeros((len(rows), points.shape[0]))
    for r, row in enumerate(rows):
        if row[0] == "point":
            W[r, grid.n_points + row[1]] = 1.0
        else:
            W[r, row[1]] = row[2]
    return W, points


def interval_integrals(interval, points, length_scale):
    """``(k, dk)``: the kernel's integral over ``interval`` per unit length
    from each of the (n, 1) ``points``, and its log-length-scale derivative.

    ``k`` is ``sqrt(pi/2) b (erf(u_hi) - erf(u_lo)) / length`` for ``u =
    (t - x) / (sqrt(2) b)`` at t = hi and t = lo. ``b ∂/∂b`` of it is
    ``k`` plus, at each end, ``sqrt(pi/2) b (2 / sqrt(pi)) exp(-u²)``
    times ``b ∂u/∂b = -u``, the upper end added, the lower subtracted.
    """
    b, x = length_scale, points[:, 0]
    u = [(t - x) / (np.sqrt(2.0) * b) for t in (interval.hi, interval.lo)]
    c = np.sqrt(np.pi / 2.0) * b / interval.length
    k = c * (erf(u[0]) - erf(u[1]))
    ends = [(2.0 / np.sqrt(np.pi)) * np.exp(-v * v) * -v for v in u]
    return k, k + c * (ends[0] - ends[1])


def oracle_latent_cov(domain, records, length_scale):
    """``(S, dS, scale)`` from dense weight rows over grid points and centroids.

    Rows that are not closed form take ``W K Wᵀ``. Closed-form row i
    takes ``W k_i`` against every row, ``k_i`` its interval's integral
    per unit length at every grid point and centroid
    (:func:`interval_integrals`), except that pairs of closed-form rows
    take the erf double integral. ``scale`` is the largest entry of ``|W|
    K |W|ᵀ``, the size of the terms each entry sums, against which
    cancellation is measured.
    """
    W, points = dense_weight_rows(domain, records)
    diff = points[:, None, :] - points[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    b2 = length_scale * length_scale
    K = np.exp(-d2 / (2.0 * b2))
    dK = K * d2 / b2
    S, dS = W @ K @ W.T, W @ dK @ W.T
    scale = float(np.max(np.abs(W) @ K @ np.abs(W).T))
    intervals = closed_form_rows(domain, records)
    for i, a in enumerate(intervals):
        if a is not None:
            k, dk = interval_integrals(a, points, length_scale)
            S[i], dS[i] = W @ k, W @ dk
            S[:, i], dS[:, i] = S[i], dS[i]
    for i, a in enumerate(intervals):
        for j, c in enumerate(intervals):
            if a is None or c is None:
                continue
            norm = 1.0 / (a.length * c.length)
            S[i, j] = se_double_interval(a.lo, a.hi, c.lo, c.hi, length_scale) * norm
            f = [
                se_antideriv2_dlog(z, length_scale)
                for z in (a.hi - c.lo, a.lo - c.lo, a.hi - c.hi, a.lo - c.hi)
            ]
            dS[i, j] = ((f[0] + f[3]) - (f[1] + f[2])) * norm
    return S, dS, scale


def check_against_oracle(domain, records, length_scale):
    S, dS = domain_data(domain, records).cov.latent_cov(length_scale, with_grad=True)
    S_o, dS_o, scale = oracle_latent_cov(domain, records, length_scale)
    np.testing.assert_allclose(S, S_o, rtol=TOL, atol=TOL * scale)
    np.testing.assert_allclose(dS, dS_o, rtol=TOL, atol=TOL * scale)
    np.testing.assert_array_equal(S, S.T)
    np.testing.assert_array_equal(dS, dS.T)
    check_at_points(domain_data(domain, records), length_scale)


def check_at_points(dd, length_scale):
    """``at_points`` at random off-grid points against dense oracles:
    grid and point rows are ``W K(points, x)`` from the dense weight rows
    over grid points and centroids; closed-form rows take the erf integral
    of their interval at each point per unit length."""
    rng = np.random.default_rng(1)
    x = np.column_stack([rng.uniform(lo, hi, 5) for lo, hi in dd.domain.extent])
    W, points = dense_weight_rows(dd.domain, dd.records)
    diff = points[:, None, :] - x[None, :, :]
    K = np.exp(-(diff * diff).sum(axis=2) / (2.0 * length_scale**2))
    want = W @ K
    for r, iv in enumerate(closed_form_rows(dd.domain, dd.records)):
        if iv is not None:
            want[r] = se_point_interval(x[:, 0], iv.lo, iv.hi, length_scale)
            want[r] /= iv.length
    scale = float(np.max(np.abs(W) @ K))
    got = dd.cov.at_points(x, length_scale)
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL * scale)


@st.composite
def grid_domains(draw, ndim):
    """A grid with drawn shape, unequal cell sizes and origin."""
    top = 6 if ndim < 3 else 4
    shape = tuple(draw(st.integers(2, top)) for _ in range(ndim))
    cell = tuple(draw(st.floats(0.25, 2.0)) for _ in range(ndim))
    origin = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(ndim))
    grid = GridSpec(origin=origin, cell_size=cell, shape=shape)
    return Domain(id="d0", extent=grid.extent_box(), grid=grid)


@st.composite
def rule_for(draw, support, grid, kinds=("average", "sum", "custom")):
    kind = draw(st.sampled_from(kinds))
    if kind == "custom":
        n = membership(support, grid).size
        weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        return AggregationRule(AggregationRule.CUSTOM, tuple(weights))
    return AVERAGE if kind == "average" else SUM


def record(attr, supports, rules, as_points=False):
    part = Partition(attribute_id=attr, domain_id="d0", supports=tuple(supports))
    return DatasetRecord(
        domain_id="d0",
        attribute_id=attr,
        partition=part,
        rules=tuple(rules),
        values=np.zeros(len(supports)),
        as_points=as_points,
    )


@st.composite
def cell_set_records(draw, domain, points=False):
    """One or two records of disjoint, not necessarily adjacent, cell sets."""
    n = domain.grid.n_points
    records = []
    for attr in ("a0", "a1")[: draw(st.integers(1, 2))]:
        labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        groups = sorted(set(labels) - {0}) or [0]
        supports = [
            cells_support(
                [i for i, lab in enumerate(labels) if lab == g], f"{attr}s{g}"
            )
            for g in groups
        ]
        rules = [draw(rule_for(s, domain.grid)) for s in supports]
        as_points = points and draw(st.booleans())
        records.append(record(attr, supports, rules, as_points))
    return records


@st.composite
def interval_records(draw, domain, points=False):
    """Intervals over drawn runs of cell centres, average rule (closed
    form) or sum rule, in one or two records."""
    grid = domain.grid
    h, o, n = grid.cell_size[0], grid.origin[0], grid.shape[0]
    records = []
    for attr in ("a0", "a1")[: draw(st.integers(1, 2))]:
        cuts = draw(st.sets(st.integers(1, n - 1)))
        bounds = [0, *sorted(cuts), n]
        runs = [r for r in zip(bounds, bounds[1:]) if draw(st.booleans())]
        supports = [
            interval_support(o + (lo - 0.25) * h, o + (hi - 0.75) * h, f"{attr}i{k}")
            for k, (lo, hi) in enumerate(runs or [(0, n)])
        ]
        rules = [draw(rule_for(s, grid, ("average", "sum"))) for s in supports]
        as_points = points and draw(st.booleans())
        records.append(record(attr, supports, rules, as_points))
    return records


@st.composite
def cell_set_worlds(draw, ndim):
    domain = draw(grid_domains(ndim))
    return domain, draw(cell_set_records(domain)), draw(st.floats(0.3, 4.0))


@st.composite
def interval_worlds(draw, points=False):
    domain = draw(grid_domains(1))
    return domain, draw(interval_records(domain, points)), draw(st.floats(0.3, 4.0))


@st.composite
def point_worlds(draw):
    """Records drawn as point observations at their centroids or not."""
    if draw(st.booleans()):
        return draw(interval_worlds(points=True))
    domain = draw(grid_domains(2))
    records = draw(cell_set_records(domain, points=True))
    return domain, records, draw(st.floats(0.3, 4.0))


@st.composite
def mixed_kind_worlds(draw):
    """One 1-D domain with every kind of row: closed-form intervals
    (average rule), sum-rule cell sets, and the same cell sets observed
    at their centroids."""
    domain = draw(grid_domains(1))
    intervals = draw(interval_records(domain))[0].partition.supports
    cells = draw(cell_set_records(domain))[0].partition.supports
    records = [
        record("a0", intervals, [AVERAGE] * len(intervals)),
        record("a1", cells, [SUM] * len(cells)),
        record("a2", cells, [AVERAGE] * len(cells), as_points=True),
    ]
    return domain, records, draw(st.floats(0.3, 4.0))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestLatentCovMatchesAggregationOracle:
    """Values and log-length-scale derivatives equal ``W K Wᵀ``."""

    @PROPERTY
    @given(world=cell_set_worlds(1))
    def test_cell_sets_on_a_line(self, world):
        check_against_oracle(*world)

    @PROPERTY
    @given(world=cell_set_worlds(2))
    def test_cell_sets_on_a_plane(self, world):
        check_against_oracle(*world)

    @PROPERTY
    @given(world=cell_set_worlds(3))
    def test_cell_sets_in_three_dimensions(self, world):
        check_against_oracle(*world)

    @PROPERTY
    @given(world=interval_worlds())
    def test_closed_form_and_sum_rule_intervals(self, world):
        check_against_oracle(*world)

    @PROPERTY
    @given(world=point_worlds())
    def test_point_observations(self, world):
        check_against_oracle(*world)

    def test_all_point_dataset(self):
        grid = GridSpec(origin=(0.25, 0.5), cell_size=(0.5, 1.0), shape=(4, 3))
        domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
        cells = ([0, 1, 4], [5], [7, 11])
        supports = [cells_support(c, f"s{k}") for k, c in enumerate(cells)]
        rec = record("a0", supports, [AVERAGE, SUM, AVERAGE], as_points=True)
        check_against_oracle(domain, [rec], 0.7)


def support_keys(domain, records):
    """Per observation row, what it integrates: a closed-form interval by
    its bounds, a point row by its centroid's bytes, any other row by the
    bytes of its member cells and of its weights under its rule."""
    grid = domain.grid
    intervals = iter(closed_form_rows(domain, records))
    keys = []
    for rec in records:
        for support, rule in zip(rec.partition.supports, rec.rules):
            interval = next(intervals)
            if rec.as_points:
                keys.append(("point", centroid(support, grid).tobytes()))
            elif interval is not None:
                keys.append(("closed", interval.lo, interval.hi))
            else:
                cells = membership(support, grid).tobytes()
                weights = support_weights(support, grid, rule)[1].tobytes()
                keys.append(("grid", cells, weights))
    return keys


@st.composite
def with_repeats(draw, worlds):
    """A world of ``worlds`` plus records "r0" and maybe "r1" that repeat
    supports of one of its records. "r0" keeps the source's point flag
    and its first support's rule, so some support always repeats; every
    other rule is kept or redrawn, and "r1" may flip the point flag."""
    domain, records, length_scale = draw(worlds)
    for attr in ("r0", "r1")[: draw(st.integers(1, 2))]:
        source = draw(st.sampled_from(records))
        supports, n = source.partition.supports, len(source.partition.supports)
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        chosen = [k for k, kept in enumerate(keep) if kept] or [0]
        rules = [
            source.rules[k] if draw(st.booleans())
            else draw(rule_for(supports[k], domain.grid))
            for k in chosen
        ]
        if attr == "r0":
            rules[0] = source.rules[chosen[0]]
        flip = attr == "r1" and draw(st.booleans())
        picked = [supports[k] for k in chosen]
        records = [*records, record(attr, picked, rules, source.as_points != flip)]
    return domain, records, length_scale


def check_repeated(domain, records, length_scale):
    """A table whose records repeat supports matches the dense oracles;
    the rows of one support are bitwise equal in ``S``, ``dS``,
    ``at_points`` and ``cross``; and the table integrates only the
    distinct supports."""
    check_against_oracle(domain, records, length_scale)
    dd = domain_data(domain, records)
    check_cross(dd, length_scale)
    table, grid = dd.cov, domain.grid
    keys = support_keys(domain, records)
    S, dS = table.latent_cov(length_scale, with_grad=True)
    x = np.column_stack([np.linspace(lo, hi, 4) for lo, hi in domain.extent])
    cells = csr_matrix(np.eye(grid.n_points))
    outputs = (
        S, dS, table.at_points(x, length_scale), table.cross(cells, length_scale)
    )
    first = {}
    for r, key in enumerate(keys):
        k = first.setdefault(key, r)
        for out in outputs:
            assert out[r].tobytes() == out[k].tobytes()
    assert len(first) < len(keys)
    kinds = [key[0] for key in first]
    distinct = {kind: kinds.count(kind) for kind in ("closed", "grid", "point")}
    assert table.n == len(first)
    # Each kind is one block of distinct rows: grid, closed form, point.
    bounds = {
        "grid": (0, table.n_grid),
        "closed": (table.n_grid, table.n_weighted),
        "point": (table.n_weighted, table.n),
    }
    for key, k in zip(keys, table.index):
        lo, hi = bounds[key[0]]
        assert lo <= k < hi
    assert table.closed_bounds[0].shape[0] == distinct["closed"]
    assert table.centroids.shape[0] == distinct["point"]
    assert (0 if table.A is None else table.A.matrix.shape[0]) == distinct["grid"]
    assert (table.A is None) == (distinct["grid"] == 0)


class TestRepeatedSupports:
    """Records that repeat supports across attributes, as the paper's
    datasets do (attributes sharing districts, tracts or station hours):
    each distinct support is integrated once and gathered to its rows."""

    @PROPERTY
    @given(world=with_repeats(interval_worlds()))
    def test_closed_form_and_sum_rule_intervals(self, world):
        check_repeated(*world)

    @PROPERTY
    @given(world=st.sampled_from([1, 2, 3]).flatmap(
        lambda ndim: with_repeats(cell_set_worlds(ndim))
    ))
    def test_cell_sets_on_one_two_and_three_axes(self, world):
        check_repeated(*world)

    @PROPERTY
    @given(world=with_repeats(point_worlds()))
    def test_point_observations(self, world):
        check_repeated(*world)

    @PROPERTY
    @given(world=with_repeats(mixed_kind_worlds()))
    def test_mixed_kind_tables(self, world):
        check_repeated(*world)

    def test_same_cells_under_sum_and_average_stay_two_rows(self):
        grid = GridSpec(origin=(0.5, 0.5), cell_size=(1.0, 1.0), shape=(3, 3))
        domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
        support = cells_support([0, 1, 4], "s")
        records = [record("a0", [support], [AVERAGE]), record("a1", [support], [SUM])]
        assert domain_data(domain, records).cov.n == 2
        check_against_oracle(domain, records, 0.8)

    def test_interval_under_average_and_sum_stay_two_rows(self):
        grid = GridSpec(origin=(0.125,), cell_size=(0.25,), shape=(8,))
        domain = Domain(id="d0", extent=((0.0, 2.0),), grid=grid)
        support = interval_support(0.3, 1.2, "s")
        records = [record("a0", [support], [AVERAGE]), record("a1", [support], [SUM])]
        table = domain_data(domain, records).cov
        assert (table.n_grid, table.n_weighted - table.n_grid) == (1, 1)
        check_against_oracle(domain, records, 0.8)

    def test_point_rows_with_one_centroid_share_a_row(self):
        grid = GridSpec(origin=(0.125,), cell_size=(0.25,), shape=(8,))
        domain = Domain(id="d0", extent=((0.0, 2.0),), grid=grid)
        wide, narrow = interval_support(0.0, 2.0, "w"), interval_support(0.5, 1.5, "n")
        records = [
            record("a0", [wide], [AVERAGE], as_points=True),
            record("a1", [narrow], [SUM], as_points=True),
        ]
        table = domain_data(domain, records).cov
        assert table.n == 1 and table.index.tolist() == [0, 0]
        check_against_oracle(domain, records, 0.8)


class TestClosedFormIsBitIdentical:
    """Closed-form entries gather F from distinct ``|z|``; that is exact
    only because F is even and scipy's erf is bitwise odd."""

    def test_entries_equal_double_interval_pair_by_pair(self):
        grid = GridSpec(origin=(1.0 / 64,), cell_size=(1.0 / 32,), shape=(96,))
        domain = Domain(id="d0", extent=((0.0, 3.0),), grid=grid)
        records = []
        for attr, n_bins in (("a0", 9), ("a1", 20), ("a2", 7)):
            edges = np.linspace(0.0, 3.0, n_bins + 1)
            supports = [
                interval_support(lo, hi, f"{attr}b{k}")
                for k, (lo, hi) in enumerate(zip(edges, edges[1:]))
            ]
            records.append(record(attr, supports, [AVERAGE] * n_bins))
        table = domain_data(domain, records).cov
        bodies = [s.body for r in records for s in r.partition.supports]
        lo = np.array([b.lo for b in bodies])[:, None]
        hi = np.array([b.hi for b in bodies])[:, None]
        for length_scale in (0.013, 0.08, 0.3, 2.5):
            expected = se_double_interval(lo, hi, lo.T, hi.T, length_scale) * (
                1.0 / ((hi - lo) * (hi - lo).T)
            )
            assert np.array_equal(table.latent_cov(length_scale), expected)

    def test_erf_is_bitwise_odd(self):
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [
                rng.standard_normal(200_000) * 10.0 ** rng.integers(-8, 3, 200_000),
                np.linspace(0.0, 8.0, 100_001),
                [0.0, 5e-324, 1e-300, 0.5, 1.0, 6.0, 30.0, np.inf],
            ]
        )
        assert np.array_equal((-erf(x)).view(np.int64), erf(-x).view(np.int64))


def test_interval_without_a_grid_centre_is_refused():
    """A closed-form row never touches the grid's weight rows, but an
    average-rule interval that holds no cell centre is still refused."""
    grid = GridSpec(origin=(0.0625,), cell_size=(0.125,), shape=(16,))
    domain = Domain(id="d0", extent=((0.0, 2.0),), grid=grid)
    supports = [
        interval_support(0.0, 0.05, "thin"), interval_support(0.05, 2.0, "rest")
    ]
    dataset = AggregatedDataset(
        {"d0": domain}, ("a0",), [record("a0", supports, [AVERAGE, AVERAGE])]
    )
    with pytest.raises(EmptySupport, match="thin"):
        dataset.prepared("d0")


def test_closed_form_fit_never_loads_scipy_sparse():
    """Only grid supports need the sparse weight matrix; a process that
    fits closed-form intervals and point observations alone must not pay
    for scipy.sparse."""
    script = """
import sys
import numpy as np
import aggmogp, aggmogp.cli
from aggmogp import geometry, inference, model

grid = geometry.GridSpec(origin=(0.0625,), cell_size=(0.125,), shape=(16,))
dom = geometry.Domain(id="d0", extent=((0.0, 2.0),), grid=grid)
part = geometry.interval_bins(dom, "a0", 4)
rec = model.DatasetRecord("d0", "a0", part, model.uniform_rules(part),
                          np.array([1.0, 2.0, 0.5, 1.5]))
bins = geometry.interval_bins(dom, "a1", 3)
pts = model.DatasetRecord("d0", "a1", bins, model.uniform_rules(bins),
                          np.array([0.4, -0.3, 0.8]), as_points=True)
ds = model.AggregatedDataset({"d0": dom}, ("a0", "a1"), (rec, pts))
config = inference.TrainConfig(max_iters=3, seed=0)
inference.fit(ds, config, model.init_state(ds, 1, seed=0))
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aggmogp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


@st.composite
def covariance_draws(draw):
    """Random supports and rules with a random weight draw, length
    scales and noise variances."""
    domain, records, _ = draw(
        st.one_of(
            cell_set_worlds(1), cell_set_worlds(2), interval_worlds(), point_worlds()
        )
    )
    L = draw(st.integers(1, 3))
    scales = [draw(st.floats(0.3, 4.0)) for _ in range(L)]
    W = np.array([[draw(st.floats(-3.0, 3.0)) for _ in range(L)] for _ in records])
    noise = np.array([draw(st.floats(1e-3, 1.0)) for _ in records])
    return domain, records, scales, W, noise


class TestAssembledCovariance:
    """``C`` is exactly symmetric, its noise-free part is positive
    semidefinite, and it factors at the base jitter, so every diagonal
    entry of ``C⁻¹`` that leave-one-out divides by is positive."""

    @PROPERTY
    @given(draw=covariance_draws())
    def test_symmetric_and_factors_at_base_jitter(self, draw):
        domain, records, scales, W, noise = draw
        dd = domain_data(domain, records)
        latents = [dd.cov.latent_cov(s) for s in scales]
        C = assemble_from_latents(dd, W, latents, np.log(noise))
        np.testing.assert_array_equal(C, C.T)
        signal = C - np.diag(dd.expand_rows(floor_var(np.log(noise))))
        bound = 1e-12 * dd.n_obs * np.max(np.abs(C))
        assert np.linalg.eigvalsh(signal).min() >= -bound
        _, jitter = chol_with_jitter(C)
        assert jitter == JITTER_BASE * np.mean(np.diag(C))

    @PROPERTY
    @given(world=mixed_kind_worlds())
    def test_mixed_kind_tables_are_exactly_symmetric(self, world):
        """Closed-form, grid and point rows in one table give exactly
        symmetric ``S`` and ``dS``, so assembly needs no symmetrization."""
        domain, records, length_scale = world
        table = domain_data(domain, records).cov
        assert 0 < table.n_grid < table.n_weighted < table.n
        S, dS = table.latent_cov(length_scale, with_grad=True)
        np.testing.assert_array_equal(S, S.T)
        np.testing.assert_array_equal(dS, dS.T)
        check_against_oracle(domain, records, length_scale)


class TestOneMeaningOfAClosedFormRow:
    """A closed-form row is its interval's exact integral against every
    row, so ``S`` and the joint prior with the cell values are Gram
    matrices of linear functionals of one process."""

    def test_mixed_line_is_positive_semidefinite_and_factors(self):
        """Average-rule intervals beside a sum-rule interval on a line of
        three cells of size 2: were a closed-form row its member cells
        against the sum-rule row, ``S`` would have an eigenvalue near
        -0.25 and ``C`` would not factor at any jitter."""
        grid = GridSpec(origin=(0.0,), cell_size=(2.0,), shape=(3,))
        domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
        averaged = [interval_support(-0.5, 0.5, "i0"), interval_support(1.5, 4.5, "i1")]
        records = [
            record("a0", averaged, [AVERAGE, AVERAGE]),
            record("a1", [interval_support(-0.5, 4.5, "s")], [SUM]),
        ]
        dd = domain_data(domain, records)
        S = dd.cov.latent_cov(0.3125)
        assert np.linalg.eigvalsh(S).min() >= -1e-12 * np.max(np.abs(S))
        C = assemble_from_latents(dd, np.ones((2, 1)), [S], np.log([0.0078, 0.0625]))
        _, jitter = chol_with_jitter(C)
        assert jitter == JITTER_BASE * np.mean(np.diag(C))
        check_against_oracle(domain, records, 0.3125)

    @PROPERTY
    @given(world=mixed_kind_worlds())
    def test_joint_prior_with_cells_is_positive_semidefinite(self, world):
        """``[[S, h], [hᵀ, K]]`` with ``h`` the rows' integrals against
        every cell (``cross`` with one-hot rows) and ``K`` the cell gram."""
        domain, records, length_scale = world
        table = domain_data(domain, records).cov
        S = table.latent_cov(length_scale)
        h = table.cross(csr_matrix(np.eye(domain.grid.n_points)), length_scale)
        K = se_gram(domain.grid.points, length_scale)
        joint = np.block([[S, h], [h.T, K]])
        assert np.linalg.eigvalsh(joint).min() >= -1e-12 * np.max(np.abs(S))


def budget_for(domain_data, terms):
    """A ``model.WORK_BYTES`` that gives ``cross`` blocks of ``terms``
    terms: per term, a column over the grid cells and its product with a
    left of one row per cell."""
    return terms * 16 * domain_data.domain.grid.n_points


class RecordingLeft:
    """A sparse ``left`` for ``cross`` that records the column count of
    every dense block it multiplies, in order."""

    def __init__(self, matrix):
        self.matrix, self.shape, self.widths = matrix, matrix.shape, []

    def __matmul__(self, dense):
        self.widths.append(dense.shape[1])
        return self.matrix @ dense


def labelled_supports(rng, n_cells, n_groups, prefix):
    """Cell-set supports from a random labelling of the grid cells."""
    labels = rng.integers(0, n_groups, n_cells)
    return [
        cells_support(np.flatnonzero(labels == g).tolist(), f"{prefix}{g}")
        for g in np.unique(labels)
    ]


def custom_rules(rng, supports, grid):
    return [
        AggregationRule(
            AggregationRule.CUSTOM,
            tuple(rng.uniform(-2.0, 2.0, membership(s, grid).size)),
        )
        for s in supports
    ]


def cell_set_world(shape, seed, points=False):
    """Average, sum and custom-rule cell sets; with ``points`` the sum
    record is observed at its support centroids instead."""
    rng = np.random.default_rng(seed)
    ndim = len(shape)
    grid = GridSpec(
        origin=tuple(rng.uniform(-1.0, 1.0, ndim)),
        cell_size=tuple(rng.uniform(0.3, 1.2, ndim)),
        shape=shape,
    )
    domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
    n = grid.n_points
    avg = labelled_supports(rng, n, 6, "a")
    summed = labelled_supports(rng, n, 5, "s")
    custom = labelled_supports(rng, n, 5, "c")
    records = [
        record("a0", avg, [AVERAGE] * len(avg)),
        record("a1", summed, [SUM] * len(summed), as_points=points),
        record("a2", custom, custom_rules(rng, custom, grid)),
    ]
    return domain, records


def line_world(seed):
    """Closed-form intervals meeting sum-rule intervals, custom-rule cell
    sets and centroid points on one line."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(origin=(0.0625,), cell_size=(0.125,), shape=(48,))
    domain = Domain(id="d0", extent=((0.0, 6.0),), grid=grid)

    def bins(attr, n):
        edges = np.linspace(0.0, 6.0, n + 1)
        return [
            interval_support(lo, hi, f"{attr}{k}")
            for k, (lo, hi) in enumerate(zip(edges, edges[1:]))
        ]

    closed, summed, points = bins("a", 8), bins("s", 6), bins("p", 4)
    custom = labelled_supports(rng, grid.n_points, 5, "c")
    records = [
        record("a0", closed, [AVERAGE] * 8),
        record("a1", summed, [SUM] * 6),
        record("a2", custom, custom_rules(rng, custom, grid)),
        record("a3", points, [AVERAGE] * 4, as_points=True),
    ]
    return domain, records


CHUNKED_WORLDS = {
    "plane": lambda: cell_set_world((9, 7), 1),
    "cube": lambda: cell_set_world((5, 4, 3), 2),
    "plane_with_points": lambda: cell_set_world((8, 6), 3, points=True),
    "line_with_closed_forms": lambda: line_world(4),
}


def ragged_block(n_terms):
    """The smallest block of at least two terms that splits ``n_terms``
    into three or more blocks, the last narrower than the rest."""
    for size in range(2, n_terms):
        if -(-n_terms // size) >= 3 and n_terms % size:
            return size
    raise AssertionError(f"{n_terms} terms have no ragged split")


class TestChunkedOperator:
    """``cross`` builds the grid rows' columns of ``K Aᵀ`` a few terms at a
    time; across block boundaries, with a row's terms split between
    blocks, it equals the whole-grid oracles, and so does ``latent_cov``
    at the same ``WORK_BYTES``."""

    @pytest.mark.parametrize("world", sorted(CHUNKED_WORLDS))
    @pytest.mark.parametrize("ragged", [True, False])
    def test_latent_cov_and_grid_cross(self, world, ragged):
        domain, records = CHUNKED_WORLDS[world]()
        dd = domain_data(domain, records)
        # The grid rows' terms lead the terms (``ptr``, a row's offset).
        n_terms = dd.cov.terms[0][3][dd.cov.n_grid]
        size = ragged_block(n_terms) if ragged else 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "WORK_BYTES", budget_for(dd, size))
            for length_scale in (0.4, 1.3):
                S, dS = dd.cov.latent_cov(length_scale, with_grad=True)
                S_o, dS_o, scale = oracle_latent_cov(domain, records, length_scale)
                np.testing.assert_allclose(S, S_o, rtol=TOL, atol=TOL * scale)
                np.testing.assert_allclose(dS, dS_o, rtol=TOL, atol=TOL * scale)
                np.testing.assert_array_equal(S, dd.cov.latent_cov(length_scale))
                check_cross(dd, length_scale)
            cells = csr_matrix(np.eye(domain.grid.n_points))
            left = RecordingLeft(cells)
            np.testing.assert_array_equal(
                dd.cov.cross(left, 0.4), dd.cov.cross(cells, 0.4)
            )
        # The last product is the other rows' integrals at the cells.
        blocks = left.widths[:-1]
        assert len(blocks) >= 3 and sum(blocks) == n_terms
        assert blocks[:-1] == [size] * (len(blocks) - 1)
        if ragged:
            assert 1 <= blocks[-1] < size
        # Every row of a line is one term; elsewhere some row's terms
        # straddle two blocks.
        row = dd.cov.terms[0][5]
        starts = np.arange(size, n_terms, size)
        assert np.any(row[starts - 1] == row[starts]) == (domain.ndim > 1)


class TestAllGridTableIsBitIdentical:
    """A table whose rows are all grid rows writes the averaged
    ``A K Aᵀ`` into ``S`` and ``dS`` by slices; that equals, byte for
    byte, averaging the block and scattering it by ``np.ix_``, over 1-,
    2- and 3-D grids and any ``WORK_BYTES``."""

    @PROPERTY
    @given(
        world=st.sampled_from([1, 2, 3]).flatmap(cell_set_worlds),
        terms=st.integers(2, 12),
    )
    def test_latent_cov_equals_scattered_average(self, world, terms):
        domain, records, length_scale = world
        dd = domain_data(domain, records)
        assert dd.cov.n_grid == dd.cov.n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "WORK_BYTES", budget_for(dd, terms))
            S, dS = dd.cov.latent_cov(length_scale, with_grad=True)
            S_o, dS_o = scattered_grid_cov(dd.cov, length_scale)
        assert S.tobytes() == S_o.tobytes()
        assert dS.tobytes() == dS_o.tobytes()


def row_terms(table, r):
    """The terms of row r of ``table.A``, and each term's leading cells."""
    _, cells, at, ptr = table.terms[0][:4]
    terms = np.arange(ptr[r], ptr[r + 1])
    return terms, [cells[at[t] : at[t + 1]] for t in terms]


class TestRankOneTerms:
    """Each grid weight row is a sum of rank-one terms ``lead ⊗ last``
    over (leading-axes cells) ⊗ (last axis): its byte-identical fibres
    merge into one term."""

    @PROPERTY
    @given(world=st.sampled_from([1, 2, 3]).flatmap(cell_set_worlds))
    def test_terms_rebuild_every_row(self, world):
        """Each term writes its last part at every one of its leading
        cells; the terms of a row cover disjoint leading cells and have
        byte-distinct last parts, and they rebuild the row bit for bit."""
        domain, records, _ = world
        table = domain_data(domain, records).cov
        last = table.terms[0][0]
        rebuilt = np.zeros(table.A.matrix.shape)
        for r, out in enumerate(rebuilt):
            terms, cells = row_terms(table, r)
            assert np.unique(np.concatenate(cells)).size == sum(c.size for c in cells)
            assert len({last[t].tobytes() for t in terms}) == terms.size
            for t, c in zip(terms, cells):
                out.reshape(-1, domain.grid.shape[-1])[c] = last[t]
        # The matrix's entries written as they are (toarray adds them to
        # zeros, which turns a -0.0 weight into 0.0).
        A = table.A.matrix
        want = np.zeros(A.shape)
        want[np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices] = A.data
        assert rebuilt.tobytes() == want.tobytes()

    @PROPERTY
    @given(data=st.data())
    def test_every_block_is_one_term(self, data):
        """Every ``grid_block_partition`` box, ragged ones at the high
        edges too, is one term under the average and sum rules."""
        domain = data.draw(st.sampled_from([1, 2, 3]).flatmap(grid_domains))
        shape = tuple(data.draw(st.integers(1, n)) for n in domain.grid.shape)
        part = grid_block_partition(domain, "a0", shape)
        rule = data.draw(st.sampled_from((AVERAGE, SUM)))
        rec = record("a0", part.supports, uniform_rules(part, rule))
        table = domain_data(domain, [rec]).cov
        assert table.terms[0][0].shape[0] == table.n == len(part.supports)


def nearest_centre_supports(grid, n_centres, rng, prefix):
    """The cells nearest each of ``n_centres`` random centres, as cell-set
    supports; a centre nearest to no cell gives none."""
    lo = np.asarray(grid.origin) - 0.5 * np.asarray(grid.cell_size)
    hi = lo + np.asarray(grid.cell_size) * np.asarray(grid.shape)
    centres = rng.uniform(lo, hi, (n_centres, grid.ndim))
    labels = np.argmin(
        ((grid.points[:, None, :] - centres[None]) ** 2).sum(axis=2), axis=1
    )
    return [
        cells_support(np.flatnonzero(labels == g).tolist(), f"{prefix}{g}")
        for g in np.unique(labels)
    ]


def region_world(shape, seed):
    """Contiguous regions on one seeded grid: boxes under the average
    rule, whose fibres merge into one term; L-shapes (each box of a
    coarser tiling less its high corner) under the sum rule, into two;
    nearest-centre regions under the average rule, into as many terms as
    they have distinct fibres; and the same regions under negative
    custom weights, whose fibres never merge."""
    rng = np.random.default_rng(seed)
    ndim = len(shape)
    grid = GridSpec(
        origin=tuple(rng.uniform(-1.0, 1.0, ndim)),
        cell_size=tuple(rng.uniform(0.3, 1.2, ndim)),
        shape=shape,
    )
    domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
    boxes = grid_block_partition(domain, "a0", (2,) * ndim).supports
    index = np.indices(shape).reshape(ndim, -1)
    l_shapes = []
    for k, box in enumerate(grid_block_partition(domain, "a1", (4,) * ndim).supports):
        cells = np.asarray(box.body.cells)
        corner = np.all(index[:, cells] % 4 >= 2, axis=0)
        l_shapes.append(cells_support(cells[~corner].tolist(), f"l{k}"))
    regions = nearest_centre_supports(grid, 6, rng, "v")
    weights = [
        AggregationRule(
            AggregationRule.CUSTOM,
            tuple(rng.uniform(-2.0, -0.5, membership(s, grid).size)),
        )
        for s in regions
    ]
    records = [
        record("a0", boxes, [AVERAGE] * len(boxes)),
        record("a1", l_shapes, [SUM] * len(l_shapes)),
        record("a2", regions, [AVERAGE] * len(regions)),
        record("a3", regions, weights),
    ]
    return domain, records


class TestPartialMerges:
    """Rows whose fibres merge into one term, into a few, or not at all
    equal the dense oracles in ``latent_cov`` and ``cross``, with the
    blocks the default ``WORK_BYTES`` gives and with the smallest: one
    row per block of ``grid_block``, one term per block of ``cross``."""

    @pytest.mark.parametrize("shape, seed", [((11, 9), 7), ((6, 5, 7), 8)])
    @pytest.mark.parametrize("smallest_blocks", [False, True])
    def test_against_oracle(self, shape, seed, smallest_blocks):
        domain, records = region_world(shape, seed)
        dd = domain_data(domain, records)
        table = dd.cov
        merges = set()
        for r in range(table.n):
            terms, cells = row_terms(table, r)
            fibres = sum(c.size for c in cells)
            if fibres > 1:
                merges.add("one" if terms.size == 1 else
                           "none" if terms.size == fibres else "some")
        assert merges == {"one", "some", "none"}
        with pytest.MonkeyPatch.context() as mp:
            if smallest_blocks:
                mp.setattr(model, "WORK_BYTES", 1)
            for length_scale in (0.5, 2.0):
                check_against_oracle(domain, records, length_scale)
                check_cross(dd, length_scale)


class TestTrainingWorkArrays:
    """Training takes its grid covariances from the rows' terms a block of
    rows at a time, so their temporaries stay within about two
    ``WORK_BYTES``."""

    def test_peak_memory_within_outputs_and_two_budgets(self):
        grid = GridSpec(origin=(0.5, 0.5), cell_size=(1.0, 1.0), shape=(64, 64))
        domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
        supports = nearest_centre_supports(grid, 256, np.random.default_rng(0), "v")
        table = domain_data(domain, [record("a0", supports, [AVERAGE] * 255)]).cov
        assert table.n == 255 and table.terms[0][0].shape[0] >= 900
        tracemalloc.start()
        try:
            S, dS = table.latent_cov(12.8, with_grad=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= S.nbytes + dS.nbytes + 2 * model.WORK_BYTES


def check_cross(dd, length_scale):
    """``cross`` against dense oracles for two kinds of ``left``: one-hot
    rows of shuffled cells, and average, sum and negative custom weight
    rows; then ``at_points`` (:func:`check_at_points`). Grid and point
    rows are ``W K leftᵀ`` from the dense weight rows over grid points and
    centroids; closed-form rows pool the erf integral of their interval at
    the cells with ``left``."""
    domain, grid = dd.domain, dd.domain.grid
    rng = np.random.default_rng(0)
    cells = rng.permutation(grid.n_points)[: grid.n_points // 2]
    one_hot = np.zeros((cells.size, grid.n_points))
    one_hot[np.arange(cells.size), cells] = 1.0
    groups = [np.sort(g) for g in np.array_split(rng.permutation(grid.n_points), 3)]
    custom = rng.uniform(-2.0, -0.5, groups[2].size)
    rules = [AVERAGE, SUM, AggregationRule(AggregationRule.CUSTOM, tuple(custom))]
    weighted = np.zeros((3, grid.n_points))
    for row, (group, weights) in enumerate(
        zip(groups, [1.0 / groups[0].size, 1.0, custom])
    ):
        weighted[row, group] = weights
    # A grid of two cells leaves the last group empty; it is dropped.
    n_groups = sum(g.size > 0 for g in groups)
    groups, rules, weighted = groups[:n_groups], rules[:n_groups], weighted[:n_groups]
    targets = [cells_support(g.tolist(), f"t{k}") for k, g in enumerate(groups)]
    lefts = [
        (one_hot, csr_matrix(one_hot)),
        (weighted, model.weight_rows(domain, targets, rules).matrix),
    ]
    W, points = dense_weight_rows(domain, dd.records)
    diff = points[:, None, :] - grid.points[None, :, :]
    K = np.exp(-(diff * diff).sum(axis=2) / (2.0 * length_scale**2))
    intervals = closed_form_rows(domain, dd.records)
    for dense, left in lefts:
        want = W @ K @ dense.T
        for r, iv in enumerate(intervals):
            if iv is not None:
                x = grid.points[:, 0]
                want[r] = dense @ se_point_interval(x, iv.lo, iv.hi, length_scale)
                want[r] /= iv.length
        scale = float(np.max(np.abs(W) @ K @ np.abs(dense).T))
        got = dd.cov.cross(left, length_scale)
        np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL * scale)
    check_at_points(dd, length_scale)


class TestSharedWorkArrays:
    """Concurrent callers of one table, training's covariances and
    prediction's cross covariances among them, get the results of
    sequential calls: calls share only the table's terms, which they
    read, and keep no work arrays between them."""

    def test_threads_match_sequential_calls(self):
        domain, records = cell_set_world((12, 10), 5)
        rng = np.random.default_rng(5)
        records = [
            replace(r, values=rng.standard_normal(r.values.size)) for r in records
        ]
        dataset = AggregatedDataset({"d0": domain}, ("a0", "a1", "a2"), records)
        state = init_state(dataset, 2, seed=0)
        table = dataset.prepared("d0").cov
        scales = (0.5, 0.9, 1.7)

        def covariances():
            return [table.latent_cov(s, with_grad=True) for s in scales]

        def grid():
            return predict_grid(state, dataset, "d0", "a0", 3, seed=1)

        # Three threads on two cores, switching often, over many blocks.
        jobs = [(covariances, 30), (covariances, 30), (grid, 10)]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def run(job, repeats, out):
            start.wait()
            out.extend(job() for _ in range(repeats))

        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "WORK_BYTES", budget_for(dataset.prepared("d0"), 2))
            want = {covariances: covariances(), grid: grid()}
            threads = [
                threading.Thread(target=run, args=(job, repeats, out))
                for (job, repeats), out in zip(jobs, results)
            ]
            try:
                sys.setswitchinterval(1e-6)
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (job, repeats), out in zip(jobs, results):
            assert len(out) == repeats
            for got in out:
                for g, w in zip(flat_arrays(got), flat_arrays(want[job])):
                    np.testing.assert_array_equal(g, w)


def flat_arrays(result):
    """The arrays of a ``latent_cov`` list or a ``predict_grid`` tuple."""
    if isinstance(result, tuple):
        return [np.asarray(r) for r in result]
    return [a for pair in result for a in pair]


class TestTargetDiagonal:
    """``WeightRows.diagonal`` sums the kernel over pairs of cells within
    each row, one fibre pair at a time, and equals the diagonal of the
    dense ``A K Aᵀ`` without building ``K Aᵀ``."""

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_product_diagonal(self, ndim, data):
        domain = data.draw(grid_domains(ndim))
        n = domain.grid.n_points
        labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        groups = sorted(set(labels) - {0}) or [0]
        supports = [
            cells_support([i for i, lab in enumerate(labels) if lab == g], f"t{g}")
            for g in groups
        ]
        rules = [data.draw(st.sampled_from((AVERAGE, SUM))) for _ in supports]
        # Three decades of length scale, in units of the smallest cell.
        scale = 10.0 ** data.draw(st.floats(-1.0, 2.0)) * min(domain.grid.cell_size)
        rows = model.weight_rows(domain, supports, rules)
        points = domain.grid.points
        diff = points[:, None, :] - points[None, :, :]
        K = np.exp(-(diff * diff).sum(axis=2) / (2.0 * scale**2))
        A = rows.matrix.toarray()
        want = np.diagonal(A @ K @ A.T)
        np.testing.assert_allclose(rows.diagonal(scale), want, rtol=1e-13, atol=0)

    def test_peak_memory_below_product(self):
        # One support over a 256 x 256 grid: 256 fibres of 256 cells.
        grid = GridSpec(origin=(0.5, 0.5), cell_size=(1.0, 1.0), shape=(256, 256))
        domain = Domain(id="d0", extent=grid.extent_box(), grid=grid)
        support = cells_support(range(grid.n_points), "all")
        rows = model.weight_rows(domain, [support], [AVERAGE])
        # The arrays ``diagonal``'s docstring names, in bytes: per axis
        # its squared distances and gram, the fibres' product with the
        # last gram and the two gathers of a batch's fibres, and per row
        # its fibre pairs and one gathered block of leading-axes gram
        # entries (Σ_r k_r² each). Twice that bounds the peak; summed
        # pairs that grew with the last axis's length too would take
        # 256 times the pairs' share, 128 MiB here.
        k = np.bincount(rows.fibre_row)
        named = (
            16 * sum(n * n for n in grid.shape)
            + 3 * rows.fibres.nbytes
            + 16 * int(np.sum(k * k))
        )
        tracemalloc.start()
        try:
            rows.diagonal(40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * named
