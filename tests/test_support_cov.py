"""Support covariances against explicit aggregation matrices.

``SupportCovTable.latent_cov`` builds ``S_l`` from per-axis kernel
factors, a sparse weight matrix and distinct-argument closed forms, and
``cross`` and ``at_points`` the integrals against weight rows and at
points. The oracle here shares none of that: it writes every
observation row as a dense weight row over the grid points and the
support centroids, builds the full gram over those points, and takes
``W K Wᵀ``; pairs of closed-form rows (1-D intervals with the average
rule) take the erf double integral pair by pair.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import cells_support, interval_support
from hypothesis import given, settings
from hypothesis import strategies as st
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
    membership,
    weight_vector,
)
from aggmogp.kernels import se_antideriv2_dlog, se_double_interval, se_point_interval
from aggmogp.model import (
    JITTER_BASE,
    AggregatedDataset,
    DatasetRecord,
    DomainData,
    assemble_from_latents,
    chol_with_jitter,
    floor_var,
    init_state,
)
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
                rows.append(("grid", members, weight_vector(support, grid, rule)))
    points = np.vstack([grid.points] + [c[None, :] for c in centroids])
    W = np.zeros((len(rows), points.shape[0]))
    for r, row in enumerate(rows):
        if row[0] == "point":
            W[r, grid.n_points + row[1]] = 1.0
        else:
            W[r, row[1]] = row[2]
    return W, points


def oracle_latent_cov(domain, records, length_scale):
    """``(S, dS, scale)`` from dense weight rows over grid points and centroids.

    ``scale`` is the largest entry of ``|W| K |W|ᵀ``, the size of the
    terms each entry sums, against which cancellation is measured.
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
    fits closed-form intervals alone must not pay for scipy.sparse."""
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
ds = model.AggregatedDataset({"d0": dom}, ("a0",), (rec,))
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
        assert table.closed_rows.size and table.grid_rows.size
        assert table.point_rows.size
        S, dS = table.latent_cov(length_scale, with_grad=True)
        np.testing.assert_array_equal(S, S.T)
        np.testing.assert_array_equal(dS, dS.T)
        check_against_oracle(domain, records, length_scale)


def budget_for(domain_data, width):
    """A ``model.WORK_BYTES`` that gives the table's chunks ``width``
    columns: the fibre products, then ``width`` columns of every work
    row (two scatter targets, a scratch, ping-pong pairs)."""
    A = domain_data.cov.A
    rows = 3 + 2 * min(domain_data.domain.ndim - 1, 2)
    return 2 * A.fibres.nbytes + rows * domain_data.domain.grid.n_points * 8 * width


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


def ragged_width(n_cols):
    """The narrowest width of at least two columns that splits ``n_cols``
    into three or more chunks, the last of two or more columns but
    narrower than the rest."""
    for width in range(2, n_cols):
        if -(-n_cols // width) >= 3 and n_cols % width >= 2:
            return width
    raise AssertionError(f"{n_cols} columns have no ragged split")


class TestChunkedOperator:
    """``K Aᵀ`` built a few columns at a time, across chunk boundaries,
    equals the whole-grid oracles."""

    @pytest.mark.parametrize("world", sorted(CHUNKED_WORLDS))
    @pytest.mark.parametrize("ragged", [True, False])
    def test_latent_cov_and_grid_cross(self, world, ragged):
        domain, records = CHUNKED_WORLDS[world]()
        n_cols = domain_data(domain, records).cov.grid_rows.size
        # A width of two leaves a last chunk of one column on an odd
        # count; that chunk then repeats a column of the one before.
        width = ragged_width(n_cols) if ragged else 2
        dd = domain_data(domain, records)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "WORK_BYTES", budget_for(dd, width))
            for length_scale in (0.4, 1.3):
                S, dS = dd.cov.latent_cov(length_scale, with_grad=True)
                S_o, dS_o, scale = oracle_latent_cov(domain, records, length_scale)
                np.testing.assert_allclose(S, S_o, rtol=TOL, atol=TOL * scale)
                np.testing.assert_allclose(dS, dS_o, rtol=TOL, atol=TOL * scale)
                np.testing.assert_array_equal(S, dd.cov.latent_cov(length_scale))
                check_cross(dd, length_scale)
        widths = [cols.stop - cols.start for cols, _, _ in dd.cov.A._work[2]]
        assert len(widths) >= 3 and min(widths) >= 2
        assert widths[:-1] == [width] * (len(widths) - 1)
        if ragged:
            assert 2 <= widths[-1] < width
        assert max(cols.stop for cols, _, _ in dd.cov.A._work[2]) == n_cols


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
    """Concurrent callers of one table take turns with its work arrays."""

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

        # Three threads on two cores, switching often, over many chunks.
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
