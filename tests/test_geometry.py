import numpy as np
import pytest
from conftest import cells_support, interval_support, unit_grid_domain
from hypothesis import given, settings
from hypothesis import strategies as st

from aggmogp import geometry
from aggmogp.errors import (
    DegenerateInterval,
    DimensionMismatch,
    EmptyPartition,
    EmptySupport,
    GeometryError,
    LengthMismatch,
    OutOfBounds,
    OverlapError,
)
from aggmogp.geometry import (
    AVERAGE,
    SUM,
    AggregationRule,
    CellSet,
    Domain,
    GridSpec,
    Interval,
    Partition,
    Support,
    centroid,
    grid_block_partition,
    interval_bins,
    membership,
    support_weights,
    validate,
)


def integer_grid(n=8, origin=0.0):
    return GridSpec(origin=(origin,), cell_size=(1.0,), shape=(n,))


class TestGridSpec:
    def test_points_1d(self):
        grid = integer_grid(8)
        np.testing.assert_array_equal(grid.points[:, 0], np.arange(8.0))

    def test_points_2d_c_order(self):
        grid = GridSpec(origin=(0.0, 0.0), cell_size=(1.0, 0.5), shape=(2, 3))
        # C order: the last axis varies fastest.
        expected = [
            (0.0, 0.0),
            (0.0, 0.5),
            (0.0, 1.0),
            (1.0, 0.0),
            (1.0, 0.5),
            (1.0, 1.0),
        ]
        np.testing.assert_allclose(grid.points, expected)

    def test_extent_box_is_cell_union(self):
        grid = integer_grid(8)
        assert grid.extent_box() == ((-0.5, 7.5),)

    def test_cell_coords_bounds(self):
        grid = integer_grid(4)
        with pytest.raises(OutOfBounds):
            grid.cell_coords([4])

    def test_invalid_cell_size(self):
        with pytest.raises(GeometryError):
            GridSpec(origin=(0.0,), cell_size=(0.0,), shape=(4,))

    def test_mismatched_axes(self):
        with pytest.raises(DimensionMismatch):
            GridSpec(origin=(0.0, 0.0), cell_size=(1.0,), shape=(4,))


class TestIntegerEntries:
    def test_n_points_is_exact(self):
        # numpy's product of the shape wraps at 2**64.
        grid = GridSpec(origin=(0.0, 0.0), cell_size=(1.0, 1.0), shape=(2**32, 2**32))
        assert grid.n_points == 2**64
        assert type(grid.n_points) is int

    @pytest.mark.parametrize("shape", [(2.7,), (48.5,), (4, 3.5)])
    def test_shape_refuses_fractions(self, shape):
        origin = (0.0,) * len(shape)
        with pytest.raises(GeometryError, match="integers"):
            GridSpec(origin=origin, cell_size=(1.0,) * len(shape), shape=shape)

    def test_integral_floats_are_kept(self):
        grid = GridSpec(origin=(0.0,), cell_size=(1.0,), shape=(48.0,))
        assert grid.shape == (48,) and type(grid.shape[0]) is int
        assert CellSet((3.0, 1)).cells == (1, 3)

    @pytest.mark.parametrize("cells", [(0, 1.5), (2.7,)])
    def test_cells_refuse_fractions(self, cells):
        with pytest.raises(GeometryError, match="integers"):
            CellSet(cells)

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_booleans_are_not_counts(self, flag):
        with pytest.raises(GeometryError, match="integers"):
            GridSpec(origin=(0.0,), cell_size=(1.0,), shape=(flag,))
        with pytest.raises(GeometryError, match="integers"):
            CellSet((0, flag))


class TestRealEntries:
    """Every float field of the geometry refuses a value that is no
    number with a GeometryError naming the field."""

    @staticmethod
    def grid(origin=(0.5,), cell_size=(1.0,)):
        return GridSpec(origin=origin, cell_size=cell_size, shape=(4,))

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: TestRealEntries.grid(origin=("a",)), "grid origin"),
            (lambda: TestRealEntries.grid(origin=(None,)), "grid origin"),
            (lambda: TestRealEntries.grid(origin=0.5), "grid origin"),
            (lambda: TestRealEntries.grid(cell_size=([1.0],)), "cell sizes"),
            (lambda: TestRealEntries.grid(cell_size=("x",)), "cell sizes"),
            (lambda: Interval("a", 1.0), "interval bounds"),
            (lambda: Interval(0.0, None), "interval bounds"),
            (lambda: Domain("d0", ((None, 4.0),), TestRealEntries.grid()), "extent"),
            (lambda: Domain("d0", (None,), TestRealEntries.grid()), "extent"),
            (lambda: Domain("d0", (("0", "x"),), TestRealEntries.grid()), "extent"),
            (lambda: Domain("d0", ((0.0, 2.0, 4.0),), TestRealEntries.grid()), "extent"),
        ],
        ids=[
            "origin-str",
            "origin-none",
            "origin-scalar",
            "cell-size-list",
            "cell-size-str",
            "interval-lo-str",
            "interval-hi-none",
            "extent-none-bound",
            "extent-none-axis",
            "extent-str-bound",
            "extent-three-bounds",
        ],
    )
    def test_non_numbers_are_geometry_errors(self, build, field):
        with pytest.raises(GeometryError, match=field):
            build()

    def test_numeric_strings_and_numpy_scalars_convert(self):
        grid = self.grid(origin=("0.5",), cell_size=(np.float32(1.0),))
        assert grid.origin == (0.5,) and grid.cell_size == (1.0,)
        assert Interval(np.int64(0), "2").length == 2.0
        dom = Domain("d0", (np.array([0.0, 4.0]),), grid)
        assert dom.extent == ((0.0, 4.0),) and type(dom.extent[0][0]) is float


class TestDomain:
    def test_grid_must_tile_extent(self):
        grid = integer_grid(8)
        Domain(id="d0", extent=((-0.5, 7.5),), grid=grid)
        with pytest.raises(GeometryError):
            Domain(id="d0", extent=((0.0, 8.0),), grid=grid)

    def test_unit_grid_domain_helper(self):
        dom = unit_grid_domain(10, 0.0, 1.0)
        assert dom.extent == ((0.0, 1.0),)
        assert dom.grid.n_points == 10
        np.testing.assert_allclose(dom.grid.points[0, 0], 0.05)

    def test_axis_span(self):
        dom = unit_grid_domain(16, 0.0, 4.0)
        assert dom.axis_span(0) == 4.0


class TestMembership:
    def test_interval_closed_both_ends(self):
        grid = integer_grid(8)
        s = interval_support(0.0, 4.0, "s")
        np.testing.assert_array_equal(membership(s, grid), [0, 1, 2, 3, 4])

    def test_cellset_identity(self):
        grid = integer_grid(8)
        s = cells_support([5, 2, 7], "s")
        np.testing.assert_array_equal(membership(s, grid), [2, 5, 7])

    def test_empty_interval_raises(self):
        grid = integer_grid(8, origin=1.0)
        s = interval_support(0.0, 0.4, "s")
        with pytest.raises(EmptySupport):
            membership(s, grid)

    def test_interval_on_2d_grid_raises(self):
        grid = GridSpec(origin=(0.0, 0.0), cell_size=(1.0, 1.0), shape=(2, 2))
        with pytest.raises(DimensionMismatch):
            membership(interval_support(0.0, 1.0, "s"), grid)

    def test_cell_index_out_of_grid(self):
        grid = integer_grid(4)
        with pytest.raises(OutOfBounds):
            membership(cells_support([3, 9], "s"), grid)

    def test_membership_sorted(self):
        grid = integer_grid(32)
        rng = np.random.default_rng(7)
        for _ in range(20):
            cells = rng.choice(32, size=rng.integers(1, 10), replace=False)
            got = membership(cells_support(cells, "s"), grid)
            assert np.all(np.diff(got) > 0)


class TestWeightVector:
    """Aggregation weights of :func:`support_weights`, per rule."""

    def test_average(self):
        grid = integer_grid(8)
        s = interval_support(0.0, 4.0, "s")
        w = support_weights(s, grid, AVERAGE)[1]
        np.testing.assert_allclose(w, np.full(5, 0.2))

    def test_sum(self):
        grid = integer_grid(8)
        s = cells_support([1, 2, 3], "s")
        np.testing.assert_array_equal(support_weights(s, grid, SUM)[1], np.ones(3))

    def test_custom(self):
        grid = integer_grid(8)
        s = cells_support([0, 1], "s")
        rule = AggregationRule(AggregationRule.CUSTOM, weights=(0.25, 0.75))
        np.testing.assert_allclose(support_weights(s, grid, rule)[1], [0.25, 0.75])

    def test_custom_length_mismatch(self):
        grid = integer_grid(8)
        s = cells_support([0, 1, 2], "s")
        rule = AggregationRule(AggregationRule.CUSTOM, weights=(0.5, 0.5))
        with pytest.raises(LengthMismatch):
            support_weights(s, grid, rule)

    def test_average_weights_sum_to_one(self):
        grid = integer_grid(64)
        rng = np.random.default_rng(3)
        for _ in range(25):
            lo = float(rng.uniform(0, 50))
            hi = lo + float(rng.uniform(0.5, 12))
            s = interval_support(lo, hi, "s")
            w = support_weights(s, grid, AVERAGE)[1]
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


class TestAggregationRule:
    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            AggregationRule("median")

    def test_custom_needs_weights(self):
        with pytest.raises(GeometryError):
            AggregationRule(AggregationRule.CUSTOM)

    def test_average_rejects_weights(self):
        with pytest.raises(GeometryError):
            AggregationRule(AggregationRule.AVERAGE, weights=(1.0,))


class TestCentroid:
    def test_interval_midpoint(self):
        grid = integer_grid(8)
        np.testing.assert_allclose(
            centroid(interval_support(1.0, 4.0, "s"), grid), [2.5]
        )

    def test_cellset_mean_coordinate(self):
        grid = integer_grid(8)
        np.testing.assert_allclose(centroid(cells_support([0, 4], "s"), grid), [2.0])


class TestPartition:
    def test_touching_intervals_allowed(self):
        Partition(
            attribute_id="a",
            domain_id="d0",
            supports=(
                interval_support(0.0, 2.0, "s0"),
                interval_support(2.0, 4.0, "s1"),
            ),
        )

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(OverlapError):
            Partition(
                attribute_id="a",
                domain_id="d0",
                supports=(
                    interval_support(0.0, 3.0, "s0"),
                    interval_support(2.0, 4.0, "s1"),
                ),
            )

    def test_shared_cells_rejected(self):
        with pytest.raises(OverlapError):
            Partition(
                attribute_id="a",
                domain_id="d0",
                supports=(
                    cells_support([1, 2], "s0"),
                    cells_support([2, 3], "s1"),
                ),
            )

    def test_empty_partition(self):
        with pytest.raises(EmptyPartition):
            Partition(attribute_id="a", domain_id="d0", supports=())

    def test_duplicate_support_ids(self):
        with pytest.raises(GeometryError):
            Partition(
                attribute_id="a",
                domain_id="d0",
                supports=(
                    interval_support(0.0, 1.0, "s"),
                    interval_support(2.0, 3.0, "s"),
                ),
            )

    def test_foreign_domain_support(self):
        with pytest.raises(GeometryError):
            Partition(
                attribute_id="a",
                domain_id="d0",
                supports=(interval_support(0.0, 1.0, "s", domain_id="d1"),),
            )


class TestValidate:
    def test_boundary_spanning_support(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        part = Partition(
            attribute_id="a",
            domain_id="d0",
            supports=(interval_support(6.0, 9.0, "s"),),
        )
        with pytest.raises(OutOfBounds):
            validate(dom, [part])

    def test_mixed_kind_overlap(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        # Cell 2 covers [2, 3), which the interval enters.
        part = Partition(
            attribute_id="a",
            domain_id="d0",
            supports=(
                interval_support(0.0, 2.5, "iv"),
                cells_support([2, 3], "cs"),
            ),
        )
        with pytest.raises(OverlapError):
            validate(dom, [part])

    def test_mixed_kind_touching_ok(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        part = Partition(
            attribute_id="a",
            domain_id="d0",
            supports=(
                interval_support(0.0, 2.0, "iv"),
                cells_support([2, 3], "cs"),
            ),
        )
        validate(dom, [part])

    def test_wrong_domain_partition(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        part = Partition(
            attribute_id="a",
            domain_id="d1",
            supports=(interval_support(0.0, 1.0, "s", domain_id="d1"),),
        )
        with pytest.raises(GeometryError):
            validate(dom, [part])

    def test_cell_outside_grid(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        part = Partition(
            attribute_id="a",
            domain_id="d0",
            supports=(cells_support([7, 8], "s"),),
        )
        with pytest.raises(OutOfBounds):
            validate(dom, [part])


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def quarter_intervals(draw, lo=0, hi=32):
    """An interval with endpoints on the quarter grid ``[lo/4, hi/4]``,
    exact in floating point so touching endpoints compare equal."""
    a = draw(st.integers(lo, hi - 1))
    b = draw(st.integers(a + 1, hi))
    return a / 4.0, b / 4.0


@st.composite
def interval_and_cells(draw):
    """A quarter-grid interval and a set of unit cells, half of the time
    drawn only from the cells the interval does not enter, so that many
    examples touch without overlapping."""
    a, b = draw(quarter_intervals())
    cells = draw(st.sets(st.integers(0, 7), min_size=1))
    clear = [k for k in range(8) if b <= k or k + 1 <= a]
    if clear and draw(st.booleans()):
        cells = draw(st.sets(st.sampled_from(clear), min_size=1))
    return (a, b), cells


def pair(first, second):
    return Partition(attribute_id="a", domain_id="d0", supports=(first, second))


class TestPartitionValidationProperties:
    """On the domain [0, 8] with unit cells, partitions are rejected
    exactly when two supports share a half-open stretch or a cell, or a
    support leaves the domain; supports that only touch pass."""

    @PROPERTY
    @given(first=quarter_intervals(), second=quarter_intervals())
    def test_interval_pairs(self, first, second):
        (a, b), (c, d) = first, second
        supports = interval_support(a, b, "s0"), interval_support(c, d, "s1")
        if a < d and c < b:
            with pytest.raises(OverlapError):
                pair(*supports)
        else:
            validate(unit_grid_domain(8, 0.0, 8.0), [pair(*supports)])

    @PROPERTY
    @given(
        first=st.sets(st.integers(0, 7), min_size=1),
        second=st.sets(st.integers(0, 7), min_size=1),
    )
    def test_cell_set_pairs(self, first, second):
        supports = cells_support(first, "s0"), cells_support(second, "s1")
        if first & second:
            with pytest.raises(OverlapError):
                pair(*supports)
        else:
            validate(unit_grid_domain(8, 0.0, 8.0), [pair(*supports)])

    @PROPERTY
    @given(world=interval_and_cells())
    def test_interval_against_cells(self, world):
        # Cell k covers [k, k + 1); touching its edge is no overlap.
        (a, b), cells = world
        part = pair(interval_support(a, b, "iv"), cells_support(cells, "cs"))
        dom = unit_grid_domain(8, 0.0, 8.0)
        if any(max(a, k) < min(b, k + 1) for k in cells):
            with pytest.raises(OverlapError):
                validate(dom, [part])
        else:
            validate(dom, [part])

    @PROPERTY
    @given(interval=quarter_intervals(-8, 40))
    def test_intervals_leaving_the_domain(self, interval):
        a, b = interval
        part = Partition(
            attribute_id="a", domain_id="d0", supports=(interval_support(a, b, "s"),)
        )
        dom = unit_grid_domain(8, 0.0, 8.0)
        if a < 0.0 or b > 8.0:
            with pytest.raises(OutOfBounds):
                validate(dom, [part])
        else:
            validate(dom, [part])

    @PROPERTY
    @given(cells=st.sets(st.integers(-3, 12), min_size=1))
    def test_cells_outside_the_grid(self, cells):
        if min(cells) < 0:
            with pytest.raises(OutOfBounds):
                cells_support(cells, "s")
            return
        part = Partition(
            attribute_id="a", domain_id="d0", supports=(cells_support(cells, "s"),)
        )
        dom = unit_grid_domain(8, 0.0, 8.0)
        if max(cells) >= 8:
            with pytest.raises(OutOfBounds):
                validate(dom, [part])
        else:
            validate(dom, [part])


class TestInterval:
    def test_degenerate(self):
        with pytest.raises(DegenerateInterval):
            Interval(1.0, 1.0)
        with pytest.raises(DegenerateInterval):
            Interval(2.0, 1.0)

    def test_length(self):
        assert Interval(1.0, 3.5).length == 2.5


class TestCellSet:
    def test_sorted_and_deduplicated(self):
        assert CellSet((3, 1, 2)).cells == (1, 2, 3)
        with pytest.raises(GeometryError):
            CellSet((1, 1, 2))

    def test_empty(self):
        with pytest.raises(EmptySupport):
            CellSet(())

    def test_negative(self):
        with pytest.raises(OutOfBounds):
            CellSet((-1, 0))


class TestPartitionBuilders:
    def test_interval_bins_cover_every_point_once(self):
        dom = unit_grid_domain(24, 0.0, 6.0)
        part = interval_bins(dom, "a", 6)
        assert len(part) == 6
        counts = np.zeros(24, dtype=int)
        for s in part.supports:
            counts[membership(s, dom.grid)] += 1
        # Bin edges fall between cell centers, so coverage is exact.
        np.testing.assert_array_equal(counts, np.ones(24, dtype=int))

    def test_interval_bins_edges(self):
        dom = unit_grid_domain(8, 0.0, 8.0)
        part = interval_bins(dom, "a", 4)
        first = part.supports[0].body
        assert (first.lo, first.hi) == (0.0, 2.0)
        last = part.supports[-1].body
        assert (last.lo, last.hi) == (6.0, 8.0)

    def test_interval_bins_needs_1d(self):
        from conftest import square_grid_domain

        with pytest.raises(DimensionMismatch):
            interval_bins(square_grid_domain(4), "a", 2)

    def test_grid_blocks_tile_exactly(self):
        from conftest import square_grid_domain

        dom = square_grid_domain(6)
        part = grid_block_partition(dom, "a", (2, 2))
        assert len(part) == 9
        seen = np.zeros(36, dtype=int)
        for s in part.supports:
            for c in s.body.cells:
                seen[c] += 1
        np.testing.assert_array_equal(seen, np.ones(36, dtype=int))

    def test_grid_blocks_ragged_edge(self):
        dom = unit_grid_domain(10, 0.0, 10.0)
        part = grid_block_partition(dom, "a", (4,))
        sizes = [len(s.body.cells) for s in part.supports]
        assert sizes == [4, 4, 2]

    def test_support_ids_unique(self):
        dom = unit_grid_domain(12, 0.0, 12.0)
        part = interval_bins(dom, "a", 4, id_prefix="bin")
        assert tuple(s.id for s in part.supports) == ("bin0", "bin1", "bin2", "bin3")

    def test_integral_float_counts_are_kept(self):
        from conftest import square_grid_domain

        bins = interval_bins(unit_grid_domain(8, 0.0, 8.0), "a", 4.0)
        assert bins == interval_bins(unit_grid_domain(8, 0.0, 8.0), "a", 4)
        blocks = grid_block_partition(square_grid_domain(4), "a", (2.0, 2))
        assert blocks == grid_block_partition(square_grid_domain(4), "a", (2, 2))

    @pytest.mark.parametrize("bins", [2.5, 0.5])
    def test_interval_bins_refuse_fractions(self, bins):
        with pytest.raises(GeometryError, match="integers"):
            interval_bins(unit_grid_domain(8, 0.0, 8.0), "a", bins)

    @pytest.mark.parametrize("shape", [(2.5, 2), (2, 1.5)])
    def test_grid_blocks_refuse_fractions(self, shape):
        from conftest import square_grid_domain

        with pytest.raises(GeometryError, match="integers"):
            grid_block_partition(square_grid_domain(4), "a", shape)

    @pytest.mark.parametrize("bins", [None, "x", [2]])
    def test_interval_bins_refuse_non_numbers(self, bins):
        with pytest.raises(GeometryError, match="integers"):
            interval_bins(unit_grid_domain(8, 0.0, 8.0), "a", bins)

    @pytest.mark.parametrize("shape", [("x", 2), (2, None), 2])
    def test_grid_blocks_refuse_non_numbers(self, shape):
        from conftest import square_grid_domain

        with pytest.raises(GeometryError, match="integers"):
            grid_block_partition(square_grid_domain(4), "a", shape)
