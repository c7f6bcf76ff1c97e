"""Domains, grids, supports and partitions.

Conventions used throughout the package:

* A domain carries a regular grid whose points are cell centers. The grid
  ``origin`` is the first cell center, so cell ``i`` along an axis spans
  ``[origin + (i - 1/2) * cell_size, origin + (i + 1/2) * cell_size)`` and
  the union of cells must reproduce the domain extent exactly.
* Membership of a grid point in an interval support is closed on both
  ends (``lo <= x <= hi``).
* Disjointness of interval supports is half-open: two intervals touching
  only at an endpoint are valid members of one partition.
* Multi-dimensional supports are sets of grid cell indices (flat indices
  in C order). There is no polygon geometry.
* A partition is a collection of pairwise disjoint supports for one
  attribute on one domain. It does not have to cover the domain.
* Each partition is one array pass, never a loop over its supports or
  their pairs: :func:`support_rows` gives its weight rows over the grid
  cells, and disjointness is checked by sorting bounds and cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import utils
from .errors import (
    DegenerateInterval,
    DimensionMismatch,
    EmptyPartition,
    EmptySupport,
    GeometryError,
    LengthMismatch,
    OutOfBounds,
    OverlapError,
)

# Relative tolerance for extent / grid consistency checks.
_REL_TOL = 1e-9


def _numbers(values, what: str, whole: bool = False, size: int | None = None):
    """``values`` as floats, or as ints when ``whole``, refusing any that
    ``int`` would truncate (:func:`~aggmogp.utils.whole_number`), and
    ``size`` of them when given; anything else is a GeometryError."""
    kind = "integers" if whole else "numbers" if size is None else f"{size} numbers"
    try:
        out = tuple(map(utils.whole_number if whole else float, values))
    except (TypeError, ValueError):
        out = (None,)
    if None in out or size not in (None, len(out)):
        raise GeometryError(f"{what} must be {kind}, got {values!r}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Regular grid of cell centers.

    Parameters
    ----------
    origin:
        Coordinates of the first cell center, one entry per axis.
    cell_size:
        Positive cell edge lengths, one entry per axis.
    shape:
        Number of cells per axis.
    """

    origin: tuple[float, ...]
    cell_size: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", _numbers(self.origin, "grid origin"))
        object.__setattr__(self, "cell_size", _numbers(self.cell_size, "cell sizes"))
        shape = _numbers(self.shape, "grid shape entries", whole=True)
        object.__setattr__(self, "shape", shape)
        if not (len(self.origin) == len(self.cell_size) == len(self.shape)):
            raise DimensionMismatch(
                "origin, cell_size and shape must have equal length"
            )
        if len(self.shape) == 0:
            raise GeometryError("grid needs at least one axis")
        if any(not np.isfinite(v) for v in self.origin):
            raise GeometryError("grid origin must be finite")
        if any(h <= 0 or not np.isfinite(h) for h in self.cell_size):
            raise GeometryError("cell sizes must be positive and finite")
        if any(n < 1 for n in self.shape):
            raise GeometryError("grid shape entries must be >= 1")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @cached_property
    def n_points(self) -> int:
        return math.prod(self.shape)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.origin[axis] + self.cell_size[axis] * np.arange(self.shape[axis])

    @cached_property
    def points(self) -> np.ndarray:
        """All cell centers as an ``(n_points, ndim)`` array in C order."""
        axes = [self.axis_coords(d) for d in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def cell_coords(self, cells) -> np.ndarray:
        """Coordinates of the given flat cell indices."""
        idx = np.asarray(cells, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_points):
            raise OutOfBounds(f"cell index outside grid of {self.n_points} points")
        return self.points[idx]

    def extent_box(self) -> tuple[tuple[float, float], ...]:
        """Axis-aligned box covered by the union of all cells."""
        return tuple(
            (o - h / 2.0, o + (n - 0.5) * h)
            for o, h, n in zip(self.origin, self.cell_size, self.shape)
        )


@dataclass(frozen=True)
class Interval:
    """Closed-below, closed-above 1-D support body for membership purposes.

    Disjointness against sibling intervals is half-open, so ``[0, 2]`` and
    ``[2, 4]`` may live in one partition.
    """

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _numbers((self.lo, self.hi), "interval bounds")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DegenerateInterval("interval bounds must be finite")
        if self.hi <= self.lo:
            raise DegenerateInterval(
                f"interval [{self.lo}, {self.hi}] has no positive length"
            )

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class CellSet:
    """Set of grid cells given by sorted unique flat indices."""

    cells: tuple[int, ...]

    def __post_init__(self):
        cells = _numbers(self.cells, "cell indices", whole=True)
        if len(cells) == 0:
            raise EmptySupport("cell set has no cells")
        if len(set(cells)) != len(cells):
            raise GeometryError("cell set contains duplicate indices")
        if any(c < 0 for c in cells):
            raise OutOfBounds("cell indices must be non-negative")
        object.__setattr__(self, "cells", tuple(sorted(cells)))


@dataclass(frozen=True)
class Support:
    """One aggregation region: an interval (1-D) or a set of grid cells."""

    id: str
    domain_id: str
    body: Interval | CellSet

    def __post_init__(self):
        if not self.id:
            raise GeometryError("support id must be non-empty")
        if not isinstance(self.body, (Interval, CellSet)):
            raise GeometryError("support body must be an Interval or a CellSet")


@dataclass(frozen=True)
class Domain:
    """Rectangular domain with its observation grid."""

    id: str
    extent: tuple[tuple[float, float], ...]
    grid: GridSpec

    def __post_init__(self):
        extent = tuple(_numbers(axis, "extent axis", size=2) for axis in self.extent)
        object.__setattr__(self, "extent", extent)
        if not self.id:
            raise GeometryError("domain id must be non-empty")
        if len(extent) != self.grid.ndim:
            raise DimensionMismatch(
                f"extent has {len(extent)} axes but grid has {self.grid.ndim}"
            )
        for lo, hi in extent:
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
                raise GeometryError(f"invalid extent axis [{lo}, {hi}]")
        # The grid cells must tile the extent exactly (up to rounding).
        for (lo, hi), (blo, bhi) in zip(extent, self.grid.extent_box()):
            tol = _REL_TOL * max(hi - lo, 1.0)
            if abs(lo - blo) > tol or abs(hi - bhi) > tol:
                raise GeometryError(
                    f"grid box [{blo}, {bhi}] does not cover extent [{lo}, {hi}]"
                )

    @property
    def ndim(self) -> int:
        return self.grid.ndim

    def axis_span(self, axis: int) -> float:
        lo, hi = self.extent[axis]
        return hi - lo


def _bodies(supports):
    """``supports`` as arrays ``(is_iv, lo, hi, counts, cells)``: which are
    intervals, the intervals' bounds, and the cell sets' cell counts and
    sorted cells, concatenated, each in support order."""
    is_iv = [isinstance(s.body, Interval) for s in supports]
    ivs = [s.body for s, i in zip(supports, is_iv) if i]
    sets = [s.body.cells for s, i in zip(supports, is_iv) if not i]
    counts = np.array([len(c) for c in sets], dtype=np.int64)
    cells = np.fromiter(chain.from_iterable(sets), np.int64, counts.sum())
    lo = np.array([b.lo for b in ivs], dtype=float)
    hi = np.array([b.hi for b in ivs], dtype=float)
    return np.array(is_iv, dtype=bool), lo, hi, counts, cells


def _overlapping_intervals(lo, hi):
    """The first pair ``(i, j)`` of the intervals ``[lo, hi]`` that overlap
    (half-open), lowest i then lowest j, or None. An interval meets those
    starting before its end less those ending by its start, itself one."""
    meets = np.sort(lo).searchsorted(hi) - np.sort(hi).searchsorted(lo, "right")
    if not (meets > 1).any():
        return None
    i = int((meets > 1).argmax())
    others = (lo < hi[i]) & (lo[i] < hi)
    others[i] = False
    return i, int(others.argmax())


def _ranges(first, sizes):
    """The integer ranges ``[first[k], first[k] + sizes[k])``, concatenated."""
    return (first - sizes.cumsum() + sizes).repeat(sizes) + np.arange(sizes.sum())


@dataclass(frozen=True)
class Partition:
    """Disjoint supports for one attribute on one domain.

    Mixed-kind disjointness (interval against cell set) needs the grid and
    is checked by :func:`validate`; same-kind disjointness is enforced here.
    """

    attribute_id: str
    domain_id: str
    supports: tuple[Support, ...]

    def __post_init__(self):
        supports = tuple(self.supports)
        object.__setattr__(self, "supports", supports)
        if len(supports) == 0:
            raise EmptyPartition(
                f"partition for attribute {self.attribute_id!r} has no supports"
            )
        ids = [s.id for s in supports]
        if len(set(ids)) != len(ids):
            raise GeometryError("duplicate support ids within a partition")
        for s in supports:
            if s.domain_id != self.domain_id:
                raise GeometryError(
                    f"support {s.id!r} belongs to domain {s.domain_id!r},"
                    f" not {self.domain_id!r}"
                )
        is_iv, lo, hi, counts, cells = _bodies(supports)
        # Sorted stably, the owners of a shared cell are adjacent.
        order = np.argsort(cells, kind="stable")
        owner = np.flatnonzero(~is_iv).repeat(counts)[order]
        same = np.diff(cells[order]) == 0
        pairs = [*zip(owner[:-1][same].tolist(), owner[1:][same].tolist())]
        if pair := _overlapping_intervals(lo, hi):
            pairs.append(tuple(np.flatnonzero(is_iv)[list(pair)].tolist()))
        if pairs:
            i, j = min(pairs)
            what = "overlap" if is_iv[i] else "share grid cells"
            raise OverlapError(
                f"supports {supports[i].id!r} and {supports[j].id!r} {what}"
            )

    def __len__(self) -> int:
        return len(self.supports)


@dataclass(frozen=True)
class AggregationRule:
    """How member point values combine into one observation.

    ``average`` weights every member point by 1/count, ``sum`` by 1, and
    ``custom`` carries an explicit per-point weight list for one support.
    """

    kind: str
    weights: tuple[float, ...] | None = None

    AVERAGE = "average"
    SUM = "sum"
    CUSTOM = "custom"

    def __post_init__(self):
        if self.kind not in (self.AVERAGE, self.SUM, self.CUSTOM):
            raise GeometryError(f"unknown aggregation kind {self.kind!r}")
        if self.kind == self.CUSTOM:
            if self.weights is None:
                raise GeometryError("custom aggregation needs explicit weights")
            w = tuple(float(v) for v in self.weights)
            if any(not np.isfinite(v) for v in w):
                raise GeometryError("custom weights must be finite")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise GeometryError(f"{self.kind} aggregation takes no weight list")


AVERAGE = AggregationRule(AggregationRule.AVERAGE)
SUM = AggregationRule(AggregationRule.SUM)


def support_rows(supports, grid: GridSpec, rules):
    """Supports, one rule each, as weight rows over the flat grid cells:
    the CSR triple ``(cells, weights, sizes)``, in one pass.

    An interval's members are the cell centres with ``lo <= x <= hi``
    (binary search on the ascending centres), a cell set's its cells.
    Weights are 1/count (``average``), 1 (``sum``) or the custom list.
    The first support without a row raises: an interval on a grid of
    several axes or holding no centre (a grid too coarse for it), a cell
    outside the grid, or a custom list of another length.
    """
    is_iv, lo, hi, counts, set_cells = _bodies(supports)
    first = np.zeros(is_iv.size, dtype=np.int64)
    sizes = np.zeros(is_iv.size, dtype=np.int64)
    if grid.ndim == 1:
        coords = grid.axis_coords(0)
        first[is_iv] = start = coords.searchsorted(lo)
        sizes[is_iv] = coords.searchsorted(hi, "right") - start
    sizes[~is_iv] = counts
    bad = sizes == 0
    bad[~is_iv] = set_cells[counts.cumsum() - 1] >= grid.n_points
    kinds = [r.kind for r in rules]
    custom = [k for k, kind in enumerate(kinds) if kind == AggregationRule.CUSTOM]
    lengths = [len(rules[k].weights) for k in custom]
    bad[custom] |= sizes[custom] != lengths
    if bad.any():
        k = int(bad.argmax())
        s, n = supports[k], int(sizes[k])
        if is_iv[k] and grid.ndim != 1:
            raise DimensionMismatch(
                f"interval support {s.id!r} on a {grid.ndim}-D grid"
            )
        if is_iv[k] and n == 0:
            raise EmptySupport(
                f"support {s.id!r} ([{s.body.lo}, {s.body.hi}]) contains no grid points"
            )
        if not is_iv[k] and s.body.cells[-1] >= grid.n_points:
            raise OutOfBounds(
                f"support {s.id!r} references cell {s.body.cells[-1]}"
                f" on a grid of {grid.n_points} points"
            )
        raise LengthMismatch(
            f"support {s.id!r} has {n} member points but"
            f" {len(rules[k].weights)} custom weights"
        )
    cells = _ranges(first, sizes)
    cells[(~is_iv).repeat(sizes)] = set_cells
    avg = np.array([kind == AggregationRule.AVERAGE for kind in kinds], dtype=bool)
    weights = np.where(avg, 1.0 / sizes, 1.0).repeat(sizes)
    if custom:
        at = _ranges((sizes.cumsum() - sizes)[custom], sizes[custom])
        weights[at] = np.fromiter(
            chain.from_iterable(rules[k].weights for k in custom), float, at.size
        )
    return cells, weights, sizes


def centroid(support: Support, grid: GridSpec) -> np.ndarray:
    """Geometric center of a support: interval midpoint or mean member coordinate."""
    body = support.body
    if isinstance(body, Interval):
        return np.array([0.5 * (body.lo + body.hi)])
    return grid.cell_coords(body.cells).mean(axis=0)


def validate(domain: Domain, partitions) -> None:
    """Full geometric validation of partitions against a domain.

    Checks domain membership of every support (supports spanning the domain
    boundary are rejected, not clipped), plus the disjointness cases that
    need the grid. Raises the first violation found.
    """
    grid = domain.grid
    for part in partitions:
        if part.domain_id != domain.id:
            raise GeometryError(
                f"partition for domain {part.domain_id!r} validated against"
                f" {domain.id!r}"
            )
        supports = part.supports
        if len(supports) == 0:
            raise EmptyPartition("partition has no supports")
        is_iv, lo, hi, counts, cells = _bodies(supports)
        elo, ehi = domain.extent[0]
        tol = _REL_TOL * max(ehi - elo, 1.0)
        bad = np.empty(is_iv.size, dtype=bool)
        bad[is_iv] = (lo < elo - tol) | (hi > ehi + tol) | (domain.ndim != 1)
        bad[~is_iv] = cells[counts.cumsum() - 1] >= grid.n_points
        if bad.any():
            s = supports[int(bad.argmax())]
            if not isinstance(s.body, Interval):
                raise OutOfBounds(
                    f"support {s.id!r} references cell {s.body.cells[-1]}"
                    f" outside the {grid.n_points}-point grid"
                )
            if domain.ndim != 1:
                raise DimensionMismatch(
                    f"interval support {s.id!r} on {domain.ndim}-D domain"
                    f" {domain.id!r}"
                )
            raise OutOfBounds(
                f"support {s.id!r} ([{s.body.lo}, {s.body.hi}]) leaves"
                f" domain extent [{elo}, {ehi}]"
            )
        if lo.size in (0, is_iv.size):
            continue
        # Interval / cell-set pairs, against half-open cell boxes: each
        # interval against the cells whose boxes it enters or touches.
        h = grid.cell_size[0]
        left, right = grid.axis_coords(0) - h / 2.0, grid.axis_coords(0) + h / 2.0
        start = right.searchsorted(lo, "right")
        n = left.searchsorted(hi) - start
        touched = _ranges(start, n)
        holder = np.full(grid.n_points, -1)
        holder[cells] = np.flatnonzero(~is_iv).repeat(counts)
        a, b = np.flatnonzero(is_iv).repeat(n), holder[touched]
        hit = (b >= 0) & (left[touched] < right[touched])
        if hit.any():
            a, b = np.minimum(a, b)[hit].tolist(), np.maximum(a, b)[hit].tolist()
            i, j = min(zip(a, b))
            iv, cs = (i, j) if is_iv[i] else (j, i)
            raise OverlapError(
                f"supports {supports[iv].id!r} and {supports[cs].id!r} overlap"
            )


def interval_bins(
    domain: Domain, attribute_id: str, n_bins: int, id_prefix: str = "bin"
) -> Partition:
    """Equal-width interval partition covering a 1-D domain.

    Bin counts that divide the grid size keep bin edges off the cell
    centers, so every grid point lands in exactly one bin.
    """
    if domain.ndim != 1:
        raise DimensionMismatch("interval_bins needs a 1-D domain")
    (n_bins,) = _numbers((n_bins,), "n_bins", whole=True)
    if n_bins < 1:
        raise GeometryError("n_bins must be >= 1")
    lo, hi = domain.extent[0]
    edges = np.linspace(lo, hi, n_bins + 1)
    supports = tuple(
        Support(
            id=f"{id_prefix}{k}",
            domain_id=domain.id,
            body=Interval(edges[k], edges[k + 1]),
        )
        for k in range(n_bins)
    )
    return Partition(attribute_id=attribute_id, domain_id=domain.id, supports=supports)


def grid_block_partition(
    domain: Domain, attribute_id: str, block_shape, id_prefix: str = "blk"
) -> Partition:
    """Partition of rectangular cell blocks tiling the whole grid.

    Blocks at the high edge may be ragged when ``block_shape`` does not
    divide the grid shape.
    """
    grid = domain.grid
    block_shape = _numbers(block_shape, "block_shape entries", whole=True)
    if len(block_shape) != grid.ndim:
        raise DimensionMismatch("block_shape must match the grid dimension")
    if any(b < 1 for b in block_shape):
        raise GeometryError("block_shape entries must be >= 1")
    counts = [int(np.ceil(n / b)) for n, b in zip(grid.shape, block_shape)]
    # Each cell's block in C order; a stable sort groups cells by block.
    axes = [np.arange(n) // b for n, b in zip(grid.shape, block_shape)]
    block = np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"), counts).ravel()
    order = np.argsort(block, kind="stable")
    cells = np.split(order, np.cumsum(np.bincount(block))[:-1])
    supports = tuple(
        Support(
            id=f"{id_prefix}{'_'.join(map(str, label))}",
            domain_id=domain.id,
            body=CellSet(tuple(c.tolist())),
        )
        for label, c in zip(np.ndindex(*counts), cells)
    )
    return Partition(attribute_id=attribute_id, domain_id=domain.id, supports=supports)
