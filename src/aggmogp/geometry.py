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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def _interval_overlap(a: Interval, b: Interval) -> bool:
    # Half-open test: touching endpoints do not overlap.
    return a.lo < b.hi and b.lo < a.hi


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
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                a, b = supports[i].body, supports[j].body
                if isinstance(a, Interval) and isinstance(b, Interval):
                    if _interval_overlap(a, b):
                        raise OverlapError(
                            f"supports {supports[i].id!r} and {supports[j].id!r} overlap"
                        )
                elif isinstance(a, CellSet) and isinstance(b, CellSet):
                    if set(a.cells) & set(b.cells):
                        raise OverlapError(
                            f"supports {supports[i].id!r} and {supports[j].id!r}"
                            " share grid cells"
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


def membership(support: Support, grid: GridSpec) -> np.ndarray:
    """Sorted grid-point indices belonging to a support.

    Interval bodies use closed containment ``lo <= x <= hi``; cell sets are
    their own membership. Raises :class:`EmptySupport` when no grid point
    falls inside, which signals a grid too coarse for the support.
    """
    body = support.body
    if isinstance(body, Interval):
        if grid.ndim != 1:
            raise DimensionMismatch(
                f"interval support {support.id!r} on a {grid.ndim}-D grid"
            )
        coords = grid.axis_coords(0)
        idx = np.nonzero((coords >= body.lo) & (coords <= body.hi))[0]
        if idx.size == 0:
            raise EmptySupport(
                f"support {support.id!r} ([{body.lo}, {body.hi}]) contains"
                " no grid points"
            )
        return idx.astype(np.int64)
    cells = np.asarray(body.cells, dtype=np.int64)
    if cells.max() >= grid.n_points:
        raise OutOfBounds(
            f"support {support.id!r} references cell {int(cells.max())}"
            f" on a grid of {grid.n_points} points"
        )
    return cells


def support_weights(support: Support, grid: GridSpec, rule: AggregationRule):
    """``(membership(support, grid), weights)``: the member points and
    their aggregation weights, from one membership pass."""
    members = membership(support, grid)
    n = members.size
    if rule.kind == AggregationRule.AVERAGE:
        return members, np.full(n, 1.0 / n)
    if rule.kind == AggregationRule.SUM:
        return members, np.ones(n)
    if len(rule.weights) != n:
        raise LengthMismatch(
            f"support {support.id!r} has {n} member points but"
            f" {len(rule.weights)} custom weights"
        )
    return members, np.asarray(rule.weights, dtype=float)


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
        if len(part.supports) == 0:
            raise EmptyPartition("partition has no supports")
        for s in part.supports:
            body = s.body
            if isinstance(body, Interval):
                if domain.ndim != 1:
                    raise DimensionMismatch(
                        f"interval support {s.id!r} on {domain.ndim}-D domain"
                        f" {domain.id!r}"
                    )
                lo, hi = domain.extent[0]
                tol = _REL_TOL * max(hi - lo, 1.0)
                if body.lo < lo - tol or body.hi > hi + tol:
                    raise OutOfBounds(
                        f"support {s.id!r} ([{body.lo}, {body.hi}]) leaves"
                        f" domain extent [{lo}, {hi}]"
                    )
            else:
                cells = np.asarray(body.cells, dtype=np.int64)
                if cells.max() >= grid.n_points:
                    raise OutOfBounds(
                        f"support {s.id!r} references cell {int(cells.max())}"
                        f" outside the {grid.n_points}-point grid"
                    )
        # Interval / cell-set pairs: compare against half-open cell boxes.
        if len({type(s.body) for s in part.supports}) == 1:
            continue
        for i in range(len(part.supports)):
            for j in range(i + 1, len(part.supports)):
                a, b = part.supports[i], part.supports[j]
                pair = {type(a.body), type(b.body)}
                if pair != {Interval, CellSet}:
                    continue
                iv, cs = (a, b) if isinstance(a.body, Interval) else (b, a)
                h = grid.cell_size[0]
                centers = grid.cell_coords(cs.body.cells)[:, 0]
                overlap = np.maximum(iv.body.lo, centers - h / 2.0) < np.minimum(
                    iv.body.hi, centers + h / 2.0
                )
                if overlap.any():
                    raise OverlapError(
                        f"supports {iv.id!r} and {cs.id!r} overlap"
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
    supports = []
    for block_idx in np.ndindex(*counts):
        ranges = [
            np.arange(
                i * b, min((i + 1) * b, n)
            )
            for i, b, n in zip(block_idx, block_shape, grid.shape)
        ]
        mesh = np.meshgrid(*ranges, indexing="ij")
        flat = np.ravel_multi_index([m.ravel() for m in mesh], grid.shape)
        label = "_".join(str(i) for i in block_idx)
        supports.append(
            Support(
                id=f"{id_prefix}{label}",
                domain_id=domain.id,
                body=CellSet(tuple(int(c) for c in flat)),
            )
        )
    return Partition(
        attribute_id=attribute_id, domain_id=domain.id, supports=tuple(supports)
    )
