"""Seeded input worlds for the benchmark workloads.

Every world is drawn here with numpy alone and handed to the program
through its public constructors (``Domain``, ``GridSpec``,
``interval_bins``, ``grid_block_partition``, ``DatasetRecord``). The
library's own generator is never called, so a change to the program
cannot change the inputs it is measured on. The same seed gives the
same world bit for bit on one machine, and :func:`fingerprint` hashes
everything the program receives so two runs can show they saw the same
inputs.

Fields follow the model's generative story: each latent process is a
zero-mean squared exponential GP drawn exactly on the cell centres,
attributes mix the latents with fixed weights plus an offset that keeps
the truth away from zero, and an observation is the mean of the field
over the cells of its support plus Gaussian noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from aggmogp.geometry import (
    AVERAGE,
    Domain,
    GridSpec,
    Interval,
    Partition,
    grid_block_partition,
    interval_bins,
)
from aggmogp.model import DatasetRecord

# Mixing weights of the three-attribute transfer world (rows a0, a1, a2).
TRANSFER_WEIGHTS = np.array([[1.0, 0.4], [-0.8, 0.5], [0.75, -0.5]])
TRANSFER_SCALES = (0.08, 0.30)
TRANSFER_OFFSETS = (5.0, 6.0, 7.0)
TRANSFER_NOISE = 1e-4

BLOCKS_WEIGHTS = np.array([[1.0, 0.5], [-0.7, 0.6]])
BLOCKS_SCALES = (0.08, 0.25)
BLOCKS_OFFSETS = (5.0, 8.0)
BLOCKS_NOISE = 1e-4


@dataclass(frozen=True)
class World:
    """Observed records plus the fine target partition and its truth.

    ``baseline`` is the coarse broadcast on the target partition: every
    fine support takes the observed coarse value of the coarse supports
    its cells fall in, averaged over its cells.
    """

    domains: dict
    attributes: tuple
    records: tuple
    target: tuple
    test_partition: Partition
    truth: np.ndarray
    baseline: np.ndarray


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([tag, seed])))


def line_domain(domain_id: str, cells: int, lo: float, hi: float) -> Domain:
    h = (hi - lo) / cells
    grid = GridSpec(origin=(lo + h / 2.0,), cell_size=(h,), shape=(cells,))
    return Domain(id=domain_id, extent=((lo, hi),), grid=grid)


def square_domain(domain_id: str, cells: int, lo: float, hi: float) -> Domain:
    h = (hi - lo) / cells
    grid = GridSpec(
        origin=(lo + h / 2.0, lo + h / 2.0), cell_size=(h, h), shape=(cells, cells)
    )
    return Domain(id=domain_id, extent=((lo, hi), (lo, hi)), grid=grid)


def _axis_factor(coords: np.ndarray, length_scale: float) -> np.ndarray:
    """Matrix A with A Aᵀ equal to the SE gram of the coordinates."""
    d = coords[:, None] - coords[None, :]
    gram = np.exp(-(d * d) / (2.0 * length_scale * length_scale))
    vals, vecs = np.linalg.eigh(gram)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _latent_draw(domain: Domain, length_scale: float, rng) -> np.ndarray:
    """One exact SE field on the cell centres, flattened in C order.

    The SE kernel factorizes over the axes of a regular grid, so the
    draw is the per-axis factors applied to a white-noise array.
    """
    grid = domain.grid
    z = rng.standard_normal(grid.shape)
    for axis in range(grid.ndim):
        factor = _axis_factor(grid.axis_coords(axis), length_scale)
        z = np.moveaxis(np.tensordot(factor, z, axes=([1], [axis])), 0, axis)
    return z.ravel()


def cells_of(support, domain: Domain) -> np.ndarray:
    """Cells whose centres lie in a support (closed interval membership)."""
    if isinstance(support.body, Interval):
        x = domain.grid.axis_coords(0)
        return np.flatnonzero((x >= support.body.lo) & (x <= support.body.hi))
    return np.asarray(support.body.cells, dtype=np.int64)


def _support_means(field: np.ndarray, part: Partition, domain: Domain) -> np.ndarray:
    return np.array([field[cells_of(s, domain)].mean() for s in part.supports])


def _broadcast(coarse: Partition, values, fine: Partition, domain: Domain):
    per_cell = np.full(domain.grid.n_points, np.nan)
    for support, value in zip(coarse.supports, values):
        per_cell[cells_of(support, domain)] = value
    return _support_means(per_cell, fine, domain)


def _observe(domain, fields, attributes, specs, noise, rng, make_partition):
    """Records of one domain: one partition spec per attribute."""
    records = []
    for a_idx, (attr, spec) in enumerate(zip(attributes, specs)):
        part = make_partition(domain, attr, spec)
        clean = _support_means(fields[a_idx], part, domain)
        noisy = clean + np.sqrt(noise) * rng.standard_normal(clean.size)
        records.append(
            DatasetRecord(
                domain_id=domain.id,
                attribute_id=attr,
                partition=part,
                rules=tuple(AVERAGE for _ in part.supports),
                values=noisy,
            )
        )
    return records


def _mixed_fields(domain, weights, scales, offsets, rng) -> np.ndarray:
    latents = np.stack([_latent_draw(domain, s, rng) for s in scales])
    return np.asarray(offsets)[:, None] + weights @ latents


def _bins(domain, attr, n):
    return interval_bins(domain, attr, n, id_prefix=f"{attr}-")


def _blocks(domain, attr, shape):
    return grid_block_partition(domain, attr, shape, id_prefix=f"{attr}-")


def transfer_world(seed: int) -> World:
    """Criterion-09 joint world: a coarse target domain and two aux domains.

    d0 has 96 cells on [0, 3] with a0 in 9 bins and a1, a2 in 20 bins;
    d1 and d2 have 48 cells on [0, 1] with every attribute in 16 bins.
    The target is (d0, a0) refined onto 60 bins.
    """
    rng = _rng(seed, 1)
    attrs = ("a0", "a1", "a2")
    d0 = line_domain("d0", 96, 0.0, 3.0)
    aux = (line_domain("d1", 48, 0.0, 1.0), line_domain("d2", 48, 0.0, 1.0))
    fields = {
        dom.id: _mixed_fields(
            dom, TRANSFER_WEIGHTS, TRANSFER_SCALES, TRANSFER_OFFSETS, rng
        )
        for dom in (d0,) + aux
    }
    records = _observe(
        d0, fields["d0"], attrs, (9, 20, 20), TRANSFER_NOISE, rng, _bins
    )
    for dom in aux:
        records += _observe(
            dom, fields[dom.id], attrs, (16, 16, 16), TRANSFER_NOISE, rng, _bins
        )
    test = _bins(d0, "a0", 60)
    return World(
        domains={dom.id: dom for dom in (d0,) + aux},
        attributes=attrs,
        records=tuple(records),
        target=("d0", "a0"),
        test_partition=test,
        truth=_support_means(fields["d0"][0], test, d0),
        baseline=_broadcast(records[0].partition, records[0].values, test, d0),
    )


def target_domain_view(world: World) -> World:
    """The same world restricted to the records of the target domain."""
    domain_id = world.target[0]
    return replace(
        world,
        domains={domain_id: world.domains[domain_id]},
        records=tuple(r for r in world.records if r.domain_id == domain_id),
    )


def blocks_world(seed: int) -> World:
    """A 32×32 grid with two attributes observed on 4×4 cell blocks.

    The target is (d0, a0) refined onto the 256 2×2 blocks.
    """
    rng = _rng(seed, 2)
    attrs = ("a0", "a1")
    dom = square_domain("d0", 32, 0.0, 1.0)
    field = _mixed_fields(dom, BLOCKS_WEIGHTS, BLOCKS_SCALES, BLOCKS_OFFSETS, rng)
    records = _observe(
        dom, field, attrs, ((4, 4), (4, 4)), BLOCKS_NOISE, rng, _blocks
    )
    test = _blocks(dom, "a0", (2, 2))
    return World(
        domains={dom.id: dom},
        attributes=attrs,
        records=tuple(records),
        target=("d0", "a0"),
        test_partition=test,
        truth=_support_means(field[0], test, dom),
        baseline=_broadcast(records[0].partition, records[0].values, test, dom),
    )


def _partition_text(part: Partition) -> str:
    rows = [f"partition {part.domain_id} {part.attribute_id}"]
    for s in part.supports:
        if isinstance(s.body, Interval):
            rows.append(f"{s.id} interval {s.body.lo!r} {s.body.hi!r}")
        else:
            rows.append(f"{s.id} cells {','.join(map(str, s.body.cells))}")
    return "\n".join(rows)


def fingerprint(world: World) -> str:
    """SHA-256 over domains, supports, rules, values and the scored truth."""
    h = hashlib.sha256()
    parts = [f"attributes {','.join(world.attributes)}"]
    for dom in world.domains.values():
        g = dom.grid
        parts.append(f"domain {dom.id} {dom.extent!r} {g.origin!r} {g.cell_size!r} {g.shape!r}")
    for rec in world.records:
        parts.append(_partition_text(rec.partition))
        parts.append(" ".join(f"{r.kind}:{r.weights!r}" for r in rec.rules))
    parts.append(_partition_text(world.test_partition))
    h.update("\n".join(parts).encode())
    for rec in world.records:
        h.update(np.ascontiguousarray(rec.values, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(world.truth, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(world.baseline, dtype="<f8").tobytes())
    return h.hexdigest()
