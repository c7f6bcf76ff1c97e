"""Small shared helpers: an in-order map and deterministic RNG streams."""

from __future__ import annotations

import numpy as np


def parallel_map(fn, items):
    """Apply ``fn`` to each item, in input order.

    Training fans its (draw, domain) likelihood terms out through this one
    name so the benchmark's tracer can count them; it runs them serially.
    """
    return [fn(item) for item in items]


def stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """Counter-based generator for a named substream of a seed.

    Philox keyed by ``SeedSequence(seed, spawn_key)``; the fixed spawn
    keys used by the package are documented at their call sites.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(spawn_key)))
    )
