"""Small shared helpers: an in-order map, deterministic RNG streams and
the one rule for integer counts."""

from __future__ import annotations

import numpy as np

from .errors import DataError


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


def whole_number(value):
    """``value`` as an int, or None when ``int`` would truncate it or it is
    no number; integral floats such as ``2.0`` pass, booleans do not."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return int(value) if float(value).is_integer() else None
    except (TypeError, ValueError, OverflowError):
        return None


def count_request(value, what: str, least: int = 1, alternative: str = "") -> int:
    """``value`` as an int of at least ``least`` (:func:`whole_number`);
    anything else is a :class:`DataError` naming ``what``."""
    count = whole_number(value)
    if count is None or count < least:
        raise DataError(
            f"{what} takes an integer >= {least}{alternative}, got {value!r}"
        )
    return count
