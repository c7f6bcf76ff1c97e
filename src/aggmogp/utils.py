"""Small shared helpers: an in-order map, deterministic RNG streams,
scrambled Sobol normals and the one rule for integer counts."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import DataError

# Joe & Kuo (2008) primitive polynomials and initial direction numbers of
# the first 64 Sobol dimensions, as scipy.stats.qmc.Sobol ships them in
# scipy/stats/_sobol_direction_numbers.npz (rows 0-63 of ``poly``, and of
# ``vinit`` up to each polynomial's degree; dimension 0 is the van der
# Corput sequence).
_SOBOL_POLY = (
    1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109,
    115, 131, 137, 143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213,
    229, 239, 241, 247, 253, 285, 299, 301, 333, 351, 355, 357, 361, 369,
    391, 397, 425, 451, 463, 487, 501, 529, 539, 545, 557, 563, 601, 607,
    617, 623, 631, 637,
)
_SOBOL_VINIT = (
    (1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
    (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11), (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63),
    (1, 3, 5, 9, 1, 25, 53), (1, 3, 1, 13, 9, 35, 107),
    (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61),
    (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59),
    (1, 1, 3, 9, 25, 29, 41), (1, 3, 5, 13, 23, 1, 55),
    (1, 3, 7, 3, 13, 59, 17), (1, 3, 1, 3, 5, 53, 69), (1, 1, 5, 5, 23, 33, 13),
    (1, 1, 7, 7, 1, 61, 123), (1, 1, 7, 9, 13, 61, 49), (1, 3, 3, 5, 3, 55, 33),
    (1, 3, 1, 15, 31, 13, 49, 245), (1, 3, 5, 15, 31, 59, 63, 97),
    (1, 3, 1, 11, 11, 11, 77, 249), (1, 3, 1, 11, 27, 43, 71, 9),
    (1, 1, 7, 15, 21, 11, 81, 45), (1, 3, 7, 3, 25, 31, 65, 79),
    (1, 3, 1, 1, 19, 11, 3, 205), (1, 1, 5, 9, 19, 21, 29, 157),
    (1, 3, 7, 11, 1, 33, 89, 185), (1, 3, 3, 3, 15, 9, 79, 71),
    (1, 3, 7, 11, 15, 39, 119, 27), (1, 1, 3, 1, 11, 31, 97, 225),
    (1, 1, 1, 3, 23, 43, 57, 177), (1, 3, 7, 7, 17, 17, 37, 71),
    (1, 3, 1, 5, 27, 63, 123, 213), (1, 1, 3, 5, 11, 43, 53, 133),
    (1, 3, 5, 5, 29, 17, 47, 173, 479), (1, 3, 3, 11, 3, 1, 109, 9, 69),
    (1, 1, 1, 5, 17, 39, 23, 5, 343), (1, 3, 1, 5, 25, 15, 31, 103, 499),
    (1, 1, 1, 11, 11, 17, 63, 105, 183), (1, 1, 5, 11, 9, 29, 97, 231, 363),
    (1, 1, 5, 15, 19, 45, 41, 7, 383), (1, 3, 7, 7, 31, 19, 83, 137, 221),
    (1, 1, 1, 3, 23, 15, 111, 223, 83), (1, 1, 5, 13, 31, 15, 55, 25, 161),
    (1, 1, 3, 13, 25, 47, 39, 87, 257),
)
_SOBOL_BITS = 30


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


def _sobol_directions(dims: int, m: int) -> np.ndarray:
    """Direction numbers of the first ``dims`` Sobol dimensions for the
    first ``2**m`` points: a (dims, m) array of ``_SOBOL_BITS``-bit
    integers, column j holding the generator matrix's column j with its
    most significant bit first (Joe & Kuo's recurrence, as scipy runs it).
    """
    v = np.ones((dims, m), dtype=np.int64)
    for d in range(1, dims):
        poly, init = _SOBOL_POLY[d], _SOBOL_VINIT[d]
        s = len(init)
        for j in range(m):
            if j < s:
                v[d, j] = init[j]
                continue
            new = int(v[d, j - s]) ^ (int(v[d, j - s]) << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= int(v[d, j - k]) << k
            v[d, j] = new
    return v << (_SOBOL_BITS - 1 - np.arange(m))


def _sobol_net(directions: np.ndarray, m: int) -> np.ndarray:
    """The ``2**m`` points of the digital net with ``directions`` (one row
    per dimension, at least m columns), as integers in Gray-code order:
    point i is the XOR of the columns at the set bits of ``i ^ (i >> 1)``."""
    points = np.zeros((1, directions.shape[0]), dtype=np.int64)
    for j in range(m):
        points = np.concatenate([points, points[::-1] ^ directions[:, j]])
    return points


def _scrambled_sobol(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """The first ``n`` of ``2**ceil(log2 n)`` scrambled Sobol points in
    ``dims`` <= 64 dimensions, as an (n, dims) array strictly inside (0, 1).

    Each dimension's generator matrix is left-multiplied by a random unit
    lower-triangular bit matrix (Matoušek's linear matrix scramble), then
    every point is XORed with a random digital shift; both keep the net's
    stratification. Points sit at the centres of their
    ``2**-_SOBOL_BITS`` cells, so none is 0 or 1.
    """
    m = max(n - 1, 0).bit_length()
    rows = _SOBOL_BITS - 1 - np.arange(_SOBOL_BITS)
    bits = (_sobol_directions(dims, m)[:, None, :] >> rows[:, None]) & 1
    lower = np.tril(rng.integers(0, 2, (dims, _SOBOL_BITS, _SOBOL_BITS)), -1)
    lower[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    scrambled = (((lower @ bits) & 1) << rows[:, None]).sum(axis=1)
    shift = rng.integers(0, 1 << _SOBOL_BITS, dims)
    points = _sobol_net(scrambled, m)[:n] ^ shift
    return (points + 0.5) * 2.0**-_SOBOL_BITS


def sobol_normals(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """(n, dims) standard normals from one scrambled Sobol point set.

    The first 64 dimensions are :func:`_scrambled_sobol` points through the
    normal quantile; any further dimensions are i.i.d. normals, drawn from
    ``rng`` after the scramble. With ``n`` a power of two every coordinate
    puts exactly one point in each of its ``n`` equal-probability strata.
    """
    k = min(dims, len(_SOBOL_VINIT))
    return np.hstack(
        [ndtri(_scrambled_sobol(rng, n, k)), rng.standard_normal((n, dims - k))]
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
