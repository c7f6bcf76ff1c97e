"""Scrambled Sobol normals (``utils.sobol_normals``): the embedded
direction numbers against scipy's, and the stratification the scramble
must keep."""

import os

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import qmc

from aggmogp import utils

SCIPY_TABLE = os.path.join(
    os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz"
)


def test_unscrambled_net_is_scipys_sequence():
    for dims in range(1, 65):
        directions = utils._sobol_directions(dims, 8)
        for m in range(9):
            points = utils._sobol_net(directions, m) * 2.0**-utils._SOBOL_BITS
            want = qmc.Sobol(dims, scramble=False).random_base2(m)
            assert points.shape == want.shape
            assert np.array_equal(points, want), (dims, m)


def test_embedded_table_is_scipys_first_64_rows():
    if not os.path.exists(SCIPY_TABLE):
        pytest.skip("installed scipy ships no Sobol direction-number file")
    with np.load(SCIPY_TABLE) as table:
        poly, vinit = table["poly"][:64], table["vinit"][:64]
    assert list(poly) == list(utils._SOBOL_POLY)
    embedded = np.zeros_like(vinit)
    for d, row in enumerate(utils._SOBOL_VINIT):
        embedded[d, : len(row)] = row
    np.testing.assert_array_equal(embedded, vinit)


def one_per_stratum(cells, n):
    return np.array_equal(np.sort(cells), np.arange(n))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**63), m=st.integers(0, 8))
def test_scrambled_points_stay_a_net(seed, m):
    n = 2**m
    u = utils._scrambled_sobol(utils.stream(seed, 2), n, 64)
    assert u.shape == (n, 64)
    # Cell centres of the 2**-30 lattice: never 0 or 1, so normals stay finite.
    np.testing.assert_array_equal((u * 2.0**utils._SOBOL_BITS) % 1.0, 0.5)
    # One point in each of the n equal intervals of every coordinate.
    for column in u.T:
        assert one_per_stratum(np.floor(column * n).astype(int), n)
    # Dimensions 1-2 form a (0, m, 2)-net: one point in every box of
    # 2**-a by 2**-(m - a).
    for a in range(m + 1):
        rows = np.floor(u[:, 0] * 2**a).astype(int)
        cols = np.floor(u[:, 1] * 2 ** (m - a)).astype(int)
        assert one_per_stratum(rows * 2 ** (m - a) + cols, n)
    z = utils.sobol_normals(utils.stream(seed, 2), n, 70)
    assert z.shape == (n, 70)
    assert np.all(np.isfinite(z))
    np.testing.assert_array_equal(z[:, :64], ndtri(u))
    np.testing.assert_array_equal(z, utils.sobol_normals(utils.stream(seed, 2), n, 70))


def test_other_counts_take_the_leading_points():
    head = utils._scrambled_sobol(utils.stream(4, 2), 5, 3)
    whole = utils._scrambled_sobol(utils.stream(4, 2), 8, 3)
    np.testing.assert_array_equal(head, whole[:5])


def test_seeds_scramble_differently():
    a = utils.sobol_normals(utils.stream(0, 2), 16, 6)
    b = utils.sobol_normals(utils.stream(1, 2), 16, 6)
    assert not np.array_equal(a, b)
