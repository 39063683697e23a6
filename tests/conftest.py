"""Shared fixtures: the named 2-cube types and a handful of fixed outmaps.

Vertex and value masks use bit i-1 for coordinate i throughout; value
tuples are indexed by vertex mask.  The small constants here were worked
out by hand and act as frozen oracles for the library.
"""

import itertools
import random

import pytest

from uso_kit import Outmap
from uso_kit.enumeration import _orientation_values

# the four 2-cube orientation types
EYE = (0, 1, 2, 3)          # unique sink at 11, no antipodal failure
BOW = (0, 1, 3, 2)          # the 2-dimensional decreasing-path USO
TWIN_PEAK = (0, 3, 3, 0)    # two sinks, every antipodal pair ties
CYCLE = (1, 2, 2, 1)        # directed 4-cycle, no sink

# a hand-checked 3-dimensional border USO and its dual (the 3-dimensional
# decreasing-path USO); the two differ exactly in the values of 100/101
BORDER_3 = (0, 1, 3, 2, 6, 7, 5, 4)
KM_3 = (0, 1, 3, 2, 7, 6, 4, 5)

# 3-cube outmap whose bottom 2-face is a twin peak while the whole cube
# still has a unique sink: classified Other, smallest failing face [000, 110]
EMBEDDED_TWIN_PEAK = (4, 7, 7, 4, 0, 1, 2, 3)


def random_outmap(n: int, rng) -> Outmap:
    """Uniformly random outmap function (not usually an orientation)."""
    return Outmap(n, tuple(rng.getrandbits(n) if n else 0 for _ in range(1 << n)))


def outmap_functions(n: int) -> list[Outmap]:
    """Every function from vertices to coordinate sets, lexicographic order."""
    return [Outmap(n, values) for values in itertools.product(range(1 << n), repeat=1 << n)]


def orientations(n: int) -> list[Outmap]:
    """Every orientation of the n-cube, one per edge-direction word."""
    return [Outmap(n, tuple(row)) for row in _orientation_values(n).tolist()]


@pytest.fixture
def eye():
    return Outmap(2, EYE)


@pytest.fixture
def bow():
    return Outmap(2, BOW)


@pytest.fixture
def twin_peak():
    return Outmap(2, TWIN_PEAK)


@pytest.fixture
def cycle():
    return Outmap(2, CYCLE)


@pytest.fixture
def border_3():
    return Outmap(3, BORDER_3)


@pytest.fixture
def km_3():
    return Outmap(3, KM_3)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
