from fractions import Fraction

import pytest

from latticeknots import Tabulation, build_knot, knot_from_vertices, l1_distance

# The 12-stick trefoil table: columns x, y, z; type sequence cycling
# z+, x+, y+, z-, x-, y- twice.
TREFOIL_TYPES = ("z+", "x+", "y+", "z-", "x-", "y-") * 2
TREFOIL_X = (2, 3, 2, 1)
TREFOIL_Y = (1, 2, 3, 2)
TREFOIL_Z = (3, 2, 1, 2)


def trefoil_tabulation() -> Tabulation:
    return Tabulation.from_columns(TREFOIL_TYPES, TREFOIL_X, TREFOIL_Y, TREFOIL_Z)


def knot_distance(K, i: int, j: int) -> int:
    """Length of the shorter of the two arcs between vertices ``i`` and ``j``."""
    n = K.edge_length
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex index out of range for edge length {n}")
    d = abs(i - j)
    return min(d, n - d)


def distortion_pair_value(K, i: int, j: int) -> Fraction:
    """The exact distortion ratio of a single vertex pair."""
    if i == j:
        raise ValueError("distortion ratio of a vertex with itself is undefined")
    return Fraction(knot_distance(K, i, j), l1_distance(K.vertices[i], K.vertices[j]))


@pytest.fixture
def trefoil():
    return build_knot(trefoil_tabulation())


@pytest.fixture
def unit_square():
    return knot_from_vertices([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])


@pytest.fixture
def rectangle():
    return knot_from_vertices([(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])


@pytest.fixture
def cube_hexagon():
    # nonplanar hexagon around a cube corner, the distortion-one one
    return knot_from_vertices(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)]
    )
