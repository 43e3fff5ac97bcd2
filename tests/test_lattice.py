import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeknots import (
    bounding_box,
    is_box_corner,
    is_staircase,
    l1_distance,
    torus_knot,
)
from latticeknots.lattice import Box, affine_rank, are_collinear, are_coplanar
from conftest import staircase_count

points = st.tuples(
    st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
)


def enumerate_monotone_walks(a, b):
    """Independent oracle: count unit-step walks with per-axis fixed direction."""
    target = tuple(b[i] - a[i] for i in range(3))
    signs = tuple(1 if d >= 0 else -1 for d in target)
    goal = tuple(abs(d) for d in target)

    def rec(done):
        if done == goal:
            return 1
        total = 0
        for axis in range(3):
            if done[axis] < goal[axis]:
                nxt = list(done)
                nxt[axis] += 1
                total += rec(tuple(nxt))
        return total

    assert signs  # silence linters; signs only matter for path geometry
    return rec((0, 0, 0))


def test_l1_distance_examples():
    assert l1_distance((0, 0, 0), (0, 0, 0)) == 0
    assert l1_distance((1, 1, 0), (3, 3, 0)) == 4
    assert l1_distance((2, -1, 5), (-1, 0, 5)) == 4


@given(points, points, points)
def test_l1_is_a_metric(a, b, c):
    assert l1_distance(a, b) == l1_distance(b, a) >= 0
    assert (l1_distance(a, b) == 0) == (a == b)
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)


def test_staircase_count_examples():
    assert staircase_count((1, 1, 0), (3, 3, 0)) == 6
    assert staircase_count((5, -2, 7), (5, -2, 7)) == 1
    assert staircase_count((0, 0, 0), (1, 1, 1)) == 6


def test_staircase_count_matches_enumeration_small():
    for dx in range(4):
        for dy in range(4):
            for dz in range(3):
                a = (0, 0, 0)
                b = (dx, -dy, dz)
                assert staircase_count(a, b) == enumerate_monotone_walks(a, b)


def test_staircase_count_arbitrary_precision():
    # d1 = 60 split evenly: the multinomial overflows 64-bit integers
    value = staircase_count((0, 0, 0), (20, 20, 20))
    import math

    assert value == math.comb(60, 20) * math.comb(40, 20)
    assert value == 577831214478475823831865900 > 2**63


def test_is_staircase_examples():
    walk = [(1, 1, 0), (2, 1, 0), (2, 2, 0), (3, 2, 0), (3, 3, 0)]
    assert is_staircase(walk)
    assert is_staircase([(4, 5, 6)])
    assert not is_staircase([(0, 0, 0), (1, 0, 0), (0, 0, 0)])


def test_is_staircase_rejects_non_unit_paths():
    with pytest.raises(ValueError):
        is_staircase([(0, 0, 0), (2, 0, 0)])
    with pytest.raises(ValueError):
        is_staircase([])


@st.composite
def staircase_walks(draw):
    """Random monotone walks built from a shuffled step multiset."""
    a = draw(points)
    dx = draw(st.integers(0, 5))
    dy = draw(st.integers(0, 5))
    dz = draw(st.integers(0, 5))
    sx, sy, sz = (draw(st.sampled_from((-1, 1))) for _ in range(3))
    steps = [(sx, 0, 0)] * dx + [(0, sy, 0)] * dy + [(0, 0, sz)] * dz
    steps = draw(st.permutations(steps))
    path = [a]
    for s in steps:
        p = path[-1]
        path.append((p[0] + s[0], p[1] + s[1], p[2] + s[2]))
    return path


@given(staircase_walks())
def test_staircase_walks_realize_l1(path):
    assert is_staircase(path)
    assert len(path) - 1 == l1_distance(path[0], path[-1])


@st.composite
def random_walks(draw):
    a = draw(points)
    n = draw(st.integers(0, 12))
    dirs = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    ]
    path = [a]
    for _ in range(n):
        s = draw(st.sampled_from(dirs))
        p = path[-1]
        path.append((p[0] + s[0], p[1] + s[1], p[2] + s[2]))
    return path


@given(random_walks())
def test_walk_length_equals_l1_iff_staircase(path):
    length = len(path) - 1
    d1 = l1_distance(path[0], path[-1])
    assert length >= d1
    assert (length == d1) == is_staircase(path)


def test_bounding_box_examples():
    assert bounding_box([(0, 0, 0)]) == Box((0, 0, 0), (0, 0, 0))
    square = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    assert bounding_box(square) == Box((0, 0, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        bounding_box([])


def test_bounding_box_matches_fold_on_torus_knot():
    K = torus_knot(3)
    lo = tuple(min(v[i] for v in K.vertices) for i in range(3))
    hi = tuple(max(v[i] for v in K.vertices) for i in range(3))
    box = bounding_box(K.vertices)
    assert (box.min_corner, box.max_corner) == (lo, hi)


def test_box_corners_deduplicate_degenerate_axes():
    box = Box((0, 0, 0), (1, 1, 0))
    assert len(box.corners) == 4
    assert Box((0, 0, 0), (0, 0, 0)).corners == ((0, 0, 0),)
    full = Box((0, 0, 0), (1, 2, 3))
    assert len(full.corners) == 8


def test_is_box_corner():
    square = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    assert all(is_box_corner(v, square) for v in square)

    K = torus_knot(3)
    assert not is_box_corner((0, 0, 0), K.vertices)

    # a vertex strictly interior in x can never be a corner
    interior = next(
        v
        for v in K.vertices
        if min(w[0] for w in K.vertices) < v[0] < max(w[0] for w in K.vertices)
    )
    assert not is_box_corner(interior, K.vertices)

    with pytest.raises(ValueError):
        is_box_corner((99, 99, 99), square)


def test_is_box_corner_agrees_with_corner_membership():
    K = torus_knot(2)
    box = K.bounding_box()
    for v in K.vertices:
        assert is_box_corner(v, K.vertices) == (v in box.corners)


def affine_rank_by_fractions(points):
    """Reference: Gaussian elimination over the rationals."""
    if len(points) < 2:
        return 0
    base = points[0]
    rows = [[Fraction(p[axis] - base[axis]) for axis in range(3)] for p in points[1:]]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == 3:
            break
    return rank


def test_affine_rank():
    assert affine_rank([(1, 2, 3)]) == 0
    assert affine_rank([(0, 0, 0), (2, 2, 2), (5, 5, 5)]) == 1
    assert affine_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == 2
    assert affine_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    assert are_collinear([(3, 3, -3), (5, 5, -5)])
    assert are_coplanar([(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 7, 0)])
    assert not are_coplanar([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])

    # the integer elimination agrees with rational elimination on random
    # point sets, built to be collinear, coplanar or general
    rng = random.Random(11)
    for trial in range(3000):
        base = [rng.randint(-5, 5) for _ in range(3)]
        spans = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(trial % 4)]
        points = [tuple(base)]
        for _ in range(rng.randint(0, 6)):
            coeffs = [rng.randint(-3, 3) for _ in spans]
            points.append(
                tuple(
                    base[a] + sum(c * u[a] for c, u in zip(coeffs, spans))
                    for a in range(3)
                )
            )
        assert affine_rank(points) == affine_rank_by_fractions(points), points


@settings(max_examples=25)
@given(st.permutations([0, 1, 2]), st.tuples(*[st.sampled_from((-1, 1))] * 3))
def test_staircase_count_isometry_invariant(perm, signs):
    a = (0, 0, 0)
    b = (2, 3, 1)
    image = tuple(signs[i] * b[perm[i]] for i in range(3))
    assert staircase_count(a, image) == staircase_count(a, b)
