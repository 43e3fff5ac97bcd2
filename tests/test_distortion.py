import random
from collections import deque
from fractions import Fraction

import pytest

from latticeknots import (
    ISOMETRIES,
    PreconditionFailed,
    bfs_distances,
    check_distortion_one_structure,
    distortion_upper_bound,
    enumerate_conformations,
    format_exact,
    knot_from_vertices,
    random_lattice_knot,
    torus_knot,
    vertex_distortion,
    vertex_distortion_oracle,
)
from latticeknots.distortion import DistortionReport
from latticeknots.lattice import l1_distance
from conftest import distortion_pair_value, knot_distance


def walk_both_ways(K, i, j):
    """Oracle for d_K: physically walk the cycle in both directions."""
    n = K.edge_length
    forward = 0
    k = i
    while k != j:
        k = (k + 1) % n
        forward += 1
    return min(forward, n - forward)


def test_knot_distance_examples(trefoil, unit_square):
    assert knot_distance(unit_square, 0, 1) == 1
    for i in range(trefoil.edge_length):
        assert knot_distance(trefoil, i, trefoil.antipodal_vertex(i)) == 12
        assert knot_distance(trefoil, i, i) == 0

    j = trefoil.vertices.index((2, 0, 3))
    assert knot_distance(trefoil, 0, j) == walk_both_ways(trefoil, 0, j) == 5

    with pytest.raises(IndexError):
        knot_distance(trefoil, 0, 99)


def test_knot_distance_agrees_with_walking(trefoil):
    for i in range(0, trefoil.edge_length, 5):
        for j in range(trefoil.edge_length):
            assert knot_distance(trefoil, i, j) == walk_both_ways(trefoil, i, j)


def test_unit_square_distortion_is_one(unit_square):
    report = vertex_distortion(unit_square)
    assert report.value == 1
    # every one of the six pairs realizes the ratio exactly
    assert len(report.realizing_pairs) == 6
    assert report.pair_count_scanned == 6


def test_torus_values_against_oracle():
    for p, expected in ((2, 11), (4, 41), (5, 61)):
        K = torus_knot(p)
        report = vertex_distortion(K)
        assert report.value == expected
        value, pairs = vertex_distortion_oracle(K)
        assert value == report.value
        assert pairs == report.realizing_pairs


def test_report_pairs_attain_the_value(trefoil):
    report = vertex_distortion(trefoil)
    for i, j in report.realizing_pairs:
        assert i < j
        assert distortion_pair_value(trefoil, i, j) == report.value
    # spot check that other pairs stay below
    rng = random.Random(1)
    for _ in range(50):
        i, j = rng.sample(range(trefoil.edge_length), 2)
        assert distortion_pair_value(trefoil, i, j) <= report.value


def test_distortion_pair_value(trefoil):
    assert distortion_pair_value(trefoil, 0, 1) == 1
    assert distortion_pair_value(trefoil, 3, 17) == distortion_pair_value(
        trefoil, 17, 3
    )
    with pytest.raises(ValueError):
        distortion_pair_value(trefoil, 4, 4)


def test_unit_distance_pair_on_t89_matches_global_maximum():
    K = torus_knot(8)
    n = K.edge_length
    best = Fraction(0)
    for i in range(n):
        vi = K.vertices[i]
        for j in range(i + 1, n):
            if l1_distance(vi, K.vertices[j]) == 1:
                value = distortion_pair_value(K, i, j)
                if value > best:
                    best = value
    assert best == 155 == vertex_distortion(K).value


def test_distortion_upper_bound(trefoil, unit_square):
    assert distortion_upper_bound(unit_square) == 2
    assert distortion_upper_bound(torus_knot(3)) == 26
    for K in (trefoil, unit_square, torus_knot(4)):
        assert 1 <= vertex_distortion(K).value <= distortion_upper_bound(K)


def test_distortion_invariant_under_isometries(trefoil, cube_hexagon):
    rng = random.Random(11)
    for K in (trefoil, cube_hexagon, torus_knot(3)):
        value = vertex_distortion(K).value
        for _ in range(20):
            iso = rng.choice(ISOMETRIES)
            shift = tuple(rng.randrange(-9, 10) for _ in range(3))
            image = K.transform(iso).translate(shift)
            assert vertex_distortion(image).value == value


def test_distortion_invariant_under_reversal_and_rotation(trefoil):
    value = vertex_distortion(trefoil).value
    assert vertex_distortion(trefoil.reverse()).value == value
    assert vertex_distortion(trefoil.rotate_start(7)).value == value


def test_structure_check_on_unit_square(unit_square):
    report = check_distortion_one_structure(unit_square)
    assert report.ok
    assert report.non_corner_vertices == ()
    assert report.non_staircase_pairs == ()


def test_structure_check_on_cube_hexagon(cube_hexagon):
    assert vertex_distortion(cube_hexagon).value == 1
    assert check_distortion_one_structure(cube_hexagon).ok


def test_structure_check_requires_distortion_one(trefoil):
    with pytest.raises(PreconditionFailed):
        check_distortion_one_structure(trefoil)


def test_bfs_oracle_matches_arc_positions():
    rng = random.Random(23)
    for _ in range(10):
        K = random_lattice_knot(rng, 40)
        for i in range(K.edge_length):
            row = bfs_distances(K, i)
            for j in range(K.edge_length):
                assert row[j] == knot_distance(K, i, j)


def reference_graph(K):
    """Adjacency keyed by lattice point, built from consecutive vertices."""
    adj = {v: [] for v in K.vertices}
    n = len(K.vertices)
    for i in range(n):
        p, q = K.vertices[i], K.vertices[(i + 1) % n]
        adj[p].append(q)
        adj[q].append(p)
    return adj


def reference_bfs_row(K, adj, i):
    dist = {K.vertices[i]: 0}
    queue = deque([K.vertices[i]])
    while queue:
        p = queue.popleft()
        for q in adj[p]:
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return [dist[v] for v in K.vertices]


def reference_oracle(K):
    """Unfiltered brute force over a point-keyed BFS table."""
    n = len(K.vertices)
    adj = reference_graph(K)
    best_num, best_den = 0, 1
    pairs = []
    for i in range(n):
        row = reference_bfs_row(K, adj, i)
        for j in range(i + 1, n):
            dk, d1 = row[j], l1_distance(K.vertices[i], K.vertices[j])
            if dk * best_den > best_num * d1:
                best_num, best_den = dk, d1
                pairs = [(i, j)]
            elif dk * best_den == best_num * d1:
                pairs.append((i, j))
    return Fraction(best_num, best_den), tuple(pairs)


def test_oracle_matches_point_keyed_reference():
    """The index graph and the row pre-filter change no value, pair or order;
    rectangles and the census tie many pairs at the maximum."""
    rng = random.Random(31)
    rectangles = [
        knot_from_vertices([(0, 0, 0), (a, 0, 0), (a, b, 0), (0, b, 0)])
        for a in range(1, 9)
        for b in range(1, 9)
    ]
    random_knots = [random_lattice_knot(rng, 60) for _ in range(200)]
    for K in list(enumerate_conformations(10)) + rectangles + random_knots:
        assert vertex_distortion_oracle(K) == reference_oracle(K), K
        adj = reference_graph(K)
        for i in range(K.edge_length):
            assert bfs_distances(K, i) == reference_bfs_row(K, adj, i)


def dilate(K, factor):
    corners = [K.vertices[stick.start] for stick in K.sticks]
    return knot_from_vertices([tuple(factor * c for c in v) for v in corners])


L_HEXAGON = [(0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)]


def test_scan_and_oracle_agree_on_random_knots():
    """Value and every realizing pair, on random knots and where ties are
    dense: opposite sides of a rectangle tie along whole runs, and dilation
    stretches every tie."""
    rng = random.Random(29)
    random_knots = [random_lattice_knot(rng, 40) for _ in range(10)]
    rectangles = [
        knot_from_vertices([(0, 0, 0), (a, 0, 0), (a, b, 0), (0, b, 0)])
        for a in range(1, 9)
        for b in range(1, 9)
    ]
    dilations = [
        dilate(K, factor)
        for K in (torus_knot(2), torus_knot(3), knot_from_vertices(L_HEXAGON))
        for factor in (2, 3, 4, 5)
    ]
    for K in random_knots + rectangles + list(enumerate_conformations(10)) + dilations:
        report = vertex_distortion(K)
        assert (report.value, report.realizing_pairs) == vertex_distortion_oracle(K), K


def test_report_is_frozen(unit_square):
    report = vertex_distortion(unit_square)
    assert isinstance(report, DistortionReport)
    with pytest.raises(AttributeError):
        report.value = Fraction(2)


def test_format_exact():
    assert format_exact(Fraction(41)) == "41"
    assert format_exact(Fraction(95, 4)) == "95/4"
    assert format_exact(Fraction(-3, 2)) == "-3/2"
