import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from latticeknots import (
    ISOMETRIES,
    PreconditionFailed,
    check_distortion_one_structure,
    enumerate_conformations,
    format_exact,
    knot_from_vertices,
    random_lattice_knot,
    torus_knot,
    vertex_distortion,
    vertex_distortion_oracle,
)
import latticeknots.distortion as distortion
from latticeknots.distortion import DistortionReport
from latticeknots.knot import TooManyPoints
from latticeknots.lattice import l1_distance
from conftest import (
    distortion_pair_value, double_loop_corners, knot_distance, moved_knot, reference_bfs_row,
    reference_graph,
)


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
    n = trefoil.edge_length
    for i in range(n):
        assert knot_distance(trefoil, i, (i + n // 2) % n) == 12
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
    # no arc is longer than half the knot, and no two vertices are closer than 1
    for K in (trefoil, unit_square, torus_knot(4)):
        assert 1 <= vertex_distortion(K).value <= Fraction(K.edge_length, 2)


def test_distortion_invariant_under_isometries(trefoil, cube_hexagon):
    rng = random.Random(11)
    for K in (trefoil, cube_hexagon, torus_knot(3)):
        value = vertex_distortion(K).value
        for _ in range(20):
            iso = rng.choice(ISOMETRIES)
            shift = tuple(rng.randrange(-9, 10) for _ in range(3))
            image = moved_knot(K, iso, shift)
            assert vertex_distortion(image).value == value


def test_distortion_invariant_under_reversal_and_rotation(trefoil):
    value = vertex_distortion(trefoil).value
    assert vertex_distortion(moved_knot(trefoil, reverse=True)).value == value
    assert vertex_distortion(moved_knot(trefoil, start=7)).value == value


def test_structure_check_on_unit_square(unit_square):
    report = check_distortion_one_structure(unit_square)
    assert report.ok
    assert report.non_corner_vertices == ()
    assert report.non_staircase_pairs == ()


def test_structure_check_on_cube_hexagon(cube_hexagon):
    assert vertex_distortion(cube_hexagon).value == 1
    assert check_distortion_one_structure(cube_hexagon).ok


def test_structure_check_requires_distortion_one(trefoil):
    long_rectangle = knot_from_vertices([(0, 0, 0), (10**6, 0, 0), (10**6, 1, 0), (0, 1, 0)])
    for K in (trefoil, long_rectangle):
        with pytest.raises(PreconditionFailed, match="above 1"):
            check_distortion_one_structure(K)


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
    """The index-distance arc and the row pre-filter change no value, pair
    or order; rectangles and the census tie many pairs at the maximum."""
    rng = random.Random(31)
    rectangles = [
        knot_from_vertices([(0, 0, 0), (a, 0, 0), (a, b, 0), (0, b, 0)])
        for a in range(1, 9)
        for b in range(1, 9)
    ]
    random_knots = [random_lattice_knot(rng, 60) for _ in range(200)]
    for K in list(enumerate_conformations(10)) + rectangles + random_knots:
        assert vertex_distortion_oracle(K) == reference_oracle(K), K


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


def reference_vertex_distortion(K):
    """The all-pairs visit: bound every non-adjacent stick pair by its
    largest arc over its box gap, sort all the bounds, then visit the pairs
    in decreasing order until a bound falls below the best ratio."""
    n = K.edge_length
    half = n // 2
    sticks = K.sticks
    m = len(sticks)
    # two unequal bounds cap/gap differ by more than 1/n**2 (both gaps are
    # below n), so this integer key sorts them exactly
    scale = n * n
    order = []
    for a, b in combinations(range(m), 2):
        if b - a == 1 or b - a == m - 1:
            continue
        A, B = sticks[a], sticks[b]
        d_lo, d_hi = B.start - A.start - A.length, B.start - A.start + B.length
        if d_lo + (half - d_lo) % n <= d_hi:  # some d = n/2 (mod n) in range
            cap = half
        else:
            cap = max(distortion._arc(n, d_lo), distortion._arc(n, d_hi))
        gap = (max(0, B.lo[0] - A.hi[0], A.lo[0] - B.hi[0])
               + max(0, B.lo[1] - A.hi[1], A.lo[1] - B.hi[1])
               + max(0, B.lo[2] - A.hi[2], A.lo[2] - B.hi[2]))
        order.append((cap * scale // gap, a, b, cap, gap))
    order.sort(reverse=True)

    best = Fraction(1)
    reached = []
    for _, a, b, cap, gap in order:
        if cap * best.denominator < best.numerator * gap:
            break
        ratio = Fraction(*distortion._pair_max(n, sticks[a], sticks[b]))
        best = max(best, ratio)
        reached.append((a, b, ratio))

    if best == 1:
        # no arc is shorter than its taxicab distance: every pair realizes 1
        found = list(combinations(range(n), 2))
    else:
        found = []
        for a, b, ratio in reached:
            if ratio == best:
                found += distortion._level_pairs(
                    n, sticks[a], sticks[b], best.numerator, best.denominator)
    pairs = sorted({(min(i % n, j % n), max(i % n, j % n)) for i, j in found})
    return DistortionReport(best, tuple(pairs), n * (n - 1) // 2), found


def rectangle(a, b):
    return knot_from_vertices([(0, 0, 0), (a, 0, 0), (a, b, 0), (0, b, 0)])


def dilated_knots():
    """Torus p = 2, 3 and a spread of 12-edge census classes, each dilated
    by factors up to 40: long sticks whose ties stretch into long runs."""
    census = [K for K in enumerate_conformations(12) if K.edge_length == 12]
    shapes = [torus_knot(2), torus_knot(3)] + census[::60]
    return [dilate(K, factor) for K in shapes for factor in (2, 3, 7, 16, 40)]


def test_kernel_matches_all_pairs_reference():
    """Visiting by gap bucket changes no value, realizing pair or count,
    and the level pairs of the stick pairs that reach the value hold no
    pair twice: the pieces are half-open, so each pair lies in one."""
    rng = random.Random(43)
    corpora = [
        enumerate_conformations(12),
        [torus_knot(p) for p in range(2, 41)],
        [rectangle(a, b) for a in range(1, 9) for b in range(1, 9)],
        [random_lattice_knot(rng, 60) for _ in range(200)],
        dilated_knots(),
    ]
    for corpus in corpora:
        for K in corpus:
            report, found = reference_vertex_distortion(K)
            assert vertex_distortion(K) == report, K
            assert distortion.distortion_value(K) == report.value, K
            assert len(found) == len(report.realizing_pairs), K


def test_gap_lemma_beyond_the_census():
    """For n >= 8 some window of n/2 steps holds a step and its opposite, so
    the distortion is at least n/(n - 4), on knots far past the census."""
    rng = random.Random(17)
    knots = [random_lattice_knot(rng, 60) for _ in range(300)] + dilated_knots()
    checked = 0
    for K in knots:
        n = K.edge_length
        if n >= 8:
            assert distortion.distortion_value(K) >= Fraction(n, n - 4), K
            checked += 1
    assert checked > 300


def test_value_one_test_stops_at_the_same_decision_as_the_value():
    """The structure check refuses a knot at the first stick pair the value
    pass bounds above 1; that decides exactly what the value does."""
    rng = random.Random(47)
    corpora = [
        enumerate_conformations(12),
        [random_lattice_knot(rng, 60) for _ in range(200)],
        [torus_knot(p) for p in range(2, 9)],
        dilated_knots(),
    ]
    for corpus in corpora:
        for K in corpus:
            above = distortion._max_ratio(K)[0] != 1
            assert any(num > den for *_, num, den in distortion._bounded(K)) == above, K
            try:
                check_distortion_one_structure(K)
            except PreconditionFailed:
                assert above, K
            else:
                assert not above, K


def test_value_one_realizes_every_pair_as_the_oracle_does():
    """Where the kernel reads 1, its pairs are all n(n-1)/2 pairs and those
    of the all-pairs oracle, which shares no code with the kernel."""
    corpus = list(enumerate_conformations(10))
    corpus += [rectangle(a, b) for a in range(1, 9) for b in range(1, 9)]
    ones = 0
    for K in corpus:
        report = vertex_distortion(K)
        if report.value == 1:
            n = K.edge_length
            assert len(report.realizing_pairs) == n * (n - 1) // 2
            assert report.realizing_pairs == tuple(combinations(range(n), 2))
            assert (report.value, report.realizing_pairs) == vertex_distortion_oracle(K), K
            ones += 1
    # the unit square (in the census and as the 1 x 1 rectangle) and the
    # cube hexagon
    assert ones == 3


def test_double_loop_value_and_pairs():
    for L in (3, 10, 40):
        K = knot_from_vertices(double_loop_corners(L))
        report = vertex_distortion(K)
        assert report.value == 2 * L + 3
        assert len(report.realizing_pairs) == L + 4
        assert (report.value, report.realizing_pairs) == vertex_distortion_oracle(K)


def test_realizing_pairs_past_the_limit_are_refused(monkeypatch):
    # the double loop at L = 40 has 44 realizing pairs, each found once; a
    # limit of 39 refuses its run of 40 before listing it
    K = knot_from_vertices(double_loop_corners(40))
    monkeypatch.setattr(distortion, "MAX_POINTS", 44)
    assert len(vertex_distortion(K).realizing_pairs) == 44
    for limit in (43, 39):
        monkeypatch.setattr(distortion, "MAX_POINTS", limit)
        with pytest.raises(TooManyPoints):
            vertex_distortion(K)


def test_pairs_on_the_wrapped_indices_of_the_last_stick():
    """Started inside a stick, a knot's last stick owns indices past n that
    wrap to 0, 1, ...; realizing pairs on them match the oracle's."""
    shapes = [knot_from_vertices(double_loop_corners(40)), rectangle(5, 3), rectangle(6, 6)]
    for K in shapes:
        for start in (1, 2, 3):
            M = moved_knot(K, start=start)
            last = M.sticks[-1]
            wrapped = last.start + last.length - M.edge_length
            report = vertex_distortion(M)
            assert wrapped > 0 and any(i < wrapped for i, _ in report.realizing_pairs)
            assert (report.value, report.realizing_pairs) == vertex_distortion_oracle(M), M


def reference_zeros(A, B, C, cons):
    """``_zeros`` by the extended Euclidean algorithm, without its refusal."""
    g, x, y = ext_gcd(abs(A), abs(B))
    if C % g:
        return []
    q = -C // g
    s0 = x * q * (1 if A > 0 else -1)
    t0 = y * q * (1 if B > 0 else -1)
    ds, dt = B // g, -A // g
    lows, highs = [], []
    for a, b, c in cons:
        coef = a * ds + b * dt
        val = a * s0 + b * t0 + c
        if coef > 0:
            lows.append(-(val // coef))
        elif coef < 0:
            highs.append(val // -coef)
        elif val < 0:
            return []
    return [(s0 + ds * k, t0 + dt * k) for k in range(max(lows), min(highs) + 1)]


def ext_gcd(a, b):
    """(g, x, y) with a*x + b*y == g == gcd(a, b), for a, b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def test_zeros_matches_the_extended_euclid_reference():
    """Seeded equations on a box with extra constraints, among them A = 0,
    B = 0, |B / gcd| = 1 and constraint sets no point meets."""
    rng = random.Random(47)
    seen = {"A = 0": 0, "B = 0": 0, "|b| = 1": 0, "infeasible": 0, "run": 0}
    for _ in range(20000):
        A, B = rng.randint(-9, 9), rng.randint(-9, 9)
        if not (A or B):
            continue
        C = rng.randint(-40, 40)
        la, lb = rng.randint(1, 12), rng.randint(1, 12)
        cons = [(1, 0, 0), (-1, 0, la - 1), (0, 1, 0), (0, -1, lb - 1)]
        cons += [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-12, 12))
                 for _ in range(rng.randint(0, 3))]
        zeros = distortion._zeros(A, B, C, cons)
        assert zeros == reference_zeros(A, B, C, cons), (A, B, C, cons)
        seen["A = 0"] += A == 0
        seen["B = 0"] += B == 0
        seen["|b| = 1"] += abs(B) == math.gcd(A, B)
        seen["infeasible"] += C % math.gcd(A, B) == 0 and not zeros
        seen["run"] += len(zeros) > 1
    assert min(seen.values()) > 100, seen


def parallel_staircases(k):
    """Two unit staircases of k x+ y+ steps each, one above the other and
    joined by z steps: n = m = 4k + 2, every stick of length 1."""
    lower = []
    for i in range(k):
        lower += [(i, i, 0), (i + 1, i, 0)]
    lower.append((k, k, 0))
    upper = [(x, y, 1) for x, y, _ in reversed(lower)]
    return knot_from_vertices(lower + upper)


def test_stick_dense_staircases():
    K = parallel_staircases(100)
    assert K.edge_length == K.stick_count == 402
    report = vertex_distortion(K)
    # vertex 100 is the middle of the lower staircase, 301 sits above it
    assert (report.value, report.realizing_pairs) == (201, ((100, 301),))
    assert (report.value, report.realizing_pairs) == vertex_distortion_oracle(K)


def test_report_is_frozen(unit_square):
    report = vertex_distortion(unit_square)
    assert isinstance(report, DistortionReport)
    with pytest.raises(AttributeError):
        report.value = Fraction(2)


def test_format_exact():
    assert format_exact(Fraction(41)) == "41"
    assert format_exact(Fraction(95, 4)) == "95/4"
    assert format_exact(Fraction(-3, 2)) == "-3/2"
    assert format_exact(Fraction(-41)) == "-41"
    assert format_exact(7) == "7"
    assert format_exact(Fraction(10**12 + 1, 3)) == "1000000000001/3"
    assert format_exact(Fraction(-(10**12))) == "-1000000000000"
