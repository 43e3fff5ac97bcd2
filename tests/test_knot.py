import random
import tracemalloc
from itertools import groupby

import pytest

from latticeknots import (
    KnotError,
    LatticeKnot,
    LengthMismatch,
    NonAxisParallel,
    NotClosed,
    SelfIntersection,
    StickType,
    Tabulation,
    build_knot,
    enumerate_conformations,
    generate_torus_tabulation,
    knot_from_vertices,
    random_lattice_knot,
)
from latticeknots.io import knot_to_vertex_csv
from latticeknots.knot import ALL_PAIRS, MAX_POINTS, TooManyPoints
from conftest import (
    TREFOIL_TYPES,
    TREFOIL_X,
    TREFOIL_Y,
    TREFOIL_Z,
    knot_steps,
    moved_knot,
    reference_knot,
    reference_random_steps,
    trefoil_tabulation,
)
from test_distortion import dilated_knots


def test_trefoil_builds_closed_and_simple(trefoil):
    assert trefoil.stick_count == 12
    assert trefoil.edge_length == 24
    assert trefoil.edge_length == sum(TREFOIL_X) + sum(TREFOIL_Y) + sum(TREFOIL_Z)
    assert len(set(trefoil.vertices)) == 24
    assert trefoil.origin == (0, 0, 0)


def test_trefoil_stick_lengths_read_rows_in_order(trefoil):
    lengths = [s.length for s in trefoil.sticks]
    # sequence starts z+, x+, y+: first row read per axis is (3, 2, 1)
    assert lengths == [3, 2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2]


def test_edge_length_is_even_and_counts_vertices(trefoil, unit_square, cube_hexagon):
    for K in (trefoil, unit_square, cube_hexagon):
        assert K.edge_length % 2 == 0
        assert K.edge_length == len(K.vertices)


def test_four_stick_table_is_unit_square():
    tab = Tabulation.from_columns(("x+", "y+", "x-", "y-"), (1, 1), (1, 1), ())
    K = build_knot(tab)
    assert K.vertices == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))


def test_tampered_first_z_length_no_longer_closes():
    # shrinking a single directed length unbalances the signed sums
    tab = Tabulation.from_columns(
        TREFOIL_TYPES, TREFOIL_X, TREFOIL_Y, (2, 2, 1, 2)
    )
    with pytest.raises(NotClosed):
        build_knot(tab)


def test_tampered_z_column_self_intersects():
    # rebalanced z-column (2, 1, 1, 2) keeps closure but revisits (1, 0, 2)
    tab = Tabulation.from_columns(
        TREFOIL_TYPES, TREFOIL_X, TREFOIL_Y, (2, 1, 1, 2)
    )
    with pytest.raises(SelfIntersection) as exc:
        build_knot(tab)
    assert exc.value.point == (1, 0, 2)
    assert exc.value.stick_indices == (1, 8)


def test_self_intersection_before_first_stick_start_is_on_last_stick():
    # two unit squares touching at the origin; the walk starts inside its
    # closing x+ stick (sticks start at indices 1, 2, 3, 5, 6, 7), so the
    # origin, visited first at index 0, belongs to the last stick
    steps = [StickType.parse(t) for t in "x+ y- x- y+ y+ x- y- x+".split()]
    with pytest.raises(SelfIntersection) as exc:
        LatticeKnot(steps, [1] * len(steps))
    assert exc.value.point == (0, 0, 0)
    assert exc.value.stick_indices == (5, 2)


def test_long_rectangle_retains_at_most_150_bytes_per_edge():
    # four sticks and nothing per edge until the points are asked for; then
    # the vertices, and a retained point index would add ~80 B
    corners = [(0, 0, 0), (100_000, 0, 0), (100_000, 1, 0), (0, 1, 0)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        K = knot_from_vertices(corners)
        built = tracemalloc.get_traced_memory()[0] - before
        K.vertices
        listed = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert K.edge_length == 200_002
    assert built < 4096
    assert listed <= 150 * K.edge_length


def test_points_past_the_limit_are_refused_before_they_are_listed():
    a = MAX_POINTS // 2
    K = knot_from_vertices([(0, 0, 0), (a, 0, 0), (a, 1, 0), (0, 1, 0)])
    assert K.edge_length == MAX_POINTS + 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(TooManyPoints, match=f"refused past {MAX_POINTS}"):
            K.vertices
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grown < 65536
    assert issubclass(TooManyPoints, ValueError)


def _outcome(build):
    """What a constructor gives: (steps, vertices, sticks), or the error's
    class, message, point and stick pair."""
    try:
        K = build()
    except KnotError as exc:
        point, pair = getattr(exc, "point", None), getattr(exc, "stick_indices", None)
        return type(exc), str(exc), point, pair
    return K if isinstance(K, tuple) else (knot_steps(K), K.vertices, K.sticks)


def _unit_steps(types, lengths):
    return [t for t, length in zip(types, lengths) for _ in range(length)]


def _random_walks(rng, count):
    """Random short walks as (types, lengths, origin): most closed, many of
    those not simple, each cut into runs at random places, so that a type
    often repeats in consecutive runs and the last run often continues the
    first."""
    dirs = list(StickType)
    for _ in range(count):
        steps = []
        for _ in range(rng.randrange(1, 16)):
            steps += [rng.choice(dirs)] * rng.randrange(1, 4)
        if rng.random() < 0.9:
            for axis in rng.sample(range(3), 3):
                total = sum(t.sign for t in steps if t.axis == axis)
                steps += [StickType.from_axis_sign(axis, -1 if total > 0 else 1)] * abs(total)
        turn = rng.randrange(len(steps))
        steps = steps[turn:] + steps[:turn]
        types, lengths = [], []
        for t, run in groupby(steps):
            left = len(list(run))
            while left:
                part = rng.randrange(1, left + 1)
                types.append(t)
                lengths.append(part)
                left -= part
        yield types, lengths, tuple(rng.randrange(-3, 4) for _ in range(3))


def _crossing_torus_walks(rng):
    """Torus walks of 24 to 108 sticks, at and past the constructor's
    all-pairs cut-over, some with a plane of more than ``ALL_PAIRS`` sticks
    (p >= 14), most made to cross: a stick and the next stick opposite it
    grow by the same amount, which keeps the walk closed and shifts the arc
    between them."""
    for p in (4, 5, 6, 14, 18):
        tab = generate_torus_tabulation(p)
        types, m = tab.types, len(tab.types)
        for _ in range(10):
            k = rng.randrange(m)
            opposite = next(i % m for i in range(k + 1, k + m)
                            if types[i % m] is types[k].opposite)
            lengths = list(tab.stick_lengths())
            amount = rng.randrange(1, 4)
            lengths[k] += amount
            lengths[opposite] += amount
            yield types, lengths, (0, 0, 0)


# The last stick runs x+ through vertex 0 and the x+ stick from (-2, 0, 0)
# runs over it, so the first revisit is vertex 0 itself, inside both sticks.
OVER_VERTEX_0 = ("x+ y+ x- y- x+ y- x- y+ x+", (2, 1, 4, 1, 5, 1, 4, 1, 1))


def test_constructor_matches_point_reference_on_random_walks():
    # every outcome of the stick constructor, from runs and from the corner
    # list, is the point-by-point constructor's: steps, vertices and sticks,
    # or the error's class, message, first revisited point and stick pair
    simple = revisits = past_cut_over = 0
    over = [StickType.parse(t) for t in OVER_VERTEX_0[0].split()], OVER_VERTEX_0[1]
    walks = [(*over, (0, 0, 0))] + list(_random_walks(random.Random(5), 6000))
    walks += _crossing_torus_walks(random.Random(41))
    for types, lengths, origin in walks:
        steps = _unit_steps(types, lengths)
        expected = _outcome(lambda: reference_knot(steps, origin))
        assert _outcome(lambda: LatticeKnot(types, lengths, origin)) == expected
        corners, point = [], origin
        for t, length in zip(types, lengths):
            corners.append(point)
            point = tuple(c + length * d for c, d in zip(point, t.step))
        if point == origin and len(corners) >= 3:
            assert _outcome(lambda: knot_from_vertices(corners)) == expected
        simple += expected[0] is not SelfIntersection and expected[0] is not NotClosed
        revisits += expected[0] is SelfIntersection
        past_cut_over += expected[0] is SelfIntersection and len(types) > ALL_PAIRS
    assert simple > 500 and revisits > 4000 and past_cut_over > 20


def _serpentine(rows, cross):
    """A walk in the plane z = 0 from (0, rows, 0) down ``rows`` rows of width
    3, run back and forth one below the other, and back up a column at
    x = -1.  With ``cross`` the first row comes in from x = -2, through the
    column at one point, round the column's top.  The sweep runs along y,
    and the column's points end at y = rows - 1, where that row lies."""
    types, lengths = [StickType.XM, StickType.YM, StickType.XP], [1, rows, 1]
    for r in range(rows):
        types += [StickType.XP if r % 2 == 0 else StickType.XM, StickType.YP]
        lengths += [3, 1]
    if cross:
        lengths[-2:] = [5, 2]
        types += [StickType.XP, StickType.YM]
        lengths += [2, 1]
    return [t.opposite for t in reversed(types)], lengths[::-1]


@pytest.mark.parametrize("cross", [False, True])
def test_constructor_sweeps_a_plane_of_a_thousand_sticks(cross):
    # every stick lies in z = 0, so past ALL_PAIRS sticks that plane is swept
    types, lengths = _serpentine(520, cross)
    assert len(types) > 1000
    steps, origin = _unit_steps(types, lengths), (0, 520, 0)
    expected = _outcome(lambda: reference_knot(steps, origin))
    assert _outcome(lambda: LatticeKnot(types, lengths, origin)) == expected
    if cross:
        assert expected[0] is SelfIntersection and expected[2] == (-1, 519, 0)
    else:
        assert {s.start_point[2] for s in expected[2]} == {0}


def test_constructor_matches_point_reference_on_knot_corpora():
    rng = random.Random(17)
    cases = [(knot_steps(K), K.origin, K) for K in enumerate_conformations(12)]
    cases += [(knot_steps(K), K.origin, K) for K in dilated_knots()]
    cases += [(knot_steps(K), K.origin, K)
              for K in (random_lattice_knot(rng, 60) for _ in range(300))]
    for p in range(2, 41):
        tab = generate_torus_tabulation(p)
        cases.append((_unit_steps(tab.types, tab.stick_lengths()), (0, 0, 0),
                      build_knot(tab)))
    for steps, origin, K in cases:
        expected = reference_knot(steps, origin)
        assert (knot_steps(K), K.vertices, K.sticks) == expected
        runs = [(t, len(list(run))) for t, run in groupby(steps)]
        types, lengths = zip(*runs)
        assert _outcome(lambda: LatticeKnot(types, lengths, origin)) == expected
        assert LatticeKnot(types, lengths, origin) == K
    assert len(cases) > 843 + 300 + 39


@pytest.mark.parametrize("max_edge_length", [40, 60])
def test_random_lattice_knot_matches_recursive_reference(max_edge_length):
    for seed in range(200):
        steps = reference_random_steps(random.Random(seed), max_edge_length)
        K = random_lattice_knot(random.Random(seed), max_edge_length)
        assert knot_steps(K) == tuple(steps), seed


def test_random_lattice_knot_reaches_a_thousand_edges():
    # the recursive search ran out of stack frames near 1,000 steps
    K = random_lattice_knot(random.Random(475), 1000)
    assert K.edge_length == 1000
    assert len(set(K.vertices)) == 1000


def test_tabulation_column_validation():
    with pytest.raises(LengthMismatch):
        Tabulation.from_columns(("x+", "y+", "x-", "y-"), (1,), (1, 1), ())
    with pytest.raises(LengthMismatch):
        Tabulation.from_columns(("x+", "y+", "x-", "y-"), (1, 0), (1, 1), ())
    with pytest.raises(LengthMismatch):
        # unconsumed positive entry past the per-axis count
        Tabulation.from_columns(("x+", "y+", "x-", "y-"), (1, 1, 7), (1, 1), ())


def test_zero_padding_accepted_but_not_emitted():
    tab = Tabulation.from_columns(
        ("x+", "y+", "x-", "y-"), (1, 1, 0, 0), (1, 1, 0), (0, 0)
    )
    assert tab.column(0) == (1, 1)
    assert tab.column(2) == ()
    K = build_knot(tab)
    canonical, _ = K.canonical_tabulation()
    assert canonical.lengths == ((1, 1), (1, 1), ())


def test_knot_from_vertices_unit_square(unit_square):
    assert unit_square.stick_count == 4
    assert unit_square.edge_length == 4


def test_knot_from_vertices_interpolates_and_merges():
    # collinear intermediate points merge into single sticks
    K = knot_from_vertices([(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])
    assert K.stick_count == 4
    assert [s.length for s in K.sticks] == [2, 1, 2, 1]


def test_knot_from_vertices_round_trip(trefoil):
    again = knot_from_vertices(list(trefoil.vertices))
    assert again == trefoil
    assert again.sticks == trefoil.sticks


def test_knot_from_vertices_rejects_diagonals_and_repeats():
    with pytest.raises(NonAxisParallel):
        knot_from_vertices([(0, 0, 0), (2, 1, 0), (0, 1, 0)])
    with pytest.raises(NonAxisParallel):
        knot_from_vertices([(0, 0, 0), (0, 0, 0), (1, 0, 0)])
    with pytest.raises(SelfIntersection):
        # doubling straight back shares interior points
        knot_from_vertices([(0, 0, 0), (3, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])


def test_canonical_tabulation_starts_at_least_critical_vertex(trefoil):
    tab, origin = trefoil.canonical_tabulation()
    criticals = [
        trefoil.vertices[s.start] for s in trefoil.sticks
    ]
    assert origin == min(criticals)
    rebuilt = build_knot(tab, origin)
    assert frozenset(rebuilt.vertices) == frozenset(trefoil.vertices)
    assert rebuilt.edge_length == trefoil.edge_length
    # same oriented cycle, just rotated to the canonical starting vertex
    assert rebuilt == moved_knot(trefoil, start=trefoil.vertices.index(origin))


def test_rebuild_from_canonical_form_is_identity_up_to_rotation():
    import random

    from latticeknots import random_lattice_knot

    rng = random.Random(41)
    for _ in range(8):
        K = random_lattice_knot(rng, 30)
        relisted = knot_from_vertices(list(K.vertices))
        tab, origin = relisted.canonical_tabulation()
        rebuilt = build_knot(tab, origin)
        assert rebuilt == moved_knot(K, start=K.vertices.index(origin))
        assert frozenset(rebuilt.vertices) == frozenset(K.vertices)


def test_partial_sums_close_to_zero(trefoil):
    for axis in range(3):
        assert trefoil.partial_sums(axis)[-1] == 0


def test_partial_sums_from_raw_tabulation():
    # y-sticks of the trefoil: +1, -2, +3, -2, summed from the origin's y
    tab = trefoil_tabulation()
    assert build_knot(tab).partial_sums(1) == (1, -1, 2, 0)
    assert build_knot(tab, (0, 5, 0)).partial_sums(1) == (6, 4, 7, 5)


def test_critical_flags_count_sticks(trefoil, unit_square):
    for K in (trefoil, unit_square):
        # vertex i is critical iff its two neighbours differ along two axes
        v, n = K.vertices, K.edge_length
        turns = [i for i in range(n)
                 if sum(a != b for a, b in zip(v[i - 1], v[(i + 1) % n])) == 2]
        rows = knot_to_vertex_csv(K).splitlines()[1:]
        assert [i for i, row in enumerate(rows) if row.endswith(",1")] == turns
        assert len(rows) == n and len(turns) == K.stick_count


def test_signed_stick_sums_vanish_per_axis(trefoil, cube_hexagon):
    for K in (trefoil, cube_hexagon):
        for axis in range(3):
            total = sum(
                s.length * s.type.sign for s in K.sticks if s.type.axis == axis
            )
            assert total == 0


def test_stick_type_alphabet():
    steps = {
        "x+": (1, 0, 0), "x-": (-1, 0, 0),
        "y+": (0, 1, 0), "y-": (0, -1, 0),
        "z+": (0, 0, 1), "z-": (0, 0, -1),
    }
    assert [str(t) for t in StickType] == list(steps)
    for t in StickType:
        step = steps[str(t)]
        axis = next(a for a in range(3) if step[a])
        assert (t.axis, t.sign, t.step) == (axis, step[axis], step)
        assert t.opposite is not t and t.opposite.opposite is t
        assert t.opposite.step == tuple(-c for c in step)
        assert StickType.from_axis_sign(t.axis, t.sign) is t
        assert StickType.parse(str(t)) is t
    with pytest.raises(ValueError):
        StickType.parse("w+")
