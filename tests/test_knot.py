import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import latticeknots
from latticeknots import (
    LatticeKnot,
    LengthMismatch,
    NonAxisParallel,
    NotClosed,
    SelfIntersection,
    StickType,
    Tabulation,
    build_knot,
    knot_from_vertices,
    partial_sums,
)
from conftest import TREFOIL_TYPES, TREFOIL_X, TREFOIL_Y, TREFOIL_Z, trefoil_tabulation

SRC = Path(latticeknots.__file__).resolve().parent.parent


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
        LatticeKnot(steps)
    assert exc.value.point == (0, 0, 0)
    assert exc.value.stick_indices == (5, 2)


def test_long_rectangle_retains_at_most_150_bytes_per_edge():
    # steps, vertices and four sticks; a retained point index would add ~80 B
    corners = [(0, 0, 0), (100_000, 0, 0), (100_000, 1, 0), (0, 1, 0)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        K = knot_from_vertices(corners)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert K.edge_length == 200_002
    assert retained <= 150 * K.edge_length


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
    assert rebuilt.point_set == trefoil.point_set
    assert rebuilt.edge_length == trefoil.edge_length
    # same oriented cycle, just rotated to the canonical starting vertex
    assert rebuilt == trefoil.rotate_start(trefoil.vertices.index(origin))


def test_rebuild_from_canonical_form_is_identity_up_to_rotation():
    import random

    from latticeknots import random_lattice_knot

    rng = random.Random(41)
    for _ in range(8):
        K = random_lattice_knot(rng, 30)
        relisted = knot_from_vertices(list(K.vertices))
        tab, origin = relisted.canonical_tabulation()
        rebuilt = build_knot(tab, origin)
        assert rebuilt == K.rotate_start(K.vertices.index(origin))
        assert rebuilt.point_set == K.point_set


def test_levels(trefoil, unit_square):
    away = trefoil.level(0, 10**6)
    assert away.is_empty

    whole = unit_square.level(2, 0)
    assert whole.arcs == (tuple(range(4)),)
    assert whole.isolated_points == ()

    # the plane x = 1 slices two vertical sticks of the trefoil transversally
    crossing = trefoil.level(0, 1)
    assert len(crossing.isolated_points) + len(crossing.arcs) > 0


def test_level_arc_endpoints_match_transversal_sticks(trefoil):
    """Each arc has two ends, each continued by a stick leaving the plane."""
    for axis in range(3):
        lo = min(v[axis] for v in trefoil.vertices)
        hi = max(v[axis] for v in trefoil.vertices)
        for value in range(lo, hi + 1):
            level = trefoil.level(axis, value)
            if all(v[axis] == value for v in trefoil.vertices):
                continue
            ending_here = sum(
                1
                for s in trefoil.sticks
                if s.type.axis == axis
                and (
                    trefoil.vertices[s.start][axis] == value
                    or trefoil.vertices[(s.start + s.length) % trefoil.edge_length][
                        axis
                    ]
                    == value
                )
            )
            assert ending_here == 2 * len(level.arcs)
            passing_through = sum(
                1
                for s in trefoil.sticks
                if s.type.axis == axis
                and min(
                    trefoil.vertices[s.start][axis],
                    trefoil.vertices[(s.start + s.length) % trefoil.edge_length][axis],
                )
                < value
                < max(
                    trefoil.vertices[s.start][axis],
                    trefoil.vertices[(s.start + s.length) % trefoil.edge_length][axis],
                )
            )
            assert passing_through == len(level.isolated_points)


def test_partial_sums_close_to_zero(trefoil):
    for axis in range(3):
        assert trefoil.partial_sums(axis)[-1] == 0


def test_partial_sums_signed_and_unsigned(trefoil):
    # y-sticks of the trefoil: +1, -2, +3, -2
    assert trefoil.partial_sums(1) == (1, -1, 2, 0)
    assert trefoil.partial_sums(1, signed=False) == (1, 3, 6, 8)


def test_partial_sums_from_raw_tabulation():
    tab = trefoil_tabulation()
    assert partial_sums(tab, 1) == (1, -1, 2, 0)
    assert partial_sums(tab, 1, origin=(0, 5, 0)) == (6, 4, 7, 5)


def test_antipodal_vertex(trefoil, unit_square):
    assert unit_square.vertices[unit_square.antipodal_vertex(0)] == (1, 1, 0)
    for i in range(trefoil.edge_length):
        j = trefoil.antipodal_vertex(i)
        assert trefoil.antipodal_vertex(j) == i
    assert trefoil.antipodal_vertex(0) == 12
    with pytest.raises(IndexError):
        trefoil.antipodal_vertex(24)


def test_arc_between_refuses_indices_out_of_range(trefoil):
    wrapped = tuple(trefoil.vertices[k] for k in (22, 23, 0, 1))
    assert trefoil.arc_between(22, 1) == wrapped
    for i, j in ((-1, 3), (24, 0)):
        with pytest.raises(IndexError):
            trefoil.arc_between(i, j)
    # an end index that the forward walk never meets: run in a child under a
    # time limit and a 512 MiB address-space cap, so a walk that never ends
    # fails the test instead of hanging it or filling memory
    code = (
        "from latticeknots import torus_knot\n"
        "for j in (10**6, -1):\n"
        "    try:\n"
        "        torus_knot(2).arc_between(0, j)\n"
        "    except IndexError:\n"
        "        print('refused', j)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_cap_address_space,
    )
    refused = ["refused 1000000", "refused -1"]
    assert result.stdout.splitlines() == refused, result.stderr


def _cap_address_space():
    limit = 512 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_critical_flags_count_sticks(trefoil, unit_square):
    for K in (trefoil, unit_square):
        assert sum(map(K.is_critical, range(K.edge_length))) == K.stick_count


def test_reverse_translate_transform(trefoil):
    rev = trefoil.reverse()
    assert rev.point_set == trefoil.point_set
    assert rev.origin == trefoil.origin
    assert rev.reverse() == trefoil

    moved = trefoil.translate((5, -1, 2))
    assert moved.origin == (5, -1, 2)
    assert moved.edge_length == trefoil.edge_length

    iso = ((1, 2, 0), (1, -1, 1))  # x->y, y->-z, z->x
    image = trefoil.transform(iso)
    assert image.edge_length == trefoil.edge_length
    assert image.stick_count == trefoil.stick_count


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
