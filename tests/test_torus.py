import random
from collections import Counter

import pytest

from latticeknots import (
    apply_extension,
    build_knot,
    enumerate_conformations,
    generate_torus_tabulation,
    random_lattice_knot,
    torus_knot,
)
from latticeknots.knot import StickType
from latticeknots.lattice import are_coplanar
from latticeknots.reduction import Direction
from latticeknots.torus import (
    XLevel2Report,
    _arc_counts,
    distortion_formula_even_large,
    distortion_formula_even_small,
    distortion_formula_odd,
    edge_length_formula,
    expected_x_partial_sums,
    expected_y_partial_sums,
    expected_z_partial_sums,
    verify_structure,
    verify_x_level_2,
    x_level_2_initial_vertex,
)
from conftest import (
    TREFOIL_X, TREFOIL_Y, TREFOIL_Z, affine_rank_by_fractions, box, knot_steps, moved_knot,
)


def test_generator_rejects_small_p():
    with pytest.raises(ValueError):
        generate_torus_tabulation(1)


def test_p2_reproduces_the_trefoil_table():
    tab = generate_torus_tabulation(2)
    assert tab.lengths == (TREFOIL_X, TREFOIL_Y, TREFOIL_Z)
    assert tab.types == (
        StickType.ZP, StickType.XP, StickType.YP,
        StickType.ZM, StickType.XM, StickType.YM,
    ) * 2


def test_p3_rows():
    tab = generate_torus_tabulation(3)
    rows = list(zip(*tab.lengths))
    assert rows[0] == (2, 2, 5)
    assert rows[3] == (4, 3, 2)   # row 2p-2
    assert rows[4] == (3, 5, 1)   # row 2p-1
    assert rows[5] == (1, 3, 3)   # row 2p


def test_p5_row_two():
    tab = generate_torus_tabulation(5)
    rows = list(zip(*tab.lengths))
    assert rows[1] == (3, 5, 8)


def test_type_sequence_periodic_with_period_six():
    tab = generate_torus_tabulation(7)
    assert len(tab.types) == 42
    assert tab.types[:6] * 7 == tab.types


def directed_sums(p):
    sums = dict.fromkeys(StickType, 0)
    tab = generate_torus_tabulation(p)
    for t, length in zip(tab.types, tab.stick_lengths()):
        sums[t] += length
    return sums, sum(tab.stick_lengths())


def test_closure_sums():
    # the directed sums depend on p alone, so they are checked here on the
    # generator rather than on every verified knot
    sums, total = directed_sums(4)
    assert (sums[StickType.XP], sums[StickType.XM]) == (13, 13)
    assert (sums[StickType.YP], sums[StickType.YM]) == (16, 16)
    assert (sums[StickType.ZP], sums[StickType.ZM]) == (16, 16)
    assert total == 90
    assert directed_sums(2)[1] == 24 == sum(TREFOIL_X) + sum(TREFOIL_Y) + sum(TREFOIL_Z)
    assert directed_sums(7)[1] == 264
    for p in range(2, 201):
        sums, total = directed_sums(p)
        x = (p * p + 3 * p - 2) // 2
        assert (sums[StickType.XP], sums[StickType.XM]) == (x, x)
        assert (sums[StickType.YP], sums[StickType.YM]) == (p * p, p * p)
        assert (sums[StickType.ZP], sums[StickType.ZM]) == (p * p, p * p)
        assert total == edge_length_formula(p)


def test_partial_sums_p5():
    K = torus_knot(5)
    assert sorted(K.partial_sums(2)) == list(range(10))
    assert sorted(K.partial_sums(1)) == list(range(-4, 6))
    assert K.partial_sums(0).count(2) == 4
    assert verify_structure(5, K).failed == ()


def test_partial_sum_sequences_verbatim():
    assert expected_y_partial_sums(4) == (3, -1, 2, -2, 1, -3, 4, 0)
    assert expected_z_partial_sums(4) == (7, 1, 6, 2, 5, 3, 4, 0)
    assert expected_x_partial_sums(4) == (2, -1, 2, -2, 2, -3, 1, 0)
    for p in range(2, 10):
        K = torus_knot(p)
        assert K.partial_sums(0) == expected_x_partial_sums(p)
        assert K.partial_sums(1) == expected_y_partial_sums(p)
        assert K.partial_sums(2) == expected_z_partial_sums(p)
        assert verify_structure(p, K).failed == ()


def test_partial_sum_closed_forms_have_the_lemma_properties():
    # verify_structure compares with the closed forms alone, so the
    # distinctness that rules out double points must hold for the forms
    for p in range(2, 201):
        x = expected_x_partial_sums(p)
        y = expected_y_partial_sums(p)
        z = expected_z_partial_sums(p)
        assert len(x) == len(y) == len(z) == 2 * p
        assert len(set(y)) == len(y)
        assert len(set(z)) == len(z)
        assert sorted(z) == list(range(2 * p))
        others = [v for v in x if v != 2]
        assert len(set(others)) == len(others)
        assert x.count(2) == p - 1
        # the closed-form last three x+ initials lie on one line
        assert affine_rank_by_fractions([(n - p, n - p, p + n - 1) for n in (3, 2, 1)]) <= 1


def test_x_level_2_structure():
    report = verify_x_level_2(5, torus_knot(5))
    assert report.arc_count == 4
    assert report.arc_initials == ((2, 0, 9), (2, -1, 8), (2, -2, 7), (2, -3, 6))
    assert report.y_leg_lengths == (4, 4, 4, 4)
    assert report.ok

    assert verify_x_level_2(3, torus_knot(3)).arc_count == 2

    with pytest.raises(ValueError):
        verify_x_level_2(2, torus_knot(2))


def test_x_level_2_first_arc_starts_at_2_0_2p_minus_1():
    for p in (3, 4, 5, 8):
        report = verify_x_level_2(p, torus_knot(p))
        assert report.arc_initials[0] == (2, 0, 2 * p - 1)
        assert x_level_2_initial_vertex(p, 1) == (2, 0, 2 * p - 1)
        # consecutive arcs step down by (0, -1, -1)
        for a, b in zip(report.arc_initials, report.arc_initials[1:]):
            assert (b[0] - a[0], b[1] - a[1], b[2] - a[2]) == (0, -1, -1)


def test_x_level_2_shifted_closed_form_does_not_match():
    """The (2, 1-n, 2p-2-n) variant sits two lower in z than the built knot."""
    for p in (3, 5, 7):
        report = verify_x_level_2(p, torus_knot(p))
        assert report.initials_match_recursion
        assert not report.initials_match_shifted_form


def stick_starts(K, t):
    return tuple(s.start_point for s in K.sticks if s.type is t)


def test_collinearity_z_plus_initials():
    K = torus_knot(4)
    initials = stick_starts(K, StickType.ZP)
    assert initials == ((0, 0, 0), (-1, -1, 1), (-2, -2, 2), (-3, -3, 3))
    assert initials == tuple((1 - n, 1 - n, n - 1) for n in range(1, 5))
    assert verify_structure(4, K).failed == ()


def test_final_three_x_plus_sticks():
    K = torus_knot(7)
    final_three = stick_starts(K, StickType.XP)[-3:]
    # traversal order: third-to-last, penultimate, final
    assert final_three == ((-4, -4, 9), (-5, -5, 8), (-6, -6, 7))
    assert affine_rank_by_fractions(final_three) <= 1
    assert verify_structure(7, K).failed == ()


def test_coplanarity_needs_exactly_the_two_exclusions():
    for p in (3, 4, 6):
        K = torus_knot(p)
        by_type = {t: [] for t in StickType}
        for idx, s in enumerate(K.sticks):
            by_type[s.type].append(idx)

        def family_points(t, drop_last, ends_only=False):
            indices = by_type[t][:-1] if drop_last else by_type[t]
            pts = []
            for i in indices:
                s = K.sticks[i]
                pts.extend(
                    tuple(c + k * d for c, d in zip(s.start_point, s.type.step))
                    for k in ((0, s.length) if ends_only else range(s.length + 1))
                )
            return pts

        # the two outliers really are outliers
        assert not are_coplanar(family_points(StickType.YP, False))
        assert not are_coplanar(family_points(StickType.ZM, False))
        # and every family is coplanar once they are dropped
        assert are_coplanar(family_points(StickType.YP, True))
        assert are_coplanar(family_points(StickType.ZM, True))
        for t in (StickType.XP, StickType.XM, StickType.YM, StickType.ZP):
            assert are_coplanar(family_points(t, False))
        # the verification passes stick endpoints only; all points agree
        for t in StickType:
            for drop_last in (False, True):
                assert are_coplanar(family_points(t, drop_last, ends_only=True)) == (
                    are_coplanar(family_points(t, drop_last))
                )
        assert verify_structure(p, K).failed == ()


def test_stick_counts(unit_square):
    assert torus_knot(3).stick_count == 18
    assert torus_knot(2).stick_count == 12
    assert unit_square.stick_count == 4


def test_structure_report_ok_through_p10():
    for p in range(2, 11):
        K = torus_knot(p)
        report = verify_structure(p, K)
        assert report.ok, f"structure check failed at p={p}: {report}"
        assert report.failed == ()
        assert report.stick_count == 6 * p
        assert report.edge_length == edge_length_formula(p)
        assert Counter(s.type.axis for s in K.sticks) == {0: 2 * p, 1: 2 * p, 2: 2 * p}


def test_structure_report_names_the_failed_facts():
    # torus p = 4 checked as p = 5: every size and every closed form is off
    # except the coplanarity
    assert verify_structure(5, torus_knot(4)).failed == (
        "edge length", "stick count", "partial sums", "arcs per level",
        "x-level 2", "z+ initials", "last x+ initials",
    )
    # a shift along x keeps the sizes and the planes of each stick family
    shifted = verify_structure(4, moved_knot(torus_knot(4), shift=(1, 0, 0)))
    assert not shifted.ok
    assert shifted.failed == (
        "partial sums", "arcs per level", "x-level 2", "z+ initials", "last x+ initials",
    )
    # an extension moves the last stick of two families off their planes,
    # and only the y+ and z- families drop their last stick
    extended = apply_extension(torus_knot(4), 0, Direction.WITH, 1)
    assert verify_structure(4, extended).failed == (
        "edge length", "partial sums", "z+ initials", "x- coplanar", "y- coplanar",
    )
    extended = apply_extension(torus_knot(4), 20, Direction.WITH, 1)
    assert verify_structure(4, extended).failed == (
        "edge length", "partial sums", "z+ initials", "last x+ initials",
        "x+ coplanar", "z+ coplanar",
    )
    # the facts about x-level 2, the initials and the planes start at p = 3
    assert verify_structure(2, torus_knot(3)).failed == (
        "edge length", "stick count", "partial sums", "arcs per level",
    )
    assert verify_structure(3, torus_knot(2)).failed == (
        "edge length", "stick count", "partial sums", "arcs per level",
        "x-level 2", "z+ initials", "last x+ initials",
    )


def level(K, axis, value):
    """The arcs and isolated points of ``K`` in the plane axis = value, read
    vertex by vertex: the reference for the counts read from sticks.

    The arcs are the maximal runs of two or more consecutive vertex indices
    in the plane, in traversal order; the isolated points are the vertices
    whose cycle neighbours both leave it.  A knot lying in the plane meets
    it in one cyclic arc covering every vertex.
    """
    n = K.edge_length
    inside = [v[axis] == value for v in K.vertices]
    if all(inside):
        return (tuple(range(n)),), ()
    arcs = []
    points = []
    for start in range(n):
        if inside[start] and not inside[start - 1]:
            run = [start]
            k = (start + 1) % n
            while inside[k]:
                run.append(k)
                k = (k + 1) % n
            if len(run) == 1:
                points.append(start)
            else:
                arcs.append(tuple(run))
    return tuple(arcs), tuple(points)


def test_every_level_has_at_most_one_arc_except_x2():
    K = torus_knot(4)
    lo, hi = box(K.vertices)
    for axis in range(3):
        for value in range(lo[axis], hi[axis] + 1):
            arcs = len(level(K, axis, value)[0])
            if axis == 0 and value == 2:
                assert arcs == 3
            else:
                assert arcs <= 1


def test_arc_counts_from_sticks_match_levels():
    knots = [torus_knot(p) for p in range(2, 16)]
    knots += list(enumerate_conformations(10))
    rng = random.Random(7)
    knots += [random_lattice_knot(rng, 40) for _ in range(200)]
    for K in knots:
        counts = _arc_counts(K)
        lows, highs = box(K.vertices)
        for axis in range(3):
            lo, hi = lows[axis], highs[axis]
            for value in range(lo, hi + 1):
                arcs = len(level(K, axis, value)[0])
                if lo == hi:
                    # a planar knot is one arc of its own plane, crossed by no stick
                    assert (counts[axis, value], arcs) == (0, 1)
                else:
                    assert counts[axis, value] == arcs, (K, axis, value)


def reference_x_level_2(p, K):
    """x-level 2 read vertex by vertex through ``level``."""
    arcs, isolated_points = level(K, 0, 2)
    initials = []
    y_lengths = []
    shapes_ok = True
    steps = knot_steps(K)
    for arc in arcs:
        initials.append(K.vertices[arc[0]])
        moves = [steps[i] for i in arc[:-1]]
        y_part = [m for m in moves if m.axis == 1]
        z_part = [m for m in moves if m.axis == 2]
        # an L: one maximal y-stick, then one maximal z-stick, nothing else
        if (
            moves != y_part + z_part
            or len(set(y_part)) != 1
            or len(set(z_part)) != 1
        ):
            shapes_ok = False
        y_lengths.append(len(y_part))
    return XLevel2Report(
        p=p,
        arc_count=len(arcs),
        arc_initials=tuple(initials),
        arcs_are_y_then_z=shapes_ok,
        y_leg_lengths=tuple(y_lengths),
        isolated_point_count=len(isolated_points),
    )


def test_x_level_2_from_sticks_matches_level_reference():
    for p in range(3, 41):
        K = torus_knot(p)
        assert verify_x_level_2(p, K) == reference_x_level_2(p, K), p
    # any knot, shifted so that x = 2 crosses it in every way; a knot lying
    # in x = 2 has no x-stick and no arc start, where level sees one arc
    rng = random.Random(5)
    knots = list(enumerate_conformations(10))
    knots += [random_lattice_knot(rng, 40) for _ in range(100)]
    for K in knots:
        for dx in range(4):
            shifted = moved_knot(K, shift=(dx, 0, 0))
            lo, hi = box(shifted.vertices)
            if lo[0] == hi[0] == 2:
                continue
            assert verify_x_level_2(3, shifted) == reference_x_level_2(3, shifted)


def test_distortion_formulas():
    assert distortion_formula_even_small(4) == 41
    assert distortion_formula_even_small(8) == 155
    assert distortion_formula_odd(5) == 61
    assert distortion_formula_odd(9) == 211
    assert distortion_formula_even_large(14) == 485
    assert distortion_formula_even_large(12) == 349
    assert distortion_formula_even_small(12) == 341


def test_generated_knots_validate_via_generic_builder():
    # simplicity is rechecked by the constructor, never assumed
    for p in (2, 3, 6, 9):
        K = build_knot(generate_torus_tabulation(p))
        assert len(set(K.vertices)) == K.edge_length
