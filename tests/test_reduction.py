from collections import Counter
from random import Random

import pytest

from latticeknots import (
    AmountTooLarge,
    CollisionDetected,
    DegenerateStick,
    Direction,
    KnotError,
    LatticeKnot,
    NonReducingMove,
    ReductionError,
    ReductionMove,
    SelfIntersection,
    apply_extension,
    apply_reduction,
    enumerate_conformations,
    is_irreducible,
    knot_from_vertices,
    max_reduction_amount,
    random_lattice_knot,
    sweep_criterion_blocks,
    torus_knot,
)
from latticeknots.io import knot_to_vertex_csv
from latticeknots.lattice import l1_distance
from latticeknots.reduction import _first_collision, _plan_move, _rebuild, _shift
from conftest import is_reducible, knot_steps
from test_distortion import dilated_knots


def test_rectangle_shrinks_to_unit_square(rectangle):
    reduced = apply_reduction(rectangle, ReductionMove(0, Direction.WITH, 1))
    assert reduced.vertices == ((1, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0))
    assert reduced.edge_length == rectangle.edge_length - 2
    assert reduced.stick_count == rectangle.stick_count


def test_reduction_direction_against(rectangle):
    reduced = apply_reduction(rectangle, ReductionMove(0, Direction.AGAINST, 1))
    assert reduced.vertices == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))


def test_unit_square_admits_no_reduction(unit_square):
    for stick in range(4):
        for direction in Direction:
            with pytest.raises((CollisionDetected, DegenerateStick)):
                apply_reduction(unit_square, ReductionMove(stick, direction, 1))
    assert is_irreducible(unit_square).irreducible


def test_rectangle_witnesses(rectangle):
    report = is_irreducible(rectangle)
    assert not report.irreducible
    # both long sticks reduce by one, in either direction
    assert report.witnesses == (
        (0, Direction.WITH, 1),
        (0, Direction.AGAINST, 1),
        (2, Direction.WITH, 1),
        (2, Direction.AGAINST, 1),
    )


def test_amount_validation(rectangle):
    with pytest.raises(ValueError):
        apply_reduction(rectangle, ReductionMove(0, Direction.WITH, 0))
    with pytest.raises(DegenerateStick):
        apply_reduction(rectangle, ReductionMove(0, Direction.WITH, 2))
    with pytest.raises(AmountTooLarge):
        apply_reduction(rectangle, ReductionMove(0, Direction.WITH, 3))
    with pytest.raises(IndexError):
        apply_reduction(rectangle, ReductionMove(9, Direction.WITH, 1))


def test_non_reducing_geometry_is_rejected():
    # staircase: the stick on the target's axis behind it points the same way
    staircase = knot_from_vertices(
        [(0, 0, 0), (2, 0, 0), (2, 1, 0), (4, 1, 0), (4, 2, 0), (0, 2, 0)]
    )
    with pytest.raises(NonReducingMove):
        apply_reduction(staircase, ReductionMove(2, Direction.WITH, 1))
    assert not is_reducible(staircase, 2, Direction.WITH)


def test_torus_knots_are_isotopically_irreducible():
    for p in (2, 3, 4, 5):
        report = is_irreducible(torus_knot(p))
        assert report.irreducible, f"T_{{{p},{p+1}}} reduced: {report.witnesses}"


def test_trefoil_specific_collisions():
    K = torus_knot(2)
    # first z-stick, with orientation: the translated closing legs hit the knot
    with pytest.raises(CollisionDetected) as exc:
        apply_reduction(K, ReductionMove(0, Direction.WITH, 1))
    assert exc.value.point in frozenset(K.vertices)
    with pytest.raises(CollisionDetected) as exc:
        apply_reduction(K, ReductionMove(0, Direction.AGAINST, 1))
    assert exc.value.point == (1, 0, 2)


def test_x_level_2_sticks_blocked_in_the_stated_directions():
    for p in (3, 4, 5):
        K = torus_knot(p)
        # a y- or z-stick starting in the plane x = 2 lies in one of its arcs
        for idx, stick in enumerate(K.sticks):
            if stick.start_point[0] != 2:
                continue
            if stick.type.axis == 2:
                assert not is_reducible(K, idx, Direction.WITH)
            if stick.type.axis == 1:
                assert not is_reducible(K, idx, Direction.AGAINST)


def test_edge_length_drops_by_twice_the_amount():
    K = torus_knot(2)
    grown = apply_extension(K, 0, Direction.WITH, 3)
    assert grown.edge_length == K.edge_length + 6
    shrunk = apply_reduction(grown, ReductionMove(0, Direction.WITH, 2))
    assert shrunk.edge_length == grown.edge_length - 4


def test_extension_then_reduction_round_trips():
    # not every leg of the tightly packed trefoil can grow; every one that
    # can must come back to the identical knot when reduced again
    K = torus_knot(2)
    succeeded = 0
    for stick in range(K.stick_count):
        for direction in Direction:
            try:
                grown = apply_extension(K, stick, direction, 2)
            except ReductionError:
                continue
            succeeded += 1
            back = apply_reduction(grown, ReductionMove(stick, direction, 2))
            assert back == K
    assert succeeded > 0


def test_extension_collision_detected():
    # the trefoil packs tightly: growing its first x-stick sweeps into the knot
    K = torus_knot(2)
    with pytest.raises(CollisionDetected) as exc:
        apply_extension(K, 1, Direction.WITH, 1)
    assert exc.value.point == (-1, 0, 1)


def test_max_reduction_amount_consistent(rectangle):
    K = knot_from_vertices([(0, 0, 0), (5, 0, 0), (5, 3, 0), (0, 3, 0)])
    amount = max_reduction_amount(K, 0, Direction.WITH)
    assert amount == 4  # both parallel sides shrink; one unit must survive
    reduced = apply_reduction(K, ReductionMove(0, Direction.WITH, amount))
    assert reduced.edge_length == K.edge_length - 8
    with pytest.raises(ReductionError):
        apply_reduction(K, ReductionMove(0, Direction.WITH, amount + 1))
    assert max_reduction_amount(rectangle, 1, Direction.WITH) == 0


def _max_amount_by_rebuilding(K, stick, direction):
    """Largest a <= cap whose slides by 1..a all rebuild into simple knots."""
    try:
        plan = _plan_move(K, stick, direction)
    except NonReducingMove:
        return 0
    cap = min(K.sticks[plan.target].length, K.sticks[plan.absorber].length) - 1
    for k in range(1, cap + 1):
        try:
            _rebuild(K, plan, k)
        except KnotError:
            return k - 1
    return cap


def _stick_points(K, idx):
    """All lattice points of one stick, initial and final vertex included."""
    stick = K.sticks[idx]
    return [_shift(stick.start_point, stick.type.step, k) for k in range(stick.length + 1)]


def _static_points(K, plan):
    """Lattice points of the sticks that do not move, keyed to a stick index."""
    moving = {plan.target, plan.absorber, *plan.translating}
    static = {}
    for idx in range(K.stick_count):
        if idx not in moving:
            for q in _stick_points(K, idx):
                static[q] = idx
    return static


def _first_collision_by_points(K, plan, limit):
    """Reference sweep: shift every point of every translating stick."""
    static = _static_points(K, plan)
    moving = [(idx, _stick_points(K, idx)) for idx in plan.translating]
    for k in range(1, limit + 1):
        for idx, pts in moving:
            for q in pts:
                hit = _shift(q, plan.delta, k)
                if hit in static:
                    return k, hit, (idx, static[hit])
    return None


def _criterion_by_plane(K, plan):
    """Reference criterion: a static point in a swept plane, one from its stick."""
    full = K.sticks[plan.target].length
    static = _static_points(K, plan)
    for idx in plan.translating:
        pts = _stick_points(K, idx)
        plane = {_shift(q, plan.delta, k) for q in pts for k in range(full + 1)}
        for s in static:
            if s in plane and min(l1_distance(s, q) for q in pts) == 1:
                return True
    return False


def _reduction_corpus():
    rng = Random(7)
    knots = list(enumerate_conformations(10))
    knots += [random_lattice_knot(rng, 40) for _ in range(200)]
    knots += [torus_knot(p) for p in range(2, 17)]
    return knots


def test_max_amount_matches_rebuild_reference():
    # the reference revalidates every intermediate configuration through the
    # LatticeKnot constructor instead of sweeping cells; is_irreducible shares
    # one plane index across its slides and must name the same amounts
    reducible = 0
    for K in _reduction_corpus():
        witnesses = []
        for idx in range(K.stick_count):
            for direction in Direction:
                expected = _max_amount_by_rebuilding(K, idx, direction)
                assert max_reduction_amount(K, idx, direction) == expected
                assert is_reducible(K, idx, direction) == (expected > 0)
                reducible += expected > 0
                if expected > 0:
                    witnesses.append((idx, direction, expected))
        assert is_irreducible(K).witnesses == tuple(witnesses)
    assert reducible > 0


def test_collision_reported_at_smallest_offset():
    # (1, 2, 3) on sticks (4, 14) also blocks this move, but only at offset 2
    with pytest.raises(CollisionDetected) as exc:
        apply_reduction(torus_knot(3), ReductionMove(3, Direction.AGAINST, 2))
    assert exc.value.point == (-1, 1, 2)
    assert exc.value.stick_indices == (5, 10)


def test_sweep_criterion_implies_simulation_failure():
    for p in (2, 3, 4):
        K = torus_knot(p)
        for idx in range(K.stick_count):
            for direction in Direction:
                if sweep_criterion_blocks(K, idx, direction):
                    assert not is_reducible(K, idx, direction)


def test_sweep_criterion_reads_past_sticks_of_length_one():
    # where the criterion fires, a move of amount 1 is refused either by a
    # collision or, before any sweep, by a target or absorber of length 1
    for p, expected in ((2, {CollisionDetected: 12, DegenerateStick: 12}),
                        (3, {CollisionDetected: 28, DegenerateStick: 8})):
        K = torus_knot(p)
        refused = Counter()
        for idx in range(K.stick_count):
            for direction in Direction:
                assert sweep_criterion_blocks(K, idx, direction)
                with pytest.raises(ReductionError) as exc:
                    apply_reduction(K, ReductionMove(idx, direction, 1))
                refused[exc.type] += 1
        assert refused == expected


def test_sweep_criterion_stays_quiet_on_reducible_sticks(rectangle):
    assert not sweep_criterion_blocks(rectangle, 0, Direction.WITH)


def test_box_sweep_matches_point_sweep():
    # offset, point and stick pair agree at every limit, past the cap too,
    # on the knot, whose plane index every query shares as is_irreducible
    # shares it, and on a copy built afresh for each plan
    collisions = 0
    for K in _reduction_corpus():
        steps = knot_steps(K)
        for idx in range(K.stick_count):
            for direction in Direction:
                try:
                    plan = _plan_move(K, idx, direction)
                except NonReducingMove:
                    continue
                ends = (K.sticks[plan.target], K.sticks[plan.absorber])
                cap = min(stick.length for stick in ends) - 1
                # the reference sweeps offsets in order, so its answer at a
                # smaller limit is its first collision if that is within reach
                first = _first_collision_by_points(K, plan, cap + 2)
                fresh = LatticeKnot(steps, [1] * K.edge_length, K.origin)
                for limit in range(1, cap + 3):
                    expected = first if first and first[0] <= limit else None
                    assert _first_collision(fresh, plan, limit) == expected
                    assert _first_collision(K, plan, limit) == expected
                    collisions += expected is not None
    assert collisions > 0


def test_sweep_criterion_matches_plane_reference():
    fired = 0
    for p in range(2, 9):
        K = torus_knot(p)
        for idx in range(K.stick_count):
            for direction in Direction:
                try:
                    plan = _plan_move(K, idx, direction)
                except NonReducingMove:
                    assert not sweep_criterion_blocks(K, idx, direction)
                    continue
                expected = _criterion_by_plane(K, plan)
                assert sweep_criterion_blocks(K, idx, direction) == expected
                fired += expected
    assert fired > 0


def _rebuild_by_corners(K, plan, amount):
    """Reference rebuild from points: shift the start corners of the
    translating sticks and of the target (WITH) or the absorber (AGAINST),
    and build the knot through the corners with knot_from_vertices."""
    lead = plan.target if plan.direction is Direction.WITH else plan.absorber
    moved = {lead, *plan.translating}
    return knot_from_vertices([
        _shift(stick.start_point, plan.delta, amount) if idx in moved else stick.start_point
        for idx, stick in enumerate(K.sticks)
    ])


def _extension_by_corners(K, stick_index, direction, amount):
    """apply_extension over the corner rebuild."""
    plan = _plan_move(K, stick_index, direction)
    try:
        extended = _rebuild_by_corners(K, plan, -amount)
    except SelfIntersection as exc:
        raise CollisionDetected(exc.point, exc.stick_indices) from exc
    collision = _first_collision(extended, _plan_move(extended, stick_index, direction), amount)
    if collision is not None:
        raise CollisionDetected(collision[1], collision[2])
    return extended


def _outcome(move, *args):
    """The knot a move builds and its vertex CSV, or its error's type and text."""
    try:
        K = move(*args)
    except (ReductionError, KnotError) as exc:
        return type(exc), str(exc)
    return K, knot_to_vertex_csv(K)


def test_moves_build_the_knot_of_the_corner_rebuild():
    # every reduction that succeeds and every extension by 1 and 2, whether
    # it succeeds or not, against the same move rebuilt from shifted corners
    rng = Random(5)
    knots = list(enumerate_conformations(10))
    knots += [random_lattice_knot(rng, 40) for _ in range(150)]
    knots += [torus_knot(p) for p in range(2, 6)] + dilated_knots()
    reduced = extended = 0
    for K in knots:
        for idx in range(K.stick_count):
            for direction in Direction:
                for amount in range(1, max_reduction_amount(K, idx, direction) + 1):
                    plan = _plan_move(K, idx, direction)
                    new = apply_reduction(K, ReductionMove(idx, direction, amount))
                    old = _rebuild_by_corners(K, plan, amount)
                    assert new == old
                    assert knot_to_vertex_csv(new) == knot_to_vertex_csv(old)
                    reduced += 1
                for amount in (1, 2):
                    new = _outcome(apply_extension, K, idx, direction, amount)
                    assert new == _outcome(_extension_by_corners, K, idx, direction, amount)
                    extended += isinstance(new[0], LatticeKnot)
    assert reduced > 0 and extended > 0
