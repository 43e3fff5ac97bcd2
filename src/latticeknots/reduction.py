"""Stick reductions: sliding moves that shorten a knot isotopically.

Reducing a stick slides one of its endpoints into its interior by an integer
amount.  Walking away from the moving endpoint, the neighbouring sticks
perpendicular to the target translate rigidly with the slide, and the first
stick on the target's axis absorbs the motion by shrinking, so the knot
stays closed and loses 2 * amount edges.  A move is valid only if every cell
swept by the translating sticks, at every intermediate offset, avoids the
rest of the knot; the result is also revalidated from scratch.

Extensions are the inverse moves: they lengthen the target and the absorber
and are validated by checking the time-reversed reduction on the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .knot import LatticeKnot, SelfIntersection, knot_from_vertices
from .lattice import Point


class Direction(enum.Enum):
    """Which endpoint of the stick slides inward."""

    WITH = "with_orientation"
    AGAINST = "against_orientation"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        for member in cls:
            if text in (member.value, member.name.lower(), member.name):
                return member
        raise ValueError(f"unknown direction {text!r}")


class ReductionError(Exception):
    """Base class for rejected reduction moves."""


class CollisionDetected(ReductionError):
    """A swept cell or final position meets the rest of the knot."""

    def __init__(self, point: Point, stick_indices: tuple[int, int]):
        self.point = point
        self.stick_indices = stick_indices
        super().__init__(
            f"moving stick {stick_indices[0]} collides with stick "
            f"{stick_indices[1]} at {point}"
        )


class AmountTooLarge(ReductionError):
    """The slide would drive a stick to negative length."""


class DegenerateStick(ReductionError):
    """The slide would shrink a stick to length zero; eliminations are rejected."""


class NonReducingMove(ReductionError):
    """The absorbing stick points the same way, so sliding would not shorten the knot."""


@dataclass(frozen=True)
class ReductionMove:
    """One slide: which stick, which endpoint moves, and by how much."""

    stick_index: int
    direction: Direction
    amount: int


@dataclass(frozen=True)
class _Plan:
    """Resolved slide geometry: who translates, who absorbs, which way."""

    target: int
    direction: Direction
    translating: tuple[int, ...]
    absorber: int
    delta: Point  # unit translation applied to the moving sticks per step


def _plan_move(K: LatticeKnot, stick_index: int, direction: Direction) -> _Plan:
    sticks = K.sticks
    count = len(sticks)
    if not 0 <= stick_index < count:
        raise IndexError(f"stick index {stick_index} out of range for {count} sticks")
    target = sticks[stick_index]

    translating: list[int] = []
    k = stick_index
    absorber = None
    for _ in range(count - 1):
        k = (k - 1) % count if direction is Direction.WITH else (k + 1) % count
        if sticks[k].type.axis != target.type.axis:
            translating.append(k)
            continue
        if sticks[k].type.sign == target.type.sign:
            raise NonReducingMove(
                f"stick {k} runs parallel to stick {stick_index}; sliding would "
                "shift length around the knot instead of removing it"
            )
        absorber = k
        break
    if absorber is None:
        raise NonReducingMove("no stick on the target's axis can absorb the slide")

    heading = target.type if direction is Direction.WITH else target.type.opposite
    return _Plan(stick_index, direction, tuple(translating), absorber, heading.step)


def _shift(p: Point, delta: Point, k: int) -> Point:
    return (p[0] + delta[0] * k, p[1] + delta[1] * k, p[2] + delta[2] * k)


def _rebuild(K: LatticeKnot, plan: _Plan, amount: int) -> LatticeKnot:
    """Assemble the slid configuration; the constructor revalidates it.

    The start corners of the translating sticks move, and so does the
    target's (WITH) or the absorber's (AGAINST); every other corner stays.
    """
    lead = plan.target if plan.direction is Direction.WITH else plan.absorber
    moved = {lead, *plan.translating}
    corners = []
    for idx, stick in enumerate(K.sticks):
        start = stick.start_point
        corners.append(_shift(start, plan.delta, amount) if idx in moved else start)
    return knot_from_vertices(corners)


def _first_collision(
    K: LatticeKnot, plan: _Plan, limit: int
) -> tuple[int, Point, tuple[int, int]] | None:
    """The first collision of a slide by up to ``limit``, or None if clear.

    Returns ``(offset, point, (moving stick, static stick))`` for the smallest
    offset in 1..limit at which a translating stick meets a static stick.
    Sweeping the translating sticks is the only freedom in the motion; the
    shrinking target and absorber stay inside their original segments, so
    they cannot produce new intersections on the way.

    Two axis-parallel lattice segments meet iff their boxes overlap on every
    axis, and the overlap then holds a lattice point.  A translating stick is
    perpendicular to the slide, so each static stick either never meets it
    or blocks one interval of offsets, read off the slide axis; the cost
    follows stick pairs, not lattice points.  Ties at the least offset go to
    the earlier stick in ``plan.translating``, then to the point nearest its
    start, then to the higher static index: the order of a sweep that shifts
    every point of every translating stick, offset by offset.
    """
    axis = K.sticks[plan.target].type.axis
    sign = plan.delta[axis]
    moving = {plan.target, plan.absorber, *plan.translating}
    hits = []
    for rank, idx in enumerate(plan.translating):
        stick = K.sticks[idx]
        start, lo, hi = stick.start_point, stick.lo, stick.hi
        run = stick.type.axis
        fixed = 3 - axis - run
        for s_idx, static in enumerate(K.sticks):
            s_lo, s_hi = static.lo, static.hi
            if s_idx in moving or s_hi[run] < lo[run] or hi[run] < s_lo[run]:
                continue
            if not s_lo[fixed] <= start[fixed] <= s_hi[fixed]:
                continue
            span = sign * (s_lo[axis] - start[axis]), sign * (s_hi[axis] - start[axis])
            k = max(min(span), 1)
            if k > min(max(span), limit):
                continue
            point = list(_shift(start, plan.delta, k))
            point[run] = min(max(start[run], s_lo[run]), s_hi[run])
            distance = abs(point[run] - start[run])
            hits.append((k, rank, distance, -s_idx, (k, tuple(point), (idx, s_idx))))
    return min(hits)[-1] if hits else None


def apply_reduction(K: LatticeKnot, move: ReductionMove) -> LatticeKnot:
    """Apply one reduction and return the shortened knot.

    Raises DegenerateStick when the target or the absorbing stick would
    shrink to nothing, AmountTooLarge past that, NonReducingMove when the
    geometry offers no anti-parallel absorber, and CollisionDetected (with
    the point and stick pair of the collision at the smallest offset) when
    the swept cells meet the rest of the knot.  On success the edge length
    drops by 2 * amount and the stick count is unchanged.
    """
    if move.amount < 1:
        raise ValueError("reduction amount must be a positive integer")
    plan = _plan_move(K, move.stick_index, move.direction)
    for idx in (plan.target, plan.absorber):
        length = K.sticks[idx].length
        if move.amount > length:
            raise AmountTooLarge(
                f"amount {move.amount} exceeds stick {idx} of length {length}"
            )
        if move.amount == length:
            raise DegenerateStick(
                f"amount {move.amount} would eliminate stick {idx} entirely"
            )
    collision = _first_collision(K, plan, move.amount)
    if collision is not None:
        raise CollisionDetected(collision[1], collision[2])
    return _rebuild(K, plan, move.amount)


def apply_extension(
    K: LatticeKnot, stick_index: int, direction: Direction, amount: int
) -> LatticeKnot:
    """Apply the inverse move: lengthen the stick and its absorbing partner.

    The extended configuration is validated directly, and the time-reversed
    reduction on the result must sweep cleanly; this certifies the extension
    passes through no intermediate collision either.
    """
    if amount < 1:
        raise ValueError("extension amount must be a positive integer")
    plan = _plan_move(K, stick_index, direction)
    try:
        extended = _rebuild(K, plan, -amount)
    except SelfIntersection as exc:
        raise CollisionDetected(exc.point, exc.stick_indices) from exc
    reverse_plan = _plan_move(extended, stick_index, direction)
    collision = _first_collision(extended, reverse_plan, amount)
    if collision is not None:
        raise CollisionDetected(collision[1], collision[2])
    return extended


def max_reduction_amount(K: LatticeKnot, stick_index: int, direction: Direction) -> int:
    """Largest amount the stick can be reduced by in that direction; 0 if none."""
    try:
        plan = _plan_move(K, stick_index, direction)
    except NonReducingMove:
        return 0
    cap = min(K.sticks[plan.target].length, K.sticks[plan.absorber].length) - 1
    if cap < 1:
        return 0
    collision = _first_collision(K, plan, cap)
    return cap if collision is None else collision[0] - 1


@dataclass(frozen=True)
class IrreducibilityReport:
    """Verdict plus, when reducible, every (stick, direction, max amount) witness."""

    irreducible: bool
    witnesses: tuple[tuple[int, Direction, int], ...]


def is_irreducible(K: LatticeKnot) -> IrreducibilityReport:
    """Exhaustively test every stick in both directions."""
    witnesses = []
    for idx in range(len(K.sticks)):
        for direction in Direction:
            amount = max_reduction_amount(K, idx, direction)
            if amount > 0:
                witnesses.append((idx, direction, amount))
    return IrreducibilityReport(not witnesses, tuple(witnesses))


def sweep_criterion_blocks(
    K: LatticeKnot, stick_index: int, direction: Direction
) -> bool:
    """Plane-sweep diagnostic: does the full-slide sweep certify irreducibility?

    Slides the moving endpoint across the whole target stick and examines the
    plane segments the translating sticks trace.  If the rest of the knot
    meets such a plane at a point exactly one away (taxicab) from the stick
    that traces it, no reduction in this direction can succeed.  The
    criterion is sufficient, not necessary: it may stay silent on moves that
    fail anyway.  ("One away" is read as distance exactly one; points of the
    knot can never lie at distance zero from a different stick's plane
    without an existing intersection.)
    """
    try:
        plan = _plan_move(K, stick_index, direction)
    except NonReducingMove:
        return False
    return _first_collision(K, plan, 1) is not None
