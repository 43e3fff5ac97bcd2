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

from .knot import LatticeKnot, SelfIntersection, StickType
from .lattice import Point, l1_distance


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

    unit = target.type.step
    sign = 1 if direction is Direction.WITH else -1
    delta = (sign * unit[0], sign * unit[1], sign * unit[2])
    return _Plan(stick_index, direction, tuple(translating), absorber, delta)


def _shift(p: Point, delta: Point, k: int) -> Point:
    return (p[0] + delta[0] * k, p[1] + delta[1] * k, p[2] + delta[2] * k)


def _new_initial_vertex(K: LatticeKnot, plan: _Plan, amount: int, idx: int) -> Point:
    """Where stick ``idx`` starts after sliding by ``amount`` (negative extends)."""
    start = K.vertices[K.sticks[idx].start]
    if idx in plan.translating:
        return _shift(start, plan.delta, amount)
    if idx == plan.target and plan.direction is Direction.WITH:
        return _shift(start, plan.delta, amount)
    if idx == plan.absorber and plan.direction is Direction.AGAINST:
        return _shift(start, plan.delta, amount)
    return start


def _rebuild(K: LatticeKnot, plan: _Plan, amount: int) -> LatticeKnot:
    """Assemble the slid configuration; the constructor revalidates it."""
    new_lengths = {
        plan.target: K.sticks[plan.target].length - amount,
        plan.absorber: K.sticks[plan.absorber].length - amount,
    }
    steps: list[StickType] = []
    for idx, stick in enumerate(K.sticks):
        steps.extend([stick.type] * new_lengths.get(idx, stick.length))
    return LatticeKnot(steps, _new_initial_vertex(K, plan, amount, 0))


def _static_points(K: LatticeKnot, plan: _Plan) -> dict[Point, int]:
    """Lattice points of the sticks that do not move, keyed to a stick index."""
    moving = {plan.target, plan.absorber, *plan.translating}
    static: dict[Point, int] = {}
    for idx in range(len(K.sticks)):
        if idx in moving:
            continue
        for q in K.stick_points(idx):
            static[q] = idx
    return static


def _first_collision(
    K: LatticeKnot, plan: _Plan, limit: int
) -> tuple[int, Point, tuple[int, int]] | None:
    """The first collision of a slide by up to ``limit``, or None if clear.

    Returns ``(offset, point, (moving stick, static stick))`` for the smallest
    offset in 1..limit at which a translating stick meets a static stick.
    Sweeping the translating sticks is the only freedom in the motion; the
    shrinking target and absorber stay inside their original segments, so
    they cannot produce new intersections on the way.
    """
    static = _static_points(K, plan)
    moving = [(idx, K.stick_points(idx)) for idx in plan.translating]
    for k in range(1, limit + 1):
        for idx, pts in moving:
            for q in pts:
                hit = _shift(q, plan.delta, k)
                if hit in static:
                    return k, hit, (idx, static[hit])
    return None


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


def is_reducible(K: LatticeKnot, stick_index: int, direction: Direction) -> bool:
    """True iff some reduction of this stick in this direction succeeds.

    Every slide passes through offset one, so the one-step sweep decides;
    no knot is built.
    """
    return max_reduction_amount(K, stick_index, direction) > 0


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
    full = K.sticks[plan.target].length
    static = _static_points(K, plan)
    for idx in plan.translating:
        pts = K.stick_points(idx)
        plane = {_shift(q, plan.delta, k) for q in pts for k in range(full + 1)}
        for s in static:
            if s in plane and min(l1_distance(s, q) for q in pts) == 1:
                return True
    return False
