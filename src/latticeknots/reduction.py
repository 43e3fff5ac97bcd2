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
from typing import Iterator, NamedTuple

from .knot import LatticeKnot, SelfIntersection
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


class ReductionMove(NamedTuple):
    """One slide: which stick, which endpoint moves, and by how much."""

    stick_index: int
    direction: Direction
    amount: int


class _Plan(NamedTuple):
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

    The target and absorber each lose ``amount``.  Vertex 0, stick 0's start,
    moves if stick 0 translates or is the target (WITH) or absorber (AGAINST).
    """
    lengths = [stick.length for stick in K.sticks]
    lengths[plan.target] -= amount
    lengths[plan.absorber] -= amount
    lead = plan.target if plan.direction is Direction.WITH else plan.absorber
    origin = K.sticks[0].start_point
    if 0 in (lead, *plan.translating):
        origin = _shift(origin, plan.delta, amount)
    return LatticeKnot((stick.type for stick in K.sticks), lengths, origin)


def _blocks(K: LatticeKnot, plan: _Plan, limit: int) -> Iterator[tuple[int, int, int]]:
    """``(offset, rank, static stick)`` for each static stick that blocks the
    ``rank``-th translating stick, first at ``offset``, where that is at most
    ``limit`` and every offset yielded before: all those blocking at the least.

    Sweeping the translating sticks is the only freedom in the motion; the
    shrinking target and absorber stay inside their original segments, so
    they cannot produce new intersections on the way.  Two axis-parallel
    lattice segments meet iff their boxes overlap on every axis, and the
    overlap then holds a lattice point.  A translating stick is perpendicular
    to the slide, so each static stick either never meets it or blocks one
    interval of offsets, read off the slide axis.  A stick running along
    ``run`` sweeps the plane where the third axis ``fixed`` holds its start's
    coordinate, so only the sticks whose box holds that coordinate are
    visited, read from the knot's plane index, which all its slides share.
    """
    axis = K.sticks[plan.target].type.axis
    sign = plan.delta[axis]
    moving = {plan.target, plan.absorber, *plan.translating}
    for rank, idx in enumerate(plan.translating):
        stick = K.sticks[idx]
        start, lo, hi = stick.start_point, stick.lo, stick.hi
        run = stick.type.axis
        fixed = 3 - axis - run
        for s_idx, s_lo, s_hi in K.plane(fixed, start[fixed]):
            if s_hi[run] < lo[run] or hi[run] < s_lo[run] or s_idx in moving:
                continue
            near = sign * (s_lo[axis] - start[axis])
            far = sign * (s_hi[axis] - start[axis])
            if sign < 0:
                near, far = far, near
            k = near if near > 1 else 1
            if k <= far and k <= limit:
                limit = k
                yield k, rank, s_idx


def _least_offset(K: LatticeKnot, plan: _Plan, limit: int) -> int:
    """The least offset in 1..limit that blocks the slide, else ``limit + 1``."""
    least = limit + 1
    for least, _, _ in _blocks(K, plan, limit):
        if least == 1:
            break
    return least


def _first_collision(
    K: LatticeKnot, plan: _Plan, limit: int
) -> tuple[int, Point, tuple[int, int]] | None:
    """The first collision of a slide by up to ``limit``, or None if clear.

    Returns ``(offset, point, (moving stick, static stick))`` for the smallest
    offset in 1..limit at which a translating stick meets a static stick.
    Ties at the least offset go to the earlier stick in ``plan.translating``,
    then to the point nearest its start, then to the higher static index:
    the order of a sweep that shifts every point of every translating stick,
    offset by offset.  Only moves that raise CollisionDetected need this:
    ``max_reduction_amount`` (so ``is_irreducible``) and
    ``sweep_criterion_blocks`` read the offset alone from ``_least_offset``.
    """
    best = None
    for k, rank, s_idx in _blocks(K, plan, limit):
        idx = plan.translating[rank]
        start, run, static = K.sticks[idx].start_point, K.sticks[idx].type.axis, K.sticks[s_idx]
        point = list(_shift(start, plan.delta, k))
        point[run] = min(max(start[run], static.lo[run]), static.hi[run])
        key = (k, rank, abs(point[run] - start[run]), -s_idx, tuple(point), (idx, s_idx))
        best = key if best is None or key < best else best
    return None if best is None else (best[0], best[4], best[5])


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
    return _least_offset(K, plan, cap) - 1 if cap > 0 else 0


class IrreducibilityReport(NamedTuple):
    """Every (stick, direction, max amount) witness; irreducible when there is none."""

    witnesses: tuple[tuple[int, Direction, int], ...]

    @property
    def irreducible(self) -> bool:
        return not self.witnesses


def is_irreducible(K: LatticeKnot) -> IrreducibilityReport:
    """Exhaustively test every stick in both directions.

    The 2m slides share the knot's plane index, built on the first slide.
    Each reads only its least blocking offset (``max_reduction_amount``),
    so it stops at the first static stick that blocks at offset 1.
    """
    witnesses = []
    for idx in range(len(K.sticks)):
        for direction in Direction:
            amount = max_reduction_amount(K, idx, direction)
            if amount > 0:
                witnesses.append((idx, direction, amount))
    return IrreducibilityReport(tuple(witnesses))


def sweep_criterion_blocks(
    K: LatticeKnot, stick_index: int, direction: Direction
) -> bool:
    """Plane-sweep diagnostic: does the full-slide sweep certify irreducibility?

    True if the rest of the knot meets a plane the translating sticks trace
    at a point one away (taxicab) from the stick that traces it: the slide's
    first step collides, so no reduction this way succeeds (sufficient, not
    necessary).  Unlike a move of amount 1, it reads the sweep whatever the
    stick lengths: on the trefoil it fires on all 24 slides, where such a
    move meets a collision on 12 and a stick of length 1 (DegenerateStick)
    on 12; on T(3,4), 28 and 8 of 36.  Called by ``demos/reduction_moves.py``.
    """
    try:
        plan = _plan_move(K, stick_index, direction)
    except NonReducingMove:
        return False
    return _least_offset(K, plan, 1) == 1
