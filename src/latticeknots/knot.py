"""Lattice knots: stick types, tabulations, construction and validation.

A lattice knot is a closed, simple, axis-parallel polygon in the cubic
lattice.  It is stored as the full cyclic sequence of unit steps, every
integer point it visits in traversal order, and its sticks, each with its
end points and box computed once at construction.  No index from points to
positions is kept: validation uses a set that is dropped afterwards.

Knots can be built from a tabulation (a cyclic stick-type sequence paired
with per-axis columns of stick lengths, consumed in order) or from an
explicit cyclic vertex list.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lattice import (
    AXES,
    AXIS_NAMES,
    Isometry,
    Point,
    apply_isometry,
    bounding_box,
    Box,
)


class KnotError(Exception):
    """Base class for knot construction and validation failures."""


class NotClosed(KnotError):
    """The walk does not return to its starting point."""


class SelfIntersection(KnotError):
    """The walk visits a lattice point twice."""

    def __init__(self, point: Point, stick_indices: tuple[int, int]):
        self.point = point
        self.stick_indices = stick_indices
        super().__init__(
            f"self-intersection at {point} between sticks "
            f"{stick_indices[0]} and {stick_indices[1]}"
        )


class LengthMismatch(KnotError):
    """A length column does not agree with the stick-type sequence."""


class NonAxisParallel(KnotError):
    """Consecutive vertices do not differ along exactly one axis."""


class StickType(enum.Enum):
    """One of the six oriented axis directions.

    Each member carries its ``axis`` (0, 1, 2 for x, y, z), ``sign`` (+1 or
    -1), unit ``step`` and ``opposite`` member, set once when the enum is
    built.  Definition order is the census code: the explorer encodes a
    member by its position, so reordering the members changes every
    canonical form and census order.
    """

    XP = "x+"
    XM = "x-"
    YP = "y+"
    YM = "y-"
    ZP = "z+"
    ZM = "z-"

    def __init__(self, value: str) -> None:
        self.axis = AXIS_NAMES.index(value[0])
        self.sign = 1 if value[1] == "+" else -1
        self.step = tuple(self.sign if a == self.axis else 0 for a in AXES)

    @classmethod
    def from_axis_sign(cls, axis: int, sign: int) -> "StickType":
        return _BY_AXIS_SIGN[(axis, sign)]

    @classmethod
    def parse(cls, text: str) -> "StickType":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown stick type {text!r}") from None

    def __str__(self) -> str:
        return self.value


_BY_AXIS_SIGN = {(t.axis, t.sign): t for t in StickType}
for _t in StickType:
    _t.opposite = _BY_AXIS_SIGN[(_t.axis, -_t.sign)]
del _t


def _add(p: Point, q: Point) -> Point:
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


@dataclass(frozen=True)
class Tabulation:
    """A stick-type sequence with per-axis columns of stick lengths.

    The n-th stick of a given axis takes its length from the n-th entry of
    that axis's column.  Columns may be padded with trailing zeros (as in
    printed tables whose rows run to the largest per-axis stick count); the
    padding is accepted on input and never emitted.
    """

    types: tuple[StickType, ...]
    lengths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self) -> None:
        for axis in AXES:
            count = sum(1 for t in self.types if t.axis == axis)
            column = self.lengths[axis]
            if len(column) < count:
                raise LengthMismatch(
                    f"{AXIS_NAMES[axis]} column has {len(column)} entries "
                    f"but the type sequence uses {count} {AXIS_NAMES[axis]}-sticks"
                )
            consumed = column[:count]
            if any(n < 1 for n in consumed):
                raise LengthMismatch(
                    f"{AXIS_NAMES[axis]} column holds a nonpositive length "
                    f"within its first {count} entries"
                )
            if any(n != 0 for n in column[count:]):
                raise LengthMismatch(
                    f"{AXIS_NAMES[axis]} column has unconsumed positive entries "
                    f"past row {count}"
                )

    @classmethod
    def from_columns(
        cls,
        types: Iterable[StickType | str],
        x: Iterable[int],
        y: Iterable[int],
        z: Iterable[int],
    ) -> "Tabulation":
        parsed = tuple(
            t if isinstance(t, StickType) else StickType.parse(t) for t in types
        )
        return cls(parsed, (tuple(x), tuple(y), tuple(z)))

    def column(self, axis: int) -> tuple[int, ...]:
        """The consumed (unpadded) length column for one axis."""
        count = sum(1 for t in self.types if t.axis == axis)
        return self.lengths[axis][:count]

    def stick_lengths(self) -> tuple[int, ...]:
        """Lengths in traversal order, one per entry of the type sequence."""
        cursor = [0, 0, 0]
        out = []
        for t in self.types:
            out.append(self.lengths[t.axis][cursor[t.axis]])
            cursor[t.axis] += 1
        return tuple(out)

    @property
    def total_length(self) -> int:
        return sum(self.stick_lengths())


@dataclass(frozen=True, slots=True)
class Stick:
    """A maximal straight segment and its geometry.

    ``start`` is the index of its initial vertex, ``start_point`` and
    ``end_point`` are its two ends in traversal order, and ``lo``/``hi`` are
    the componentwise min and max of the ends: its box.
    """

    type: StickType
    length: int
    start: int
    start_point: Point
    end_point: Point
    lo: Point
    hi: Point


@dataclass(frozen=True)
class Level:
    """Intersection of a knot with one axis-aligned integer plane.

    ``arcs`` lists maximal runs of two or more consecutive vertex indices in
    the plane, in traversal order; ``isolated_points`` lists the vertices
    whose cycle neighbours both leave the plane.  A planar knot meets its own
    plane in a single cyclic arc covering every vertex.
    """

    axis: int
    value: int
    arcs: tuple[tuple[int, ...], ...]
    isolated_points: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return not self.arcs and not self.isolated_points


class LatticeKnot:
    """A validated closed simple axis-parallel lattice polygon.

    Stores ``steps``, ``vertices`` (every lattice point, in traversal order)
    and ``sticks`` (each carrying its ends and box); no point index is kept.
    Instances are immutable after construction and safe for concurrent use.
    Orientation is part of the value; :meth:`reverse` returns the opposite
    traversal as a new knot.
    """

    __slots__ = ("steps", "vertices", "sticks")

    def __init__(self, steps: Sequence[StickType], origin: Point = (0, 0, 0)):
        steps = tuple(steps)
        n = len(steps)
        if n < 4:
            raise NotClosed("a closed simple lattice polygon needs at least 4 steps")
        vertices: list[Point] = []
        pos = (origin[0], origin[1], origin[2])
        for step in steps:
            vertices.append(pos)
            pos = _add(pos, step.step)
        if pos != vertices[0]:
            total = tuple(p - q for p, q in zip(pos, vertices[0]))
            raise NotClosed(f"steps sum to {total}, not to zero")

        # sticks start where the direction changes; closed steps cannot all
        # point one way
        starts = [i for i in range(n) if steps[i - 1] != steps[i]]
        if len(set(vertices)) < n:
            first: dict[Point, int] = {}
            for i, pos in enumerate(vertices):
                if pos in first:
                    # the vertices before the first start lie on the last stick
                    pair = [(bisect_right(starts, k) - 1) % len(starts)
                            for k in (first[pos], i)]
                    raise SelfIntersection(pos, (pair[0], pair[1]))
                first[pos] = i

        sticks = []
        for start, end in zip(starts, starts[1:] + [starts[0] + n]):
            p, q = vertices[start], vertices[end % n]
            lo, hi = (p, q) if p < q else (q, p)  # the ends differ on one axis
            sticks.append(Stick(steps[start], end - start, start, p, q, lo, hi))

        self.steps = steps
        self.vertices = tuple(vertices)
        self.sticks = tuple(sticks)

    # -- basic queries ------------------------------------------------

    @property
    def edge_length(self) -> int:
        """Number of unit edges; equals the number of lattice points visited."""
        return len(self.steps)

    @property
    def stick_count(self) -> int:
        return len(self.sticks)

    @property
    def origin(self) -> Point:
        return self.vertices[0]

    @property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.vertices)

    def is_critical(self, i: int) -> bool:
        """True iff vertex ``i`` is an endpoint of a stick (the knot turns there)."""
        return self.steps[i - 1] != self.steps[i % self.edge_length]

    def antipodal_vertex(self, i: int) -> int:
        """Index of the vertex at arc distance edge_length/2 from vertex ``i``."""
        n = self.edge_length
        if not 0 <= i < n:
            raise IndexError(f"vertex index {i} out of range")
        return (i + n // 2) % n

    def arc_between(self, i: int, j: int) -> tuple[Point, ...]:
        """Vertices from ``i`` forward (in orientation) to ``j``, inclusive."""
        n = self.edge_length
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"vertex indices {i}, {j} out of range")
        out = [self.vertices[i]]
        k = i
        while k != j:
            k = (k + 1) % n
            out.append(self.vertices[k])
        return tuple(out)

    def bounding_box(self) -> Box:
        return bounding_box(self.vertices)

    # -- levels and sums ----------------------------------------------

    def level(self, axis: int, value: int) -> Level:
        """The arcs and isolated points of the knot in the plane axis = value."""
        n = self.edge_length
        inside = [v[axis] == value for v in self.vertices]
        if not any(inside):
            return Level(axis, value, (), ())
        if all(inside):
            return Level(axis, value, (tuple(range(n)),), ())
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
        return Level(axis, value, tuple(arcs), tuple(points))

    def partial_sums(self, axis: int, signed: bool = True) -> tuple[int, ...]:
        """Running sums of this axis's stick lengths in traversal order.

        Signed sums carry the stick orientation and start from the first
        critical vertex's coordinate, so the n-th sum is the level holding
        the n-th stick's terminal critical vertex.  Unsigned sums are plain
        cumulative lengths.
        """
        acc = self.sticks[0].start_point[axis] if signed else 0
        out = []
        for stick in self.sticks:
            if stick.type.axis != axis:
                continue
            acc += stick.length * stick.type.sign if signed else stick.length
            out.append(acc)
        return tuple(out)

    # -- derived forms ------------------------------------------------

    def canonical_tabulation(self) -> tuple[Tabulation, Point]:
        """Tabulation read off from the lexicographically least critical vertex.

        Returns the tabulation and the vertex it starts from, giving every
        knot a reproducible serialized form.
        """
        offset = min(range(self.stick_count), key=lambda k: self.sticks[k].start_point)
        ordered = self.sticks[offset:] + self.sticks[:offset]
        columns: list[list[int]] = [[], [], []]
        for stick in ordered:
            columns[stick.type.axis].append(stick.length)
        return (
            Tabulation(
                tuple(s.type for s in ordered),
                (tuple(columns[0]), tuple(columns[1]), tuple(columns[2])),
            ),
            ordered[0].start_point,
        )

    def reverse(self) -> "LatticeKnot":
        """The same polygon traversed in the opposite orientation."""
        rev = tuple(s.opposite for s in reversed(self.steps))
        return LatticeKnot(rev, self.origin)

    def translate(self, offset: Point) -> "LatticeKnot":
        return LatticeKnot(self.steps, _add(self.origin, offset))

    def transform(self, iso: Isometry) -> "LatticeKnot":
        """Apply one of the 48 signed axis permutations."""
        perm, signs = iso
        new_steps = tuple(
            StickType.from_axis_sign(perm[s.axis], s.sign * signs[s.axis])
            for s in self.steps
        )
        return LatticeKnot(new_steps, apply_isometry(iso, self.origin))

    def rotate_start(self, new_start: int) -> "LatticeKnot":
        """The same oriented polygon with the vertex cycle starting elsewhere."""
        n = self.edge_length
        new_steps = self.steps[new_start:] + self.steps[:new_start]
        return LatticeKnot(new_steps, self.vertices[new_start % n])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeKnot):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return (
            f"<LatticeKnot sticks={self.stick_count} "
            f"edge_length={self.edge_length} origin={self.origin}>"
        )


def build_knot(tab: Tabulation, origin: Point = (0, 0, 0)) -> LatticeKnot:
    """Construct and validate the knot a tabulation describes.

    The walk starts at ``origin``, follows the type sequence, and takes the
    n-th stick of each axis at the length in the n-th row of that axis's
    column.  Raises NotClosed if the walk does not return to the origin and
    SelfIntersection (with the offending point and stick pair) if it revisits
    a lattice point.
    """
    steps: list[StickType] = []
    for t, length in zip(tab.types, tab.stick_lengths()):
        steps.extend([t] * length)
    return LatticeKnot(steps, origin)


def knot_from_vertices(cycle: Sequence[Point]) -> LatticeKnot:
    """Build a knot from a cyclic list of points, interpolating unit steps.

    Consecutive points (cyclically) must differ along exactly one axis.
    Collinear same-direction segments merge into one stick; opposite-direction
    neighbours double back over shared points and fail as self-intersections.
    """
    if len(cycle) < 3:
        raise NotClosed("a vertex cycle needs at least 3 points")
    steps: list[StickType] = []
    n = len(cycle)
    for k in range(n):
        p = cycle[k]
        q = cycle[(k + 1) % n]
        diff = tuple(q[axis] - p[axis] for axis in AXES)
        nonzero = [axis for axis in AXES if diff[axis] != 0]
        if len(nonzero) != 1:
            raise NonAxisParallel(f"{p} -> {q} does not move along exactly one axis")
        axis = nonzero[0]
        sign = 1 if diff[axis] > 0 else -1
        steps.extend([StickType.from_axis_sign(axis, sign)] * abs(diff[axis]))
    return LatticeKnot(steps, cycle[0])


def partial_sums(
    source: LatticeKnot | Tabulation,
    axis: int,
    signed: bool = True,
    origin: Point = (0, 0, 0),
) -> tuple[int, ...]:
    """Partial sums of one axis's stick lengths, from a knot or a raw tabulation."""
    if isinstance(source, LatticeKnot):
        return source.partial_sums(axis, signed)
    acc = origin[axis] if signed else 0
    out = []
    for t, length in zip(source.types, source.stick_lengths()):
        if t.axis != axis:
            continue
        acc += length * t.sign if signed else length
        out.append(acc)
    return tuple(out)
