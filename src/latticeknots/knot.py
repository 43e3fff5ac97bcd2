"""Lattice knots: stick types, tabulations, construction and validation.

A lattice knot is a closed, simple, axis-parallel polygon in the cubic
lattice.  It is stored as its sticks, each with its type, length, the index
of its initial vertex, its end points and its box, and its edge length:
nothing it keeps at construction grows with the edge length.  Its lattice
points are listed on first request and kept; past ``MAX_POINTS`` points
they are refused.

There is one constructor, from stick types, stick lengths and an origin.
A tabulation (a cyclic stick-type sequence paired with per-axis columns of
stick lengths, consumed in order), the coordinate columns of a cyclic vertex
list, the census and the random sampler all hand it their runs.  Closure is one
signed sum per axis; simplicity is tested on sticks, never on points.  A
built knot lists its points and answers queries about its sticks (signed
partial sums, the sticks meeting a lattice plane) and reads off its
canonical tabulation.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from itertools import chain, combinations, compress
from operator import add, attrgetter, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lattice import AXES, AXIS_NAMES, Point

MAX_POINTS = 2_000_000  # the most points or pairs listed; see TooManyPoints
ALL_PAIRS = 24  # the most sticks a knot or a plane tests pair by pair; see LatticeKnot


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


class TooManyPoints(ValueError):
    """Raised by ``pieces`` (for ``vertices`` and the CSV and OBJ writers), before
    anything is allocated, past ``MAX_POINTS`` = 2,000,000 lattice points, and by
    ``vertex_distortion`` past as many realizing pairs.  Listed points take 112 B
    each (tracemalloc, Python 3.11, x86-64 Linux).  On a 2,000,000-point rectangle
    distortion --oracle, which lists them, peaks at 398 MB of RSS; the writers,
    which list none, at 110 MB (OBJ) and 109 MB (export or reduce -o to a vertex
    CSV); validate reads that CSV in 228 MB: each fits 1 GiB up to the limit."""


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


class _TabulationFields(NamedTuple):
    types: tuple[StickType, ...]
    lengths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class Tabulation(_TabulationFields):
    """A stick-type sequence with per-axis columns of stick lengths.

    The n-th stick of a given axis takes its length from the n-th entry of
    that axis's column.  Columns may be padded with trailing zeros (as in
    printed tables whose rows run to the largest per-axis stick count); the
    padding is accepted on input and never emitted.  A column that does not
    agree with the type sequence raises LengthMismatch.
    """

    __slots__ = ()

    def __new__(cls, types: tuple[StickType, ...], lengths: tuple) -> "Tabulation":
        for axis in AXES:
            count = sum(1 for t in types if t.axis == axis)
            column = lengths[axis]
            if len(column) < count:
                raise LengthMismatch(
                    f"{AXIS_NAMES[axis]} column has {len(column)} entries "
                    f"but the type sequence uses {count} {AXIS_NAMES[axis]}-sticks"
                )
            if any(n < 1 for n in column[:count]):
                raise LengthMismatch(
                    f"{AXIS_NAMES[axis]} column holds a nonpositive length "
                    f"within its first {count} entries"
                )
            if any(n != 0 for n in column[count:]):
                raise LengthMismatch(
                    f"{AXIS_NAMES[axis]} column has unconsumed positive entries "
                    f"past row {count}"
                )
        return super().__new__(cls, types, lengths)

    @classmethod
    def _make(cls, fields: Iterable) -> "Tabulation":  # so that _replace checks too
        return cls(*fields)

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


class Stick:
    """A maximal straight segment and its geometry.

    ``start`` is the index of its initial vertex, ``start_point`` and
    ``end_point`` are its two ends in traversal order, and ``lo``/``hi`` are
    the componentwise min and max of the ends: its box.  Nothing writes a
    stick after the constructor makes it.  It is neither frozen nor a tuple:
    every knot built (a torus member, a move's result) makes its sticks one at
    a time, and as a NamedTuple it made building torus p = 2..18 6.7% slower,
    ``verify_structure`` 7.0% and a 300-move dilated search 5.2% (Python 3.11).
    """

    __slots__ = ("type", "length", "start", "start_point", "end_point", "lo", "hi")

    def __init__(self, type: StickType, length: int, start: int, start_point: Point,
                 end_point: Point, lo: Point, hi: Point) -> None:
        self.type = type
        self.length = length
        self.start = start
        self.start_point = start_point
        self.end_point = end_point
        self.lo = lo
        self.hi = hi

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _stick_fields(self) == _stick_fields(other)

    def __hash__(self) -> int:
        return hash(_stick_fields(self))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, _stick_fields(self))
        return f"Stick({', '.join(f'{name}={value!r}' for name, value in pairs)})"


_stick_fields = attrgetter(*Stick.__slots__)


# a stick along axis a lies in one lattice plane across each of these axes
_ACROSS = ((1, 2), (0, 2), (0, 1))


def _lying_planes(sticks: Sequence[Stick]) -> dict[tuple[int, int], list[int]]:
    """Stick indices by the planes ``(axis, coordinate)`` they lie in.

    Two sticks that meet share such a plane: the axis neither runs along
    if they are perpendicular, both others if they are parallel.
    """
    planes: dict[tuple[int, int], list[int]] = {}
    for i, stick in enumerate(sticks):
        for axis in _ACROSS[stick.type.axis]:
            planes.setdefault((axis, stick.start_point[axis]), []).append(i)
    return planes


def _plane_pairs(sticks: list[Stick], owned: list[tuple]) -> Iterator[tuple[int, int]]:
    """The pairs of sticks that lie in one plane: every pair in a plane of at
    most ``ALL_PAIRS`` sticks, and in a larger one those that overlap along
    the axis its sticks span least, found by sweeping the plane along it."""
    for (axis, _), group in _lying_planes(sticks).items():
        if len(group) <= ALL_PAIRS:
            yield from combinations(group, 2)
            continue
        a = min(_ACROSS[axis], key=lambda k: sum(owned[i][k + 3] - owned[i][k] for i in group))
        group.sort(key=lambda i: owned[i][a])
        for k, i in enumerate(group):
            end = owned[i][a + 3]
            for j in group[k + 1:]:
                if owned[j][a] > end:
                    break
                yield i, j


class LatticeKnot:
    """A validated closed simple axis-parallel lattice polygon.

    Stores ``sticks`` (each carrying its ends and box) and ``edge_length``.
    ``vertices`` (every lattice point, in traversal order; the one listing
    of its points) and the plane index of ``plane`` are built on first use
    and kept; two threads that race on one build the same value.  Instances
    are otherwise immutable and safe for concurrent use.  Orientation and
    starting vertex are part of the value.
    """

    __slots__ = ("sticks", "edge_length", "_vertices", "_planes")

    def __init__(
        self, types: Iterable[StickType], lengths: Iterable[int], origin: Point = (0, 0, 0)
    ):
        """The walk that takes each type for its length from ``origin``.

        Runs of one type merge into one stick, the last run with the first
        too, so vertex 0 may lie inside the last stick.  Raises NotClosed
        for fewer than 4 steps or a walk that does not return, and
        SelfIntersection, with the first point revisited from vertex 0 and
        the sticks of its two visits, for a walk that is not simple.
        """
        runs: list[list] = []
        total = [0, 0, 0]
        for t, length in zip(types, lengths):
            total[t.axis] += t.sign * length
            if runs and runs[-1][0] is t:
                runs[-1][1] += length
            else:
                runs.append([t, length])
        n = sum(length for _, length in runs)
        if n < 4:
            raise NotClosed("a closed simple lattice polygon needs at least 4 steps")
        if total != [0, 0, 0]:
            raise NotClosed(f"steps sum to {tuple(total)}, not to zero")

        start = runs.pop(0)[1] if runs[0][0] is runs[-1][0] else 0
        runs[-1][1] += start
        (x, y, z), (dx, dy, dz) = origin, runs[-1][0].step
        x, y, z = x + dx * start, y + dy * start, z + dz * start
        sticks = []
        owned = []  # the box of the points a stick owns: all but its end
        for t, length in runs:
            p, (dx, dy, dz) = (x, y, z), t.step
            x, y, z = x + dx * length, y + dy * length, z + dz * length
            q, last = (x, y, z), (x - dx, y - dy, z - dz)
            sticks.append(Stick(t, length, start, p, q, *((p, q) if p < q else (q, p))))
            owned.append(p + last if p < q else last + p)
            start += length

        # all pairs against pairs by plane, whole constructor, best of 7 (Python 3.11,
        # 2-vCPU x86-64): torus p = 3 (18 sticks) 30.0 against 30.9 us, p = 4 (24) 41.4
        # against 40.9, p = 5 (30) 57 against 51, p = 18 (108) 514 against 231; 75 dilated
        # knots of <= 18 sticks 1.14 against 1.55 ms; a 31-stick planar serpentine 89.6
        # against 63.2 when its plane is swept
        m = len(sticks)
        pairs = combinations(range(m), 2) if m <= ALL_PAIRS else _plane_pairs(sticks, owned)
        hits = [
            (a, b)
            for a, b in pairs
            if (A := owned[a])[0] <= (B := owned[b])[3] and B[0] <= A[3]
            and A[1] <= B[4] and B[1] <= A[4] and A[2] <= B[5] and B[2] <= A[5]
        ]
        if hits:
            raise SelfIntersection(*_first_revisit(sticks, owned, hits, n, origin))
        self.sticks = tuple(sticks)
        self.edge_length = n
        self._vertices = self._planes = None

    # -- basic queries ------------------------------------------------

    @property
    def stick_count(self) -> int:
        return len(self.sticks)

    @property
    def origin(self) -> Point:
        """Vertex 0: the first stick's start, or inside the last stick."""
        (x, y, z), back = self.sticks[0].start_point, self.sticks[0].start
        dx, dy, dz = self.sticks[-1].type.step
        return (x - dx * back, y - dy * back, z - dz * back)

    def pieces(self) -> list[tuple[Stick, int, int]]:
        """``(stick, a, b)`` for the points ``a`` to ``b - 1`` steps along each stick
        from vertex 0: the last stick is two pieces when vertex 0 lies inside it.
        Refused past ``MAX_POINTS`` points, before any is listed."""
        if self.edge_length > MAX_POINTS:
            raise TooManyPoints(f"the knot has {self.edge_length} lattice points; "
                                f"listing them is refused past {MAX_POINTS}")
        *sticks, last = self.sticks
        cut = last.length - self.sticks[0].start
        head = [(last, cut, last.length)] if cut < last.length else []
        return head + [(stick, 0, stick.length) for stick in sticks] + [(last, 0, cut)]

    @property
    def vertices(self) -> tuple[Point, ...]:
        """Every lattice point, in traversal order from vertex 0; refused
        past ``MAX_POINTS``."""
        if self._vertices is None:
            points: list[Point] = []
            for stick, a, b in self.pieces():
                (x, y, z), axis, sign = stick.start_point, stick.type.axis, stick.type.sign
                c = stick.start_point[axis]
                run = range(c + sign * a, c + sign * b, sign)
                points += ([(v, y, z) for v in run] if axis == 0 else [(x, v, z) for v in run]
                           if axis == 1 else [(x, y, v) for v in run])
            self._vertices = tuple(points)
        return self._vertices

    def plane(self, axis: int, c: int) -> list[tuple[int, Point, Point]]:
        """``(index, lo, hi)`` of each stick whose box meets a plane that
        some stick lies in, where ``axis`` holds ``c``: the sticks grouped
        under it as the constructor groups them, and those along ``axis``
        that cross or end in it.  Built for all such planes on first use,
        in O(m log m) and one entry per crossing, and kept."""
        if self._planes is None:
            sticks = self.sticks
            planes = _lying_planes(sticks)
            levels = [sorted(level for k, level in planes if k == a) for a in AXES]
            for i, s in enumerate(sticks):
                run, cs = s.type.axis, levels[s.type.axis]
                for level in cs[bisect_left(cs, s.lo[run]):bisect_right(cs, s.hi[run])]:
                    planes[run, level].append(i)
            self._planes = {key: [(i, sticks[i].lo, sticks[i].hi) for i in members]
                            for key, members in planes.items()}
        return self._planes.get((axis, c), [])

    def partial_sums(self, axis: int) -> tuple[int, ...]:
        """Running signed sums of this axis's stick lengths in traversal order.

        The sums carry the stick orientation and start from the first
        critical vertex's coordinate, so the n-th sum is the level holding
        the n-th stick's terminal critical vertex.
        """
        acc = self.sticks[0].start_point[axis]
        out = []
        for stick in self.sticks:
            if stick.type.axis != axis:
                continue
            acc += stick.length * stick.type.sign
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
        tab = Tabulation(tuple(s.type for s in ordered), tuple(map(tuple, columns)))
        return tab, ordered[0].start_point

    def __eq__(self, other: object) -> bool:
        # the sticks, with their start indices, fix the vertex sequence
        if not isinstance(other, LatticeKnot):
            return NotImplemented
        return self.sticks == other.sticks

    def __hash__(self) -> int:
        return hash(self.sticks)

    def __repr__(self) -> str:
        return (
            f"<LatticeKnot sticks={self.stick_count} "
            f"edge_length={self.edge_length} origin={self.origin}>"
        )


def _first_revisit(
    sticks: list[Stick], owned: list[tuple], hits: list[tuple[int, int]], n: int,
    origin: Point,
) -> tuple[Point, tuple[int, int]]:
    """The first point the walk revisits and the sticks of its two visits.

    Each vertex index is owned by one stick, and a point visited twice lies
    in the owned boxes of a pair in ``hits``.  The answer is the shared
    point whose later visit comes first, with (earlier, later) stick.  Two
    perpendicular sticks share one point.  A stick owns the indices from
    its start to the next stick's, so along a run shared by two parallel
    sticks the later visit stays on one of them and moves one way, until
    the last stick's indices restart at vertex 0: the least lies at an end
    of the run or at vertex 0.
    """
    best = None
    for a, b in hits:
        A, B = sticks[a], sticks[b]
        lo = [max(owned[a][k], owned[b][k]) for k in AXES]
        hi = [min(owned[a][k + 3], owned[b][k + 3]) for k in AXES]
        run = A.type.axis
        for v in {lo[run], hi[run], origin[run]}:
            if lo[run] <= v <= hi[run]:
                point = tuple(lo[:run] + [v] + lo[run + 1:])
                i, j = ((S.start + abs(point[S.type.axis] - S.start_point[S.type.axis])) % n
                        for S in (A, B))
                key = (i, j, point, (b, a)) if i > j else (j, i, point, (a, b))
                best = key if best is None or key < best else best
    return best[2], best[3]


def build_knot(tab: Tabulation, origin: Point = (0, 0, 0)) -> LatticeKnot:
    """Construct and validate the knot a tabulation describes.

    The walk starts at ``origin``, follows the type sequence, and takes the
    n-th stick of each axis at the length in the n-th row of that axis's
    column.  Raises NotClosed if the walk does not return to the origin and
    SelfIntersection (with the offending point and stick pair) if it revisits
    a lattice point.
    """
    return LatticeKnot(tab.types, tab.stick_lengths(), origin)


def knot_from_vertices(cycle: Sequence[Point]) -> LatticeKnot:
    """Build a knot from a cyclic list of points, by its coordinate columns.

    Consecutive points (cyclically) must differ along exactly one axis.
    Collinear same-direction segments merge into one stick; opposite-direction
    neighbours double back over shared points and fail as self-intersections.
    """
    xs, ys, zs = zip(*cycle) if cycle else ((), (), ())
    return knot_from_columns(xs, ys, zs)


def knot_from_columns(xs: Sequence[int], ys: Sequence[int], zs: Sequence[int]) -> LatticeKnot:
    """The knot through the points ``(xs[k], ys[k], zs[k])`` in turn.  Maps over the
    columns take its steps, check that two components of each are 0 (a zero step,
    whose dot product with the step before is 0, is caught among the stick starts)
    and start a stick at each step whose dot product with the one before is not
    positive.  The constructor gets one run per stick."""
    n, columns = len(xs), (xs, ys, zs)
    if n < 3:
        raise NotClosed("a vertex cycle needs at least 3 points")
    dx, dy, dz = steps = [list(map(sub, c[1:] + c[:1], c)) for c in columns]
    dots = [map(mul, d, chain(d[-1:], d)) for d in steps]
    starts = list(compress(range(n), map((1).__gt__, map(add, map(add, *dots[:2]), dots[2]))))
    zeros = dx.count(0) + dy.count(0) + dz.count(0)
    if zeros != 2 * n or not all(dx[a] or dy[a] or dz[a] for a in starts):
        k = next(k for k in range(n) if (dx[k] != 0) + (dy[k] != 0) + (dz[k] != 0) != 1)
        p, q = ((xs[i], ys[i], zs[i]) for i in (k, (k + 1) % n))
        raise NonAxisParallel(f"{p} -> {q} does not move along exactly one axis")
    bounds = [0] + starts if starts[0] else starts
    types, lengths = [], []
    for a, b in zip(bounds, bounds[1:] + [0]):
        column = columns[axis := 0 if dx[a] else 1 if dy[a] else 2]
        types.append(_BY_AXIS_SIGN[axis, 1 if column[b] > column[a] else -1])
        lengths.append(abs(column[b] - column[a]))
    return LatticeKnot(types, lengths, (xs[0], ys[0], zs[0]))
