"""The staircase torus-knot family and its structural verification.

``generate_torus_tabulation(p)`` emits, for any p >= 2, the tabulation of a
(p, p+1) torus-knot conformation with 6p sticks and edge length
5p^2 + 3p - 2: the type sequence cycles z+, x+, y+, z-, x-, y- and the
length columns follow closed forms with three exceptional final rows.  At
p = 2 the closed forms reproduce the classic 12-stick trefoil table.

``verify_structure(p, K)`` rechecks every structural fact of the built knot
that the construction relies on, each as one comparison with its closed
form: partial sums, arcs per level and in x-level 2, the critical vertices
on the diagonal, and coplanarity of the stick families.  Its one report
names the facts that failed.  Each fact is read from the knot's sticks, so a
caller that holds the knot never builds it again.  The closure sums depend
on p alone, and the knot constructor refuses any walk that does not close,
so they are a test of the generator, not a per-knot check.  Nothing else is
assumed from the generator; the generic knot validator independently
reverifies simplicity.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .knot import LatticeKnot, StickType, Tabulation, build_knot
from .lattice import Point, are_coplanar

_PERIOD = (
    StickType.ZP,
    StickType.XP,
    StickType.YP,
    StickType.ZM,
    StickType.XM,
    StickType.YM,
)


def x_column_entry(p: int, row: int) -> int:
    """Length of the row-th x-stick (1-based row, 1..2p)."""
    if row == 1:
        return 2
    if row == 2 * p - 2:
        return p + 1
    if row == 2 * p - 1:
        return p
    if row == 2 * p:
        return 1
    # rows 2k and 2k+1 share the value k+2, for 1 <= k <= p-2
    return row // 2 + 2


def y_column_entry(p: int, row: int) -> int:
    if row == 2 * p - 1:
        return 2 * p - 1
    if row == 2 * p:
        return p
    return p - 1 if row % 2 == 1 else p


def z_column_entry(p: int, row: int) -> int:
    return p if row == 2 * p else 2 * p - row


def generate_torus_tabulation(p: int) -> Tabulation:
    """Tabulation of the 6p-stick (p, p+1) torus-knot conformation."""
    if p < 2:
        raise ValueError(f"the family starts at p = 2, got p = {p}")
    rows = range(1, 2 * p + 1)
    return Tabulation(
        _PERIOD * p,
        (
            tuple(x_column_entry(p, i) for i in rows),
            tuple(y_column_entry(p, i) for i in rows),
            tuple(z_column_entry(p, i) for i in rows),
        ),
    )


def torus_knot(p: int) -> LatticeKnot:
    """The generated conformation, built and validated from the origin."""
    return build_knot(generate_torus_tabulation(p))


def edge_length_formula(p: int) -> int:
    return 5 * p * p + 3 * p - 2


# ---------------------------------------------------------------------------
# Exact closed forms for the family's distortion values.  Each is the arc
# length of a specific vertex pair at taxicab distance one, so the kernel can
# confirm or refute them per p.

def distortion_formula_even_small(p: int) -> Fraction:
    """9p^2/4 + 3p/2 - 1: arc length from the median z-stick to the long y-stick."""
    return Fraction(9 * p * p, 4) + Fraction(3 * p, 2) - 1


def distortion_formula_odd(p: int) -> Fraction:
    """11p^2/4 - p - 11/4: the realized maximum for small odd p."""
    return Fraction(11 * p * p, 4) - p - Fraction(11, 4)


def distortion_formula_even_large(p: int) -> Fraction:
    """11p^2/4 - 7p/2 - 5: the pair one stick past the median, for large even p."""
    return Fraction(11 * p * p, 4) - Fraction(7 * p, 2) - 5


# ---------------------------------------------------------------------------
# Structure reports


def expected_y_partial_sums(p: int) -> tuple[int, ...]:
    out: list[int] = []
    for k in range(1, p):
        out.extend((p - k, -k))
    out.extend((p, 0))
    return tuple(out)


def expected_z_partial_sums(p: int) -> tuple[int, ...]:
    out: list[int] = []
    for k in range(1, p):
        out.extend((2 * p - k, k))
    out.extend((p, 0))
    return tuple(out)


def expected_x_partial_sums(p: int) -> tuple[int, ...]:
    out: list[int] = [2]
    for k in range(1, p - 1):
        out.extend((-k, 2))
    out.extend((1 - p, 1, 0))
    return tuple(out)


def x_level_2_initial_vertex(p: int, n: int) -> Point:
    """Initial critical vertex of the n-th arc in x-level 2 (1-based n).

    First arc at (2, 0, 2p-1), each subsequent arc offset by (0, -1, -1);
    this is what the recursive description of the arcs unrolls to.
    """
    return (2, 1 - n, 2 * p - n)


class XLevel2Report(NamedTuple):
    """Shape of the one level that meets the knot in several arcs.

    x-level 2 must hold exactly p - 1 L-shaped arcs, each a y-stick of
    length p - 1 followed by a z-stick, stepping down by (0, -1, -1) from
    arc to arc.  ``initials_match_shifted_form`` records the alternative
    closed form (2, 1-n, 2p-2-n), whose z-coordinate sits two lower than
    what the construction actually produces; it is reported, not required.
    """

    p: int
    arc_count: int
    arc_initials: tuple[Point, ...]
    arcs_are_y_then_z: bool
    y_leg_lengths: tuple[int, ...]
    isolated_point_count: int

    @property
    def initials_match_recursion(self) -> bool:
        return self.arc_initials == tuple(
            x_level_2_initial_vertex(self.p, n) for n in range(1, self.arc_count + 1)
        )

    @property
    def initials_match_shifted_form(self) -> bool:
        return self.arc_initials == tuple(
            (2, 1 - n, 2 * self.p - 2 - n) for n in range(1, self.arc_count + 1)
        )

    @property
    def ok(self) -> bool:
        return (
            self.arc_count == self.p - 1
            and self.arcs_are_y_then_z
            and all(length == self.p - 1 for length in self.y_leg_lengths)
            and self.isolated_point_count == 0
            and self.initials_match_recursion
        )


def verify_x_level_2(p: int, K: LatticeKnot) -> XLevel2Report:
    """The arcs and isolated points of the plane x = 2, read from the sticks.

    A stick not along x keeps its x, so a cyclic run of such sticks that
    starts after an x-stick lies in one x-plane and is one arc of it, from
    the run's first start to its last end.  An x-stick meets x = 2 in an
    isolated point when the plane passes through its interior.  A knot with
    no x-stick has no run start and reports no arcs.
    """
    if p < 3:
        raise ValueError("x-level 2 has its multi-arc structure only for p >= 3")
    sticks = K.sticks
    initials = []
    y_lengths = []
    shapes_ok = True
    for i, stick in enumerate(sticks):
        if stick.type.axis == 0 or stick.start_point[0] != 2:
            continue
        if sticks[i - 1].type.axis != 0:
            continue  # inside a run
        run = [stick]
        while (nxt := sticks[(i + len(run)) % len(sticks)]).type.axis != 0:
            run.append(nxt)
        initials.append(stick.start_point)
        # an L: one y-stick, then one z-stick, nothing else
        shapes_ok &= [s.type.axis for s in run] == [1, 2]
        y_lengths.append(sum(s.length for s in run if s.type.axis == 1))
    return XLevel2Report(
        p=p,
        arc_count=len(initials),
        arc_initials=tuple(initials),
        arcs_are_y_then_z=shapes_ok,
        y_leg_lengths=tuple(y_lengths),
        isolated_point_count=sum(
            1 for s in sticks if s.type.axis == 0 and s.lo[0] < 2 < s.hi[0]
        ),
    )


# Coplanarity holds for each stick family once its geometric outlier is
# excluded: the longest y-stick (the p-th stick of positive y type, length
# 2p-1) and the closing z-stick (the 2p-th z-stick, length p).  The four
# other families are coplanar in full.
_COPLANAR_EXCLUDE_LAST = {StickType.YP, StickType.ZM}


class StructureReport(NamedTuple):
    """The structural facts that failed for one family member, in check order."""

    p: int
    edge_length: int
    stick_count: int
    failed: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failed


def _arc_counts(K: LatticeKnot) -> Counter[tuple[int, int]]:
    """Number of arcs in each plane (axis, value) that the knot meets in any.

    Each arc ends where the knot leaves its plane: at the start of a stick
    along the plane's axis, whose predecessor (never on the same axis in a
    simple knot) ran inside the plane.  So every stick ends one arc, in the
    plane through its start across its own axis.  A knot lying in one plane
    has no stick across it and no count there, though it is one arc of it.
    """
    return Counter((s.type.axis, s.start_point[s.type.axis]) for s in K.sticks)


def _levels_single_arc(K: LatticeKnot, p: int) -> bool:
    """x-level 2 holds p - 1 arcs and every other level at most one, counted
    from the sticks: the cost follows sticks, not planes times points.
    """
    arcs = _arc_counts(K)
    return arcs.pop((0, 2), 0) == p - 1 and all(n == 1 for n in arcs.values())


def verify_structure(p: int, K: LatticeKnot) -> StructureReport:
    """Every check for family member p on its built knot ``K``, from sticks.

    Each fact is one comparison with its closed form.  The stick ends are
    grouped by type once, and the facts are checked in this order: edge
    length and stick count, partial sums, arcs per level, and
    for p >= 3 x-level 2, the z+ initials on the diagonal (1-n, 1-n, n-1),
    the last three x+ initials (n-p, n-p, p+n-1) for n = 3, 2, 1, and one
    coplanarity fact per stick type.  Equality with the closed forms
    implies the facts that are not checked on their own:

    - 2p sticks per axis: each axis's partial sums hold 2p entries;
    - injective y and z partial sums, sorted z equal to 0..2p-1, and x
      repeating only 2, exactly p - 1 times: the closed forms have these
      properties;
    - collinear last three x+ initials: their closed forms differ by
      (1, 1, 1).
    """
    ends: dict[StickType, list[tuple[Point, Point]]] = {t: [] for t in StickType}
    for stick in K.sticks:
        ends[stick.type].append((stick.start_point, stick.end_point))
    expected = (expected_x_partial_sums, expected_y_partial_sums, expected_z_partial_sums)
    facts = {
        "edge length": K.edge_length == edge_length_formula(p),
        "stick count": K.stick_count == 6 * p,
        "partial sums": all(K.partial_sums(a) == expected[a](p) for a in range(3)),
        "arcs per level": _levels_single_arc(K, p),
    }
    if p >= 3:
        facts["x-level 2"] = verify_x_level_2(p, K).ok
        facts["z+ initials"] = [s for s, _ in ends[StickType.ZP]] == [
            (1 - n, 1 - n, n - 1) for n in range(1, p + 1)
        ]
        facts["last x+ initials"] = [s for s, _ in ends[StickType.XP][-3:]] == [
            (n - p, n - p, p + n - 1) for n in (3, 2, 1)
        ]
        for t in StickType:
            members = ends[t][:-1] if t in _COPLANAR_EXCLUDE_LAST else ends[t]
            # a stick spans the same affine hull as its two endpoints
            points = [q for pair in members for q in pair]
            facts[f"{t.value} coplanar"] = are_coplanar(points)
    failed = tuple(name for name, holds in facts.items() if not holds)
    return StructureReport(p, K.edge_length, K.stick_count, failed)
