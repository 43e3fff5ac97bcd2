"""Integer lattice geometry.

Points of the cubic lattice are plain ``(x, y, z)`` integer tuples.  Everything
in this module is exact: distances and ranks are integers, and no floating
point is used anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

Point = tuple[int, int, int]

AXES = (0, 1, 2)
AXIS_NAMES = ("x", "y", "z")


def l1_distance(a: Point, b: Point) -> int:
    """Taxicab distance between two lattice points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


def check_unit_path(path: Sequence[Point]) -> None:
    """Raise ValueError unless consecutive points differ by exactly one unit step."""
    if not path:
        raise ValueError("path must contain at least one point")
    for p, q in zip(path, path[1:]):
        if l1_distance(p, q) != 1:
            raise ValueError(f"not a unit-step path: {p} -> {q}")


def is_staircase(path: Sequence[Point]) -> bool:
    """True iff every coordinate sequence along the path is monotone.

    Each axis may independently be nondecreasing or nonincreasing; a
    single-point path is vacuously a staircase.
    """
    check_unit_path(path)
    for axis in AXES:
        coords = [p[axis] for p in path]
        up = all(c1 <= c2 for c1, c2 in zip(coords, coords[1:]))
        down = all(c1 >= c2 for c1, c2 in zip(coords, coords[1:]))
        if not (up or down):
            return False
    return True


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its componentwise min and max corners."""

    min_corner: Point
    max_corner: Point

    def __post_init__(self) -> None:
        if any(lo > hi for lo, hi in zip(self.min_corner, self.max_corner)):
            raise ValueError("min_corner must be <= max_corner componentwise")

    @property
    def corners(self) -> tuple[Point, ...]:
        """The distinct corner points, in lexicographic order."""
        options = [
            sorted({self.min_corner[axis], self.max_corner[axis]}) for axis in AXES
        ]
        return tuple(
            (x, y, z) for x in options[0] for y in options[1] for z in options[2]
        )

    def contains(self, p: Point) -> bool:
        return all(
            self.min_corner[axis] <= p[axis] <= self.max_corner[axis] for axis in AXES
        )


def bounding_box(points: Iterable[Point]) -> Box:
    """Smallest axis-aligned box containing all the points."""
    pts = list(points)
    if not pts:
        raise ValueError("bounding_box of an empty point set")
    lo = tuple(min(p[axis] for p in pts) for axis in AXES)
    hi = tuple(max(p[axis] for p in pts) for axis in AXES)
    return Box(lo, hi)


def is_box_corner(v: Point, points: Iterable[Point]) -> bool:
    """True iff each coordinate of ``v`` bounds the point set from above or below.

    Equivalently, ``v`` is one of the corners of the minimal bounding box.
    ``v`` must itself belong to the set.
    """
    pts = set(points)
    if v not in pts:
        raise ValueError(f"{v} is not a member of the point set")
    for axis in AXES:
        values = [p[axis] for p in pts]
        if not (v[axis] <= min(values) or v[axis] >= max(values)):
            return False
    return True


# The 48 isometries of the lattice fixing the origin: signed permutations of
# the axes.  Each is a (permutation, signs) pair sending e_axis to
# signs[axis] * e_perm[axis].
Isometry = tuple[tuple[int, int, int], tuple[int, int, int]]

ISOMETRIES: tuple[Isometry, ...] = tuple(
    (perm, signs)
    for perm in itertools.permutations(AXES)
    for signs in itertools.product((1, -1), repeat=3)
)


def apply_isometry(iso: Isometry, p: Point) -> Point:
    perm, signs = iso
    out = [0, 0, 0]
    for axis in AXES:
        out[perm[axis]] = signs[axis] * p[axis]
    return (out[0], out[1], out[2])


def affine_rank(points: Sequence[Point]) -> int:
    """Rank of the differences p_i - p_0, by fraction-free integer elimination.

    0 for a single point, 1 for collinear sets, 2 for coplanar sets.  Each
    row is eliminated by cross multiplication with the pivot row, so every
    entry stays an exact integer.
    """
    if len(points) < 2:
        return 0
    bx, by, bz = points[0]
    rows = [[x - bx, y - by, z - bz] for x, y, z in points[1:]]
    rank = 0
    for col in AXES:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead_row = rows[rank]
        lead = lead_row[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                rows[r] = [lead * a - factor * b for a, b in zip(rows[r], lead_row)]
        rank += 1
        if rank == 3:
            break
    return rank


def are_collinear(points: Sequence[Point]) -> bool:
    return affine_rank(points) <= 1


def are_coplanar(points: Sequence[Point]) -> bool:
    return affine_rank(points) <= 2
