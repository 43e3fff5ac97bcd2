"""Integer lattice geometry.

Points of the cubic lattice are plain ``(x, y, z)`` integer tuples.  Everything
in this module is exact: distances and normals are integers, and no floating
point is used anywhere.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

Point = tuple[int, int, int]

AXES = (0, 1, 2)
AXIS_NAMES = ("x", "y", "z")


def l1_distance(a: Point, b: Point) -> int:
    """Taxicab distance between two lattice points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


def is_staircase(path: Sequence[Point]) -> bool:
    """True iff every coordinate sequence along the path is monotone.

    Each axis may independently be nondecreasing or nonincreasing; a
    single-point path is vacuously a staircase.
    """
    if not path:
        raise ValueError("path must contain at least one point")
    for p, q in zip(path, path[1:]):
        if l1_distance(p, q) != 1:
            raise ValueError(f"not a unit-step path: {p} -> {q}")
    for axis in AXES:
        coords = [p[axis] for p in path]
        up = all(c1 <= c2 for c1, c2 in zip(coords, coords[1:]))
        down = all(c1 >= c2 for c1, c2 in zip(coords, coords[1:]))
        if not (up or down):
            return False
    return True


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


def are_coplanar(points: Sequence[Point]) -> bool:
    """True iff one plane holds all the points, by integer arithmetic.

    The differences from the first point span at most a plane iff all are
    orthogonal to u x v, for u the first nonzero difference and v the first
    difference not parallel to u.  With no such v the points are collinear
    or all one point, and the zero normal passes them all.  Any three points
    are coplanar.
    """
    if len(points) < 4:
        return True
    bx, by, bz = points[0]
    diffs = [(x - bx, y - by, z - bz) for x, y, z in points[1:]]
    ux, uy, uz = next((d for d in diffs if any(d)), (0, 0, 0))
    crosses = ((uy * z - uz * y, uz * x - ux * z, ux * y - uy * x) for x, y, z in diffs)
    a, b, c = next((w for w in crosses if any(w)), (0, 0, 0))
    return all(a * x + b * y + c * z == 0 for x, y, z in diffs)
