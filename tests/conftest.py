import math
from bisect import bisect_right
from collections import deque
from fractions import Fraction

import pytest

from latticeknots import (
    LatticeKnot,
    NonAxisParallel,
    NotClosed,
    SelfIntersection,
    Stick,
    StickType,
    Tabulation,
    build_knot,
    knot_from_vertices,
    l1_distance,
    max_reduction_amount,
)

# The 12-stick trefoil table: columns x, y, z; type sequence cycling
# z+, x+, y+, z-, x-, y- twice.
TREFOIL_TYPES = ("z+", "x+", "y+", "z-", "x-", "y-") * 2
TREFOIL_X = (2, 3, 2, 1)
TREFOIL_Y = (1, 2, 3, 2)
TREFOIL_Z = (3, 2, 1, 2)


def trefoil_tabulation() -> Tabulation:
    return Tabulation.from_columns(TREFOIL_TYPES, TREFOIL_X, TREFOIL_Y, TREFOIL_Z)


def knot_distance(K, i: int, j: int) -> int:
    """Length of the shorter of the two arcs between vertices ``i`` and ``j``."""
    n = K.edge_length
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex index out of range for edge length {n}")
    d = abs(i - j)
    return min(d, n - d)


_BY_STEP = {t.step: t for t in StickType}


def knot_steps(K) -> tuple:
    """The unit steps of ``K`` from vertex 0, read off its vertices."""
    v = K.vertices
    return tuple(
        _BY_STEP[tuple(b - a for a, b in zip(p, q))] for p, q in zip(v, v[1:] + v[:1])
    )


def distortion_pair_value(K, i: int, j: int) -> Fraction:
    """The exact distortion ratio of a single vertex pair."""
    if i == j:
        raise ValueError("distortion ratio of a vertex with itself is undefined")
    return Fraction(knot_distance(K, i, j), l1_distance(K.vertices[i], K.vertices[j]))


IDENTITY = ((0, 1, 2), (1, 1, 1))


def isometry_image(iso, p):
    """``p`` under a signed axis permutation: e_axis goes to
    signs[axis] * e_perm[axis]."""
    perm, signs = iso
    out = [0, 0, 0]
    for axis in range(3):
        out[perm[axis]] = signs[axis] * p[axis]
    return tuple(out)


def moved_knot(K, iso=IDENTITY, shift=(0, 0, 0), start=0, reverse=False):
    """``K`` under an isometry and then a shift, its cycle started at vertex
    ``start`` and, if ``reverse``, traversed the other way from there;
    rebuilt from the moved points through ``knot_from_vertices``."""
    points = [
        tuple(c + d for c, d in zip(isometry_image(iso, v), shift))
        for v in K.vertices[start:] + K.vertices[:start]
    ]
    if reverse:
        points = points[:1] + points[:0:-1]
    return knot_from_vertices(points)


def double_loop_corners(L):
    """The corners of the 10-stick "double loop": its vertex distortion is
    2L + 3, with L + 4 realizing pairs."""
    return [(0, 0, 0), (L, 0, 0), (L, 0, 1), (0, 0, 1), (0, 1, 1), (0, 1, 0),
            (L, 1, 0), (L, 1, 2), (-1, 1, 2), (-1, 0, 2), (-1, 0, 0)]


def box(points):
    """The per-axis minimum and maximum of a point set."""
    points = list(points)
    lo = tuple(min(p[axis] for p in points) for axis in range(3))
    hi = tuple(max(p[axis] for p in points) for axis in range(3))
    return lo, hi


def staircase_count(a, b) -> int:
    """Number of monotone (staircase) unit-step walks from ``a`` to ``b``:
    the multinomial coefficient d! / (dx! dy! dz!) of the coordinate gaps."""
    gaps = [abs(a[i] - b[i]) for i in range(3)]
    return math.factorial(sum(gaps)) // math.prod(map(math.factorial, gaps))


def is_reducible(K, stick_index: int, direction) -> bool:
    """True iff some reduction of this stick in this direction succeeds;
    every slide passes through offset one, so the one-step sweep decides."""
    return max_reduction_amount(K, stick_index, direction) > 0


def reference_knot(steps, origin=(0, 0, 0)):
    """The point-by-point constructor that LatticeKnot was before it was
    built from sticks: it lists every lattice point and finds the first one
    revisited with a dict.  Returns (steps, vertices, sticks), or raises
    NotClosed or SelfIntersection as that constructor did."""
    steps = tuple(steps)
    n = len(steps)
    if n < 4:
        raise NotClosed("a closed simple lattice polygon needs at least 4 steps")
    vertices = []
    pos = tuple(origin)
    for step in steps:
        vertices.append(pos)
        pos = tuple(c + d for c, d in zip(pos, step.step))
    if pos != vertices[0]:
        total = tuple(p - q for p, q in zip(pos, vertices[0]))
        raise NotClosed(f"steps sum to {total}, not to zero")
    starts = [i for i in range(n) if steps[i - 1] != steps[i]]
    first = {}
    for i, pos in enumerate(vertices):
        if pos in first:
            # the vertices before the first start lie on the last stick
            pair = [(bisect_right(starts, k) - 1) % len(starts) for k in (first[pos], i)]
            raise SelfIntersection(pos, (pair[0], pair[1]))
        first[pos] = i
    sticks = []
    for start, end in zip(starts, starts[1:] + [starts[0] + n]):
        p, q = vertices[start], vertices[end % n]
        lo, hi = (p, q) if p < q else (q, p)
        sticks.append(Stick(steps[start], end - start, start, p, q, lo, hi))
    return steps, tuple(vertices), tuple(sticks)


def reference_random_steps(rng, max_edge_length=60):
    """The steps of ``random_lattice_knot`` as its recursive search drew
    them, one call per step, before the search kept its own stack."""
    length = rng.randrange(2, max_edge_length // 2 + 1) * 2
    steps, visited, pos = [], {}, (0, 0, 0)

    def rec():
        nonlocal pos
        remaining = length - len(steps)
        if remaining == 0:
            return pos == (0, 0, 0)
        if abs(pos[0]) + abs(pos[1]) + abs(pos[2]) > remaining:
            return False
        if pos in visited:
            return False
        visited[pos] = len(steps)
        here = pos
        for t in rng.sample(tuple(StickType), 6):
            steps.append(t)
            pos = tuple(c + d for c, d in zip(here, t.step))
            if rec():
                return True
            steps.pop()
        pos = here
        del visited[pos]
        return False

    assert rec()
    return steps


def reference_knot_from_vertices(cycle):
    """The per-point builder that knot_from_vertices was before it took
    coordinate columns: one step type and length per pair of points."""
    if len(cycle) < 3:
        raise NotClosed("a vertex cycle needs at least 3 points")
    types, lengths = [], []
    n = len(cycle)
    for k in range(n):
        p = cycle[k]
        q = cycle[(k + 1) % n]
        diff = tuple(q[axis] - p[axis] for axis in range(3))
        nonzero = [axis for axis in range(3) if diff[axis] != 0]
        if len(nonzero) != 1:
            raise NonAxisParallel(f"{p} -> {q} does not move along exactly one axis")
        axis = nonzero[0]
        types.append(StickType.from_axis_sign(axis, 1 if diff[axis] > 0 else -1))
        lengths.append(abs(diff[axis]))
    return LatticeKnot(types, lengths, cycle[0])


def reference_knot_from_vertex_csv(text):
    """The per-line vertex CSV reader: one list of fields and one point
    tuple per row."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().startswith("x"):
            continue
        fields = line.split(",")
        if len(fields) not in (3, 4):
            raise ValueError(f"line {lineno}: expected 3 or 4 fields, got {len(fields)}")
        try:
            x, y, z = (int(fields[k]) for k in range(3))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer coordinate") from None
        points.append((x, y, z))
    if not points:
        raise ValueError("no vertex rows found")
    return reference_knot_from_vertices(points)


def reference_knot_to_vertex_csv(K):
    """The per-point vertex CSV writer: one formatted row per listed point."""
    starts = {stick.start for stick in K.sticks}
    lines = ["x,y,z,critical"]
    for i, (x, y, z) in enumerate(K.vertices):
        lines.append(f"{x},{y},{z},{1 if i in starts else 0}")
    return "\n".join(lines) + "\n"


def reference_knot_to_obj(K):
    """The per-point OBJ writer: one formatted vertex line per listed point."""
    lines = [f"v {v[0]} {v[1]} {v[2]}" for v in K.vertices]
    cycle = " ".join(str(i) for i in range(1, K.edge_length + 1))
    lines.append(f"l {cycle} 1")
    return "\n".join(lines) + "\n"


def reference_graph(K):
    """Adjacency keyed by lattice point, built from consecutive vertices."""
    adj = {v: [] for v in K.vertices}
    n = len(K.vertices)
    for i in range(n):
        p, q = K.vertices[i], K.vertices[(i + 1) % n]
        adj[p].append(q)
        adj[q].append(p)
    return adj


def reference_bfs_row(K, adj, i):
    """Breadth-first distances from vertex ``i``, listed in vertex order."""
    dist = {K.vertices[i]: 0}
    queue = deque([K.vertices[i]])
    while queue:
        p = queue.popleft()
        for q in adj[p]:
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return [dist[v] for v in K.vertices]


def affine_rank_by_fractions(points):
    """Reference: Gaussian elimination over the rationals."""
    if len(points) < 2:
        return 0
    base = points[0]
    rows = [[Fraction(p[axis] - base[axis]) for axis in range(3)] for p in points[1:]]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == 3:
            break
    return rank


@pytest.fixture
def trefoil():
    return build_knot(trefoil_tabulation())


@pytest.fixture
def unit_square():
    return knot_from_vertices([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])


@pytest.fixture
def rectangle():
    return knot_from_vertices([(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])


@pytest.fixture
def cube_hexagon():
    # nonplanar hexagon around a cube corner, the distortion-one one
    return knot_from_vertices(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)]
    )
