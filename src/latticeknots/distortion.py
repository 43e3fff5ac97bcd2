"""Exact vertex distortion.

The distortion of a knot is the maximum over vertex pairs of the ratio
(shorter arc length along the knot) / (taxicab distance).  Arc positions are
vertex indices because every edge has unit length, so everything reduces to
integer arithmetic.  All comparisons cross-multiply exact integers; no
floating point appears anywhere in the computation.

The kernel works on pairs of sticks and never walks a stick vertex by
vertex, so its cost grows with the number of sticks, not of edges.

Same or adjacent sticks.  Two vertices on one stick, or on two consecutive
(hence perpendicular) sticks, are joined by an arc of the knot as long as
their taxicab distance.  No arc is shorter than the taxicab distance, so
these pairs have ratio exactly 1, and every knot has distortion at least 1.
At distortion 1 every vertex pair realizes the value.

Candidates.  Take two non-adjacent sticks A and B and let s in [0, L_A] and
t in [0, L_B] be positions along them.  The two vertices are distinct
points on the whole closed rectangle, so the taxicab distance stays
positive there.  Arc distance and taxicab distance are piecewise linear in
(s, t), and every breakline has the form s = c, t = c, s + t = c or
s - t = c with integer c: one per axis whose coordinate difference varies,
and the lines s - t = c where the index difference wraps or reaches n/2.
The rectangle's sides are added as lines too.  Along a row t = const the
ratio is linear-fractional, hence monotone, between consecutive
breakpoints, and those breakpoints are integers; so some integer maximizer
lies on a line s = c or s +- t = c.  Along that line the ratio is again
monotone between the points where other lines cross it.  Those crossings
are integer points, except s + t = c against s - t = c', which may meet at a
half-integer point.  So the integer maximum over the rectangle is attained
at the floor or the ceiling, in each coordinate, of a pairwise intersection
of lines (Charnes and Cooper, 1962, for the linear-fractional step).  Extra
candidates do no harm, because each one is a real vertex pair.

Pruning.  A stick pair's cap, the largest arc its index differences allow,
over the taxicab gap g between the sticks' boxes bounds every ratio on it.
Buckets of pairs by g are taken in increasing g until (n//2)/g is below the
best ratio found, each in decreasing cap until cap/g is below it.  Ties are
visited, since they may hold realizing pairs.  The best starts at 1, so a
knot has distortion above 1 exactly when some visited pair goes above 1, and
the distortion-one test stops at the first such pair.

Realizing pairs.  Above 1, each vertex is owned by the stick it starts or
lies inside of, so every vertex pair belongs to exactly one stick pair.  On
a stick pair that reaches the maximum num/den, the realizing pairs are the
integer points where den * arc - num * d1 = 0.  Fixing the sign of every
taxicab term (at least 0, or at most -1) and the branch of the arc (index
differences from h*n/2 to (h+1)*n/2 - 1) cuts the owned rectangle into
half-open convex pieces on which that expression is linear, and each
vertex pair lies in exactly one piece.  Its integer zeros on a piece solve
one linear Diophantine equation and form a run of consecutive parameters.
Each realizing pair is therefore found once, and enumeration costs what it
reports, not the stick length.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Iterator, NamedTuple

from .knot import MAX_POINTS, LatticeKnot, Stick, TooManyPoints
from .lattice import Point, is_staircase, is_box_corner


_REFUSED = f"listing more than {MAX_POINTS} realizing pairs is refused"


class PreconditionFailed(ValueError):
    """A structural check was invoked on a knot that does not qualify."""


class DistortionReport(NamedTuple):
    """Exact distortion value with every vertex pair attaining it.

    ``realizing_pairs`` holds ascending (i, j) index pairs, i < j, sorted;
    each attains exactly ``value`` and no other pair exceeds it.
    """

    value: Fraction
    realizing_pairs: tuple[tuple[int, int], ...]
    pair_count_scanned: int


def vertex_distortion(K: LatticeKnot) -> DistortionReport:
    """The exact maximum ratio and every vertex pair attaining it.

    Takes the value from ``_max_ratio``, then enumerates the realizing
    pairs on the level lines of the stick pairs that reach it (see the
    module docstring); at value 1 they are all pairs.  Raises TooManyPoints
    once more than ``MAX_POINTS`` pairs are found.  ``pair_count_scanned``
    is n(n-1)/2, the vertex pairs the value covers.
    """
    n = K.edge_length
    value, reached = _max_ratio(K)
    if value == 1:
        return DistortionReport(value, tuple(combinations(range(n), 2)), n * (n - 1) // 2)
    num, den = value.numerator, value.denominator
    sticks = K.sticks
    found = []
    for a, b, pair_num, pair_den in reached:
        if pair_num * den == num * pair_den:
            found += _level_pairs(n, sticks[a], sticks[b], num, den)
            if len(found) > MAX_POINTS:
                raise TooManyPoints(_REFUSED)
    # only the last stick's owned indices pass n, and they wrap to below
    # every index owned by another stick
    pairs = sorted((i, j) if j < n else (j - n, i) for i, j in found)
    return DistortionReport(value, tuple(pairs), n * (n - 1) // 2)


def distortion_value(K: LatticeKnot) -> Fraction:
    """The exact vertex distortion, without listing its realizing pairs."""
    return _max_ratio(K)[0]


def _max_ratio(K: LatticeKnot) -> tuple[Fraction, list[tuple[int, int, int, int]]]:
    """The distortion and the (a, b, num, den) of every stick pair bounded."""
    reached = list(_bounded(K))
    best_num, best_den = 1, 1
    for _, _, num, den in reached:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den), reached


def _bounded(K: LatticeKnot) -> Iterator[tuple[int, int, int, int]]:
    """Yield (a, b, num, den), the maximum num/den of each stick pair bounded.

    Visits the non-adjacent stick pairs a < b by increasing box gap and
    bounds each one over its candidates, keeping its own best, until no
    pair left can reach it (see the module docstring).
    """
    n = K.edge_length
    half = n // 2
    sticks = K.sticks
    m = len(sticks)
    # non-adjacent stick pairs a < b, keyed a*m + b, by box gap
    boxes = [s.lo + s.hi for s in sticks]
    by_gap = defaultdict(list)
    for a in range(m - 2):
        xa, ya, za, Xa, Ya, Za = boxes[a]
        gaps = [(xb - Xa if xb > Xa else xa - Xb if xa > Xb else 0)
                + (yb - Ya if yb > Ya else ya - Yb if ya > Yb else 0)
                + (zb - Za if zb > Za else za - Zb if za > Zb else 0)
                for xb, yb, zb, Xb, Yb, Zb in boxes[a + 2:m if a else m - 1]]
        for key, gap in enumerate(gaps, a * m + a + 2):
            by_gap[gap].append(key)

    best_num, best_den = 1, 1
    for gap in sorted(by_gap):
        if half * best_den < best_num * gap:
            return
        bucket = []
        for key in by_gap[gap]:
            a, b = divmod(key, m)
            A, B = sticks[a], sticks[b]
            d_lo, d_hi = B.start - A.start - A.length, B.start - A.start + B.length
            # n/2 if some index difference d_lo..d_hi is n/2 (mod n)
            cap = (half if d_lo + (half - d_lo) % n <= d_hi
                   else max(_arc(n, d_lo), _arc(n, d_hi)))
            bucket.append((cap, a, b))
        for cap, a, b in sorted(bucket, reverse=True):
            if cap * best_den < best_num * gap:
                break
            num, den = _pair_max(n, sticks[a], sticks[b])
            if num * best_den > best_num * den:
                best_num, best_den = num, den
            yield a, b, num, den


def _arc(n: int, d: int) -> int:
    """The shorter arc between two vertices whose indices differ by ``d``."""
    d %= n
    return min(d, n - d)


def _terms(A: Stick, B: Stick) -> list[tuple[int, int, int]]:
    """Per axis (alpha, beta, gamma): that coordinate of the difference
    between the vertex at s on A and the one at t on B is
    alpha*s + beta*t + gamma."""
    ea, eb, pa, pb = A.type.step, B.type.step, A.start_point, B.start_point
    return [(ea[x], -eb[x], pa[x] - pb[x]) for x in range(3)]


def _pair_max(n: int, A: Stick, B: Stick) -> tuple[int, int]:
    """The largest ratio (num, den) over two non-adjacent sticks."""
    la, lb = A.length, B.length
    d0 = B.start - A.start
    terms = _terms(A, B)
    (ax, bx, cx), (ay, by, cy), (az, bz, cz) = terms
    best_num, best_den = 0, 1
    for s, t in _candidates(n, la, lb, d0, terms):
        if 0 <= s <= la and 0 <= t <= lb:
            d = (d0 + t - s) % n
            arc = min(d, n - d)
            d1 = (abs(ax * s + bx * t + cx) + abs(ay * s + by * t + cy)
                  + abs(az * s + bz * t + cz))
            if arc * best_den > best_num * d1:
                best_num, best_den = arc, d1
    return best_num, best_den


def _candidates(n: int, la: int, lb: int, d0: int, terms: list) -> set:
    """The roundings of the pairwise intersections of the stick pair's
    breaklines and sides, some of which may fall outside its rectangle."""
    half = n // 2
    vert, horiz, plus, minus = {0, la}, {0, lb}, set(), set()
    for alpha, beta, gamma in terms:
        if beta == 0:
            if alpha:
                vert.add(-gamma * alpha)
        elif alpha == 0:
            horiz.add(-gamma * beta)
        elif alpha == beta:
            plus.add(-gamma * alpha)
        else:
            minus.add(-gamma * alpha)
    # The arc breaks where the index difference d0 + t - s is a multiple
    # of n/2.
    for h in range(-((la - d0) // half), (d0 + lb) // half + 1):
        minus.add(d0 - h * half)

    cands = set()
    for v in vert:
        cands.update((v, h) for h in horiz)
        cands.update((v, c - v) for c in plus)
        cands.update((v, v - c) for c in minus)
    for h in horiz:
        cands.update((c - h, h) for c in plus)
        cands.update((c + h, h) for c in minus)
    for cp in plus:
        for cm in minus:
            s, t = (cp + cm) // 2, (cp - cm) // 2
            if (cp + cm) % 2 == 0:
                cands.add((s, t))
            else:
                cands.update(((s, t), (s + 1, t), (s, t + 1), (s + 1, t + 1)))
    return cands


def _level_pairs(
    n: int, A: Stick, B: Stick, num: int, den: int
) -> list[tuple[int, int]]:
    """Index pairs (i owned by A, j owned by B) of ratio exactly num/den,
    where num/den is at least every ratio on the two sticks; each is found
    in exactly one piece."""
    a0, la, b0, lb = A.start, A.length, B.start, B.length
    d0 = b0 - a0
    half = n // 2
    # Each constraint (a, b, c) reads a*s + b*t + c >= 0.  Per taxicab
    # term, its signed forms with the constraints that fix the sign: none if
    # the term keeps one sign on the owned rectangle, else it is >= 0 on one
    # piece and <= -1 on the other.
    choices = []
    for alpha, beta, gamma in _terms(A, B):
        # the term's range over the owned rectangle, from its corners
        low = gamma + min(0, alpha * (la - 1)) + min(0, beta * (lb - 1))
        high = gamma + max(0, alpha * (la - 1)) + max(0, beta * (lb - 1))
        plus, minus = (alpha, beta, gamma), (-alpha, -beta, -gamma)
        choices.append([(plus, [])] if low >= 0 else [(minus, [])] if high <= 0
                       else [(plus, [plus]), (minus, [(-alpha, -beta, -gamma - 1)])])
    owned = [(1, 0, 0), (-1, 0, la - 1), (0, 1, 0), (0, -1, lb - 1)]
    found = []
    for h in range((d0 - la + 1) // half, (d0 + lb - 1) // half + 1):
        # On h*n/2 <= d < (h+1)*n/2 the arc is d - h*n/2 for even h and
        # (h+1)*n/2 - d for odd h, with d = d0 + t - s.
        sign, offset = (1, -h * half) if h % 2 == 0 else (-1, (h + 1) * half)
        branch = [(-1, 1, d0 - h * half), (1, -1, (h + 1) * half - d0 - 1)]
        for picks in product(*choices):
            cons = owned + branch
            a1, b1, c1 = 0, 0, 0
            for (alpha, beta, gamma), fix in picks:
                cons += fix
                a1, b1, c1 = a1 + alpha, b1 + beta, c1 + gamma
            # den * arc - num * d1 as A*s + B*t + C on this piece
            A = -den * sign - num * a1
            B = den * sign - num * b1
            C = den * (sign * d0 + offset) - num * c1
            found += [(a0 + s, b0 + t) for s, t in _zeros(A, B, C, cons)]
    return found


def _zeros(A: int, B: int, C: int, cons: list) -> list[tuple[int, int]]:
    """Integer (s, t) with A*s + B*t + C == 0 that meet every constraint.

    ``cons`` must bound s and t on both sides, and A and B are not both 0:
    that happens only at ratio 1, whose pairs are not enumerated here.
    Raises TooManyPoints, before listing, for a run of over ``MAX_POINTS``.
    """
    g = gcd(A, B)
    if C % g:
        return []
    # the solutions of -dt*s + ds*t + cg == 0 are (s0 + ds*k, t0 + dt*k)
    ds, dt, cg = B // g, -A // g, C // g
    if ds:
        s0 = cg * pow(dt, -1, abs(ds)) % abs(ds)
        t0 = (dt * s0 - cg) // ds
    else:
        s0, t0 = cg * dt, 0
    # each constraint bounds k on one side
    lows, highs = [], []
    for a, b, c in cons:
        coef = a * ds + b * dt
        val = a * s0 + b * t0 + c
        if coef > 0:
            lows.append(-(val // coef))
        elif coef < 0:
            highs.append(val // -coef)
        elif val < 0:
            return []
    low, high = max(lows), min(highs)
    if high - low >= MAX_POINTS:
        raise TooManyPoints(_REFUSED)
    return [(s0 + ds * k, t0 + dt * k) for k in range(low, high + 1)]


class DistortionOneReport(NamedTuple):
    """Outcome of the structural checks available to distortion-one knots.

    For such a knot every vertex must be a corner of the minimal bounding
    box and both arcs between any vertex and its antipode must be staircase
    walks.  ``ok`` holds when both violation tuples are empty.
    """

    non_corner_vertices: tuple[Point, ...]
    non_staircase_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not (self.non_corner_vertices or self.non_staircase_pairs)


def check_distortion_one_structure(K: LatticeKnot) -> DistortionOneReport:
    """Verify the geometric consequences of having distortion exactly one.

    Raises PreconditionFailed when the knot's distortion is not 1: at the
    first stick pair the value pass bounds above 1, without the value.
    """
    if any(num > den for _, _, num, den in _bounded(K)):
        raise PreconditionFailed("vertex distortion is above 1, structure check needs 1")

    vertices = K.vertices
    non_corner = tuple(v for v in vertices if not is_box_corner(v, vertices))

    # the two arcs between i and its antipode j = i + n/2, read off the
    # cycle listed twice
    loop = vertices + vertices
    n, half = K.edge_length, K.edge_length // 2
    bad_pairs = [
        (i, i + half)
        for i in range(half)
        if not (is_staircase(loop[i:i + half + 1]) and is_staircase(loop[i + half:i + n + 1]))
    ]

    return DistortionOneReport(non_corner, tuple(bad_pairs))


def format_exact(value: Fraction) -> str:
    """Render a rational as ``a/b``, or plain ``a`` for integers."""
    return str(value)
