"""Exact vertex distortion certified from lattice-neighbour shells.

A third route to the distortion, sharing no code with the stick-pair kernel
in :mod:`latticeknots.distortion` or the all-pairs oracle in
:mod:`latticeknots.oracle`.  It needs only the vertices, a point -> index
dict and one lemma.

The lemma.  Every arc of an n-edge knot has at most n/2 edges, so a vertex
pair at taxicab distance d has ratio min(arc, n - arc)/d <= n/(2d).  Let b
be the best ratio over the pairs at distance at most D.  If b > n/(2(D+1))
strictly, every pair farther apart has ratio at most n/(2(D+1)) < b, so b
is the distortion.  Strictness also gives every realizing pair: a pair
beyond distance D falls strictly below b, so each pair attaining b lies
within distance D and was seen.  Equality would not: a pair at distance
D + 1 whose arc is n/2 ties b without having been scanned.

The scan.  Shell D holds the lattice offsets at taxicab distance exactly D;
half of them, those above the origin in lexicographic order, 2D^2 + 1 in
all, meet every unordered vertex pair at distance D once.  Each vertex looks
up each such offset in the dict.  After each shell the bound is tested, all
by integer cross-multiplication.

The cost.  Shell 1 costs 3n lookups and is always scanned; it closes on
every torus knot T(p, p+1) tested, so there the check is O(n).  Shell D
costs n(2D^2 + 1) lookups, so reaching it costs about 2nD^3/3.  A knot that
does not close pays the scan and then the all-pairs oracle's n(n-1)/2
pairs, so the scan goes past shell 1 only while its lookups so far stay
within n(n-1)/16, an eighth of those pairs.  Measured in-process (Python
3.11) on knots of 52-2000 edges that do not close, the scan then costs
3.5-11% of the oracle's time; a budget of all n(n-1)/2 pairs cost 25-37%.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .knot import LatticeKnot


class Certificate(NamedTuple):
    """Outcome of :func:`certify_distortion`.

    When ``certified``, ``value`` is the exact distortion and
    ``realizing_pairs`` every ascending (i, j), i < j, attaining it, sorted.
    Otherwise ``value`` is a lower bound: the best ratio over the pairs
    scanned, attained by ``realizing_pairs``.
    """

    certified: bool
    value: Fraction
    realizing_pairs: tuple[tuple[int, int], ...]


def _half_shell(d: int) -> list[tuple[int, int, int]]:
    """The offsets at taxicab distance ``d`` that sort above the origin."""
    shell = [
        (dx, dy, sign * (d - abs(dx) - abs(dy)))
        for dx in range(-d, d + 1)
        for dy in range(abs(dx) - d, d - abs(dx) + 1)
        for sign in ((1, -1) if abs(dx) + abs(dy) < d else (1,))
    ]
    return [o for o in shell if o > (0, 0, 0)]


def certify_distortion(K: LatticeKnot) -> Certificate:
    """The distortion and its realizing pairs, when some shell closes the
    lemma's bound within the scan's budget; otherwise a lower bound."""
    vertices = K.vertices
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    budget = n * (n - 1) // 16
    lookups = 0
    best_num, best_den = 0, 1
    pairs: list[tuple[int, int]] = []
    for d in count(1):
        offsets = _half_shell(d)
        lookups += n * len(offsets)
        if d > 1 and lookups > budget:
            return Certificate(False, Fraction(best_num, best_den),
                               tuple(sorted(pairs)))
        for dx, dy, dz in offsets:
            for i, (x, y, z) in enumerate(vertices):
                j = index.get((x + dx, y + dy, z + dz))
                if j is None:
                    continue
                i0, j0 = (i, j) if i < j else (j, i)
                arc = min(j0 - i0, n - j0 + i0)
                lhs, rhs = arc * best_den, best_num * d
                if lhs > rhs:
                    best_num, best_den = arc, d
                    pairs = [(i0, j0)]
                elif lhs == rhs:
                    pairs.append((i0, j0))
        if best_num * 2 * (d + 1) > n * best_den:
            return Certificate(True, Fraction(best_num, best_den),
                               tuple(sorted(pairs)))
