"""Independent recomputation of knot distortion over every vertex pair.

This module deliberately avoids the stick-pair kernel in
:mod:`latticeknots.distortion`.  It compares every pair of listed vertices
and maximizes the ratio with a plain loop using integer cross
multiplication.  The two routes must agree exactly, and tests check that
they do.

The arc between vertices i < j is min(j - i, n - j + i): consecutive listed
vertices are one unit apart and the listing is the cycle, so walking the
knot from i to j takes j - i steps one way and n - j + i the other.
``tests/test_distortion.py::reference_oracle`` stays the traversal
reference: it searches a graph keyed by lattice point breadth-first, and
the tests check that both give the same value and pairs.

It costs O(n^2).  The CLI ``--oracle`` flag therefore asks the certificate
of :mod:`latticeknots.certificate` first, O(n) when it closes at shell 1,
and runs this oracle only on a knot whose lattice-neighbour shells cannot
close the certificate's bound within n(n-1)/16 lookups, an eighth of the
pairs examined here.

Each row of pairs (i, j > i) is first filtered against the best ratio at
the start of the row: a pair whose ratio is below it stays below the best,
which only grows, so the loop would neither keep nor replace anything for
it.  The loop then sees the remaining pairs in the same ascending order, so
the value and the realizing pairs are exactly those of the unfiltered loop.
"""

from __future__ import annotations

from fractions import Fraction

from .knot import LatticeKnot


def vertex_distortion_oracle(
    K: LatticeKnot,
) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    """Distortion and realizing pairs by brute force over every vertex pair.

    Returns the exact maximum ratio and all attaining (i, j) pairs with
    i < j, in ascending order.
    """
    vertices = K.vertices
    n = len(vertices)
    best_num, best_den = 0, 1
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        xi, yi, zi = vertices[i]
        survivors = [
            (j, dk, d1)
            for j, (x, y, z) in enumerate(vertices[i + 1 :], i + 1)
            if (dk := min(j - i, n - j + i)) * best_den
            >= best_num * (d1 := abs(xi - x) + abs(yi - y) + abs(zi - z))
        ]
        for j, dk, d1 in survivors:
            lhs = dk * best_den
            rhs = best_num * d1
            if lhs > rhs:
                best_num, best_den = dk, d1
                pairs = [(i, j)]
            elif lhs == rhs:
                pairs.append((i, j))
    return Fraction(best_num, best_den), tuple(pairs)
