"""Independent recomputation of knot distances and distortion.

This module deliberately avoids the arc-position formula and the stick-pair
kernel in :mod:`latticeknots.distortion`.  It builds the knot's unit-step graph
once, as neighbour lists of vertex indices joined along consecutive vertices,
measures distances by breadth-first traversal into a flat list, and maximizes
the ratio with a plain loop using integer cross multiplication.  The two
routes must agree exactly, and tests check that they do.

It costs O(n^2).  The CLI ``--oracle`` flag therefore asks the certificate
of :mod:`latticeknots.certificate` first, O(n) when it closes at shell 1,
and runs this oracle only on a knot whose lattice-neighbour shells cannot
close the certificate's bound within n(n-1)/16 lookups, an eighth of the
pairs examined here.

Each BFS row is first filtered against the best ratio at the start of the
row: a pair whose ratio is below it stays below the best, which only grows,
so the loop would neither keep nor replace anything for it.  The loop then
sees the remaining pairs in the same ascending order, so the value and the
realizing pairs are exactly those of the unfiltered loop.
"""

from __future__ import annotations

from fractions import Fraction

from .knot import LatticeKnot


def knot_graph(K: LatticeKnot) -> list[list[int]]:
    """Neighbour lists of vertex indices along the knot's unit edges."""
    n = len(K.vertices)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _bfs(adj: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    for p in queue:
        d = dist[p] + 1
        for q in adj[p]:
            if dist[q] < 0:
                dist[q] = d
                queue.append(q)
    return dist


def vertex_distortion_oracle(
    K: LatticeKnot,
) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    """Distortion and realizing pairs by brute force over the BFS table.

    Returns the exact maximum ratio and all attaining (i, j) pairs with
    i < j, in ascending order.
    """
    vertices = K.vertices
    n = len(vertices)
    adj = knot_graph(K)
    best_num, best_den = 0, 1
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        row = _bfs(adj, i)
        xi, yi, zi = vertices[i]
        survivors = [
            (j, dk, d1)
            for j, dk, (x, y, z) in zip(
                range(i + 1, n), row[i + 1 :], vertices[i + 1 :]
            )
            if dk * best_den
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
