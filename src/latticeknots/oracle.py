"""Independent recomputation of knot distances and distortion.

This module deliberately avoids the arc-position formula and the stick-pair
kernel in :mod:`latticeknots.distortion`.  It builds the knot's unit-step graph
from vertex adjacency, measures distances by breadth-first traversal, and
maximizes the ratio with a plain loop using integer cross multiplication.
The two routes must agree exactly; tests and the CLI ``--oracle`` flag check
that they do.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .knot import LatticeKnot
from .lattice import Point


def knot_graph(K: LatticeKnot) -> dict[Point, list[Point]]:
    """Adjacency of the knot's lattice points along its unit edges."""
    adj: dict[Point, list[Point]] = {v: [] for v in K.vertices}
    n = len(K.vertices)
    for i in range(n):
        p = K.vertices[i]
        q = K.vertices[(i + 1) % n]
        adj[p].append(q)
        adj[q].append(p)
    return adj


def _bfs(adj: dict[Point, list[Point]], start: Point) -> dict[Point, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q in adj[p]:
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def bfs_distances(K: LatticeKnot, source: int) -> list[int]:
    """Graph distance from vertex ``source`` to every vertex, by index."""
    dist = _bfs(knot_graph(K), K.vertices[source])
    return [dist[v] for v in K.vertices]


def vertex_distortion_oracle(
    K: LatticeKnot,
) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    """Distortion and realizing pairs by brute force over the BFS table.

    Returns the exact maximum ratio and all attaining (i, j) pairs with
    i < j, in ascending order.
    """
    n = len(K.vertices)
    adj = knot_graph(K)
    best_num, best_den = 0, 1
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        dist = _bfs(adj, K.vertices[i])
        row = [dist[v] for v in K.vertices]
        vi = K.vertices[i]
        for j in range(i + 1, n):
            vj = K.vertices[j]
            dk = row[j]
            d1 = (
                abs(vi[0] - vj[0]) + abs(vi[1] - vj[1]) + abs(vi[2] - vj[2])
            )
            lhs = dk * best_den
            rhs = best_num * d1
            if lhs > rhs:
                best_num, best_den = dk, d1
                pairs = [(i, j)]
            elif lhs == rhs:
                pairs.append((i, j))
    return Fraction(best_num, best_den), tuple(pairs)
