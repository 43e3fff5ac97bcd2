# Building lattice knots from tabulations.
#
# A lattice knot is encoded by a cyclic sequence of stick types (x+, y-, ...)
# paired with per-axis columns of stick lengths: the n-th stick of an axis
# takes the n-th entry of that axis's column.  Walking the sequence from the
# origin and validating closure and self-avoidance yields the knot.

from latticeknots import (
    NotClosed,
    SelfIntersection,
    Tabulation,
    build_knot,
    knot_from_vertices,
)
from latticeknots.io import knot_to_obj, knot_to_vertex_csv

# The classic 12-stick trefoil: columns x, y, z and a period-6 type sequence.
tab = Tabulation.from_columns(
    ("z+", "x+", "y+", "z-", "x-", "y-") * 2,
    x=(2, 3, 2, 1),
    y=(1, 2, 3, 2),
    z=(3, 2, 1, 2),
)

trefoil = build_knot(tab)
print(trefoil)
print("sticks:", [(s.type.value, s.length) for s in trefoil.sticks])
print("vertices visited:", trefoil.edge_length)

# The vertex set is every lattice point on the curve; the critical vertices,
# where it turns, are the starts of its sticks.
corners = [s.start_point for s in trefoil.sticks]
print("critical vertices:", corners)

# Tampering with a single column entry breaks the construction: shrinking
# the first z-stick unbalances the signed sums, so the walk cannot close.
try:
    build_knot(Tabulation.from_columns(tab.types, (2, 3, 2, 1), (1, 2, 3, 2), (2, 2, 1, 2)))
except NotClosed as exc:
    print("tampered (3 -> 2):", exc)

# Rebalancing the column instead makes the walk revisit a point.
try:
    build_knot(Tabulation.from_columns(tab.types, (2, 3, 2, 1), (1, 2, 3, 2), (2, 1, 1, 2)))
except SelfIntersection as exc:
    print("tampered (rebalanced):", exc)

# Knots can also come straight from a vertex cycle; collinear runs merge.
square = knot_from_vertices([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
print("unit square:", square)

# Both interchange formats are plain text and byte-stable.
print()
print(knot_to_vertex_csv(square), end="")
print()
print(knot_to_obj(square), end="")
