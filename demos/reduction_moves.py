# Isotopic stick reductions.
#
# A reduction slides one endpoint of a stick into its interior; the sticks
# perpendicular to the slide translate along and the next stick on the same
# axis absorbs the motion by shrinking.  Every move is validated by sweeping
# each translated stick's box against every static stick's box over all
# intermediate offsets, so a successful move is an isotopy.

from latticeknots import knot_from_vertices, torus_knot
from latticeknots.reduction import (
    CollisionDetected,
    Direction,
    ReductionMove,
    apply_extension,
    apply_reduction,
    is_irreducible,
    sweep_criterion_blocks,
)

# A 2x1 rectangle retracts to the unit square: both x-sides lose one unit.
rect = knot_from_vertices([(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])
square = apply_reduction(rect, ReductionMove(0, Direction.WITH, 1))
print("rectangle", rect.vertices)
print("  reduced ->", square.vertices)

report = is_irreducible(rect)
print("rectangle witnesses (stick, direction, max amount):")
for stick, direction, amount in report.witnesses:
    print("   ", stick, direction.value, amount)

# The torus conformations are completely rigid: no stick moves either way.
for p in (2, 3, 4, 5):
    print(f"T_{{{p},{p+1}}} irreducible:", is_irreducible(torus_knot(p)).irreducible)

# Trying anyway names the first obstruction.
trefoil = torus_knot(2)
try:
    apply_reduction(trefoil, ReductionMove(0, Direction.WITH, 1))
except CollisionDetected as exc:
    print("reducing the trefoil's first stick:", exc)

# The plane-sweep criterion of the irreducibility argument is a sufficient
# test: wherever it fires, direct simulation fails too.
fired = sum(
    sweep_criterion_blocks(trefoil, i, d)
    for i in range(trefoil.stick_count)
    for d in Direction
)
print(f"sweep criterion fires on {fired} of {2 * trefoil.stick_count} moves")

# Extensions invert reductions exactly where the swept cells are free.
grown = apply_extension(trefoil, 0, Direction.WITH, 2)
back = apply_reduction(grown, ReductionMove(0, Direction.WITH, 2))
print("extend then reduce returns the identical knot:", back == trefoil)
print("edge lengths:", trefoil.edge_length, "->", grown.edge_length,
      "->", back.edge_length)
