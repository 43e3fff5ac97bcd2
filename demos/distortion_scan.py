# Exact vertex distortion.
#
# The distortion of a knot is the worst ratio of knot distance (shorter arc)
# to taxicab distance over all vertex pairs.  The kernel works stick pair by
# stick pair and compares ratios by integer cross multiplication, so every
# value below is exact and its cost follows the number of sticks.

from fractions import Fraction

from latticeknots import (
    format_exact,
    torus_knot,
    vertex_distortion,
    vertex_distortion_oracle,
)
from latticeknots.knot import knot_from_vertices
from latticeknots.torus import (
    distortion_formula_even_large,
    distortion_formula_even_small,
    distortion_formula_odd,
)

square = knot_from_vertices([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
report = vertex_distortion(square)
print("unit square distortion:", format_exact(report.value),
      "- every pair realizes it:", report.realizing_pairs)

# The trefoil conformation scores 11, against an upper bound of 12: no arc
# is longer than half the knot, and no two vertices are closer than 1.
trefoil = torus_knot(2)
report = vertex_distortion(trefoil)
print("trefoil:", format_exact(report.value),
      "bound:", format_exact(Fraction(trefoil.edge_length, 2)),
      "pairs:", report.realizing_pairs)

# An independent check: arcs from vertex indices and a plain all-pairs loop.
value, pairs = vertex_distortion_oracle(trefoil)
print("oracle agrees:", value == report.value and pairs == report.realizing_pairs)

# Across the family, the distortion grows quadratically.  Three closed forms
# describe stretches of it; the kernel decides which one is live at each p.
print()
print(" p   delta      even-small   odd        even-large")
for p in range(2, 24):
    delta = vertex_distortion(torus_knot(p)).value
    cells = [f"{p:2d}", f"{format_exact(delta):>8}"]
    for formula in (
        distortion_formula_even_small,
        distortion_formula_odd,
        distortion_formula_even_large,
    ):
        expected = formula(p)
        mark = "*" if expected == delta else " "
        cells.append(f"{format_exact(expected):>9}{mark}")
    print("  ".join(cells))
print("(* marks the formula the scan confirms at that p; note p=3 matches")
print(" none of them, and the even-large column stops matching after p=20.)")
