# The staircase torus-knot family.
#
# For every p >= 2 the generator emits a (p, p+1) torus-knot conformation
# with 6p sticks and edge length 5p^2 + 3p - 2.  At p = 2 it reproduces the
# 12-stick trefoil exactly.  Each structural fact the construction relies on
# is recomputed from the built object, never assumed.

from latticeknots import StickType, build_knot, generate_torus_tabulation, torus_knot
from latticeknots.torus import verify_structure, verify_x_level_2

tab = generate_torus_tabulation(5)
print("p=5 length columns (x, y, z):")
for row, triple in enumerate(zip(*tab.lengths), start=1):
    print(f"  row {row:2d}: {triple}")

K = build_knot(tab)
print("knot:", K)

# Closure: the six directed sums balance per axis.
sums = dict.fromkeys(StickType, 0)
for t, length in zip(tab.types, tab.stick_lengths()):
    sums[t] += length
print("directed sums x/y/z:",
      *((sums[StickType(a + "+")], sums[StickType(a + "-")]) for a in "xyz"))
print("total length:", K.edge_length, "= 5p^2+3p-2 =", 5 * 25 + 15 - 2)

# Simplicity rests on partial sums: y- and z-levels are hit once each,
# and only the x-level 2 is revisited.
z_sums, x_sums = K.partial_sums(2), K.partial_sums(0)
print("z partial sums:", z_sums, "-> distinct:", len(set(z_sums)) == len(z_sums))
print("x partial sums:", x_sums, "-> the value 2 appears", x_sums.count(2), "times")

# x-level 2 carries p-1 parallel L-shaped arcs stepping down by (0,-1,-1).
level2 = verify_x_level_2(5, K)
print("x-level-2 arc initial vertices:", level2.arc_initials)
print("  (the first sits at (2, 0, 2p-1); a closed form shifted two lower",
      "in z circulates and does not match:", level2.initials_match_shifted_form,
      ")")

# Everything at once, for a range of p.
for p in (2, 3, 7, 10):
    report = verify_structure(p, torus_knot(p))
    print(f"p={p}: all structure checks pass -> {report.ok} "
          f"({report.stick_count} sticks, {report.edge_length} edges)")

# Levels elsewhere hold at most one arc; try a few planes of T_{4,5}.
# An arc runs inside the plane until an x-stick leaves it, so each x-stick
# starting at x = v closes one arc; an x-stick crossing the plane meets it in
# an isolated point.
K4 = torus_knot(4)
x_sticks = [s for s in K4.sticks if s.type.axis == 0]
for value in range(-2, 4):
    arcs = sum(1 for s in x_sticks if s.start_point[0] == value)
    points = sum(1 for s in x_sticks if s.lo[0] < value < s.hi[0])
    print(f"x-level {value}: {arcs} arcs, {points} isolated points")
