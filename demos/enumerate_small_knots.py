# Census of small conformations and the distortion-one classification.
#
# Backtracking over self-avoiding closed walks enumerates every conformation
# up to translation, the 48 signed axis permutations, starting vertex, and
# orientation.  Filtering by distortion one recovers exactly the square and
# the nonplanar corner hexagon; the theorem behind that filter says such a
# knot lies entirely on the corners of its bounding box.

import random

from latticeknots import (
    census_walks,
    classify_distortion_one,
    enumerate_conformations,
    format_exact,
    random_lattice_knot,
    search_low_distortion,
    torus_knot,
    vertex_distortion,
)

print("conformations per edge length (one per isometry class):")
census = list(enumerate_conformations(12))
counts = {}
for K in census:
    if K.edge_length <= 10:
        counts[K.edge_length] = counts.get(K.edge_length, 0) + 1
for length, count in sorted(counts.items()):
    print(f"  {length:2d}: {count}")

print()
print("the three hexagon classes:")
for K in census:
    if K.edge_length == 6:
        print("  ", K.vertices, " distortion", format_exact(vertex_distortion(K).value))

print()
print("distortion-one survivors up to length 12:")
for K in classify_distortion_one(census_walks(12)):
    print("  ", K.vertices)

# A randomized walk through reductions and extensions gives empirical upper
# bounds on the distortion of a knot type.  The trefoil conformation never
# improves on 11 within this budget.
result = search_low_distortion(torus_knot(2), 500, seed=42)
print()
print("trefoil search: best", format_exact(result.best_value),
      "over", result.moves_applied, "applied moves")

rng = random.Random(17)
K = random_lattice_knot(rng, 30)
result = search_low_distortion(K, 300, seed=1)
print("random unknotted-ish start:", format_exact(vertex_distortion(K).value),
      "->", format_exact(result.best_value))
