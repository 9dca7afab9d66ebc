"""Every maximal clique is a point clique or a plane clique; planes rebuild.

Point cliques are the n lines through one ordinary point; plane cliques are
the m^2 ordinary lines of one maximal subplane.  The census enumerates all
maximal cliques (Bron-Kerbosch with pivoting on bitsets), classifies them by
the common-point test, and checks every counting formula.  Each plane clique
is then checked, on the point masks of its lines and of the special lines
cut down to it, to be a projective plane of order m containing D.
"""

from prect import (build_l2k, build_line_graph, classify_census,
                   clique_intersections, enumerate_maximal_cliques, extract_plane)

model = build_l2k(3)
g = build_line_graph(model)
cliques = enumerate_maximal_cliques(g)
print(f"L_2^3: {len(cliques)} maximal cliques, sizes {sorted({len(c) for c in cliques})}")

census = classify_census(g, model, cliques)
print(f"census: {len(census.point_cliques)} point cliques (size 8), "
      f"{len(census.plane_cliques)} plane cliques (size 4), "
      f"{len(census.anomalous)} anomalous")
assert census.ok, census.mismatches()
for name, (expected, actual) in sorted(census.checks.items()):
    print(f"   {name}: expected {expected}, measured {actual}")

inter = clique_intersections(census, g)
print(f"intersection laws (pairwise sizes, exactly-one edge cover): {inter.ok}")
assert inter.ok

# Rebuild one plane and verify it is a Fano plane containing D.
first = census.plane_cliques[0]
ext = extract_plane(first, model)
print(f"plane of clique {first.vertices}: order {ext.order}, "
      f"{ext.ordinary_points} ordinary points, {ext.ordinary_lines} ordinary "
      f"lines, contains D: {ext.contains_special_point}")
assert ext.ok

# The classification is by common point, not size: with n = m^2 (k = 2) the
# two classes have the same size but stay distinct as sets.
small = build_l2k(2)
gs = build_line_graph(small)
cs = classify_census(gs, small)
sizes = ({len(c.vertices) for c in cs.point_cliques},
         {len(c.vertices) for c in cs.plane_cliques})
print(f"L_2^2 censored sizes (point, plane): {sizes} -> equal, classes still disjoint")
assert not ({c.vertices for c in cs.point_cliques}
            & {c.vertices for c in cs.plane_cliques})
print("done.")
