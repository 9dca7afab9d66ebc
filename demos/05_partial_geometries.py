"""One and a half partial geometries from the two clique classes.

With vertices as Points and point cliques as Lines, every non-incident
Point-Line pair sees exactly m transversal Lines: a partial geometry,
labeled pg(m+1, n, m).  With plane cliques as Lines the transversal count
t is 0 or m according to whether the line and the plane are disjoint point
sets.  Disjoint pairs number (n-m)(n-m^2) per plane, so both t values occur
exactly when n > m^2; at the minimum n = m^2 the value t = m is constant.
Everything below is measured over every non-incident pair.
"""

from prect import (build_l2k, build_line_graph, build_subplane_rect, classify_census,
                   build_plane_clique_structure, build_point_clique_geometry)

for label, model in [
    ("L_2^2", build_l2k(2)),
    ("L_2^3", build_l2k(3)),
    ("R(3,9)", build_subplane_rect(3, 1, 2)),
]:
    g = build_line_graph(model)
    census = classify_census(g, model)
    m, n = model.m, model.n

    pt = build_point_clique_geometry(census, model)
    print(f"== {label} point-clique geometry: {pt.pg_label}")
    print(f"   {pt.num_points} Points, {pt.num_lines} Lines "
          f"(matches the formula {pt.line_count_matches}), "
          f"{pt.points_per_line} Points/Line, {pt.lines_per_point} Lines/Point, "
          f"t histogram {pt.t_histogram}")
    assert pt.ok and pt.is_partial_geometry

    pl = build_plane_clique_structure(census, model)
    expected_zeros = (n - m) * (n - m * m) * pl.num_lines
    print(f"   plane-clique structure: t histogram {pl.t_histogram}; "
          f"disjoint pairs predicted {expected_zeros}, "
          f"measured {pl.t_histogram.get(0, 0)}")
    assert pl.ok, pl.mismatches()
    if n > m * m:
        assert set(pl.t_histogram) == {0, m}
        print("   n > m^2: both t values occur, so NOT a partial geometry")
    else:
        assert set(pl.t_histogram) == {m}
        print("   n = m^2: no plane misses any line, t = m everywhere")
print("done.")
