"""Planarity, Eulerian circuits, Hamilton cycles, coloring, Krein conditions.

The chromatic section is the interesting one: for G(L_2^2) the eigenvalue
lower bound evaluates to min(6, 4) = 4, the claimed closed-form bound
(n-1)(n-m) is 6, and an explicit proper 4-coloring exists.  The report
carries all three values plus the exact answer, and flags the disagreement
instead of hiding it.  The Hamilton cycle and the 4-coloring are read off
the model and checked; the searches find their own, shown alongside.
"""

from prect import (build_l2k, build_line_graph, build_plane, certify_srg,
                   chromatic_analysis, chromatic_by_construction, chromatic_index_bracket,
                   chromatic_index_by_construction, eulerian_verdict,
                   hamiltonian_by_construction, hamiltonian_search, krein_check,
                   planarity_verdict, validate_cycle)

l22 = build_l2k(2)
g = build_line_graph(l22)
k4 = build_line_graph(build_plane(2, 1))

print("planarity:")
print(f"   PP(2) graph: {planarity_verdict(k4, 2, 2)}")
print(f"   L_2^2 graph: {planarity_verdict(g, 2, 4)}")

print("Eulerian (iff m or n odd):")
for label, graph, m, n in [("L_2^2", g, 2, 4)]:
    rep = eulerian_verdict(graph, m, n)
    print(f"   {label}: eulerian={rep.eulerian}, parity predicate={rep.predicate}, "
          f"agree={rep.consistent}")
    assert rep.consistent

known_cycle = [4, 5, 6, 7, 8, 9, 10, 11, 3, 2, 1, 0, 15, 14, 13, 12, 4]
print(f"a known Hamilton cycle for L_2^2 validates edge by edge: "
      f"{validate_cycle(g, known_cycle)}")
walk = hamiltonian_by_construction(g, l22, 2, 4)
print(f"n <= 3m+1 holds: {walk.condition_n_le_3m_plus_1}; Hamilton cycles, checked edge by edge:")
print(f"   {walk.provenance} over the points of A and B: {walk.cycle}")
found = hamiltonian_search(g, m=2, n=4)
print(f"   backtracking search finds its own:            {found.cycle}")
assert walk.verified and found.verified

cert = certify_srg(g, 2, 4)
chrom = chromatic_by_construction(g, l22, cert, 2, 4)
searched = chromatic_analysis(g, cert, 2, 4)
print("chromatic number of G(L_2^2):")
print(f"   eigenvalue bound {chrom.haemers_bound} = {chrom.haemers_exact}")
print(f"   claimed closed-form bound (n-1)(n-m) = {chrom.claimed_bound}")
print(f"   clique bound n = {chrom.clique_lower_bound}")
print(f"   exact chromatic number = {chrom.exact_chromatic} (verified witness)")
print(f"   {chrom.provenance}, line (u, v) gets u + x*v in GF(4):")
print(f"      {chrom.witness}")
print(f"   DSATUR search finds its own {searched.exact_chromatic}-coloring:")
print(f"      {searched.witness}")
print(f"   consistent with the claimed bound: "
      f"{chrom.flags['claimed_bound_consistent']}  <- flagged, not suppressed")
assert chrom.exact_chromatic == searched.exact_chromatic == 4

edge = chromatic_index_by_construction(g, l22, 2, 4)
print(f"chromatic index: bracket {edge.bracket}, verdict: {edge.verdict} "
      f"({edge.provenance}; the search agrees: {chromatic_index_bracket(g, 2, 4).verdict})")

kr = krein_check(cert)
print(f"Krein conditions for srg{cert.parameters}: "
      f"{kr.lhs1} <= {kr.rhs1} and {kr.lhs2} <= {kr.rhs2} -> {kr.ok}")
assert kr.ok
print("done.")
