"""The graph of lines and its exact strong-regularity certificate.

Vertices are the n^2 ordinary lines; two are adjacent when they meet.  For
a rectangle of order (m, n) this graph is strongly regular with

    nu = n^2, r = (m+1)(n-1), lambda = n + (m+1)(m-2), mu = m(m+1),

integer eigenvalues tau1 = n-m-1 and tau2 = -(m+1), and the edge set
factors into m+1 spanning (n-1)-regular subgraphs, one per special line.
All of it is certified by exact integer counting here.
"""

from prect import (build_l2k, build_subplane_rect, build_line_graph, certify_srg,
                   diameter, factorization_check, vertex_connectivity)

instances = [
    ("L_2^2", build_l2k(2), 2, 4),
    ("L_2^3", build_l2k(3), 2, 8),
    ("R(3,9)", build_subplane_rect(3, 1, 2), 3, 9),
    ("R(4,16)", build_subplane_rect(2, 2, 2), 4, 16),
]

for label, model, m, n in instances:
    g = build_line_graph(model)
    cert = certify_srg(g, m, n)
    print(f"{label}: srg{cert.parameters}  eigenvalues "
          f"({cert.tau0}, {cert.tau1}, {cert.tau2}) with multiplicities "
          f"{cert.multiplicities}  -> all checks: {cert.ok}")
    assert cert.ok

    fact = factorization_check(g, model)
    print(f"   factorization: {fact.num_classes} color classes, "
          f"each {n - 1}-regular and spanning: {fact.ok}")
    assert fact.ok

g22 = build_line_graph(build_l2k(2))
print(f"diameter of G(L_2^2): {diameter(g22)} (nontrivial rectangles give 2)")

kappa = vertex_connectivity(g22, "exact")
print(f"vertex connectivity of G(L_2^2) by augmenting paths over the "
      f"Esfahanian-Hakimi pairs: {kappa.value} (equals r = 9)")
assert kappa.value == 9

big = build_line_graph(build_subplane_rect(3, 1, 2))
print(f"connectivity of G(R(3,9)), cited mode: "
      f"{vertex_connectivity(big, 'cited').value} (= r, by the srg theorem)")
print("done.")
