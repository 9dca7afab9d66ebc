"""The graph of lines and its exact strong-regularity certificate.

Vertices are the n^2 ordinary lines; two are adjacent when they meet.  For
a rectangle of order (m, n) this graph is strongly regular with

    nu = n^2, r = (m+1)(n-1), lambda = n + (m+1)(m-2), mu = m(m+1),

integer eigenvalues tau1 = n-m-1 and tau2 = -(m+1), and the edge set
factors into m+1 spanning (n-1)-regular subgraphs, one per special line.
All of it is certified by exact integer counting here.
"""

from collections import Counter

from prect import build_l2k, build_subplane_rect, build_line_graph, certify_srg
from prect.linegraph import eccentricity, edge_class

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

    # edges of each special line's class at each vertex: n-1 for all m+1 classes
    per_vertex = Counter()
    for u, v in g.edges():
        c = edge_class(model, u, v)
        per_vertex[u, c] += 1
        per_vertex[v, c] += 1
    classes = {c for _, c in per_vertex}
    factored = (None not in classes and len(per_vertex) == g.nu * (m + 1)
                and set(per_vertex.values()) == {n - 1})
    print(f"   factorization: {len(classes)} color classes, "
          f"each {n - 1}-regular and spanning: {factored}")
    assert factored

g22 = build_line_graph(build_l2k(2))
# the model's incidence certificate: every vertex looks like vertex 0
assert g22.translations is not None
print(f"diameter of G(L_2^2), the eccentricity of vertex 0 in a certified Cayley "
      f"graph: {eccentricity(g22, 0)} (nontrivial rectangles give 2)")

cert = certify_srg(build_line_graph(build_subplane_rect(3, 1, 2)), 3, 9)
print(f"connectivity of G(R(3,9)), cited: {cert.r} (= r, by the Brouwer-Mesner "
      f"theorem on a certified srg: {cert.ok})")
print("done.")
