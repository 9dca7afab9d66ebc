"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every assertion is exact (integer or set equality); no tolerances are
needed anywhere, and every criterion is expected to pass.  Criterion 7's
plane-clique half checks the law that t = 0 occurs iff n > m^2: a line
misses a plane in (n-m)(n-m^2) ways per plane, which vanishes at the
minimum n = m^2 (L_2^2, R(3,9)) and is positive on L_2^3.
"""

from __future__ import annotations

from contextlib import contextmanager

from oracles import (adjacency_matrix, drop_line, extract_plane_by_axioms, failing,
                     vertex_connectivity, without_edge)
from prect.analysis import (chromatic_analysis, eulerian_verdict, krein_check,
                            planarity_verdict, validate_cycle)
from prect.bilinear import build_hq2k, certify_isomorphism, line_matrix_map
from prect.cliques import clique_intersections, extract_plane
from prect.geometry import build_plane_clique_structure, build_point_clique_geometry
from prect.incidence import check_axioms
from prect.linegraph import certify_srg
from prect.gf import field_make


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_srg_parameters(g_l22, g_l23, g_r39, g_r416):
    with criterion(1, "SRG parameters"):
        for g, m, n, params in [
            (g_l22, 2, 4, (16, 9, 4, 6)),
            (g_l23, 2, 8, (64, 21, 8, 6)),
            (g_r39, 3, 9, (81, 32, 13, 12)),
            (g_r416, 4, 16, (256, 75, 26, 20)),
        ]:
            cert = certify_srg(g, m, n)
            assert cert.parameters == params
            assert cert.verdicts["degree_regular"]
            assert cert.verdicts["common_neighbor_counts"]
            assert cert.ok


def test_criterion_02_spectral_identity(g_l22, g_l23, g_r39, g_r416):
    import numpy as np

    with criterion(2, "spectral identity"):
        for g, m, n in [(g_l22, 2, 4), (g_l23, 2, 8), (g_r39, 3, 9), (g_r416, 4, 16)]:
            cert = certify_srg(g, m, n)
            assert cert.verdicts["spectral_identity"]
            assert cert.verdicts["multiplicity_sum"] and cert.verdicts["trace_zero"]
            # independent recomputation of the identity at full precision
            a = adjacency_matrix(g)
            tau1, tau2 = n - m - 1, -(m + 1)
            eye = np.eye(g.nu, dtype=np.int64)
            assert ((a - tau1 * eye) @ (a - tau2 * eye) == m * (m + 1)).all()


def test_criterion_03_axioms(l22, l23, r28, r39, r416):
    with criterion(3, "axioms"):
        for model in (l22, l23, r28, r39):
            rep = check_axioms(model.structure, "full")
            assert rep.ok, failing(rep)
        rep = check_axioms(r416.structure, "sampled", a6_samples=10 ** 6, seed=0)
        assert rep.ok, failing(rep)
        assert rep.a6_coverage["drawn"] == 10 ** 6


def test_criterion_04_clique_census(census_l22, census_l23, g_l22, g_l23):
    with criterion(4, "clique census"):
        assert len(census_l22.point_cliques) == 12
        assert len(census_l22.plane_cliques) == 12
        assert {len(c) for c in census_l22.point_cliques} == {4}
        assert {len(c) for c in census_l22.plane_cliques} == {4}
        assert census_l22.anomalous == []
        assert census_l22.checks["point_cliques_per_vertex"] == ({3}, {3})
        assert census_l22.checks["plane_cliques_per_vertex"] == ({3}, {3})
        inter = clique_intersections(census_l22, g_l22)
        assert inter.ok, inter.violations[:3]

        assert len(census_l23.point_cliques) == 24
        assert {len(c) for c in census_l23.point_cliques} == {8}
        assert len(census_l23.plane_cliques) == 112
        assert {len(c) for c in census_l23.plane_cliques} == {4}
        assert census_l23.anomalous == []
        assert census_l23.ok


def test_criterion_05_plane_extraction(census_l22, l22, census_r39, r39):
    with criterion(5, "plane extraction"):
        for census, model in ((census_l22, l22), (census_r39, r39)):
            m = model.m
            assert census.plane_cliques
            for pc in census.plane_cliques:
                ext = extract_plane(pc, model)
                assert ext.ok, ext.checks
                assert extract_plane_by_axioms(pc, model)
                assert ext.ordinary_points == m * (m + 1)


def test_criterion_06_isomorphisms(r24, r28, r39, r416):
    from prect.linegraph import build_line_graph

    with criterion(6, "bilinear isomorphism"):
        for model, hp in [(r24, (2, 1, 2)), (r28, (2, 1, 3)),
                          (r39, (3, 1, 2)), (r416, (2, 2, 2))]:
            g = build_line_graph(model)
            h = build_hq2k(*hp)
            rep = certify_isomorphism(g, h.graph, line_matrix_map(model, h))
            assert rep.ok, rep.witness


def test_criterion_07_point_clique_partial_geometry(census_l22, l22, census_r39, r39):
    with criterion(7, "partial geometry (point cliques)"):
        rep = build_point_clique_geometry(census_l22, l22)
        assert rep.constant_t == 2 and rep.pg_label == "pg(3,4,2)"
        assert rep.is_partial_geometry
        rep = build_point_clique_geometry(census_r39, r39)
        assert rep.constant_t == 3 and rep.pg_label == "pg(4,9,3)"
        assert rep.is_partial_geometry


def test_criterion_07_plane_clique_t_support(census_l22, l22, census_r39, r39,
                                             census_l23, l23):
    """Criterion: plane-clique t-support is {0, m} if n > m^2, else {m}.

    A line misses a plane in (n-m)(n-m^2) ways per plane, so t = 0 occurs
    iff n > m^2.  L_2^2 and R(3,9) sit at n = m^2 and measure {m}; L_2^3
    (n = 8 > 4) measures both values.  The t = 0 count must equal the
    closed form and an incidence count taken straight from the model.
    """
    with criterion(7, "plane-clique t-support ({0, m} iff n > m^2)"):
        for census, model in ((census_l22, l22), (census_r39, r39), (census_l23, l23)):
            m, n = model.m, model.n
            disjoint = (n - m) * (n - m * m)
            rep = build_plane_clique_structure(census, model)
            assert set(rep.t_histogram) <= {0, model.m}
            assert set(rep.t_histogram) == ({0, m} if disjoint > 0 else {m}), (
                f"measured support {set(rep.t_histogram)} at m={m}, n={n}, "
                f"where (n-m)(n-m^2) = {disjoint}"
            )
            zeros = rep.t_histogram.get(0, 0)
            assert zeros == disjoint * rep.num_lines
            assert _disjoint_line_plane_pairs(census, model) == zeros


def _disjoint_line_plane_pairs(census, model) -> int:
    """Pairs (ordinary line, plane clique) with no common point.

    Counted from model.structure.lines alone, independent of prect.geometry:
    a plane's points are the union of its member lines' points, and the
    ordinary lines are the first n^2 lines.
    """
    lines = model.structure.lines
    total = 0
    for pc in census.plane_cliques:
        plane = set().union(*(lines[v] for v in pc))
        total += sum(1 for i in range(model.n * model.n) if plane.isdisjoint(lines[i]))
    return total


def test_criterion_08_graph_properties(g_l22, g_pp2, g_l23, g_r39, g_r416):
    with criterion(8, "graph properties"):
        assert not planarity_verdict(g_l22, 2, 4).planar
        assert vertex_connectivity(g_l22) == 9

        pp2_rep = planarity_verdict(g_pp2, 2, 2)
        assert pp2_rep.planar and pp2_rep.is_k4

        for g, m, n in [(g_l22, 2, 4), (g_pp2, 2, 2), (g_l23, 2, 8),
                        (g_r39, 3, 9), (g_r416, 4, 16)]:
            rep = eulerian_verdict(g, m, n)
            assert rep.consistent, (m, n)

        cycle = [4, 5, 6, 7, 8, 9, 10, 11, 3, 2, 1, 0, 15, 14, 13, 12, 4]
        assert validate_cycle(g_l22, cycle)


def test_criterion_09_chromatic_analysis(g_l22, g_r24, r24):
    with criterion(9, "chromatic analysis"):
        cert = certify_srg(g_l22, 2, 4)
        rep = chromatic_analysis(g_l22, cert, 2, 4, exact_limit=100)
        assert rep.haemers_bound == 4
        assert rep.claimed_bound == 6
        assert rep.clique_lower_bound == 4
        assert rep.exact_chromatic == 4
        colors = rep.witness
        assert len(set(colors)) == 4
        for u, v in g_l22.edges():
            assert colors[u] != colors[v]
        # the report must flag the disagreement with the claimed bound
        assert rep.flags["claimed_bound_consistent"] is False

        # independent oracle 1: exhaustive 3-coloring infeasibility
        assert not _three_colorable(g_l22)

        # independent oracle 2: the coordinatized witness b = w*a + t gives
        # four independent sets partitioning the isomorphic graph of R(2,4)
        ctx = field_make(2, 2)
        w = 2  # the class of x
        classes = {t: [] for t in range(4)}
        for idx in range(16):
            a_code, b_code = divmod(idx, 4)
            classes[ctx.sub_codes(b_code, ctx.mul_codes(w, a_code))].append(idx)
        assert sorted(v for cl in classes.values() for v in cl) == list(range(16))
        for cl in classes.values():
            assert len(cl) == 4
            for i, u in enumerate(cl):
                for v in cl[i + 1:]:
                    assert not g_r24.adjacent(u, v)
        del r24


def _three_colorable(g) -> bool:
    """Plain backtracking 3-coloring, independent of the library search."""
    colors = [0] * g.nu

    def go(v):
        if v == g.nu:
            return True
        for c in (1, 2, 3):
            if all(colors[u] != c for u in range(g.nu)
                   if g.adjacent(u, v) and u < v):
                colors[v] = c
                if go(v + 1):
                    return True
                colors[v] = 0
        return False

    return go(0)


def test_criterion_10_krein(g_l22, g_l23, g_r39, g_r416):
    with criterion(10, "Krein conditions"):
        for g, m, n in [(g_l22, 2, 4), (g_l23, 2, 8), (g_r39, 3, 9), (g_r416, 4, 16)]:
            rep = krein_check(certify_srg(g, m, n))
            assert rep.ok, (m, n, rep)


def test_criterion_11_mutation_sensitivity(l22, g_l22):
    with criterion(11, "mutation sensitivity"):
        broken = drop_line(l22.structure, 0)
        rep = check_axioms(broken, "full")
        assert not rep.verdicts["A1"]
        a, b = rep.witnesses["A1"]["pair"]
        assert not any(a in ln and b in ln for ln in broken.lines)

        mutated = without_edge(g_l22, 0, 1)
        cert = certify_srg(mutated, 2, 4)
        assert not cert.ok
        assert cert.witness is not None
        assert "check" in cert.witness
