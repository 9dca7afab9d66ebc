"""End-to-end sweep on a family no other test touches: R(5,25), order (5,25).

Exercises every certification stage on a prime q larger than anything in
the unit tests, confirming the general formulas rather than memorized
values: srg(q^(2k), (q+1)(q^k-1), q^k+(q+1)(q-2), q(q+1)) and the census,
isomorphism, and geometry laws that follow.
"""

from __future__ import annotations

import pytest

from oracles import colored_line_graph, diameter, factorization_check, find_isomorphism
from prect.analysis import eulerian_verdict, krein_check
from prect.bilinear import build_hq2k, certify_isomorphism, line_matrix_map
from prect.cliques import classify_census, clique_intersections, extract_plane
from prect.construct import build_l2k, build_subplane_rect
from prect.geometry import build_plane_clique_structure, build_point_clique_geometry
from prect.incidence import check_axioms, elementary_counts, order_of
from prect.linegraph import build_line_graph, certify_srg, edge_class


@pytest.fixture(scope="module")
def r525():
    return build_subplane_rect(5, 1, 2)


@pytest.fixture(scope="module")
def g_r525(r525):
    return build_line_graph(r525)


def test_r525_axioms_and_counts(r525):
    assert order_of(r525.structure) == (5, 25)
    rep = check_axioms(r525.structure, "sampled", a6_samples=200_000, seed=1)
    assert rep.ok
    assert elementary_counts(r525.structure).ok


def test_r525_srg_and_graph_laws(r525, g_r525):
    cert = certify_srg(g_r525, 5, 25)
    assert cert.parameters == (625, 144, 43, 30)
    assert cert.ok
    assert diameter(g_r525) == 2
    assert factorization_check(g_r525, r525).ok
    assert eulerian_verdict(g_r525, 5, 25).consistent
    assert krein_check(cert).ok


def test_r525_edge_classes_match_the_pairwise_oracle(r525, g_r525):
    """edge_class agrees with the pair-by-pair colored build on every edge."""
    h, colors = colored_line_graph(r525)
    assert h.rows == g_r525.rows
    assert {(u, v): edge_class(r525, u, v) for u, v in g_r525.edges()} == colors


def test_r525_census_and_geometry(r525, g_r525):
    census = classify_census(g_r525, r525)
    assert len(census.point_cliques) == 150
    assert len(census.plane_cliques) == 150
    assert census.ok
    assert clique_intersections(census, g_r525).ok
    for pc in census.plane_cliques[:5]:
        ext = extract_plane(pc, r525)
        assert ext.ok and ext.ordinary_points == 30

    pt = build_point_clique_geometry(census, r525)
    assert pt.ok and pt.pg_label == "pg(6,25,5)"
    pl = build_plane_clique_structure(census, r525)
    assert pl.ok and set(pl.t_histogram) == {5}   # n = m^2 once more


def test_r525_bilinear_isomorphism(r525, g_r525):
    h = build_hq2k(5, 1, 2)
    rep = certify_isomorphism(g_r525, h.graph, line_matrix_map(r525, h))
    assert rep.ok


def test_l23_isomorphic_to_r28(l23, r28):
    assert find_isomorphism(l23.structure, r28.structure) is not None


def test_l2k_not_isomorphic_to_wrong_family():
    assert find_isomorphism(build_l2k(2).structure,
                            build_subplane_rect(3, 1, 2).structure) is None
