"""Clique enumeration, the point/plane census, and plane reconstruction."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import prect.cliques
from oracles import CAYLEY_LADDER, graph_from_edges, ladder_model, without_edge
from prect._util import comb2, iter_bits
from prect.cliques import (CliqueError, PlaneClique, classify_census, clique_intersections,
                           enumerate_maximal_cliques, extract_plane)
from prect.construct import build_l2k, build_subplane_rect
from prect.incidence import IncidenceStructure, check_axioms, elementary_counts, order_of
from prect.linegraph import build_line_graph, translation_group


def test_k4_single_maximal_clique(g_pp2):
    cl = enumerate_maximal_cliques(g_pp2)
    assert cl == [(0, 1, 2, 3)]


def test_enumeration_bound(g_l22, monkeypatch):
    monkeypatch.setattr(prect.cliques, "ENUMERATION_MAX_VERTICES", 8)
    with pytest.raises(CliqueError):
        enumerate_maximal_cliques(g_l22)


def test_enumeration_no_duplicates_and_maximality(g_l22):
    cl = enumerate_maximal_cliques(g_l22)
    assert len(set(cl)) == len(cl)
    for c in cl:
        members = set(c)
        for u in members:
            for v in members:
                assert u == v or g_l22.adjacent(u, v)
        # maximality: no vertex extends the clique
        for w in range(g_l22.nu):
            if w not in members:
                assert not all(g_l22.adjacent(w, u) for u in members)


def test_l22_census_counts(census_l22):
    assert len(census_l22.point_cliques) == 12
    assert len(census_l22.plane_cliques) == 12
    assert census_l22.anomalous == []
    assert census_l22.ok, census_l22.mismatches()
    assert {len(pc.vertices) for pc in census_l22.point_cliques} == {4}
    assert {len(pc.vertices) for pc in census_l22.plane_cliques} == {4}


def test_l23_census_counts(census_l23):
    assert len(census_l23.point_cliques) == 24
    assert len(census_l23.plane_cliques) == 112
    assert {len(pc.vertices) for pc in census_l23.point_cliques} == {8}
    assert {len(pc.vertices) for pc in census_l23.plane_cliques} == {4}
    assert census_l23.ok


def test_r39_census_counts(census_r39):
    assert len(census_r39.point_cliques) == 36
    assert len(census_r39.plane_cliques) == 36
    assert census_r39.ok


def test_l22_per_vertex_memberships(census_l22):
    # vertex l_0 lies in m+1 = 3 point cliques and (n-1)/(m-1) = 3 plane cliques
    in_point = sum(0 in pc.vertices for pc in census_l22.point_cliques)
    in_plane = sum(0 in pc.vertices for pc in census_l22.plane_cliques)
    assert (in_point, in_plane) == (3, 3)


def test_example_point_clique_l1_l4_l11_l14(census_l22, l22):
    """The four lines through b_1 form a point clique, not a plane clique."""
    target = (1, 4, 11, 14)
    pcs = {pc.vertices: pc.point for pc in census_l22.point_cliques}
    assert target in pcs
    assert l22.structure.points[pcs[target]] == "b1"
    assert target not in {pc.vertices for pc in census_l22.plane_cliques}


def test_plane_count_per_line_l23(census_l23):
    for v in range(64):
        assert sum(v in pc.vertices for pc in census_l23.plane_cliques) == 7


def test_intersection_laws_l22(census_l22, g_l22):
    rep = clique_intersections(census_l22, g_l22)
    assert rep.ok, rep.violations[:5]
    assert set(rep.stats["plane_point_intersection_sizes"]) <= {0, 2}
    assert 2 in rep.stats["plane_point_intersection_sizes"]


def test_intersection_laws_r39(census_r39, g_r39):
    assert clique_intersections(census_r39, g_r39).ok


def test_point_cliques_same_special_line_disjoint(census_l22, l22):
    s = l22.structure
    by_special = {}
    for pc in census_l22.point_cliques:
        by_special.setdefault(s.special_line_of_point(pc.point), []).append(set(pc.vertices))
    for group in by_special.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                assert not (group[i] & group[j])


def pair_cover_double_count(census, g) -> bool:
    """Edge double count: point and plane cliques each cover all edges once."""
    pt_pairs = sum(comb2(len(pc.vertices)) for pc in census.point_cliques)
    pl_pairs = sum(comb2(len(pc.vertices)) for pc in census.plane_cliques)
    return pt_pairs == pl_pairs == g.num_edges


def test_double_count_identity(census_l22, g_l22, census_l23, g_l23):
    assert pair_cover_double_count(census_l22, g_l22)
    assert pair_cover_double_count(census_l23, g_l23)


def test_extract_plane_l22_all_fano(census_l22, l22):
    for pc in census_l22.plane_cliques:
        ext = extract_plane(pc, l22)
        assert ext.ok, ext.checks
        assert order_of(ext.structure) == (2, 2)
        assert ext.structure.n_points == 7
        assert ext.contains_special_point


def test_extract_plane_r39(census_r39, r39):
    for pc in census_r39.plane_cliques:
        ext = extract_plane(pc, r39)
        assert ext.ok
        assert ext.ordinary_points == 12
        assert ext.ordinary_lines == 9


def test_extract_plane_fails_on_points_missing_from_the_plane(census_l22, l22):
    pc = census_l22.plane_cliques[0]
    d = l22.structure.special_point
    without_d = replace(pc, plane_points=tuple(p for p in pc.plane_points if p != d))
    ext = extract_plane(without_d, l22)
    assert not ext.ok and not ext.contains_special_point
    member = l22.structure.lines[pc.vertices[0]][0]
    without_member = replace(pc, plane_points=tuple(p for p in pc.plane_points if p != member))
    ext = extract_plane(without_member, l22)
    assert not ext.ok and ext.contains_special_point


def extract_plane_by_axioms(clique, model) -> bool:
    """The plane check as it was before it counted: all six axioms on the
    rebuilt plane (A6 exhaustively), its order and its elementary counts.
    Returns the verdict of the old PlaneExtraction.ok."""
    s = model.structure
    m = model.m
    pts = list(clique.plane_points)
    back = {p: i for i, p in enumerate(pts)}
    lines = [tuple(back[p] for p in s.lines[v]) for v in clique.vertices]
    for si in s.special_lines:
        lines.append(tuple(back[p] for p in s.lines[si] if p in back))
    sub = IncidenceStructure([s.points[p] for p in pts], lines, back[s.special_point],
                             validate=False)
    checks = {"axioms": (True, check_axioms(sub, "full").ok)}
    try:
        checks["order"] = ((m, m), order_of(sub))
    except Exception:
        checks["order"] = ((m, m), None)
    counts = elementary_counts(sub) if checks["order"][1] == (m, m) else None
    checks["elementary_counts"] = (True, counts.ok if counts else False)
    checks["ordinary_points"] = (m * (m + 1), len(pts) - 1)
    checks["ordinary_lines"] = (m * m, len(clique.vertices))
    return s.special_point in back and all(e == a for e, a in checks.values())


def _plane_candidates(model, census, rng, randoms):
    """Real plane cliques, each with one member swapped and with one point
    added, point cliques, and random m^2-subsets of the ordinary lines."""
    s = model.structure
    masks = s.line_masks
    nu = model.num_ordinary_lines

    def candidate(vertices, extra=0):
        union = 1 << s.special_point | extra
        for v in vertices:
            union |= masks[v]
        return PlaneClique(tuple(sorted(vertices)), tuple(iter_bits(union)))

    out = []
    for pc in census.plane_cliques:
        out.append(pc)
        others = [v for v in range(nu) if v not in pc.vertices]
        if others:
            vs = list(pc.vertices)
            vs[rng.randrange(len(vs))] = rng.choice(others)
            out.append(candidate(vs))
        outside = [p for p in range(s.n_points) if p not in pc.plane_points]
        if outside:
            out.append(candidate(pc.vertices, 1 << rng.choice(outside)))
    out.extend(candidate(pc.vertices) for pc in census.point_cliques)
    m2 = model.m ** 2
    out.extend(candidate(rng.sample(range(nu), m2)) for _ in range(randoms))
    return out


def test_extract_plane_agrees_with_axiom_oracle():
    rng = random.Random(2024)
    models = [build_l2k(2), build_l2k(3), build_l2k(4), build_subplane_rect(3, 1, 2),
              build_subplane_rect(2, 1, 3), build_subplane_rect(2, 1, 1),
              build_subplane_rect(2, 1, 2), build_subplane_rect(2, 2, 2)]
    total = passing = 0
    for model in models:
        census = classify_census(build_line_graph(model), model)
        for pc in _plane_candidates(model, census, rng, randoms=150):
            ok = extract_plane(pc, model).ok
            assert ok == extract_plane_by_axioms(pc, model), (model.family, model.n, pc)
            total += 1
            passing += ok
    assert total >= 2000 and passing >= 500, (total, passing)


def test_census_anomalous_on_corrupted_graph(l22, g_l22):
    # removing an edge creates maximal cliques that are neither kind
    from prect.cliques import classify_census

    broken = without_edge(g_l22, 0, 1)
    census = classify_census(broken, l22)
    assert not census.ok


def test_arbitrary_graph_enumeration():
    # 5-cycle: the maximal cliques are exactly the five edges
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert enumerate_maximal_cliques(c5) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize("family,violation", [("point_cliques", "edge-point-cover"),
                                              ("plane_cliques", "edge-plane-cover")])
def test_duplicated_clique_fails_on_doubly_covered_pair(census_l22, g_l22, family, violation):
    """Two same-class cliques sharing two vertices cover that pair twice."""
    cliques = getattr(census_l22, family)
    doubled = replace(census_l22, **{family: cliques + [cliques[3]]})
    rep = clique_intersections(doubled, g_l22)
    assert not rep.ok
    u, v = cliques[3].vertices[:2]
    assert (violation, u, v, 2) in rep.violations


@pytest.mark.parametrize("name", list(CAYLEY_LADDER))
def test_translated_census_equals_the_all_vertex_enumeration(name, monkeypatch):
    model = ladder_model(name)
    g = build_line_graph(model)
    assert translation_group(g) is not None
    cliques = enumerate_maximal_cliques(g)
    census = classify_census(g, model, cliques)
    monkeypatch.setattr(prect.cliques, "translation_group", lambda g: None)
    assert enumerate_maximal_cliques(g) == cliques
    assert classify_census(g, model) == census
    assert census.ok


@pytest.mark.parametrize("name", ["L_2^2", "L_2^3", "R(3,9)", "R(2,8)"])
def test_enumeration_matches_networkx(name):
    nx = pytest.importorskip("networkx")
    g = build_line_graph(ladder_model(name))
    h = nx.Graph()
    h.add_nodes_from(range(g.nu))
    h.add_edges_from(g.edges())
    assert enumerate_maximal_cliques(g) == sorted(tuple(sorted(c)) for c in nx.find_cliques(h))
