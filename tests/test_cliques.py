"""Clique enumeration, the point/plane census, and plane reconstruction."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prect.cliques
from oracles import (CAYLEY_LADDER, census_with, extract_plane_by_axioms, fields,
                     graph_from_edges, ladder_model, special_line_at, translation_group,
                     unreduced_cliques_through_0, without_edge, without_ordinary_lines)
from prect._util import comb2
from prect.cliques import (CliqueError, classify_census, clique_intersections,
                           enumerate_maximal_cliques, extract_plane)
from prect.cli import main
from prect.construct import build_l2k, build_subplane_rect
from prect.export import model_from_dict, model_from_json, model_to_dict
from prect.linegraph import LineGraph, build_line_graph


def test_k4_single_maximal_clique(g_pp2):
    cl = enumerate_maximal_cliques(g_pp2)
    assert cl == [(0, 1, 2, 3)]


def test_enumeration_bound(g_l22, monkeypatch):
    """Past ENUMERATION_MAX_VERTICES only a graph that carries the model's
    incidence certificate is enumerated, up to CAYLEY_MAX_VERTICES."""
    cliques = enumerate_maximal_cliques(g_l22)
    uncertified = without_edge(g_l22, 0, g_l22.rows[0].bit_length() - 1)
    assert uncertified.translations is None and translation_group(uncertified) is None
    monkeypatch.setattr(prect.cliques, "ENUMERATION_MAX_VERTICES", 8)
    with pytest.raises(CliqueError, match="limited to 8 vertices"):
        enumerate_maximal_cliques(uncertified)
    assert enumerate_maximal_cliques(g_l22) == cliques
    monkeypatch.setattr(prect.cliques, "CAYLEY_MAX_VERTICES", 15)
    with pytest.raises(CliqueError, match="limited to 15 vertices"):
        enumerate_maximal_cliques(g_l22)


def test_complete_graph_keeps_the_general_enumeration_bound(g_pp2, monkeypatch):
    """A plane's complete graph is certified, yet keeps ENUMERATION_MAX_VERTICES."""
    assert g_pp2.translations is not None and g_pp2.is_complete()
    monkeypatch.setattr(prect.cliques, "ENUMERATION_MAX_VERTICES", 3)
    with pytest.raises(CliqueError, match="limited to 3 vertices"):
        enumerate_maximal_cliques(g_pp2)


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
    # an anomalous clique fails the census even where its checks all pass
    assert not census_with(census_l22, anomalous=[census_l22.point_cliques[0]]).ok
    assert {len(pc) for pc in census_l22.point_cliques} == {4}
    assert {len(pc) for pc in census_l22.plane_cliques} == {4}


def test_l23_census_counts(census_l23):
    assert len(census_l23.point_cliques) == 24
    assert len(census_l23.plane_cliques) == 112
    assert {len(pc) for pc in census_l23.point_cliques} == {8}
    assert {len(pc) for pc in census_l23.plane_cliques} == {4}
    assert census_l23.ok


def test_r39_census_counts(census_r39):
    assert len(census_r39.point_cliques) == 36
    assert len(census_r39.plane_cliques) == 36
    assert census_r39.ok


def test_l22_per_vertex_memberships(census_l22):
    # vertex l_0 lies in m+1 = 3 point cliques and (n-1)/(m-1) = 3 plane cliques
    in_point = sum(0 in pc for pc in census_l22.point_cliques)
    in_plane = sum(0 in pc for pc in census_l22.plane_cliques)
    assert (in_point, in_plane) == (3, 3)


def test_membership_index_matches_the_cliques(census_l23):
    for cliques, index in ((census_l23.point_cliques, census_l23.point_of),
                           (census_l23.plane_cliques, census_l23.plane_of)):
        assert index == [sum(1 << j for j, c in enumerate(cliques) if v in c)
                         for v in range(census_l23.nu)]


def test_example_point_clique_l1_l4_l11_l14(census_l22, l22):
    """The four lines through b_1 form a point clique, not a plane clique."""
    target = (1, 4, 11, 14)
    assert target in census_l22.point_cliques
    assert target not in census_l22.plane_cliques
    s = l22.structure
    assert [s.points[p] for p in set.intersection(*(set(s.lines[v]) for v in target))] == ["b1"]


def test_plane_count_per_line_l23(census_l23):
    for v in range(64):
        assert sum(v in pc for pc in census_l23.plane_cliques) == 7


def test_intersection_laws_l22(census_l22, g_l22):
    rep = clique_intersections(census_l22, g_l22)
    assert rep.ok, rep.violations[:5]
    shared = {len(set(plane) & set(pc)) for plane in census_l22.plane_cliques
              for pc in census_l22.point_cliques}
    assert shared == {0, 2}


def test_intersection_laws_r39(census_r39, g_r39):
    assert clique_intersections(census_r39, g_r39).ok


def test_point_cliques_same_special_line_disjoint(census_l22, l22):
    s = l22.structure
    by_special = {}
    for pc in census_l22.point_cliques:
        (point,) = set.intersection(*(set(s.lines[v]) for v in pc))
        by_special.setdefault(special_line_at(s, point), []).append(set(pc))
    for group in by_special.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                assert not (group[i] & group[j])


def pair_cover_double_count(census, g) -> bool:
    """Edge double count: point and plane cliques each cover all edges once."""
    pt_pairs = sum(comb2(len(pc)) for pc in census.point_cliques)
    pl_pairs = sum(comb2(len(pc)) for pc in census.plane_cliques)
    return pt_pairs == pl_pairs == g.num_edges


def test_double_count_identity(census_l22, g_l22, census_l23, g_l23):
    assert pair_cover_double_count(census_l22, g_l22)
    assert pair_cover_double_count(census_l23, g_l23)


def test_extract_plane_l22_all_fano(census_l22, l22):
    for pc in census_l22.plane_cliques:
        ext = extract_plane(pc, l22)
        assert ext.ok, ext.checks
        assert extract_plane_by_axioms(pc, l22)
        assert ext.checks["points"] == (7, 7)


def test_extract_plane_r39(census_r39, r39):
    for pc in census_r39.plane_cliques:
        ext = extract_plane(pc, r39)
        assert ext.ok
        assert ext.ordinary_points == 12
        assert ext.ordinary_lines == 9


def _plane_candidates(model, census, rng, randoms):
    """Real plane cliques, each with one member swapped and with one member
    dropped, point cliques, and random m^2-subsets of the ordinary lines."""
    nu = model.num_ordinary_lines
    out = []
    for pc in census.plane_cliques:
        out.append(pc)
        others = [v for v in range(nu) if v not in pc]
        if others:
            vs = list(pc)
            vs[rng.randrange(len(vs))] = rng.choice(others)
            out.append(tuple(sorted(vs)))
        i = rng.randrange(len(pc))
        out.append(pc[:i] + pc[i + 1:])
    out.extend(census.point_cliques)
    m2 = model.m ** 2
    out.extend(tuple(sorted(rng.sample(range(nu), m2))) for _ in range(randoms))
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


def test_classify_keeps_the_one_point_and_the_full_pencil_tests(l22, g_l22):
    """The n lines through b1, supplied as a clique, are a point clique of
    L_2^2.  With a new point on exactly those lines they share two points,
    and with a new ordinary line through b1 they are no longer its full
    pencil: both times the clique is anomalous, although it has size n.  The
    n + 1 lines through b1 are then its full pencil, anomalous by size."""
    pencil = (1, 4, 11, 14)
    assert classify_census(g_l22, l22, [pencil]).point_cliques == [pencil]
    twin = model_to_dict(l22)
    twin["structure"]["points"].append("z")
    for v in pencil:
        twin["structure"]["lines"][v].append("z")
    extra = model_to_dict(l22)
    lines, d = extra["structure"]["lines"], extra["structure"]["special_point"]
    special = next(ln for ln in lines if d in ln and "b1" in ln)
    lines.insert(16, ["b1"] + [p for p in special if p not in (d, "b1")][:2])
    for model in map(model_from_dict, (twin, extra)):
        census = classify_census(build_line_graph(model), model, [pencil])
        assert census.point_cliques == [] and census.anomalous == [pencil]
    whole = pencil + (16,)
    assert classify_census(build_line_graph(model), model, [whole]).anomalous == [whole]


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
    doubled = census_with(census_l22, **{family: cliques + [cliques[3]]})
    rep = clique_intersections(doubled, g_l22)
    assert not rep.ok
    u, v = cliques[3][:2]
    assert (violation, u, v, 2) in rep.violations


@pytest.mark.parametrize("k,expected", [(1, (0, 1)), (2, (12, 12)), (3, (24, 112))])
def test_empty_clique_families_fail_their_verdicts(k, expected):
    """Deleting every ordinary line leaves no clique; no clique verdict holds vacuously."""
    from prect.geometry import build_plane_clique_structure

    model = build_l2k(k)
    g = build_line_graph(model)
    census = classify_census(g, model)
    assert census.expected_counts == expected
    assert clique_intersections(census, g).ok
    assert build_plane_clique_structure(census, model).ok
    empty = without_ordinary_lines(model)
    g = build_line_graph(empty)
    census = classify_census(g, empty)
    assert not census.point_cliques and not census.plane_cliques
    rep = clique_intersections(census, g)
    assert ("plane-clique-count", expected[1], 0) in rep.violations
    assert not rep.ok
    assert not build_plane_clique_structure(census, empty).ok


@pytest.mark.parametrize("name", list(CAYLEY_LADDER))
def test_translated_census_equals_the_all_vertex_enumeration(name):
    model = ladder_model(name)
    g = build_line_graph(model)
    assert g.translations is not None
    cliques = enumerate_maximal_cliques(g)
    census = classify_census(g, model)
    assert census.translations is g.translations
    supplied = classify_census(g, model, cliques)
    assert supplied.translations is None and fields(supplied) == fields(census)
    uncertified = LineGraph(g.rows)  # no certificate: the all-vertex enumeration
    assert enumerate_maximal_cliques(uncertified) == cliques
    assert fields(classify_census(uncertified, model)) == fields(census)
    assert census.ok


@pytest.mark.parametrize("name", list(CAYLEY_LADDER))
def test_twin_quotient_cliques_equal_the_unreduced_enumeration(name, monkeypatch):
    """Bron-Kerbosch runs on one vertex per twin class of N(0): the
    (m+1)(n-1) neighbours of 0 fall into classes of m - 1, the nonzero
    multiples of a rank-1 matrix, none of them twins on L_2^k (m = 2); a
    plane's complete graph is one class."""
    model = ladder_model(name)
    g = build_line_graph(model)
    expected = unreduced_cliques_through_0(g)
    sizes = []
    bron_kerbosch = prect.cliques._bron_kerbosch

    def counted(rows, r_mask, p_mask):
        sizes.append(len(rows))
        return bron_kerbosch(rows, r_mask, p_mask)

    monkeypatch.setattr(prect.cliques, "_bron_kerbosch", counted)
    assert prect.cliques._cliques_through_0(g) == expected
    m, n = model.m, model.n
    assert sizes == [1 if model.trivial else (m + 1) * (n - 1) // (m - 1)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_twin_quotient_cliques_on_graphs_with_planted_twins(data):
    """A random graph on k classes, each a clique of one to four closed
    twins that meet every member of an adjacent class, numbered at random."""
    k = data.draw(st.integers(1, 7))
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    adjacent = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    label = iter(data.draw(st.permutations(range(sum(sizes)))))
    classes = [[next(label) for _ in range(size)] for size in sizes]
    edges = [(u, v) for a, cls in enumerate(classes) for b, other in enumerate(classes)
             if a == b or (a, b) in adjacent for u in cls for v in other if u < v]
    g = graph_from_edges(sum(sizes), edges)
    assert prect.cliques._cliques_through_0(g) == unreduced_cliques_through_0(g)


@pytest.mark.parametrize("name", ["L_2^2", "L_2^3", "R(3,9)", "R(2,8)"])
def test_enumeration_matches_networkx(name):
    nx = pytest.importorskip("networkx")
    g = build_line_graph(ladder_model(name))
    h = nx.Graph()
    h.add_nodes_from(range(g.nu))
    h.add_edges_from(g.edges())
    assert enumerate_maximal_cliques(g) == sorted(tuple(sorted(c)) for c in nx.find_cliques(h))


_SHALLOW_CLIQUES = """
import sys
sys.setrecursionlimit(60)
from prect.cli import main
sys.exit(main(["cliques", sys.argv[1]]))
"""


def test_cli_cliques_on_a_plane_runs_at_recursion_depth_60(tmp_path):
    """PG(2,16) is a complete graph on 256 vertices: a chain of lone
    Bron-Kerbosch branches, taken in place rather than by recursion."""
    path = tmp_path / "pg16.json"
    assert main(["build", "--family", "plane", "--p", "2", "--e", "4", "--out", str(path)]) == 0
    src = str(Path(prect.cliques.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _SHALLOW_CLIQUES, str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr[-500:]
    counts = json.loads(proc.stderr.splitlines()[-1])["details"]["census_counts"]
    assert counts == {"point_cliques": 0, "plane_cliques": 1, "anomalous": 0, "mismatches": {}}


@pytest.mark.parametrize("swapped", [False, True], ids=["as-built", "lines-0-5-swapped"])
def test_cli_cliques_on_l25_runs_at_recursion_depth_60(tmp_path, swapped):
    """Bron-Kerbosch recursion is bounded by the clique size, n = 32 on L_2^5.
    Swapping two lines leaves no translation certificate, so the census
    runs the all-vertex enumeration; both run at depth 60."""
    path = tmp_path / "l25.json"
    assert main(["build", "--family", "l2k", "--k", "5", "--out", str(path)]) == 0
    if swapped:
        d = json.loads(path.read_text())
        lines = d["structure"]["lines"]
        lines[0], lines[5] = lines[5], lines[0]
        path.write_text(json.dumps(d, sort_keys=True))
    certified = build_line_graph(model_from_json(path.read_text())).translations
    assert (certified is None) == swapped
    src = str(Path(prect.cliques.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _SHALLOW_CLIQUES, str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr[-500:]
    counts = json.loads(proc.stderr.splitlines()[-1])["details"]["census_counts"]
    assert counts == {"point_cliques": 96, "plane_cliques": 7936, "anomalous": 0,
                      "mismatches": {}}
