"""The orbit paths of verify --profile full against the all-vertex paths.

A model whose incidence translations are certified runs full A6 over the
pairs (0, l2); its graph of lines and its census carry the certificate, so
the enumeration, the intersection laws, the plane extraction and both
geometries work from vertex 0.  Patching the certificate to None forces the
all-vertex loops, which must give the same verdicts, histograms and first
witnesses: on the certified rungs, on the planes PG(2, q), on twisted_r39
(certified, yet failing A6 and the census) and on a census with a repeated
plane clique, which carries no certificate.  A census paired with a graph
or a model that holds another certificate takes those loops too.  The
oracles' graph-level check and census-closure scan confirm each
certificate attached, on those models and on invariant mutants.  Sampled
A6 on a certified model whose line-0 scan passes tests no draw.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter

import pytest

from oracles import (CAYLEY_LADDER, INVARIANT_MUTATIONS, at_vertex_0, census_closed, census_with,
                     fields, intersection_violations, invariant_mutant, ladder_model,
                     translation_group, twisted_r39, unreduced_cliques_through_0)
from prect._util import Translations, iter_bits
from prect.cli import main
from prect.cliques import (CliqueCensus, CliqueError, _cliques_through_0,
                           check_enumeration_bound, classify_census, clique_intersections,
                           enumerate_maximal_cliques, extract_plane, plane_extraction)
from prect.construct import build_l2k, build_plane, build_subplane_rect
from prect.export import model_from_dict, model_to_dict
from prect.geometry import build_plane_clique_structure, build_point_clique_geometry
from prect.incidence import IncidenceStructure, check_axioms
from prect.linegraph import LineGraph, build_line_graph

PLANES = {"PG(2,2)": lambda: build_plane(2, 1), "PG(2,3)": lambda: build_plane(3, 1),
          "PG(2,4)": lambda: build_plane(2, 2)}
MODELS = {**{name: lambda name=name: ladder_model(name) for name in CAYLEY_LADDER},
          **PLANES, "twisted R(3,9)": twisted_r39}


def _all_vertex(mp):
    mp.setattr(IncidenceStructure, "translations", property(lambda s: None))


def _facts(model, g, census):
    """Everything verify --profile full reads off the paths, and first witnesses."""
    axioms = check_axioms(model.structure, "full")
    inter = clique_intersections(census, g)
    return {"axioms": (axioms.verdicts, axioms.witnesses),
            "intersections": (inter.ok, inter.violations[:1]),
            "planes": plane_extraction(census, model),
            "point_geometry": fields(build_point_clique_geometry(census, model)),
            "plane_structure": fields(build_plane_clique_structure(census, model))}


@pytest.mark.parametrize("name", list(MODELS))
def test_orbit_paths_equal_the_all_vertex_paths(name, monkeypatch):
    model = MODELS[name]()
    g = build_line_graph(model)
    census = classify_census(g, model)
    group = model.structure.translations
    assert group is not None and g.translations is group and census.translations is group
    orbit = _facts(model, g, census)
    with monkeypatch.context() as mp:
        _all_vertex(mp)
        g_all = build_line_graph(model)
        census_all = classify_census(g_all, model)
        assert g_all.translations is None and census_all.translations is None
        assert g_all.rows == g.rows and fields(census_all) == fields(census)
        assert _facts(model, g_all, census_all) == orbit
    if name == "twisted R(3,9)":
        verdicts, witnesses = orbit["axioms"]
        assert [a for a, ok in verdicts.items() if not ok] == ["A6"]
        assert witnesses["A6"] == {"l1": 0, "l2": 1, "g1": 10, "g2": 18}
        assert not census.ok
    else:
        assert orbit["axioms"][0]["A6"] and orbit["planes"]
        assert orbit["intersections"][0] or census.trivial


def _mutant(name, kind, choose):
    """The model name with an invariant mutant (oracles.invariant_mutant) as its structure."""
    model = MODELS[name]()
    d = model_to_dict(model)
    d["structure"] = invariant_mutant(model.structure, kind, choose)[0].to_json_dict()
    return model_from_dict(d)


SOUNDNESS = {**MODELS, **{
    f"{name} {kind} {end}": lambda name=name, kind=kind, i=i: _mutant(name, kind,
                                                                      lambda opts: opts[i])
    for name in ("L_2^2", "R(3,9)", "PG(2,3)") for kind in INVARIANT_MUTATIONS
    for end, i in (("first", 0), ("last", -1))}}


@pytest.mark.parametrize("name", list(SOUNDNESS))
def test_the_incidence_certificate_certifies_the_graph_and_the_census(name):
    """Where the structure's translations are certified, the graph of lines
    is a Cayley graph under the same (p, d) by the bit-row check, and both
    clique classes are closed by the set scan; elsewhere neither carries a
    certificate."""
    model = SOUNDNESS[name]()
    group = model.structure.translations
    g = build_line_graph(model)
    census = classify_census(g, model)
    assert g.translations is group and census.translations is group
    if group is not None:
        oracle = translation_group(g)
        assert oracle is not None and (oracle.p, oracle.d) == (group.p, group.d)
        assert census_closed(census, "point_cliques") and census_closed(census, "plane_cliques")


@pytest.mark.parametrize("name", [name for name in SOUNDNESS if name not in MODELS])
def test_twin_quotient_cliques_of_the_invariant_mutants(name):
    """On the invariant mutants, certified unless their pencils collide, the
    cliques through vertex 0 found on the twin classes of N(0) are those of
    Bron-Kerbosch on the whole graph."""
    g = build_line_graph(SOUNDNESS[name]())
    assert _cliques_through_0(g) == unreduced_cliques_through_0(g)


@pytest.mark.parametrize("name", list(SOUNDNESS))
def test_a6_at_line_0_equals_the_all_pairs_path(name, monkeypatch):
    """at_line_0 holds line 0 and every line that shares a point with it, in
    line order, as a structure over the same points with masks that narrow.
    On a certified structure that passes A1, A6 scans the pairs (0, l2)
    there: the verdict, first witness and coverage of both profiles are
    those of the all-pairs path, and a passing scan's nu * weight / 2 (the
    proven space) is the all-pairs space."""
    s = SOUNDNESS[name]().structure
    lines, local = s.at_line_0
    assert lines == [j for j in range(s.n_lines) if j == 0 or set(s.lines[j]) & set(s.lines[0])]
    assert local.lines == [s.lines[j] for j in lines] and local.points == s.points
    assert local.special_point == s.special_point
    assert max(local.through).bit_length() == len(lines)
    assert local.ordinary_lines[0] == 0
    certified = s.translations is not None and check_axioms(s, "full").verdicts["A1"]
    assert certified or name not in MODELS
    reports = {mode: check_axioms(s, mode, a6_samples=500, seed=1) for mode in ("full", "sampled")}
    with monkeypatch.context() as mp:
        _all_vertex(mp)
        for mode, rep in reports.items():
            every = check_axioms(s, mode, a6_samples=500, seed=1)
            assert (every.verdicts, every.witnesses, every.a6_coverage) == \
                (rep.verdicts, rep.witnesses, rep.a6_coverage), mode
    if name == "twisted R(3,9)":
        assert reports["full"].witnesses["A6"] == {"l1": 0, "l2": 1, "g1": 10, "g2": 18}


@pytest.mark.parametrize("name", ["PG(2,2)", "PG(2,3)", "PG(2,4)", "PG(2,7)", "L_2^2", "L_2^3",
                                  "L_2^4", "R(3,9)", "twisted R(3,9)", "PG(2,3) add point"])
def test_enumeration_bound_refuses_a_complete_certified_graph(name, monkeypatch):
    """Between the two bounds a certified graph of lines is refused only when
    it is complete, as a plane's is (also with a point added to every
    ordinary line, which breaks A1 and keeps the certificate); the graph
    itself is the oracle.  A renumbered model is not certified and is
    refused."""
    if name == "PG(2,3) add point":
        model = _mutant("PG(2,3)", "add point", lambda opts: opts[0])
    else:
        model = {**MODELS, "PG(2,7)": lambda: ladder_model("PG(2,7)")}[name]()
    nu = model.num_ordinary_lines
    assert model.structure.translations is not None
    monkeypatch.setattr("prect.cliques.ENUMERATION_MAX_VERTICES", nu - 1)
    monkeypatch.setattr("prect.cliques.CAYLEY_MAX_VERTICES", nu)
    if build_line_graph(model).is_complete():
        assert name.startswith("PG")
        with pytest.raises(CliqueError, match=f"limited to {nu - 1} vertices"):
            check_enumeration_bound(model)
    else:
        check_enumeration_bound(model)
    if nu > 5:  # PG(2,2) has four ordinary lines
        d = model_to_dict(model)
        d["structure"] = _renumbered(model).to_json_dict()
        with pytest.raises(CliqueError, match=f"limited to {nu - 1} vertices"):
            check_enumeration_bound(model_from_dict(d))


def test_repeated_plane_clique_takes_the_all_vertex_path(census_l23, l23, g_l23, monkeypatch):
    planes = census_l23.plane_cliques
    census = census_with(census_l23, plane_cliques=planes + [planes[-1]])
    assert census_l23.translations is not None and census.translations is None
    facts = _facts(l23, g_l23, census)
    assert not facts["intersections"][0] and not facts["planes"]
    assert not build_plane_clique_structure(census, l23).ok
    with monkeypatch.context() as mp:
        _all_vertex(mp)
        assert _facts(l23, g_l23, census) == facts


def test_a_census_under_another_certificate_takes_the_all_vertex_path(census_l23, l23, g_l23,
                                                                       monkeypatch):
    """A census stands for its orbit only under the very certificate it
    carries.  Paired with the graph or the model of an equal L_2^3 that
    holds its own, the intersection laws read every row (a non-edge covered
    by a clique is found at (u, v) = (1, v) only there), every plane is
    extracted, and both geometries are measured at every Point, so they
    refuse past a lowered bound."""
    other = build_l2k(3)
    g_other = build_line_graph(other)
    assert census_l23.certified_by(g_l23.translations)
    assert census_l23.certified_by(l23.structure.translations)
    assert not census_l23.certified_by(g_other.translations)
    assert not census_l23.certified_by(other.structure.translations)
    assert g_other.rows == g_l23.rows

    v = next(w for w in iter_bits(g_l23.rows[1]) if w > 1)
    rows = list(g_l23.rows)
    rows[1] ^= 1 << v
    rows[v] ^= 1 << 1
    assert clique_intersections(census_l23, LineGraph(rows, g_l23.translations)).ok
    inter = clique_intersections(census_l23, LineGraph(rows, g_other.translations))
    assert inter.violations == [("cover-of-nonedge", 1, v, 0)]

    seen = []

    def spy(clique, model):
        seen.append(clique)
        return extract_plane(clique, model)

    monkeypatch.setattr("prect.cliques.extract_plane", spy)
    assert plane_extraction(census_l23, other)
    assert seen == census_l23.plane_cliques

    for build in (build_point_clique_geometry, build_plane_clique_structure):
        assert fields(build(census_l23, other)) == fields(build(census_l23, l23))
    monkeypatch.setattr("prect.geometry.ENUMERATION_MAX_VERTICES", 32)
    for build in (build_point_clique_geometry, build_plane_clique_structure):
        assert build(census_l23, l23).ok
        with pytest.raises(CliqueError, match="limited to 32 Points"):
            build(census_l23, other)


def test_all_point_geometry_keeps_the_enumeration_bound(census_l23, l23, monkeypatch):
    """Only a census that carries the certificate is measured past the
    bound; a replaced census carries none, so both its geometries refuse."""
    planes = census_l23.plane_cliques
    census = census_with(census_l23, plane_cliques=planes + [planes[-1]])
    monkeypatch.setattr("prect.geometry.ENUMERATION_MAX_VERTICES", 32)
    assert build_point_clique_geometry(census_l23, l23).ok
    for build in (build_point_clique_geometry, build_plane_clique_structure):
        with pytest.raises(CliqueError, match="limited to 32 Points"):
            build(census, l23)


def test_plane_extraction_reads_the_planes_through_vertex_0(l23, census_l23, monkeypatch):
    """Only the planes through vertex 0 are extracted on a certified model."""
    seen = []

    def spy(clique, model):
        seen.append(clique)
        return extract_plane(clique, model)

    monkeypatch.setattr("prect.cliques.extract_plane", spy)
    assert plane_extraction(census_l23, l23)
    assert seen and all(0 in vs for vs in seen)
    assert len(seen) == (l23.n - 1) // (l23.m - 1)


def _renumbered(model):
    """The model with ordinary lines 0 and 5 swapped."""
    d = model_to_dict(model)
    lines = d["structure"]["lines"]
    lines[0], lines[5] = lines[5], lines[0]
    return IncidenceStructure(d["structure"]["points"], [
        [d["structure"]["points"].index(p) for p in ln] for ln in lines],
        d["structure"]["points"].index(d["structure"]["special_point"]))


def _special_lines_traded(model):
    """The model with the first points of special lines 0 and 1 traded."""
    s = model.structure
    a, b = s.special_lines[:2]
    pa, pb = s.lines[a][1], s.lines[b][1]
    lines = [list(ln) for ln in s.lines]
    lines[a][1], lines[b][1] = pb, pa
    return IncidenceStructure(s.points, lines, s.special_point)


@pytest.mark.parametrize("name", ["L_2^2", "L_2^3", "R(3,9)", "R(4,16)"])
def test_incidence_certificate_rejects_renumbered_and_traded_models(name):
    model = ladder_model(name)
    assert model.structure.translations is not None
    renumbered, traded = _renumbered(model), _special_lines_traded(model)
    assert renumbered.translations is None and traded.translations is None
    assert check_axioms(renumbered, "full").ok
    assert not check_axioms(traded, "full").verdicts["A5"]


class _Drawn(Exception):
    pass


def _no_unranking(rank, mask):
    raise _Drawn


@pytest.mark.parametrize("name", ["L_2^4", "R(3,9)", "R(4,16)", "PG(2,7)"])
def test_sampled_a6_on_a_certified_model_tests_no_draw(name, monkeypatch):
    """After the line-0 scan passes, sampled A6 makes no draw; the
    renumbered model is not certified and tests each draw."""
    monkeypatch.setattr("prect.incidence._unrank_bits", _no_unranking)
    model = ladder_model(name)
    rep = check_axioms(model.structure, "sampled", a6_samples=3000, seed=5)
    assert rep.ok and rep.a6_coverage["drawn"] == 3000 and not rep.a6_coverage["exhaustive"]
    with pytest.raises(_Drawn):
        check_axioms(_renumbered(model), "sampled", a6_samples=3000, seed=5)


def test_sampled_a6_tests_each_draw_when_the_scan_proves_nothing(monkeypatch):
    """twisted R(3,9) fails its line-0 scan; PG(2,3) with a point added to
    every ordinary line is certified and passes the scan, but breaks A1.
    The latter's space is 189 quadruples, so 100 samples are drawn, not
    enumerated."""
    monkeypatch.setattr("prect.incidence._unrank_bits", _no_unranking)
    thick, _ = invariant_mutant(build_plane(3, 1).structure, "add point", lambda opts: opts[0])
    assert thick.translations is not None and not check_axioms(thick, "full").verdicts["A1"]
    for s in (twisted_r39().structure, thick):
        with pytest.raises(_Drawn):
            check_axioms(s, "sampled", a6_samples=100, seed=5)


def test_planes_are_certified_and_no_ordinary_lines_is_not():
    assert build_l2k(1).structure.translations is not None  # the Fano plane, nu = 4
    assert build_subplane_rect(3, 1, 1).structure.translations is not None
    empty = IncidenceStructure(range(3), [(0, 1, 2)], 0)
    assert empty.translations is None  # no ordinary lines


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", ["L_2^3", "R(3,9)", "PG(2,3)", "twisted R(3,9)"])
def test_cli_verify_full_is_the_same_on_both_paths(name, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_dict(MODELS[name]()), sort_keys=True))
    for command in (("verify", str(path), "--profile", "full"), ("cliques", str(path)),
                    ("geometry", str(path))):
        orbit = _cli(*command)
        with monkeypatch.context() as mp:
            _all_vertex(mp)
            assert _cli(*command) == orbit, command
        assert orbit[0] == (1 if name == "twisted R(3,9)" else 0), command


def _renumbered_model(name):
    """The ladder model name with ordinary lines 0 and 5 swapped: no certificate."""
    model = ladder_model(name)
    d = model_to_dict(model)
    d["structure"] = _renumbered(model).to_json_dict()
    return model_from_dict(d)


KINDS = ("point_cliques", "plane_cliques", "anomalous")
DIFFERENTIAL = {**{name: SOUNDNESS[name] for name in SOUNDNESS
                   if name not in CAYLEY_LADDER or ladder_model(name).num_ordinary_lines <= 1024},
                **{f"{name} renumbered": lambda name=name: _renumbered_model(name)
                   for name in ("L_2^3", "R(3,9)", "R(4,16)", "PG(2,7)")}}


def _census_facts(model, g, census):
    """The census as verify, cliques and geometry read it, and the clique
    intersection laws, plane extraction and both geometries off it."""
    inter = clique_intersections(census, g)
    return {"ok": census.ok, "counts": [census.count(kind) for kind in KINDS],
            "mismatches": census.mismatches(), "census": fields(census),
            "intersections": (inter.ok, inter.violations[:1]),
            "planes": plane_extraction(census, model),
            "point_geometry": fields(build_point_clique_geometry(census, model)),
            "plane_structure": fields(build_plane_clique_structure(census, model))}


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
def test_orbit_census_equals_the_census_of_every_clique(name):
    """The census classify_census enumerates keeps, on a certified model,
    only the cliques through vertex 0; the census of every enumerated
    clique, supplied by the caller, keeps them all and takes the all-vertex
    paths.  Both must say the same, and the counts must be the lengths of
    the lists."""
    model = DIFFERENTIAL[name]()
    g = build_line_graph(model)
    census = classify_census(g, model)
    supplied = classify_census(g, model, enumerate_maximal_cliques(g))
    assert supplied.translations is None
    assert (census.translations is not None) == (model.structure.translations is not None)
    if census.translations is not None:
        assert all(0 in clique for kind in KINDS for clique in census.kept[kind])
    facts = _census_facts(model, g, census)
    assert facts == _census_facts(model, g, supplied)
    assert facts["counts"] == [len(getattr(supplied, kind)) for kind in KINDS]


def test_verify_full_builds_no_list_of_translates(tmp_path, monkeypatch):
    """verify --profile full and geometry on L_2^4 read the kept cliques
    only; cliques writes every clique, so it builds the list."""
    path = tmp_path / "l24.json"
    path.write_text(json.dumps(model_to_dict(ladder_model("L_2^4")), sort_keys=True))

    def refuse(cliques, group):
        raise AssertionError("the list of every clique was built")

    monkeypatch.setattr("prect.cliques._all_translates", refuse)
    code, out, _ = _cli("verify", str(path), "--profile", "full")
    assert code == 0 and json.loads(out)["details"]["census_counts"]["plane_cliques"] == 960
    assert _cli("geometry", str(path))[0] == 0
    with pytest.raises(AssertionError, match="was built"):
        _cli("cliques", str(path))


def _laws_match_the_oracle(census, g):
    """clique_intersections against the brute-force oracle: the same verdict;
    on the all-vertex path every violating pair exactly once, and on the
    orbit path the count violations and the pairs at vertex 0."""
    rep, oracle = clique_intersections(census, g), intersection_violations(census, g)
    assert rep.ok == (not oracle)
    if census.certified_by(g.translations):
        oracle = [v for v in oracle if v[0].endswith("-count") or at_vertex_0(v)]
    assert Counter(rep.violations) == Counter(oracle)
    return rep


LAWS = {**{name: MODELS[name] for name in CAYLEY_LADDER
           if ladder_model(name).num_ordinary_lines <= 1024},
        "twisted R(3,9)": twisted_r39,
        **{f"{name} {kind} {end}": lambda name=name, kind=kind, i=i: _mutant(name, kind,
                                                                           lambda opts: opts[i])
           for name in ("L_2^3", "R(3,9)", "R(4,16)") for kind in INVARIANT_MUTATIONS
           for end, i in (("first", 0), ("last", -1))}}


@pytest.mark.parametrize("name", list(LAWS))
def test_intersection_laws_equal_the_brute_force_oracle(name):
    """On the census classify_census makes, certified where the model is,
    and on the census of every enumerated clique, which takes the
    all-vertex path."""
    model = LAWS[name]()
    g = build_line_graph(model)
    certified = classify_census(g, model)
    assert certified.certified_by(g.translations) == (model.structure.translations is not None)
    for census in (certified, classify_census(g, model, enumerate_maximal_cliques(g))):
        rep = _laws_match_the_oracle(census, g)
        assert rep.ok or name not in CAYLEY_LADDER


def test_intersection_laws_of_doubled_cliques_equal_the_oracle(census_l23, g_l23):
    points, planes = census_l23.point_cliques, census_l23.plane_cliques
    doubled = census_with(census_l23, point_cliques=points + [points[3]],
                          plane_cliques=planes + [planes[5]])
    rep = _laws_match_the_oracle(doubled, g_l23)
    assert {v[0] for v in rep.violations} == {"point-clique-count", "plane-clique-count",
                                              "edge-point-cover", "edge-plane-cover"}


def test_plane_point_violations_are_those_of_the_planes_through_vertex_0(census_l23, g_l23):
    """A census whose point class is L_2^3's plane class, closed under the
    translations: a plane shares 1 or 4 vertices with each such "point
    clique" it meets, never m = 2.  From the kept cliques, the orbit path
    lists the oracle's pairs whose two cliques both hold vertex 0; the
    all-vertex path lists every violating pair once; both give the same
    verdict and first violation."""
    planes, m, n, nu = census_l23.kept["plane_cliques"], census_l23.m, census_l23.n, census_l23.nu
    orbit = CliqueCensus(planes, planes, [], m, n, nu, census_l23.translations)
    every = CliqueCensus(orbit.plane_cliques, orbit.plane_cliques, [], m, n, nu)
    assert orbit.certified_by(g_l23.translations) and every.translations is None
    rep, ref = _laws_match_the_oracle(orbit, g_l23), _laws_match_the_oracle(every, g_l23)
    assert (rep.ok, rep.violations[:1]) == (ref.ok, ref.violations[:1])
    found = [v for v in rep.violations if v[0] == "plane-point"]
    assert found and all(k in (1, 4) for *_, k in found)
    assert all(0 in plane and 0 in pc for _, plane, pc, _ in found)


def _refuse(*args):
    raise AssertionError("a clique or a vertex was translated")


@pytest.mark.parametrize("name", ["L_2^4", "R(4,16)"])
def test_orbit_intersection_laws_translate_nothing(name, monkeypatch):
    """On a certified census the laws are checked at vertex 0 from the kept
    cliques as they are."""
    model = ladder_model(name)
    g = build_line_graph(model)
    census = classify_census(g, model)
    assert census.certified_by(g.translations)
    for attr in ("translate", "negate", "translates"):
        monkeypatch.setattr(Translations, attr, _refuse)
    assert clique_intersections(census, g).ok


def test_only_the_models_own_certificate_makes_an_orbit_census(census_l23, l23):
    """The graph of an equal L_2^3 holds its own certificate, not l23's:
    its census keeps every clique, and carries no translations."""
    other = build_l2k(3)
    census = classify_census(build_line_graph(other), l23)
    assert census.translations is None and census.kept["plane_cliques"] == census_l23.plane_cliques
