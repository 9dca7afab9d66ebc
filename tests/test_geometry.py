"""Partial geometry from point cliques; t distribution from plane cliques."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (CAYLEY_LADDER, INVARIANT_MUTATIONS, census_with, digit_sum,
                     invariant_mutant, ladder_model, t_histogram)
from prect._util import Translations
from prect.cliques import (CliqueCensus, CliqueError, classify_census,
                           enumerate_maximal_cliques)
from prect.construct import build_l2k, build_plane, build_subplane_rect
from prect.export import model_from_dict, model_to_dict
from prect.geometry import (_measure, _measure_at_0, build_plane_clique_structure,
                            build_point_clique_geometry)
from prect.linegraph import build_line_graph


def transversal_double_count(census, g, report) -> bool:
    """Sum of t over non-incident pairs equals the flag-based double count.

    Each (P0, L0, L) with L on P0 meeting L0 and P0 not on L0 is counted
    once through t and once by walking Lines L and their crossing Lines.
    """
    lines = census.point_cliques
    masks = [sum(1 << v for v in ln) for ln in lines]
    total_t = sum(t * c for t, c in report.t_histogram.items())
    other = 0
    for i, li in enumerate(masks):
        for j, lj in enumerate(masks):
            if i == j or not (li & lj):
                continue
            # points of line i that are not on line j
            other += (li & ~lj).bit_count()
    return total_t == other


def test_point_clique_geometry_l22(census_l22, l22, g_l22):
    rep = build_point_clique_geometry(census_l22, l22)
    assert rep.ok, rep.mismatches()
    assert rep.is_partial_geometry
    assert rep.pg_label == "pg(3,4,2)"
    assert rep.constant_t == 2
    assert rep.points_per_line == {4} and rep.lines_per_point == {3}
    assert rep.num_points == 16
    assert transversal_double_count(census_l22, g_l22, rep)


def test_point_clique_geometry_r39(census_r39, r39, g_r39):
    rep = build_point_clique_geometry(census_r39, r39)
    assert rep.ok
    assert rep.pg_label == "pg(4,9,3)"
    assert rep.constant_t == 3
    assert transversal_double_count(census_r39, g_r39, rep)


def test_point_clique_line_count_formula(census_l22, l22):
    # measured Line count is the number of ordinary points, (m+1)n, not mn
    rep = build_point_clique_geometry(census_l22, l22)
    assert rep.num_lines == 12
    assert rep.line_count_matches == "(m+1)n"


def test_plane_clique_structure_l22(census_l22, l22):
    """At the minimum n = m^2 there are no disjoint line/plane pairs.

    Disjoint pairs per plane number (n-m)(n-m^2), so for L_2^2 every
    non-incident pair measures t = m and the t = 0 case never occurs.
    """
    rep = build_plane_clique_structure(census_l22, l22)
    assert rep.ok, rep.mismatches()
    assert set(rep.t_histogram) == {2}
    assert rep.checks["disjoint_pair_count"] == (0, 0)


def test_plane_clique_structure_r39(census_r39, r39):
    rep = build_plane_clique_structure(census_r39, r39)
    assert rep.ok
    assert set(rep.t_histogram) == {3}          # n = m^2 again
    assert rep.checks["disjoint_pair_count"] == (0, 0)


def test_plane_clique_structure_l23_both_values(census_l23, l23):
    """With n > m^2 both t values occur and the structure is not a pg."""
    rep = build_plane_clique_structure(census_l23, l23)
    assert rep.ok, rep.mismatches()
    assert set(rep.t_histogram) == {0, 2}
    assert not rep.is_partial_geometry
    # (n-m)(n-m^2) = 6*4 = 24 disjoint lines per plane, 112 planes
    assert rep.t_histogram[0] == 24 * 112
    assert rep.checks["disjoint_pair_count"] == (2688, 2688)


def test_plane_clique_structure_trivial_degenerate(pp2, g_pp2):
    census = classify_census(g_pp2, pp2)
    rep = build_plane_clique_structure(census, pp2)
    assert rep.degenerate and rep.t_histogram == {}
    assert census.trivial and rep.constant_t is None and not rep.is_partial_geometry


def test_constant_t_is_read_off_the_histogram(census_l23, l23):
    """One t value is constant_t; the two of a plane structure with n > m^2
    leave it None, and so no partial geometry."""
    pt = build_point_clique_geometry(census_l23, l23)
    pl = build_plane_clique_structure(census_l23, l23)
    assert not census_l23.trivial
    assert list(pt.t_histogram) == [pt.constant_t] == [2] and pt.is_partial_geometry
    assert list(pl.t_histogram) == [0, 2] and pl.constant_t is None
    assert not pl.is_partial_geometry


def test_two_points_at_most_one_line(census_l23, l23):
    pt = build_point_clique_geometry(census_l23, l23)
    pl = build_plane_clique_structure(census_l23, l23)
    assert pt.checks["two_points_one_line"] == (True, True)
    assert pl.checks["two_points_one_line"] == (True, True)


def _check_against_oracle(lines, through):
    """_measure on the census masks against the oracle on the vertex tuples,
    at every Point."""
    nu = len(through)
    ref_hist, ref_pair_ok = t_histogram(lines, nu)
    hist, pair_ok = _measure(lines, through)
    assert hist == ref_hist and list(hist) == sorted(hist)
    assert pair_ok == ref_pair_ok
    return pair_ok


def test_measure_matches_brute_force(census_l23, census_r39):
    """At every Point, and, for a census that carries its translations, at
    Point 0 from the kept Lines, scaled by the number of Points."""
    for census in (census_l23, census_r39):
        assert census.nu == census.n * census.n and census.translations is not None
        for kind, through in (("point_cliques", census.point_of),
                              ("plane_cliques", census.plane_of)):
            lines = getattr(census, kind)
            assert _check_against_oracle(lines, through)
            ref_hist, _ = t_histogram(lines, census.nu)
            assert _measure_at_0(census.kept[kind], census.translations, len(lines)) == ref_hist


def test_measure_duplicated_plane_clique(census_l23, l23):
    planes = census_l23.plane_cliques
    doubled = census_with(census_l23, plane_cliques=planes + [planes[5]])
    assert not _check_against_oracle(doubled.plane_cliques, doubled.plane_of)
    rep = build_plane_clique_structure(doubled, l23)
    assert rep.checks["two_points_one_line"] == (True, False)
    assert not rep.ok


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 12).flatmap(lambda nu: st.tuples(
    st.just(nu), st.lists(st.sets(st.integers(0, nu - 1), min_size=1), max_size=20))))
def test_measure_matches_brute_force_on_any_lines(family):
    """Any family of Lines, repeated ones and t up to 20 included, measured at every Point."""
    nu, sets = family
    lines = [tuple(sorted(vs)) for vs in sets]
    through = [sum(1 << i for i, ln in enumerate(lines) if p in ln) for p in range(nu)]
    _check_against_oracle(lines, through)


def _geometry_models():
    """Built models with at most 256 ordinary lines, and the invariant
    mutants of L_2^2, R(3,9) and PG(2,3), their first and last choice."""
    models = {name: ladder_model(name) for name in CAYLEY_LADDER
              if ladder_model(name).num_ordinary_lines <= 256}
    models["PG(2,3)"] = build_plane(3, 1)
    for name, base in (("L_2^2", build_l2k(2)), ("R(3,9)", build_subplane_rect(3, 1, 2)),
                       ("PG(2,3)", build_plane(3, 1))):
        for kind in INVARIANT_MUTATIONS:
            for end, i in (("first", 0), ("last", -1)):
                d = model_to_dict(base)
                d["structure"] = invariant_mutant(base.structure, kind,
                                                  lambda opts, i=i: opts[i])[0].to_json_dict()
                models[f"{name} {kind} {end}"] = model_from_dict(d)
    return models


GEOMETRY_MODELS = _geometry_models()


@pytest.mark.parametrize("name", list(GEOMETRY_MODELS))
def test_both_geometries_match_the_pair_by_pair_oracle(name):
    """Each geometry report, from the census that keeps the cliques through
    vertex 0 and from the census of every clique, gives the t histogram and
    the two-Points verdict of oracles.t_histogram, and the Line count and
    sizes of the Lines listed."""
    model = GEOMETRY_MODELS[name]
    g = build_line_graph(model)
    censuses = [classify_census(g, model)]
    censuses.append(classify_census(g, model, enumerate_maximal_cliques(g)))
    assert (censuses[0].translations is None) == (model.structure.translations is None)
    for kind, build in (("point_cliques", build_point_clique_geometry),
                        ("plane_cliques", build_plane_clique_structure)):
        lines = getattr(censuses[1], kind)
        hist, pair_ok = t_histogram(lines, g.nu)
        per_point = {sum(1 for ln in lines if p in ln) for p in range(g.nu)}
        for census in censuses:
            rep = build(census, model)
            assert rep.t_histogram == hist, (kind, census.translations)
            if not (census.trivial and kind == "point_cliques"):  # which checks the count only
                assert rep.checks["two_points_one_line"] == (True, pair_ok)
            assert (rep.num_lines, rep.points_per_line, rep.lines_per_point) == \
                (len(lines), {len(ln) for ln in lines}, per_point)


def _translates(bases, group):
    """Every distinct translate of the base sets under group, by digit addition, sorted."""
    p, d = group.p, group.d
    return sorted({tuple(sorted(digit_sum(x, t, p, d) for x in b)) for b in bases
                   for t in range(group.nu)})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (2, 4)]).flatmap(
    lambda pd: st.tuples(st.just(pd), st.lists(st.sets(st.integers(0, pd[0] ** pd[1] - 1),
                                                       min_size=1), min_size=1, max_size=4))))
def test_measure_at_0_matches_brute_force_on_closed_families(family):
    """Every distinct translate of a few base sets is a family of Lines the
    translations map onto itself, Lines sharing two Points included.  At
    Point 0, from its Lines through 0, the histogram is None exactly where
    the oracle's two-Points verdict over every Point fails, and the
    oracle's histogram everywhere else."""
    (p, d), bases = family
    group = Translations(p, d)
    lines = _translates(bases, group)
    hist = _measure_at_0([ln for ln in lines if 0 in ln], group, len(lines))
    ref_hist, pair_ok = t_histogram(lines, group.nu)
    assert hist == (ref_hist if pair_ok else None)


def _closed_census(group, m, n, point_bases, plane_bases, certified=True):
    """The census whose classes are every distinct translate of their base
    sets under group, keeping those through vertex 0 when certified, and
    every one otherwise."""
    classes = [_translates(point_bases, group), _translates(plane_bases, group)]
    if certified:
        classes = [[c for c in cl if 0 in c] for cl in classes]
    return CliqueCensus(*classes, [], m, n, group.nu, group if certified else None)


def test_census_whose_lines_share_two_points_takes_the_all_vertex_path():
    """A certified census whose Lines share a second Point (here a point
    class of four-Point Lines with a two-Point Line among them, and a plane
    class of three-Point Lines that meet in two) is measured at every
    Point: both reports equal those of the same cliques listed in full, and
    carry the failing two-Points verdict.  Past the all-vertex bound the
    census is refused with a CliqueError that does not say it is
    uncertified."""
    group = Translations(2, 4)
    model = SimpleNamespace(structure=SimpleNamespace(translations=group))
    points, planes = [(0, 1, 2, 3), (0, 4, 8, 12), (0, 5, 10, 15), (0, 1)], [(0, 1, 2), (0, 1, 6)]
    census = _closed_census(group, 2, 4, points, planes)
    full = _closed_census(group, 2, 4, points, planes, certified=False)
    assert census.certified_by(group) and _measure_at_0(census.kept["plane_cliques"], group,
                                                        census.count("plane_cliques")) is None
    for build in (build_point_clique_geometry, build_plane_clique_structure):
        rep, ref = build(census, model), build(full, model)
        assert vars(rep) == vars(ref)
        assert rep.checks["two_points_one_line"] == (True, False) and not rep.ok
    big = Translations(2, 11)
    census = _closed_census(big, 2, 4, [(0, 1, 2)], [(0, 1, 2), (0, 1, 4)])
    model = SimpleNamespace(structure=SimpleNamespace(translations=big))
    for build in (build_point_clique_geometry, build_plane_clique_structure):
        with pytest.raises(CliqueError) as err:
            build(census, model)
        assert "1024 Points" in str(err.value) and "certificate" not in str(err.value)
