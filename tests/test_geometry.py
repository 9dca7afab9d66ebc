"""Partial geometry from point cliques; t distribution from plane cliques."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from prect.cliques import classify_census
from prect.geometry import (_measure, build_plane_clique_structure,
                            build_point_clique_geometry)


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


def test_two_points_at_most_one_line(census_l23, l23):
    pt = build_point_clique_geometry(census_l23, l23)
    pl = build_plane_clique_structure(census_l23, l23)
    assert pt.checks["two_points_one_line"] == (True, True)
    assert pl.checks["two_points_one_line"] == (True, True)


def _brute_force_measure(lines, nu):
    """The per-pair oracle: t counted Line by Line for every non-incident pair."""
    masks = [sum(1 << v for v in ln) for ln in lines]
    on = [[] for _ in range(nu)]
    for i, ln in enumerate(lines):
        for v in ln:
            on[v].append(i)
    hist = {}
    for p0 in range(nu):
        pbit = 1 << p0
        mine = on[p0]
        for j, mask in enumerate(masks):
            if mask & pbit:
                continue
            t = sum(1 for i in mine if masks[i] & mask)
            hist[t] = hist.get(t, 0) + 1
    pair_ok = True
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).bit_count() > 1:
                pair_ok = False
    return hist, pair_ok


def _check_against_oracle(lines, through, closed=True):
    """_measure on the census masks against the oracle on the vertex tuples,
    at every Point and, for a class closed under the translations, at Point 0
    scaled by the number of Points."""
    nu = len(through)
    ref_hist, ref_pair_ok = _brute_force_measure(lines, nu)
    hist, pair_ok = _measure(lines, through, range(nu))
    assert list(hist.items()) == sorted(ref_hist.items())
    assert pair_ok == ref_pair_ok
    if closed:
        hist, pair_ok = _measure(lines, through, [0])
        assert [(t, nu * c) for t, c in hist.items()] == sorted(ref_hist.items())
        assert pair_ok == ref_pair_ok
    return pair_ok


def test_measure_matches_brute_force(census_l23, census_r39):
    for census in (census_l23, census_r39):
        assert census.nu == census.n * census.n
        for fam, through in ((census.point_cliques, census.point_of),
                             (census.plane_cliques, census.plane_of)):
            assert _check_against_oracle(fam, through)


def test_measure_duplicated_plane_clique(census_l23, l23):
    planes = census_l23.plane_cliques
    doubled = replace(census_l23, plane_cliques=planes + [planes[5]])
    assert not _check_against_oracle(doubled.plane_cliques, doubled.plane_of, closed=False)
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
    _check_against_oracle(lines, through, closed=False)
