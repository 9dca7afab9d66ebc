"""The two builders: line tables, coordinates, and the common-point formula."""

from __future__ import annotations

import pytest

from prect.construct import (BuildError, build_l2k, build_plane, build_subplane_rect,
                             common_point, on_line)
from prect.incidence import check_axioms, find_isomorphism, order_of

# The sixteen ordinary lines of the narrow rectangle with k = 2, with group
# elements indexed 0..3 (identity first).  Line u*4+v is {a_u, b_{u^v}, c_v}.
L22_LINE_TABLE = [
    ("a0", "b0", "c0"), ("a0", "b1", "c1"), ("a0", "b2", "c2"), ("a0", "b3", "c3"),
    ("a1", "b1", "c0"), ("a1", "b0", "c1"), ("a1", "b3", "c2"), ("a1", "b2", "c3"),
    ("a2", "b2", "c0"), ("a2", "b3", "c1"), ("a2", "b0", "c2"), ("a2", "b1", "c3"),
    ("a3", "b3", "c0"), ("a3", "b2", "c1"), ("a3", "b1", "c2"), ("a3", "b0", "c3"),
]


def test_l22_line_table(l22):
    s = l22.structure
    got = [tuple(sorted(s.points[p] for p in s.lines[i])) for i in range(16)]
    assert got == [tuple(sorted(t)) for t in L22_LINE_TABLE]


def test_l2k_orders_and_bounds():
    assert order_of(build_l2k(1).structure) == (2, 2)
    assert order_of(build_l2k(3).structure) == (2, 8)
    assert build_l2k(3).num_ordinary_lines == 64
    with pytest.raises(BuildError):
        build_l2k(0)
    with pytest.raises(BuildError):
        build_l2k(7)


def test_l21_is_the_fano_plane(pp2):
    m21 = build_l2k(1)
    assert find_isomorphism(m21.structure, pp2.structure) is not None


def test_subplane_r24_isomorphic_to_l22(l22, r24):
    pm = find_isomorphism(l22.structure, r24.structure)
    assert pm is not None
    # spot-check: the map really carries lines to lines
    lineset = set(r24.structure.lines)
    for ln in l22.structure.lines:
        assert tuple(sorted(pm[p] for p in ln)) in lineset


def test_subplane_orders(r39, r416):
    assert order_of(r39.structure) == (3, 9)
    assert r39.num_ordinary_lines == 81
    assert order_of(r416.structure) == (4, 16)
    assert r416.num_ordinary_lines == 256


def test_plane_family_is_trivial(pp2):
    assert pp2.trivial and pp2.family == "plane"
    assert build_plane(3, 1).trivial


def test_subplane_bound():
    with pytest.raises(BuildError):
        build_subplane_rect(2, 1, 9)


def test_incidence_matches_line_equation(r24):
    # every stored incidence satisfies a*x + b*y + c*z = 0, and conversely
    s = r24.structure
    for li in range(r24.num_ordinary_lines):
        lc = r24.line_coeffs[li]
        members = set(s.lines[li])
        for pi, pt in enumerate(r24.point_coords):
            assert (pi in members) == on_line(r24.ctx, lc, pt)
    for pos, si in enumerate(s.special_lines):
        lc = r24.special_coeffs[pos]
        members = set(s.lines[si])
        for pi, pt in enumerate(r24.point_coords):
            assert (pi in members) == on_line(r24.ctx, lc, pt)


@pytest.mark.parametrize("p,e,k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3),
                                   (7, 1, 1), (5, 1, 2), (3, 1, 3)])
def test_ordinary_lines_match_brute_force_incidence(p, e, k):
    # the builder places each line's points in closed form; test every point
    # against every line equation instead
    model = build_subplane_rect(p, e, k)
    npts = len(model.point_coords)
    expected = [tuple(i for i in range(npts) if on_line(model.ctx, lc, model.point_coords[i]))
                for lc in model.line_coeffs]
    assert model.structure.lines[:model.num_ordinary_lines] == expected


def test_common_point_spec_example(r24):
    # <1,1,1> meets <w,1,1> at [0,1,1], which lies on s_0
    n = 4
    l1 = 1 * n + 1
    l2 = 2 * n + 1
    cp = common_point(l1, l2, r24)
    assert cp is not None
    assert cp.point == (0, 1, 1)
    assert cp.special_label == "s_0"


def test_common_point_equal_a_goes_to_s_inf(r24):
    # <a,b,1> and <a,b',1> share the point with y = 0 on s_inf
    l1 = 1 * 4 + 0
    l2 = 1 * 4 + 3
    cp = common_point(l1, l2, r24)
    assert cp is not None
    assert cp.point[1] == 0
    assert cp.special_label == "s_inf"


def test_common_point_none_when_ratio_outside_subfield(r39):
    # a2-a1 = g * (b2-b1) with g not in GF(3): no common point in the model
    n = 9
    l1 = 0
    l2 = 3 * n + 1   # a2-a1 = g (code 3), b2-b1 = 1
    assert common_point(l1, l2, r39) is None
    assert not (set(r39.structure.lines[l1]) & set(r39.structure.lines[l2]))


def test_common_point_agrees_with_stored_sets_exhaustively(r24, r39):
    for model in (r24, r39):
        s = model.structure
        nu = model.num_ordinary_lines
        for l1 in range(nu):
            pts1 = set(s.lines[l1])
            for l2 in range(l1 + 1, nu):
                cp = common_point(l1, l2, model)
                stored = pts1 & set(s.lines[l2])
                if cp is None:
                    assert not stored
                else:
                    assert stored == {cp.point_index}


def test_common_point_special_line_classification(r39):
    """The special line holding the common point follows the coefficient ratio.

    With s_beta the line x + beta*y = 0: equal b's meet on s_0, equal a's on
    s_inf, otherwise the point lies on s_beta for beta = (b2-b1)/(a2-a1)
    whenever that ratio is in GF(q).
    """
    ctx = r39.ctx
    q, n = r39.q, r39.n
    sub = set(ctx.subfield_codes(q))
    for l1 in range(r39.num_ordinary_lines):
        a1, b1 = divmod(l1, n)
        for l2 in range(l1 + 1, r39.num_ordinary_lines):
            a2, b2 = divmod(l2, n)
            cp = common_point(l1, l2, r39)
            da = ctx.sub_codes(a2, a1)
            db = ctx.sub_codes(b2, b1)
            if da == 0:
                expected = "s_inf"
            else:
                beta = ctx.mul_codes(db, ctx.inv_code(da))
                expected = f"s_{beta}" if beta in sub else None
            assert (cp.special_label if cp else None) == expected


def test_common_point_rejects_bad_input(l22, r24):
    with pytest.raises(BuildError):
        common_point(0, 0, r24)
    with pytest.raises(BuildError):
        common_point(0, 99, r24)
    with pytest.raises(BuildError):
        common_point(0, 1, l22)  # combinatorial model has no coordinates


def test_alt_labels_only_for_q2(r24, r39):
    alt = r24.alt_special_labels()
    assert alt is not None and set(alt) == {"s_0", "s_1", "s_inf"}
    # the alternate labeling swaps which of <1,1,0> and <0,1,0> is called s_1
    assert alt != r24.special_labels
    assert r39.alt_special_labels() is None


def test_subplane_axioms_r416_sampled(r416):
    rep = check_axioms(r416.structure, "sampled", a6_samples=20000, seed=0)
    assert rep.ok
