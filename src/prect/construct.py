"""Builders for the two families of (pseudo-)projective rectangles.

build_l2k makes the narrow family of order (2, 2^k) from group data: ground
set A, B, C plus D, with ordinary lines {a_g, b_{g+h}, c_h} over the group
(Z_2)^k.  build_subplane_rect makes the order-(q, q^k) structure inside the
projective plane over GF(q^k): special lines are the lines through
D = [0,0,1] meeting the GF(q)-subplane, ordinary lines are the restrictions
of the plane's lines <a,b,1> to the union of the special lines.  A model's
family is read off that data: coordinates make it a plane (k = 1) or a
subplane model, their absence over (Z_2)^k an l2k model.

Ordinary lines are numbered in construction order; the line graph and every
report use that numbering.

Construction is table work: a subplane model reads each line's point on
s_beta off one difference table of the field, built once per model, and
assembles the lines a column at a time.  Only the structure's lines are
formed here; its masks and pencils wait for the checks that read them
(prect.structure), so `prect build` forms neither.

Only `prect build` compiles this module, through build_model, its family
dispatch; the subcommands that read a model file take RectangleModel from
prect.structure and never load it.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

from .structure import IncidenceStructure, RectangleModel

if TYPE_CHECKING:  # a coordinate-free model never loads gf
    from .gf import FieldCtx

L2K_MAX_K = 6
SUBPLANE_MAX_N = 256


class BuildError(ValueError):
    """Invalid construction parameters."""


def normalize_point(ctx: FieldCtx, x: int, y: int, z: int) -> tuple[int, int, int]:
    """Homogeneous [x,y,z] of codes, scaled so the first nonzero coordinate is 1."""
    for lead in (x, y, z):
        if lead:
            inv = ctx.inv_code(lead)
            return ctx.mul_codes(x, inv), ctx.mul_codes(y, inv), ctx.mul_codes(z, inv)
    raise BuildError("zero triple is not a projective point")


def build_l2k(k: int) -> RectangleModel:
    """The narrow projective rectangle of order (2, 2^k), built from (Z_2)^k.

    Points are D, a_g, b_g, c_g for g in (Z_2)^k; the special lines are
    A, B, C (each block plus D) and the ordinary lines are the triples
    {a_u, b_{u xor v}, c_v}, numbered u-major so that k = 2 reproduces the
    usual l_0 .. l_15 table.
    """
    if k < 1:
        raise BuildError("k must be >= 1")
    if k > L2K_MAX_K:
        raise BuildError(f"k = {k} beyond bound {L2K_MAX_K}")
    n = 1 << k
    points = ["D"] + [f"a{g}" for g in range(n)] + [f"b{g}" for g in range(n)] \
        + [f"c{g}" for g in range(n)]
    a0, b0, c0 = 1, 1 + n, 1 + 2 * n
    lines = []
    for u in range(n):
        for v in range(n):
            lines.append((a0 + u, b0 + (u ^ v), c0 + v))
    specials = [
        tuple([0] + list(range(a0, a0 + n))),
        tuple([0] + list(range(b0, b0 + n))),
        tuple([0] + list(range(c0, c0 + n))),
    ]
    structure = IncidenceStructure(points, lines + specials, 0)
    return RectangleModel(structure, 2, 1, k, special_labels=["A", "B", "C"])


def build_subplane_rect(p: int, e: int, k: int) -> RectangleModel:
    """The subplane construction R(q, q^k) inside the plane over GF(q^k).

    q = p^e.  k = 1 yields the full projective plane over GF(q), the trivial
    rectangle of order (q, q); k >= 2 yields order (q, q^k).  Every incidence
    is determined by a*x + b*y + c*z = 0 on homogeneous coordinates.
    """
    if e < 1 or k < 1:
        raise BuildError("need e >= 1 and k >= 1")
    q = p ** e
    n = q ** k
    if n > SUBPLANE_MAX_N:
        raise BuildError(f"q^k = {n} beyond bound {SUBPLANE_MAX_N}")
    from .gf import field_make
    ctx = field_make(p, e * k)
    sub = ctx.subfield_codes(q)

    # Points: D, then the s_beta blocks {[-beta:1:t]} (beta over GF(q) in
    # code order), then the s_inf block {[1:0:t]}; t runs over the field.
    point_coords = [(0, 0, 1)]
    labels = ["D"]
    special_pointsets = []
    for x, y in [(ctx.neg_code(beta_code), 1) for beta_code in sub] + [(1, 0)]:
        block = [0]
        for t_code in range(n):
            pt = normalize_point(ctx, x, y, t_code)
            block.append(len(point_coords))
            point_coords.append(pt)
            labels.append("[" + ":".join(map(ctx.format_code, pt)) + "]")
        special_pointsets.append(tuple(block))
    special_coeffs = [(1, beta_code, 0) for beta_code in sub] + [(0, 1, 0)]
    special_labels = [f"s_{beta_code}" for beta_code in sub] + ["s_inf"]

    # Ordinary lines <a,b,1>, a-major, restricted to the special-point union.
    # Point t of block s_beta is [-beta:1:t], so <a,b,1> meets s_beta where
    # t = a*beta - b, entry b of the difference table's row a*beta, and meets
    # s_inf = {[1:0:t]} where t = -a.  The n lines of one a are assembled
    # column-wise: one column of points per s_beta, then their s_inf point.
    diff = _difference_table(ctx)
    line_coeffs = [(a_code, b_code, 1) for a_code in range(n) for b_code in range(n)]
    lines = []
    inf_block = 1 + q * n
    for a_code in range(n):
        columns = [[1 + i * n + t for t in diff[ctx.mul_codes(a_code, beta_code)]]
                   for i, beta_code in enumerate(sub)]
        lines += zip(*columns, repeat(inf_block + ctx.neg_code(a_code), n))

    structure = IncidenceStructure(labels, lines + special_pointsets, 0)
    return RectangleModel(structure, p, e, k, special_labels=special_labels,
                          point_coords=point_coords, line_coeffs=line_coeffs,
                          special_coeffs=special_coeffs)


def _difference_table(ctx: FieldCtx) -> list[list[int]]:
    """[x][b]: the code of x - b, for every two codes of the field."""
    negs = [ctx.neg_code(b) for b in range(ctx.order)]
    return [[ctx.add_codes(x, nb) for nb in negs] for x in range(ctx.order)]


def build_plane(p: int, e: int) -> RectangleModel:
    """The projective plane over GF(p^e) as a trivial rectangle."""
    return build_subplane_rect(p, e, 1)


def build_model(family: str, p: int | None = None, e: int | None = None,
                k: int | None = None) -> RectangleModel:
    """The model `prect build --family family` makes from p, e and k."""
    if family == "l2k":
        if k is None:
            raise BuildError("family l2k needs k")
        if p is not None or e not in (None, 1):
            raise BuildError("family l2k takes no p, and no e other than 1")
        return build_l2k(k)
    if family == "subplane":
        if None in (p, e, k):
            raise BuildError("family subplane needs p, e, k")
        return build_subplane_rect(p, e, k)
    if family == "plane":
        if None in (p, e):
            raise BuildError("family plane needs p, e")
        if k not in (None, 1):
            raise BuildError("family plane has k = 1")
        return build_subplane_rect(p, e, 1)
    raise BuildError(f"unknown family {family!r}")
