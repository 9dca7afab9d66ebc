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
"""

from __future__ import annotations

from .gf import FieldCtx, field_make
from .incidence import IncidenceStructure

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


class RectangleModel:
    """An incidence structure plus construction metadata and coordinates.

    structure.lines lists the ordinary lines first, in construction order,
    followed by the m+1 special lines; graph vertices reuse those indices.
    Coordinates are (x, y, z) triples of field codes: points [x:y:z] and
    line coefficients <a,b,c>, codes of ctx, GF(p^(ek)).  Combinatorial
    models carry no coordinates, and their ctx is None.
    """

    def __init__(self, structure: IncidenceStructure, p: int, e: int, k: int, *,
                 special_labels, point_coords=None, line_coeffs=None, special_coeffs=None):
        self.structure = structure
        self.p, self.e, self.k = p, e, k
        self.q = p ** e
        self.m = self.q
        self.n = self.q ** k
        self.ctx = None if point_coords is None else field_make(p, e * k)
        self.point_coords = point_coords
        self.line_coeffs = line_coeffs
        self.special_coeffs = special_coeffs
        self.special_labels = special_labels

    @property
    def family(self) -> str | None:
        """The family its data gives: a coordinatized model is "plane" when
        k = 1 and "subplane" otherwise, one without coordinates over (Z_2)^k
        is "l2k", and any other has None."""
        if self.point_coords is not None:
            return "plane" if self.k == 1 else "subplane"
        return "l2k" if (self.p, self.e) == (2, 1) else None

    @property
    def trivial(self) -> bool:
        return self.m == self.n

    @property
    def num_ordinary_lines(self) -> int:
        return len(self.structure.ordinary_lines)

    def alt_special_labels(self):
        """The alternate q=2 labeling that swaps the roles of s_1 and s_inf."""
        if self.q != 2 or self.family == "l2k":
            return None
        swap = {"s_1": "s_inf", "s_inf": "s_1"}
        return [swap.get(lab, lab) for lab in self.special_labels]


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
    # t = a*beta - b, and meets s_inf = {[1:0:t]} where t = -a.
    line_coeffs = []
    lines = []
    inf_block = 1 + q * n
    for a_code in range(n):
        a_beta = [ctx.mul_codes(a_code, beta_code) for beta_code in sub]
        on_inf = inf_block + ctx.neg_code(a_code)
        for b_code in range(n):
            line_coeffs.append((a_code, b_code, 1))
            lines.append(tuple([1 + i * n + ctx.sub_codes(ab, b_code)
                                for i, ab in enumerate(a_beta)] + [on_inf]))

    structure = IncidenceStructure(labels, lines + special_pointsets, 0)
    return RectangleModel(structure, p, e, k, special_labels=special_labels,
                          point_coords=point_coords, line_coeffs=line_coeffs,
                          special_coeffs=special_coeffs)


def build_plane(p: int, e: int) -> RectangleModel:
    """The projective plane over GF(p^e) as a trivial rectangle."""
    return build_subplane_rect(p, e, 1)
