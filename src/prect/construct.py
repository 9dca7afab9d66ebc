"""Builders for the two families of (pseudo-)projective rectangles.

build_l2k makes the narrow family of order (2, 2^k) from group data: ground
set A, B, C plus D, with ordinary lines {a_g, b_{g+h}, c_h} over the group
(Z_2)^k.  build_subplane_rect makes the order-(q, q^k) structure inside the
projective plane over GF(q^k): special lines are the lines through
D = [0,0,1] meeting the GF(q)-subplane, ordinary lines are the restrictions
of the plane's lines <a,b,1> to the union of the special lines.

Ordinary lines are numbered in construction order; the line graph and every
report use that numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def on_line(ctx: FieldCtx, line, pt) -> bool:
    """True iff a*x + b*y + c*z = 0 for the line <a,b,c> and the point [x:y:z]."""
    (a, b, c), (x, y, z) = line, pt
    mul, add = ctx.mul_codes, ctx.add_codes
    return not add(add(mul(a, x), mul(b, y)), mul(c, z))


class RectangleModel:
    """An incidence structure plus construction metadata and coordinates.

    structure.lines lists the ordinary lines first, in construction order,
    followed by the m+1 special lines; graph vertices reuse those indices.
    Coordinates are (x, y, z) triples of field codes: points [x:y:z] and
    line coefficients <a,b,c>.  Combinatorial models (family "l2k") carry
    no coordinates.
    """

    def __init__(self, structure: IncidenceStructure, family: str,
                 p: int, e: int, k: int, *, ctx: FieldCtx | None = None,
                 point_coords=None, line_coeffs=None, special_coeffs=None,
                 special_labels=None):
        self.structure = structure
        self.family = family
        self.p, self.e, self.k = p, e, k
        self.q = p ** e
        self.m = self.q
        self.n = self.q ** k
        self.ctx = ctx
        self.point_coords = point_coords
        self.line_coeffs = line_coeffs
        self.special_coeffs = special_coeffs
        self.special_labels = special_labels
        if point_coords is not None:
            self._point_index = {pt: i for i, pt in enumerate(point_coords)}
        else:
            self._point_index = None

    @property
    def trivial(self) -> bool:
        return self.m == self.n

    @property
    def num_ordinary_lines(self) -> int:
        return len(self.structure.ordinary_lines)

    def point_index(self, pt: tuple[int, int, int]):
        if self._point_index is None:
            raise BuildError("model has no coordinates")
        return self._point_index.get(pt)

    def special_position(self, structure_line_index: int) -> int:
        """Position of a special line inside the special block (0..m)."""
        nu = self.num_ordinary_lines
        if structure_line_index < nu:
            raise BuildError(f"line {structure_line_index} is ordinary")
        return structure_line_index - nu

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
    return RectangleModel(structure, "l2k", 2, 1, k,
                          special_labels=["A", "B", "C"])


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
    family = "plane" if k == 1 else "subplane"
    return RectangleModel(structure, family, p, e, k, ctx=ctx,
                          point_coords=point_coords, line_coeffs=line_coeffs,
                          special_coeffs=special_coeffs,
                          special_labels=special_labels)


def build_plane(p: int, e: int) -> RectangleModel:
    """The projective plane over GF(p^e) as a trivial rectangle."""
    return build_subplane_rect(p, e, 1)


@dataclass(frozen=True)
class CommonPoint:
    point: tuple[int, int, int]
    point_index: int
    special_line: int
    special_label: str


def common_point(l1: int, l2: int, model: RectangleModel):
    """Common point of two ordinary lines of a subplane model, or None.

    Evaluates [-(b2-b1), a2-a1, a1*b2-a2*b1] and keeps it only if it lies in
    the model's point set; the result is checked against the stored point
    sets, which are authoritative.
    """
    if model.line_coeffs is None:
        raise BuildError("common_point needs a coordinatized model")
    nu = model.num_ordinary_lines
    if not (0 <= l1 < nu and 0 <= l2 < nu):
        raise BuildError("common_point takes ordinary line indices")
    if l1 == l2:
        raise BuildError("lines must be distinct")
    ctx = model.ctx
    (a1, b1, _), (a2, b2, _) = model.line_coeffs[l1], model.line_coeffs[l2]
    x = ctx.neg_code(ctx.sub_codes(b2, b1))
    y = ctx.sub_codes(a2, a1)
    z = ctx.sub_codes(ctx.mul_codes(a1, b2), ctx.mul_codes(a2, b1))
    stored = set(model.structure.lines[l1]) & set(model.structure.lines[l2])
    if not (x or y or z):
        raise BuildError("identical line coefficients")
    pt = normalize_point(ctx, x, y, z)
    idx = model.point_index(pt)
    if idx is None:
        if stored:
            raise StructureMismatch(l1, l2, stored, None)
        return None
    if stored != {idx}:
        raise StructureMismatch(l1, l2, stored, idx)
    special = model.structure.special_line_of_point(idx)
    return CommonPoint(pt, idx, special,
                       model.special_labels[model.special_position(special)])


class StructureMismatch(RuntimeError):
    """Coordinate formula and stored incidence disagree (should not happen)."""

    def __init__(self, l1, l2, stored, computed):
        super().__init__(
            f"lines {l1},{l2}: stored intersection {stored}, formula gave {computed}")
