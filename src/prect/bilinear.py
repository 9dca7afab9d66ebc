"""The bilinear forms graph on 2 x k matrices and the explicit isomorphism.

Vertices of the graph are all 2 x k matrices over GF(q); two are adjacent
when their difference has rank 1.  A line <a,b,1> of the subplane
construction maps to the matrix whose rows are the GF(q)-coordinate vectors
of a and b over the power basis; the isomorphism is certified through that
explicit map row by row, never by graph-isomorphism search.
"""

from __future__ import annotations

from itertools import product

from ._util import Translations, iter_bits
from .construct import RectangleModel
from .gf import FieldCtx, embed_subfield, field_make
from .linegraph import LineGraph

# iso on R(2,128), nu = 2^14, took 17.1 s and 129 MB; at 2^16 the two
# nu^2-bit graphs alone would take 2 x 512 MiB (README, "Scale")
MAX_VERTICES = 1 << 14


class BilinearError(ValueError):
    pass


Matrix = tuple[tuple[int, ...], tuple[int, ...]]  # two rows of entry codes


class BilinearGraph:
    """H_q(2,k); vertex u is the matrix whose 2k entry codes, row A first,
    are the base-q digits of u, most significant first."""

    def __init__(self, graph: LineGraph, ctx: FieldCtx, q: int, k: int):
        self.graph = graph
        self.ctx = ctx
        self.q = q
        self.k = k


def _vertex(codes, q: int) -> int:
    """Vertex number of the matrix with these entry codes, row A first."""
    return sum(c * q ** i for i, c in enumerate(reversed(codes)))


def build_hq2k(p: int, e: int, k: int) -> BilinearGraph:
    """Build H_q(2,k) for q = p^e as a Cayley graph on GF(q)^(2 x k).

    Read in base p, a vertex number lists the GF(p)-coefficients of its 2k
    entries, so matrix addition is digit-wise addition mod p, and u is
    adjacent to u + d for each rank-1 matrix d: row u is row 0 translated by
    u, and the graph carries those translations (LineGraph.translations).
    """
    q = p ** e
    nu = q ** (2 * k)
    if nu > MAX_VERTICES:
        raise BilinearError(f"q^(2k) = {nu} beyond bound {MAX_VERTICES}")
    ctx = field_make(p, e)

    # Rank-1 matrices (a*v, b*v): v over projective representatives.
    reps = [v for v in product(range(q), repeat=k) if any(v) and next(c for c in v if c) == 1]
    deltas = [_vertex([ctx.mul_codes(a, c) for c in v] + [ctx.mul_codes(b, c) for c in v], q)
              for v in reps for a in range(q) for b in range(q) if a or b]
    row0 = sum(1 << d for d in set(deltas))
    if row0.bit_count() != (q + 1) * (q ** k - 1):
        raise BilinearError("rank-1 delta enumeration is off")

    group = Translations(p, 2 * k * e)
    return BilinearGraph(LineGraph(list(group.translates(row0)), group), ctx, q, k)


def map_line_to_matrix(line_index: int, model: RectangleModel) -> Matrix:
    """Rows B(a), B(b) of the line <a,b,1>, as ambient subfield codes."""
    if model.line_coeffs is None:
        raise BilinearError("need a coordinatized subplane model")
    a, b, _ = model.line_coeffs[line_index]
    ctx, q = model.ctx, model.q
    return ctx.basis_coords_code(a, q), ctx.basis_coords_code(b, q)


def line_matrix_map(model: RectangleModel, h: BilinearGraph) -> list[int]:
    """Vertex map: ordinary line index -> H_q(2,k) vertex index.

    One entry per line coefficient triple the model has; certify_isomorphism
    reports a count that differs from the ordinary lines as its sizes check.
    Entries of the line matrices live in the ambient subfield; they are
    carried to H's standalone GF(q) through the canonical field embedding.
    """
    if (model.q, model.k) != (h.q, h.k):
        raise BilinearError("model and bilinear graph have different (q, k)")
    if model.line_coeffs is None:
        raise BilinearError("need a coordinatized subplane model")
    fwd = embed_subfield(h.ctx, model.ctx)
    back = {big: small for small, big in enumerate(fwd)}
    mapping = []
    for l in range(len(model.line_coeffs)):
        ra, rb = map_line_to_matrix(l, model)
        mapping.append(_vertex([back[c] for c in ra + rb], h.q))
    return mapping


class IsoReport:
    """An isomorphism check on nu vertices; it starts unproven."""

    def __init__(self, nu: int):
        self.nu = nu
        self.bijective = self.edge_preserving = False
        self.witness: dict | None = None
        self.pairs_checked = 0

    @property
    def ok(self) -> bool:
        return self.bijective and self.edge_preserving


def certify_isomorphism(g1: LineGraph, g2: LineGraph, mapping: list[int]) -> IsoReport:
    """Check that mapping is a bijection preserving adjacency both ways.

    Row u of g1, carried through the mapping, is compared with row mapping[u]
    of g2.  The witness is the first pair u < v, in row-major order, whose
    adjacency differs; pairs_checked counts the pairs up to it, all
    nu(nu-1)/2 when none differs.
    """
    nu = g1.nu
    rep = IsoReport(nu)
    if g2.nu != nu or len(mapping) != nu:
        rep.witness = {"check": "sizes", "nu1": nu, "nu2": g2.nu, "map": len(mapping)}
        return rep
    rep.bijective = sorted(mapping) == list(range(nu))
    if not rep.bijective:
        rep.witness = {"check": "bijection"}
        return rep
    inverse = sorted(range(nu), key=mapping.__getitem__)
    for u, row in enumerate(g1.rows):
        image = 0
        for v in iter_bits(row):
            image |= 1 << mapping[v]
        later = [inverse[w] for w in iter_bits(image ^ g2.rows[mapping[u]]) if inverse[w] > u]
        if later:
            v = min(later)
            rep.pairs_checked = u * (2 * nu - u - 1) // 2 + v - u
            rep.witness = {"check": "edge", "pair": (u, v),
                           "images": (mapping[u], mapping[v]),
                           "adjacent_in_source": g1.adjacent(u, v)}
            return rep
    rep.pairs_checked = nu * (nu - 1) // 2
    rep.edge_preserving = True
    return rep
