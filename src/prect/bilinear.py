"""The bilinear forms graph on 2 x k matrices and the explicit isomorphism.

Vertices of the graph are all 2 x k matrices over GF(q); two are adjacent
when their difference has rank 1.  A line <a,b,1> of the subplane
construction maps to the matrix whose rows are the GF(q)-coordinate vectors
of a and b over the power basis; the isomorphism is certified through that
explicit map over every vertex pair, never by graph-isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .construct import RectangleModel
from .gf import FieldCtx, embed_subfield, field_make
from .linegraph import LineGraph

MAX_VERTICES = 1 << 16


class BilinearError(ValueError):
    pass


Matrix = tuple[tuple[int, ...], tuple[int, ...]]  # two rows of entry codes


def rank2xk(row_a, row_b, ctx: FieldCtx) -> int:
    """Rank of the 2 x k matrix with the given rows of ctx element codes.

    0 for the zero matrix; 1 when the matrix is nonzero and one row is a
    scalar multiple of the other (a zero row counts); 2 otherwise.
    """
    za = all(c == 0 for c in row_a)
    zb = all(c == 0 for c in row_b)
    if za and zb:
        return 0
    if za or zb:
        return 1
    i = next(i for i, c in enumerate(row_a) if c)
    lam = ctx.mul_codes(row_b[i], ctx.inv_code(row_a[i]))
    for a, b in zip(row_a, row_b):
        if ctx.mul_codes(lam, a) != b:
            return 2
    return 1


class BilinearGraph:
    """H_q(2,k) with vertices indexed rowA-major over entry codes."""

    def __init__(self, graph: LineGraph, ctx: FieldCtx, q: int, k: int,
                 matrices: list[Matrix], index: dict[Matrix, int]):
        self.graph = graph
        self.ctx = ctx
        self.q = q
        self.k = k
        self.matrices = matrices
        self.index = index

    @property
    def nu(self) -> int:
        return self.graph.nu

    def difference_class(self, u: int, v: int):
        """Direction of a rank-1 difference: an entry-code ratio (alpha, beta).

        Returns "inf" when the top row of the difference is zero (so the
        difference is (0, w)), else the code lam with bottom = lam * top.
        Raises unless the difference has rank 1.
        """
        ma, mb = self.matrices[u], self.matrices[v]
        ctx = self.ctx
        da = tuple(ctx.sub_codes(x, y) for x, y in zip(ma[0], mb[0]))
        db = tuple(ctx.sub_codes(x, y) for x, y in zip(ma[1], mb[1]))
        if rank2xk(da, db, ctx) != 1:
            raise BilinearError(f"difference of {u} and {v} is not rank 1")
        if all(c == 0 for c in da):
            return "inf"
        i = next(i for i, c in enumerate(da) if c)
        return ctx.mul_codes(db[i], ctx.inv_code(da[i]))


def build_hq2k(p: int, e: int, k: int) -> BilinearGraph:
    """Build H_q(2,k) for q = p^e; adjacency by precomputed rank-1 deltas."""
    q = p ** e
    nu = q ** (2 * k)
    if nu > MAX_VERTICES:
        raise BilinearError(f"q^(2k) = {nu} beyond bound {MAX_VERTICES}")
    ctx = field_make(p, e)

    rows_of = list(product(range(q), repeat=k))
    matrices: list[Matrix] = []
    index: dict[Matrix, int] = {}
    for ra in rows_of:
        for rb in rows_of:
            index[(ra, rb)] = len(matrices)
            matrices.append((ra, rb))

    # Rank-1 matrices (alpha*v, beta*v): v over projective representatives.
    reps = []
    for v in rows_of:
        i = next((i for i, c in enumerate(v) if c), None)
        if i is not None and v[i] == 1:
            reps.append(v)
    deltas = []
    for v in reps:
        for alpha in range(q):
            for beta in range(q):
                if alpha == 0 and beta == 0:
                    continue
                top = tuple(ctx.mul_codes(alpha, c) for c in v)
                bot = tuple(ctx.mul_codes(beta, c) for c in v)
                deltas.append((top, bot))
    expected = (q + 1) * (q ** k - 1)
    if len(set(deltas)) != expected:
        raise BilinearError("rank-1 delta enumeration is off")

    adj = [0] * nu
    for i, (ra, rb) in enumerate(matrices):
        for da, db in deltas:
            na = tuple(ctx.add_codes(x, y) for x, y in zip(ra, da))
            nb = tuple(ctx.add_codes(x, y) for x, y in zip(rb, db))
            adj[i] |= 1 << index[(na, nb)]
    graph = LineGraph(nu, adj)
    return BilinearGraph(graph, ctx, q, k, matrices, index)


def map_line_to_matrix(line_index: int, model: RectangleModel) -> Matrix:
    """Rows B(a), B(b) of the line <a,b,1>, as ambient subfield codes."""
    if model.line_coeffs is None:
        raise BilinearError("need a coordinatized subplane model")
    a, b, _ = model.line_coeffs[line_index]
    ctx, q = model.ctx, model.q
    return ctx.basis_coords_code(a, q), ctx.basis_coords_code(b, q)


def line_matrix_map(model: RectangleModel, h: BilinearGraph) -> list[int]:
    """Vertex map: ordinary line index -> H_q(2,k) vertex index.

    Entries of the line matrices live in the ambient subfield; they are
    carried to H's standalone GF(q) through the canonical field embedding.
    """
    if (model.q, model.k) != (h.q, h.k):
        raise BilinearError("model and bilinear graph have different (q, k)")
    fwd = embed_subfield(h.ctx, model.ctx)
    back = {big: small for small, big in enumerate(fwd)}
    mapping = []
    for l in range(model.num_ordinary_lines):
        ra, rb = map_line_to_matrix(l, model)
        key = (tuple(back[c] for c in ra), tuple(back[c] for c in rb))
        mapping.append(h.index[key])
    return mapping


@dataclass
class IsoReport:
    nu: int
    bijective: bool
    edge_preserving: bool
    witness: dict | None = None
    pairs_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.bijective and self.edge_preserving


def certify_isomorphism(g1: LineGraph, g2: LineGraph, mapping: list[int]) -> IsoReport:
    """Check that mapping is a bijection preserving adjacency both ways.

    All nu^2 ordered-collapsed pairs are compared; the first violating pair
    is returned as a witness.
    """
    nu = g1.nu
    rep = IsoReport(nu=nu, bijective=False, edge_preserving=False)
    if g2.nu != nu or len(mapping) != nu:
        rep.witness = {"check": "sizes", "nu1": nu, "nu2": g2.nu, "map": len(mapping)}
        return rep
    rep.bijective = len(set(mapping)) == nu
    if not rep.bijective:
        rep.witness = {"check": "bijection"}
        return rep
    for u in range(nu):
        mu_ = mapping[u]
        for v in range(u + 1, nu):
            rep.pairs_checked += 1
            if g1.adjacent(u, v) != g2.adjacent(mu_, mapping[v]):
                rep.witness = {"check": "edge", "pair": (u, v),
                               "images": (mu_, mapping[v]),
                               "adjacent_in_source": g1.adjacent(u, v)}
                return rep
    rep.edge_preserving = True
    return rep
