"""The graph of lines: vertices are ordinary lines, edges mean concurrence.

Adjacency is held as packed bit rows (Python ints).  The class of an edge,
read from the model, is the special line through the common point; the
classes factor the graph into m+1 spanning (n-1)-regular subgraphs.

Strong regularity is certified by direct counting over all vertex pairs plus
the exact integer matrix identity (A - tau1*I)(A - tau2*I) = mu*J, checked
entrywise from the bit rows: (A^2)[u,w] is the popcount of row u against
column w, so the identity and the common-neighbor counts are read from the
same popcounts.  No floating point is involved anywhere.

The built models number their lines so that the graph is a Cayley graph on
GF(p)^d, vertex x being the vector of its base-p digits: L_2^k on
(Z_2)^(2k), R(q, q^k) on the pairs (a, b) of <a,b,1>, like H_q(2,k).
translation_group certifies that from the bit rows alone; every
translation is then an automorphism, and the srg check and the clique
census (see cliques) do the work of vertex 0 only.  Any other graph, such
as a model whose lines were renumbered, takes the all-vertex loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isqrt

from ._util import iter_bits
from .construct import RectangleModel

EXACT_CONNECTIVITY_MAX = 64


class GraphError(ValueError):
    pass


class LineGraph:
    """Undirected graph with bitmask rows."""

    def __init__(self, nu: int, rows: list[int]):
        self.nu = nu
        self.rows = rows

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self):
        for u in range(self.nu):
            for v in iter_bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.nu)) // 2

    def is_complete(self) -> bool:
        full = (1 << self.nu) - 1
        return all(self.rows[v] == full & ~(1 << v) for v in range(self.nu))


class Translations:
    """The translations of GF(p)^d, acting on masks of nu = p^d vertex bits.

    Vertex x is the vector of its base-p digits, digit i of weight p^i;
    translation by t moves bit x to bit x + t, added digit by digit mod p.
    """

    def __init__(self, p: int, d: int):
        self.p, self.d = p, d
        self.nu = nu = p ** d
        self._top = []  # [i]: the vertices whose digit i is p - 1
        for i in range(d):
            w = p ** i
            tile = sum(1 << x for x in range(0, nu, p * w))
            self._top.append(((1 << w) - 1) * tile << (p - 1) * w)

    def step(self, mask: int, i: int) -> int:
        """mask translated by p^i, the unit vector of digit i: digit i
        goes up by one, and from p - 1 back to 0."""
        w, top = self.p ** i, self._top[i]
        return (mask & ~top) << w | (mask & top) >> (self.p - 1) * w

    def steps(self):
        """(t, t - p^i, i) for t = 1..nu-1, i the lowest nonzero digit of t."""
        for t in range(1, self.nu):
            i, w = 0, 1
            while t // w % self.p == 0:
                i, w = i + 1, w * self.p
            yield t, t - w, i


def translation_group(g: LineGraph) -> Translations | None:
    """The translations of GF(p)^d if g is a Cayley graph on it, else None.

    g is certified when nu = p^d for a prime p, vertex 0 has no loop, each
    neighbour s of 0 is adjacent to 0 (so N(0) = -N(0)), and every row t is
    row t - p^i translated by p^i, i the lowest nonzero digit of t.  By
    induction on t, row t is then N(0) translated by t: every translation
    is an automorphism, and the rows are symmetric.  Costs nu translations
    of one row.
    """
    nu, rows = g.nu, g.rows
    if nu < 2 or rows[0] & 1:
        return None
    p = next((f for f in range(2, isqrt(nu) + 1) if nu % f == 0), nu)
    d, rest = 0, nu
    while rest % p == 0:
        d, rest = d + 1, rest // p
    if rest != 1 or not all(rows[s] & 1 for s in iter_bits(rows[0])):
        return None
    group = Translations(p, d)
    if all(rows[t] == group.step(rows[prev], i) for t, prev, i in group.steps()):
        return group
    return None


def _point_class(model: RectangleModel, p: int):
    """Position of the special line through point p, or None if not unique."""
    special = model.structure.special_line_of_point(p)
    return model.special_position(special) if special is not None else None


def edge_class(model: RectangleModel, u: int, v: int):
    """Position of the special line through the highest common point of lines u
    and v other than D (the only one, under A1); None if there is no such
    point, or no unique special line through it."""
    s = model.structure
    common = s.line_masks[u] & s.line_masks[v] & ~(1 << s.special_point)
    return _point_class(model, common.bit_length() - 1) if common else None


def build_line_graph(model: RectangleModel) -> LineGraph:
    """Graph of lines of a rectangle model.

    Vertices are the ordinary lines in construction order.  Two lines are
    adjacent iff their stored point sets meet outside D: each point joins
    its pencil of ordinary lines.  A pair that meets again must keep the
    class of the point where it met last, if that point has one; otherwise
    A1 is broken and GraphError names the first such pair.
    """
    s = model.structure
    nu = model.num_ordinary_lines
    masks = s.line_masks
    rows = [0] * nu
    for p in range(s.n_points):
        if p == s.special_point:
            continue
        pencil = sum(1 << i for i in s.lines_at[p] if i < nu)
        if not pencil:
            continue
        c = _point_class(model, p)
        below = (1 << p) - 1 & ~(1 << s.special_point)
        for u in iter_bits(pencil):
            for v in iter_bits(rows[u] & pencil & -(2 << u)):  # met before p
                prev = _point_class(model, (masks[u] & masks[v] & below).bit_length() - 1)
                if prev is not None and prev != c:
                    raise GraphError(f"edge {(u, v)} gets two colors (A1 broken?)")
        for u in iter_bits(pencil):
            rows[u] |= pencil ^ (1 << u)
    return LineGraph(nu, rows)


@dataclass
class SrgCertificate:
    """Exact strong-regularity evidence for expected parameters (nu,r,lam,mu)."""

    nu: int
    r: int
    lam: int
    mu: int
    tau0: int
    tau1: int
    tau2: int
    multiplicities: tuple[int, int, int]
    verdicts: dict = field(default_factory=dict)
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    @property
    def parameters(self) -> tuple[int, int, int, int]:
        return (self.nu, self.r, self.lam, self.mu)


def expected_srg_parameters(m: int, n: int) -> tuple[int, int, int, int]:
    nu = n * n
    r = (m + 1) * (n - 1)
    lam = n + (m + 1) * (m - 2)
    mu = m * (m + 1)
    return nu, r, lam, mu


def certify_srg(g: LineGraph, m: int, n: int) -> SrgCertificate:
    """Certify srg(n^2, (m+1)(n-1), n+(m+1)(m-2), m(m+1)) by direct count.

    Checks, in exact integer arithmetic: vertex count, degree regularity,
    common-neighbor counts for every pair, the quadratic matrix identity
    with tau1 = n-m-1 and tau2 = -(m+1), and the eigenvalue multiplicities
    via the trace equations.
    """
    nu, r, lam, mu = expected_srg_parameters(m, n)
    tau1, tau2 = n - m - 1, -(m + 1)
    mult = (1, (m + 1) * (n - 1), (n - m) * (n - 1))
    cert = SrgCertificate(nu, r, lam, mu, r, tau1, tau2, mult)
    v = cert.verdicts

    v["vertex_count"] = g.nu == nu
    if not v["vertex_count"]:
        cert.witness = {"check": "vertex_count", "actual": g.nu}
        return cert

    bad = next((x for x in range(nu) if g.degree(x) != r), None)
    v["degree_regular"] = bad is None
    if bad is not None:
        cert.witness = {"check": "degree", "vertex": bad, "actual": g.degree(bad)}

    pair_witness, spectral_witness = _square_check(g.rows, lam, mu, tau1, tau2)
    v["common_neighbor_counts"] = pair_witness is None
    if pair_witness and cert.witness is None:
        cert.witness = pair_witness

    v["spectral_identity"] = spectral_witness is None
    if spectral_witness and cert.witness is None:
        cert.witness = spectral_witness

    # Multiplicities f1, f2 solve 1+f1+f2 = nu and tau0+f1*tau1+f2*tau2 = 0.
    f0, f1, f2 = mult
    v["multiplicity_sum"] = f0 + f1 + f2 == nu
    v["trace_zero"] = cert.tau0 * f0 + tau1 * f1 + tau2 * f2 == 0
    v["trace_square"] = cert.tau0 ** 2 * f0 + tau1 ** 2 * f1 + tau2 ** 2 * f2 == nu * r
    return cert


def _transpose(rows: list[int]) -> list[int]:
    cols = [0] * len(rows)
    for u, ru in enumerate(rows):
        bit = 1 << u
        for w in iter_bits(ru):
            cols[w] |= bit
    return cols


def _first_difference(xs: list[int], ys: list[int]) -> int:
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _square_check(rows: list[int], lam: int, mu: int, tau1: int, tau2: int):
    """(first failing pair, first failing identity entry), each None if none fails.

    (A^2)[u,w] is the popcount of rows[u] against column w.  Entry (u,w) of
    (A - tau1*I)(A - tau2*I) is that count minus (tau1+tau2)*A[u,w] plus
    tau1*tau2*[u = w] and must equal mu; off the diagonal this is the pair
    count, since mu + tau1 + tau2 = lam.  Both witnesses are first in
    row-major order (pairs with u < w only).  Symmetric rows give a
    symmetric A^2, whose first failure lies on or above the diagonal, so
    only those entries are computed.  On a certified Cayley graph (see
    translation_group) (A^2)[u,w] = (A^2)[0,w-u] and the wanted entries
    translate alike, so a failure anywhere fails row 0 too, which comes
    first: row 0 is the only one computed.
    """
    nu = len(rows)
    s, p = tau1 + tau2, tau1 * tau2
    if translation_group(LineGraph(nu, rows)) is not None:
        cols, symmetric, last = rows, True, 1
    else:
        cols = _transpose(rows)
        symmetric, last = cols == rows, nu
    pair = spectral = None
    for u, ru in enumerate(rows[:last]):
        lo = u if symmetric else 0
        square = [(ru & c).bit_count() for c in cols[lo:]]  # (A^2)[u, lo:]
        want = [mu] * (nu - lo)
        for w in iter_bits(ru >> lo):
            want[w] += s
        want[u - lo] -= p
        if spectral is None and square != want:
            i = _first_difference(square, want)
            spectral = {"check": "spectral_identity", "entry": (u, lo + i),
                        "actual": square[i] - want[i] + mu, "expected": mu}
        if pair is None:
            start = u + 1 - lo
            common = (square[start:] if symmetric
                      else [(ru & rw).bit_count() for rw in rows[u + 1:]])
            if common != want[start:]:
                i = _first_difference(common, want[start:])
                w = u + 1 + i
                pair = {"check": "common_neighbors", "pair": (u, w),
                        "adjacent": bool(ru >> w & 1),
                        "expected": want[start + i], "actual": common[i]}
        if pair and spectral:
            break
    return pair, spectral


def eccentricity(g: LineGraph, src: int):
    """Greatest distance from src, by breadth-first search; inf if some vertex is unreached."""
    full = (1 << g.nu) - 1
    reached = frontier = 1 << src
    depth = 0
    while reached != full:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.rows[v]
        frontier = nxt & ~reached
        if not frontier:
            return inf
        reached |= frontier
        depth += 1
    return depth


def diameter(g: LineGraph):
    """Exact diameter via breadth-first search from every vertex."""
    return max((eccentricity(g, v) for v in range(g.nu)), default=0)


@dataclass
class FactorizationReport:
    num_classes: int
    expected_classes: int
    expected_degree: int
    class_degrees: dict
    spanning: dict
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return (self.num_classes == self.expected_classes
                and all(d == {self.expected_degree} for d in self.class_degrees.values())
                and all(self.spanning.values()))


def factorization_check(g: LineGraph, model: RectangleModel) -> FactorizationReport:
    """Each edge class (see edge_class) must be a spanning (n-1)-regular subgraph."""
    n = model.n
    class_rows = {}
    for u, v in g.edges():
        rows = class_rows.setdefault(edge_class(model, u, v), [0] * g.nu)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    degrees, spanning, witness = {}, {}, None
    for c in sorted(class_rows):
        rows = class_rows[c]
        degs = {row.bit_count() for row in rows}
        degrees[c] = degs
        spanning[c] = 0 not in degs
        if degs != {n - 1} and witness is None:
            bad = next(v for v in range(g.nu) if rows[v].bit_count() != n - 1)
            witness = {"color": c, "vertex": bad, "degree": rows[bad].bit_count()}
    return FactorizationReport(len(class_rows), model.m + 1, n - 1, degrees, spanning, witness)


@dataclass
class ConnectivityResult:
    value: int
    mode: str
    provenance: str


def vertex_connectivity(g: LineGraph, mode: str = "exact") -> ConnectivityResult:
    """Vertex connectivity, exactly by augmenting paths or cited from the srg theorem.

    Exact mode minimizes the local connectivity over the pairs of Esfahanian
    and Hakimi (Networks, 1984): a minimum-degree vertex v against each of
    its non-neighbours, and each non-adjacent pair of neighbours of v.  A
    minimum cut either misses v, and then separates v from a non-neighbour,
    or contains v, and then separates two of its neighbours.  Complete
    graphs return nu-1.  Cited mode returns the degree r with provenance
    "by theorem".
    """
    if mode == "cited":
        degs = {g.degree(v) for v in range(g.nu)}
        if len(degs) != 1:
            raise GraphError("cited mode needs a regular graph")
        return ConnectivityResult(degs.pop(), "cited", "by theorem")
    if mode != "exact":
        raise GraphError(f"unknown mode {mode!r}")
    if g.nu > EXACT_CONNECTIVITY_MAX:
        raise GraphError(f"exact connectivity limited to nu <= {EXACT_CONNECTIVITY_MAX}")
    if g.is_complete():
        return ConnectivityResult(g.nu - 1, "exact", "complete graph")

    rows = g.rows
    v = min(range(g.nu), key=g.degree)
    nv = rows[v]
    pairs = [(v, w) for w in iter_bits((1 << g.nu) - 1 & ~nv & ~(1 << v))]
    pairs += [(x, y) for x in iter_bits(nv) for y in iter_bits(nv & ~rows[x] & -(2 << x))]
    best = g.nu - 1
    for s, t in pairs:
        best = _local_connectivity(rows, s, t, best)
    return ConnectivityResult(best, "exact",
                              "augmenting paths over the Esfahanian-Hakimi pairs")


def _local_connectivity(rows: list[int], s: int, t: int, limit: int) -> int:
    """The number of internally disjoint s-t paths, s and t non-adjacent, capped at limit.

    Unit-capacity augmenting paths (Even and Tarjan, SIAM J. Comput. 1975)
    on the vertex-split network: every vertex x is an arc x_in -> x_out of
    capacity 1, and every edge xy the arcs x_out -> y_in and y_out -> x_in.
    Bit x of used says that the arc of x carries flow, bit x of into[y] that
    x_out -> y_in does.  Each breadth-first search from s_out to t_in adds
    one path; a node's parent equal to itself stands for the arc of x.
    """
    used = 0
    into = [0] * len(rows)
    flow = 0
    while flow < limit:
        par_in, par_out = {}, {}
        seen_in = seen_out = 1 << s
        queue = [(s, True)]  # (vertex, out side)
        for x, out in queue:
            if out:  # forward along edges, or back along the used arc of x
                new = (rows[x] | used & 1 << x) & ~seen_in
                seen_in |= new
                for y in iter_bits(new):
                    par_in[y] = x
                    queue.append((y, False))
                if new >> t & 1:
                    break
            else:  # along the free arc of x, or back along an edge into x
                new = (into[x] | ~used & 1 << x) & ~seen_out
                seen_out |= new
                for y in iter_bits(new):
                    par_out[y] = x
                    queue.append((y, True))
        else:
            return flow
        y, out = t, False
        while not (out and y == s):
            if out:
                x = par_out[y]
                if x == y:
                    used |= 1 << y
                else:
                    into[x] &= ~(1 << y)
            else:
                x = par_in[y]
                if x == y:
                    used &= ~(1 << y)
                else:
                    into[y] |= 1 << x
            y, out = x, not out
        flow += 1
    return flow
