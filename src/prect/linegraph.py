"""The graph of lines: vertices are ordinary lines, edges mean concurrence.

Adjacency is held as packed bit rows (Python ints).  Each edge is colored by
the special line through the common point, which yields the factorization of
the graph into m+1 spanning (n-1)-regular subgraphs.

Strong regularity is certified by direct counting over all vertex pairs plus
the exact integer matrix identity (A - tau1*I)(A - tau2*I) = mu*J, checked
entrywise from the bit rows: (A^2)[u,w] is the popcount of row u against
column w, so the identity and the common-neighbor counts are read from the
same popcounts.  No floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ._util import iter_bits
from .construct import RectangleModel

if TYPE_CHECKING:
    import numpy as np

EXACT_CONNECTIVITY_MAX = 64


class GraphError(ValueError):
    pass


class LineGraph:
    """Undirected graph with bitmask rows and an optional edge coloring."""

    def __init__(self, nu: int, rows: list[int], edge_colors: dict | None = None,
                 color_names: list[str] | None = None):
        self.nu = nu
        self.rows = rows
        self.edge_colors = edge_colors
        self.color_names = color_names

    @classmethod
    def from_edges(cls, nu: int, edges, edge_colors=None, color_names=None) -> "LineGraph":
        rows = [0] * nu
        for u, v in edges:
            if u == v:
                raise GraphError("loops not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(nu, rows, edge_colors, color_names)

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

    def copy_without_edge(self, u: int, v: int) -> "LineGraph":
        if not self.adjacent(u, v):
            raise GraphError(f"no edge {u},{v}")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        colors = dict(self.edge_colors) if self.edge_colors else None
        if colors is not None:
            colors.pop((min(u, v), max(u, v)), None)
        return LineGraph(self.nu, rows, colors, self.color_names)

    def color_of(self, u: int, v: int):
        return self.edge_colors[(u, v) if u < v else (v, u)]

    def color_rows(self, color: int) -> list[int]:
        rows = [0] * self.nu
        for (u, v), c in self.edge_colors.items():
            if c == color:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return rows

    def adjacency_matrix(self) -> np.ndarray:
        """The 0/1 adjacency matrix as an int64 numpy array (an oracle for tests)."""
        import numpy as np

        a = np.zeros((self.nu, self.nu), dtype=np.int64)
        for u in range(self.nu):
            for v in iter_bits(self.rows[u]):
                a[u, v] = 1
        return a

    def is_complete(self) -> bool:
        full = (1 << self.nu) - 1
        return all(self.rows[v] == full & ~(1 << v) for v in range(self.nu))


def build_line_graph(model: RectangleModel) -> LineGraph:
    """Graph of lines of a rectangle model, with edges colored by special line.

    Vertices are the ordinary lines in construction order.  Two lines are
    adjacent iff their stored point sets meet; the common point lies on
    exactly one special line, whose position is the edge color.
    """
    s = model.structure
    nu = model.num_ordinary_lines
    rows = [0] * nu
    colors = {}
    for p in range(s.n_points):
        if p == s.special_point:
            continue
        through = [i for i in s.lines_at[p] if i < nu]
        if not through:
            continue
        special = s.special_line_of_point(p)
        c = model.special_position(special) if special is not None else None
        for x in range(len(through)):
            u = through[x]
            for y in range(x + 1, len(through)):
                v = through[y]
                key = (u, v) if u < v else (v, u)
                prev = colors.get(key)
                if prev is not None and prev != c:
                    raise GraphError(f"edge {key} gets two colors (A1 broken?)")
                colors[key] = c
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return LineGraph(nu, rows, colors, list(model.special_labels))


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
    only those entries are computed.
    """
    nu = len(rows)
    s, p = tau1 + tau2, tau1 * tau2
    cols = _transpose(rows)
    symmetric = cols == rows
    pair = spectral = None
    for u, ru in enumerate(rows):
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


def diameter(g: LineGraph):
    """Exact diameter via breadth-first search from every vertex."""
    full = (1 << g.nu) - 1
    worst = 0
    for src in range(g.nu):
        reached = 1 << src
        frontier = reached
        depth = 0
        while reached != full:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.rows[v]
            nxt &= ~reached
            if not nxt:
                return float("inf")
            reached |= nxt
            frontier = nxt
            depth += 1
        worst = max(worst, depth)
    return worst


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


def factorization_check(g: LineGraph, m: int, n: int) -> FactorizationReport:
    """Each edge-color class must be a spanning (n-1)-regular subgraph."""
    if g.edge_colors is None:
        raise GraphError("graph carries no edge coloring")
    classes = sorted({c for c in g.edge_colors.values()})
    degrees = {}
    spanning = {}
    witness = None
    for c in classes:
        rows = g.color_rows(c)
        degs = {row.bit_count() for row in rows}
        degrees[c] = degs
        spanning[c] = 0 not in degs
        if degs != {n - 1} and witness is None:
            bad = next(v for v in range(g.nu) if rows[v].bit_count() != n - 1)
            witness = {"color": c, "vertex": bad, "degree": rows[bad].bit_count()}
    return FactorizationReport(len(classes), m + 1, n - 1, degrees, spanning, witness)


@dataclass
class ConnectivityResult:
    value: int
    mode: str
    provenance: str


def vertex_connectivity(g: LineGraph, mode: str = "exact") -> ConnectivityResult:
    """Vertex connectivity, exactly by max-flow or cited from the srg theorem.

    Exact mode builds the standard vertex-split flow network and minimizes
    the max-flow over all non-adjacent pairs; complete graphs return nu-1.
    Cited mode returns the degree r with provenance "by theorem".
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

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    nu = g.nu
    big = nu  # any capacity >= nu acts as infinity here
    rows_idx, cols_idx, caps = [], [], []
    for v in range(nu):
        rows_idx.append(v)          # v_in -> v_out, capacity 1
        cols_idx.append(v + nu)
        caps.append(1)
    for u, v in g.edges():
        rows_idx += [u + nu, v + nu]
        cols_idx += [v, u]
        caps += [big, big]
    mat = csr_matrix((caps, (rows_idx, cols_idx)), shape=(2 * nu, 2 * nu))

    best = nu - 1
    for s in range(nu):
        for t in range(s + 1, nu):
            if g.adjacent(s, t):
                continue
            flow = maximum_flow(mat, s + nu, t).flow_value
            best = min(best, int(flow))
    return ConnectivityResult(best, "exact", "max-flow over all non-adjacent pairs")
