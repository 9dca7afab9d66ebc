"""The graph of lines: vertices are ordinary lines, edges mean concurrence.

Adjacency is held as packed bit rows (Python ints).  Row u is the
structure's concurrence mask of line u (_util.meeting over
IncidenceStructure.through), the mask A6 reads, restricted to the ordinary
lines.  The class of an edge, read from the model, is the special line
through the common point.  Under A1 and A5, with n ordinary lines on each
ordinary point, the classes factor the graph into m+1 spanning
(n-1)-regular subgraphs: class j at u is the pencil of u's point on
special line j, minus u.

Strong regularity is certified by direct counting over all vertex pairs plus
the exact integer matrix identity (A - tau1*I)(A - tau2*I) = mu*J, checked
entrywise from the bit rows: (A^2)[u,w] is the popcount of row u against
column w, so the identity and the common-neighbor counts are read from the
same popcounts.  No floating point is involved anywhere.

The built models number their lines so that the graph is a Cayley graph on
GF(p)^d, vertex x being the vector of its base-p digits: L_2^k on
(Z_2)^(2k), R(q, q^k) on the pairs (a, b) of <a,b,1>, like H_q(2,k).
build_line_graph attaches the model's incidence certificate
(IncidenceStructure.translations) as LineGraph.translations; every
translation is then an automorphism, and the srg check and the clique
census (see cliques) do the work of vertex 0 only.  build_hq2k certifies
H_q(2,k) alike: its rows are the translates of row 0.  Any other graph,
such as a model whose lines were renumbered or one built by hand, carries
no certificate and takes the all-vertex loops.

The planarity, Eulerian and Krein verdicts read only the graph, (m, n) and
the srg certificate, so they live here: verify reports them without
loading analysis.
"""

from __future__ import annotations

from math import inf

from ._util import Translations, Verdicts, iter_bits, meeting
from .construct import RectangleModel

# the largest graph of lines measured: its graph6 export on R(2,128), nu =
# 2^14, took 12.9 s and 319 MB (README, "Scale")
MAX_VERTICES = 1 << 14


class LineGraphError(ValueError):
    pass


class LineGraph:
    """Undirected graph with bitmask rows, one a vertex; translations, when
    given, certify it as a Cayley graph on GF(p)^d, nu = p^d: row x is row 0
    translated by x."""

    def __init__(self, rows: list[int], translations: Translations | None = None):
        self.nu = len(rows)
        self.rows = rows
        self.translations = translations

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


def edge_class(model: RectangleModel, u: int, v: int):
    """Position of the special line through the common point of lines u and v
    other than D; None unless they share exactly one such point and one
    special line passes through it.  The special lines come last (a model
    file must list them so), so line nu + j is special line j."""
    s = model.structure
    common = s.line_masks[u] & s.line_masks[v] & ~(1 << s.special_point)
    if common.bit_count() != 1:
        return None
    special = s.through[common.bit_length() - 1] >> model.num_ordinary_lines
    return special.bit_length() - 1 if special.bit_count() == 1 else None


def build_line_graph(model: RectangleModel) -> LineGraph:
    """Graph of lines of a rectangle model.

    Vertices are the ordinary lines in construction order.  Two lines are
    adjacent iff their stored point sets meet (outside D, as ordinary lines
    miss it): row u is the concurrence mask of line u restricted to the
    ordinary lines.  A1 is not checked here; check_axioms reports two lines
    that meet twice with a witness.

    The model's incidence certificate goes with the graph: each translation
    fixes D and sends ordinary line x to x + t, so it preserves "meet
    outside D", A1 or not.  Past MAX_VERTICES it raises LineGraphError
    before any row is built.
    """
    s = model.structure
    nu = model.num_ordinary_lines
    if nu > MAX_VERTICES:
        raise LineGraphError(f"graph of lines limited to {MAX_VERTICES} vertices, "
                             f"the model has {nu}")
    ordinary = (1 << nu) - 1
    rows = [row & ordinary for row in meeting(s.lines, s.through, range(nu))[:nu]]
    return LineGraph(rows, s.translations)


class SrgCertificate(Verdicts):
    """Exact strong-regularity evidence for the parameters (m, n) fix:
    srg(n^2, (m+1)(n-1), n+(m+1)(m-2), m(m+1)), eigenvalues tau0 = r,
    tau1 = n-m-1 and tau2 = -(m+1) with multiplicities 1, (m+1)(n-1) and
    (n-m)(n-1).  It starts with no verdict; certify_srg gives them."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.nu, self.r = n * n, (m + 1) * (n - 1)
        self.lam, self.mu = n + (m + 1) * (m - 2), m * (m + 1)
        self.tau0, self.tau1, self.tau2 = self.r, n - m - 1, -(m + 1)
        self.multiplicities = (1, self.r, (n - m) * (n - 1))
        self.verdicts = {}
        self.witness: dict | None = None

    @property
    def parameters(self) -> tuple[int, int, int, int]:
        return (self.nu, self.r, self.lam, self.mu)


def certify_srg(g: LineGraph, m: int, n: int) -> SrgCertificate:
    """Certify the parameters of SrgCertificate(m, n) by direct count.

    Checks, in exact integer arithmetic: vertex count, degree regularity,
    common-neighbor counts for every pair, the quadratic matrix identity
    in tau1 and tau2, and the eigenvalue multiplicities via the trace
    equations.
    """
    cert = SrgCertificate(m, n)
    nu, r, mu, tau1, tau2 = cert.nu, cert.r, cert.mu, cert.tau1, cert.tau2
    v = cert.verdicts

    v["vertex_count"] = g.nu == nu
    if not v["vertex_count"]:
        cert.witness = {"check": "vertex_count", "actual": g.nu}
        return cert

    bad = next((x for x in range(nu) if g.degree(x) != r), None)
    v["degree_regular"] = bad is None
    if bad is not None:
        cert.witness = {"check": "degree", "vertex": bad, "actual": g.degree(bad)}

    pair_witness, spectral_witness = _square_check(g.rows, mu, tau1, tau2,
                                                   g.translations is not None)
    v["common_neighbor_counts"] = pair_witness is None
    if pair_witness and cert.witness is None:
        cert.witness = pair_witness

    v["spectral_identity"] = spectral_witness is None
    if spectral_witness and cert.witness is None:
        cert.witness = spectral_witness

    # Multiplicities f1, f2 solve 1+f1+f2 = nu and tau0+f1*tau1+f2*tau2 = 0.
    f0, f1, f2 = cert.multiplicities
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


def _square_check(rows: list[int], mu: int, tau1: int, tau2: int, cayley: bool = False):
    """(first failing pair, first failing identity entry), each None if none fails.

    (A^2)[u,w] is the popcount of rows[u] against column w.  Entry (u,w) of
    (A - tau1*I)(A - tau2*I) is that count minus (tau1+tau2)*A[u,w] plus
    tau1*tau2*[u = w] and must equal mu; off the diagonal this is the pair
    count, which must be lam = mu + tau1 + tau2 on an edge and mu off one.
    Both witnesses are first in row-major order (pairs with u < w only).
    Symmetric rows give a symmetric A^2, whose first failure lies on or
    above the diagonal, so only those entries are computed.  On a certified
    Cayley graph (cayley, see LineGraph.translations) (A^2)[u,w] =
    (A^2)[0,w-u] and the wanted entries translate alike, so a failure
    anywhere fails row 0 too, which comes first: row 0 is the only one
    computed.
    """
    nu = len(rows)
    s, p = tau1 + tau2, tau1 * tau2
    if cayley:
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


class PlanarityReport:
    def __init__(self, planar: bool, reason: str, is_k4: bool = False):
        self.planar, self.reason, self.is_k4 = planar, reason, is_k4


def planarity_verdict(g: LineGraph, m: int, n: int) -> PlanarityReport:
    """Nonplanar whenever the degree reaches 6; the (2,2) case is K_4."""
    if m == 2 and n == 2:
        is_k4 = g.nu == 4 and g.is_complete()
        return PlanarityReport(is_k4, "graph is K_4, drawable in the plane", is_k4)
    r = SrgCertificate(m, n).r
    if r >= 6:
        return PlanarityReport(False, f"regular of degree {r} >= 6")
    return PlanarityReport(False, f"unexpected parameters m={m}, n={n}")


class EulerianReport:
    def __init__(self, eulerian: bool, predicate: bool, connected: bool):
        self.eulerian = eulerian
        self.predicate = predicate  # m or n odd
        self.connected = connected

    @property
    def consistent(self) -> bool:
        return self.eulerian == self.predicate


def eulerian_verdict(g: LineGraph, m: int, n: int) -> EulerianReport:
    """Direct even-degree plus connectivity check against the parity rule."""
    degrees_even = all(g.degree(v) % 2 == 0 for v in range(g.nu))
    connected = g.nu == 0 or eccentricity(g, 0) != inf
    return EulerianReport(
        eulerian=degrees_even and connected,
        predicate=(m % 2 == 1) or (n % 2 == 1),
        connected=connected,
    )


class KreinReport:
    def __init__(self, cert: SrgCertificate):
        r, s, t = cert.tau0, cert.tau1, cert.tau2
        self.srg = cert.ok  # the certificate passed, so its eigenvalues are the graph's
        self.lhs1, self.rhs1 = (s + 1) * (r + s + 2 * s * t), (r + s) * (t + 1) ** 2
        self.lhs2, self.rhs2 = (t + 1) * (r + t + 2 * s * t), (r + t) * (s + 1) ** 2

    @property
    def ok(self) -> bool:
        return self.srg and self.lhs1 <= self.rhs1 and self.lhs2 <= self.rhs2


def krein_check(cert: SrgCertificate) -> KreinReport:
    """Both Krein conditions on the certified parameters, exactly.

    (tau1+1)(r + tau1 + 2*tau1*tau2) <= (r + tau1)(tau2 + 1)^2 and the dual
    with tau1 and tau2 swapped; every strongly regular graph must pass.  The
    eigenvalues are the expected parameters' formulas, which describe the
    graph only when the certificate passes, so a failed certificate fails.
    """
    return KreinReport(cert)
