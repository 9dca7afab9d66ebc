"""Elementary graph properties of the graph of lines.

Planarity and Eulerian verdicts come with the degree/parity reasoning that
justifies them; Hamiltonicity is a budgeted search whose timeout is reported
as inconclusive, never as a negative.  The chromatic report carries three
lower bounds separately (the eigenvalue bound min(mult2, 1 - tau2/tau1), the
claimed bound (n-1)(n-m), and the clique bound n) exactly because they can
disagree; any inconsistency between them and the exact value is flagged,
not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, inf

from ._util import iter_bits
from .linegraph import LineGraph, SrgCertificate, diameter

DEFAULT_EXACT_CHI_LIMIT = 100
DEFAULT_NODE_BUDGET = 2_000_000


class AnalysisError(ValueError):
    """A search returned a witness that fails its own verification."""


@dataclass
class PlanarityReport:
    planar: bool
    reason: str
    is_k4: bool = False


def planarity_verdict(g: LineGraph, m: int, n: int) -> PlanarityReport:
    """Nonplanar whenever the degree reaches 6; the (2,2) case is K_4."""
    if m == 2 and n == 2:
        is_k4 = g.nu == 4 and g.is_complete()
        return PlanarityReport(is_k4, "graph is K_4, drawable in the plane", is_k4)
    r = (m + 1) * (n - 1)
    if r >= 6:
        return PlanarityReport(False, f"regular of degree {r} >= 6")
    return PlanarityReport(False, f"unexpected parameters m={m}, n={n}")


@dataclass
class EulerianReport:
    eulerian: bool
    predicate: bool  # m or n odd
    connected: bool
    degrees_even: bool

    @property
    def consistent(self) -> bool:
        return self.eulerian == self.predicate


def eulerian_verdict(g: LineGraph, m: int, n: int) -> EulerianReport:
    """Direct even-degree plus connectivity check against the parity rule."""
    degrees_even = all(g.degree(v) % 2 == 0 for v in range(g.nu))
    connected = diameter(g) != inf
    return EulerianReport(
        eulerian=degrees_even and connected,
        predicate=(m % 2 == 1) or (n % 2 == 1),
        connected=connected,
        degrees_even=degrees_even,
    )


@dataclass
class HamiltonianReport:
    cycle: list[int] | None
    verified: bool
    nodes_expanded: int
    budget_exhausted: bool
    condition_n_le_3m_plus_1: bool | None = None


def validate_cycle(g: LineGraph, seq: list[int]) -> bool:
    """Edge-by-edge validation of a closed vertex sequence as a Hamilton cycle."""
    if len(seq) != g.nu + 1 or seq[0] != seq[-1]:
        return False
    if len(set(seq[:-1])) != g.nu:
        return False
    return all(g.adjacent(seq[i], seq[i + 1]) for i in range(g.nu))


def hamiltonian_search(g: LineGraph, node_budget: int = DEFAULT_NODE_BUDGET,
                       m: int | None = None, n: int | None = None) -> HamiltonianReport:
    """Backtracking Hamilton-cycle search with a deterministic node budget.

    Neighbors are tried fewest-remaining-choices first, which settles dense
    instances quickly.  A found cycle is validated before being reported;
    budget exhaustion is inconclusive.
    """
    cond = (n <= 3 * m + 1) if (m is not None and n is not None) else None
    nu = g.nu
    if nu == 0:
        return HamiltonianReport(None, False, 0, False, cond)
    rows = g.rows
    path = [0]
    visited = 1
    nodes = 0

    def extend():
        nonlocal visited, nodes
        nodes += 1
        if nodes > node_budget:
            return "budget"
        v = path[-1]
        if len(path) == nu:
            return "done" if rows[v] >> path[0] & 1 else None
        cands = [(rows[u] & ~visited).bit_count() for u in iter_bits(rows[v] & ~visited)]
        order = sorted(zip(cands, iter_bits(rows[v] & ~visited)))
        for _, u in order:
            path.append(u)
            visited |= 1 << u
            res = extend()
            if res:
                return res
            path.pop()
            visited &= ~(1 << u)
        return None

    res = extend()
    if res == "done":
        cycle = path + [path[0]]
        return HamiltonianReport(cycle, validate_cycle(g, cycle), nodes, False, cond)
    return HamiltonianReport(None, False, nodes, res == "budget", cond)


@dataclass
class ChromaticReport:
    exact_chromatic: int | None
    witness: list[int] | None
    haemers_bound: int
    haemers_exact: str
    claimed_bound: int
    clique_lower_bound: int
    flags: dict = field(default_factory=dict)


def chromatic_analysis(g: LineGraph, cert: SrgCertificate, m: int, n: int,
                       exact_limit: int = DEFAULT_EXACT_CHI_LIMIT,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> ChromaticReport:
    """Bounds, exact chromatic number where feasible, and consistency flags.

    The eigenvalue bound is min(mult(tau2), 1 - tau2/tau1) evaluated in exact
    rational arithmetic, the claimed bound is (n-1)(n-m), the clique bound is
    n.  The exact search is DSATUR-seeded branch and bound within a node
    budget; its witness coloring is verified proper before being reported.
    """
    mult2 = cert.multiplicities[2]
    ratio = Fraction(1) - Fraction(cert.tau2, cert.tau1) if cert.tau1 else Fraction(0)
    hmin = min(Fraction(mult2), ratio)
    haemers = ceil(hmin)
    claimed = (n - 1) * (n - m)
    report = ChromaticReport(
        exact_chromatic=None,
        witness=None,
        haemers_bound=haemers,
        haemers_exact=f"min({mult2}, {ratio})",
        claimed_bound=claimed,
        clique_lower_bound=n,
    )
    if g.nu <= exact_limit:
        chi, colors, exhausted = _exact_chromatic(g, node_budget)
        if not exhausted:
            if not (_proper(g, colors) and len(set(colors)) == chi):
                raise AnalysisError(f"exact search returned a coloring that is not "
                                    f"a proper {chi}-coloring")
            report.exact_chromatic = chi
            report.witness = colors
    f = report.flags
    exact = report.exact_chromatic
    f["exact_computed"] = exact is not None
    if exact is not None:
        f["exact_ge_clique_bound"] = exact >= n
        f["exact_ge_haemers_bound"] = exact >= haemers
        f["exact_ge_claimed_bound"] = exact >= claimed
        f["claimed_bound_consistent"] = exact >= claimed
        if exact < claimed:
            f["note"] = (f"exact chromatic number {exact} is below the claimed "
                         f"lower bound {claimed}; the eigenvalue bound evaluates "
                         f"to {haemers}")
    return report


def _proper(g: LineGraph, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in g.edges())


def _greedy_clique(g: LineGraph) -> list[int]:
    best = []
    for start in range(g.nu):
        clique = [start]
        cand = g.rows[start]
        while cand:
            v = max(iter_bits(cand), key=lambda u: (g.rows[u] & cand).bit_count())
            clique.append(v)
            cand &= g.rows[v]
        if len(clique) > len(best):
            best = clique
    return best


def _exact_chromatic(g: LineGraph, node_budget: int):
    """(chi, coloring, budget_exhausted) via DSATUR branch and bound."""
    nu = g.nu
    rows = g.rows
    if nu == 0:
        return 0, [], False

    # Greedy upper bound, largest degree first.
    order = sorted(range(nu), key=g.degree, reverse=True)
    greedy = [0] * nu
    for v in order:
        used = {greedy[u] for u in iter_bits(rows[v]) if greedy[u]}
        c = 1
        while c in used:
            c += 1
        greedy[v] = c
    best_k = max(greedy)
    best = list(greedy)

    clique = _greedy_clique(g)
    lower = len(clique)
    if lower == best_k:
        return best_k, [c - 1 for c in best], False

    colors = [0] * nu
    for i, v in enumerate(clique):
        colors[v] = i + 1
    nodes = 0
    exhausted = False

    def select():
        cand, sat_best, deg_best = -1, -1, -1
        for v in range(nu):
            if colors[v]:
                continue
            sat = len({colors[u] for u in iter_bits(rows[v]) if colors[u]})
            d = rows[v].bit_count()
            if sat > sat_best or (sat == sat_best and d > deg_best):
                cand, sat_best, deg_best = v, sat, d
        return cand

    def backtrack(kmax):
        nonlocal best_k, best, nodes, exhausted
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if kmax >= best_k:
            return
        v = select()
        if v < 0:
            best_k = kmax
            best = list(colors)
            return
        neigh = {colors[u] for u in iter_bits(rows[v])}
        # colors 1..kmax reuse the palette; kmax+1 opens a new color and is
        # only worth trying while it still undercuts the best known count
        for c in range(1, kmax + 2):
            if exhausted or kmax >= best_k:
                return
            if c > kmax and c >= best_k:
                return
            if c in neigh:
                continue
            colors[v] = c
            backtrack(kmax if c <= kmax else c)
            colors[v] = 0

    backtrack(len(clique))
    if exhausted:
        return best_k, [c - 1 for c in best], True
    return best_k, [c - 1 for c in best], False


@dataclass
class EdgeColorReport:
    r: int
    bracket: tuple[int, int]
    nu_odd: bool
    verdict: str  # "r+1 (odd order)", "r (coloring found)", "unresolved"
    witness: dict | None
    nodes_expanded: int
    flags: dict = field(default_factory=dict)


def chromatic_index_bracket(g: LineGraph, m: int | None = None, n: int | None = None,
                            node_budget: int = DEFAULT_NODE_BUDGET) -> EdgeColorReport:
    """The Vizing bracket {r, r+1} plus a budgeted r-edge-coloring attempt.

    Odd vertex count forces r+1 immediately.  For even order a backtracking
    search tries to realize r colors; timeout leaves the bracket only.  With
    (m, n) given, the degree-versus-eigenvalue condition max(tau1, -tau2) <
    r^0.9 and the hypothesis m+1 >= (n-1)^(1/9) are evaluated exactly as
    integer power comparisons and recorded as informational flags.
    """
    degs = {g.degree(v) for v in range(g.nu)}
    if len(degs) != 1:
        raise ValueError("chromatic index bracket needs a regular graph")
    r = degs.pop()
    rep = EdgeColorReport(r, (r, r + 1), g.nu % 2 == 1, "unresolved", None, 0)
    if m is not None and n is not None:
        tau1, tau2 = n - m - 1, -(m + 1)
        x = max(tau1, -tau2)
        rep.flags["max_eig_lt_r_0.9"] = x ** 10 < r ** 9
        rep.flags["m_plus_1_ge_ninth_root"] = (m + 1) ** 9 >= n - 1
    if rep.nu_odd:
        rep.verdict = "r+1 (odd order)"
        return rep

    assign, rep.nodes_expanded = _edge_coloring(g, r, node_budget)
    if assign is not None:
        if not _proper_edges(g, assign, r):
            raise AnalysisError(f"edge-coloring search returned an assignment that "
                                f"is not a proper {r}-edge-coloring")
        rep.verdict = "r (coloring found)"
        rep.witness = assign
    return rep


def _edge_coloring(g: LineGraph, r: int, node_budget: int):
    """(an r-edge-coloring as {edge: color} or None, search nodes expanded)."""
    edges = list(g.edges())
    # Most-constrained-first static order: edges at a vertex stay together.
    edges.sort()
    color_at = [dict() for _ in range(g.nu)]  # vertex -> color set in use
    assign = {}
    nodes = 0
    exhausted = False

    def place(i):
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return False
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(1, r + 1):
            if c in color_at[u] or c in color_at[v]:
                continue
            color_at[u][c] = color_at[v][c] = True
            assign[(u, v)] = c
            if place(i + 1):
                return True
            del color_at[u][c], color_at[v][c], assign[(u, v)]
            if exhausted:
                return False
        return False

    return (dict(assign) if place(0) else None), nodes


def _proper_edges(g, assign, r) -> bool:
    if len(assign) != g.num_edges or any(c > r for c in assign.values()):
        return False
    seen = [set() for _ in range(g.nu)]
    for (u, v), c in assign.items():
        if c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    return True


@dataclass
class KreinReport:
    lhs1: int
    rhs1: int
    lhs2: int
    rhs2: int

    @property
    def ok(self) -> bool:
        return self.lhs1 <= self.rhs1 and self.lhs2 <= self.rhs2


def krein_check(cert: SrgCertificate) -> KreinReport:
    """Both Krein conditions on the certified parameters, exactly.

    (tau1+1)(r + tau1 + 2*tau1*tau2) <= (r + tau1)(tau2 + 1)^2 and the dual
    with tau1 and tau2 swapped; every strongly regular graph must pass.
    """
    r, s, t = cert.tau0, cert.tau1, cert.tau2
    return KreinReport(
        lhs1=(s + 1) * (r + s + 2 * s * t),
        rhs1=(r + s) * (t + 1) ** 2,
        lhs2=(t + 1) * (r + t + 2 * s * t),
        rhs2=(r + t) * (s + 1) ** 2,
    )
