"""Elementary graph properties of the graph of lines.

A Hamilton cycle, an n-coloring and, for even n, an r-edge-coloring are
read off the model (the *_by_construction functions) and each is checked by
its validator before it is reported; a witness that fails its check raises
AnalysisError.  The budgeted searches (hamiltonian_search,
chromatic_analysis, chromatic_index_bracket) remain as independent oracles
on small graphs.  The chromatic report carries three lower bounds
separately (the eigenvalue bound min(mult2, 1 - tau2/tau1), the claimed
bound (n-1)(n-m), and the clique bound n) exactly because they can
disagree; any inconsistency between them and the exact value is flagged,
not hidden.

The planarity, Eulerian and Krein verdicts live in linegraph, so that
verify reports them without loading this module.
"""

from __future__ import annotations

from math import gcd

from ._util import iter_bits
from .construct import RectangleModel
from .gf import field_make
from .linegraph import LineGraph, SrgCertificate
# re-exported for perfbench/tracer.py, which imports them from here
from .linegraph import eulerian_verdict, krein_check, planarity_verdict  # noqa: F401

DEFAULT_EXACT_CHI_LIMIT = 100
DEFAULT_NODE_BUDGET = 2_000_000
# The witnesses cost O(edges).  The srg certificate analyze reports computes
# row 0 of A^2 (nu popcounts of nu-bit rows) on a graph that carries the
# model's translation certificate, and every row on any other: analyze
# R(8,64), nu = 4096, took 4.3 s and 27 MB.
ANALYSIS_MAX_VERTICES = 4096


class AnalysisError(ValueError):
    """A witness fails its own verification, or cannot be read off the model."""


class HamiltonianReport:
    def __init__(self, cycle: list[int] | None, verified: bool, nodes_expanded: int,
                 budget_exhausted: bool, condition_n_le_3m_plus_1: bool | None = None,
                 provenance: str | None = None):
        self.cycle, self.verified = cycle, verified
        self.nodes_expanded, self.budget_exhausted = nodes_expanded, budget_exhausted
        self.condition_n_le_3m_plus_1 = condition_n_le_3m_plus_1
        self.provenance = provenance


def validate_cycle(g: LineGraph, seq: list[int]) -> bool:
    """Edge-by-edge validation of a closed vertex sequence as a Hamilton cycle."""
    if len(seq) != g.nu + 1 or seq[0] != seq[-1]:
        return False
    if set(seq[:-1]) != set(range(g.nu)):
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


def hamiltonian_by_construction(g: LineGraph, model: RectangleModel,
                                m: int, n: int) -> HamiltonianReport:
    """The Hamilton cycle rook_walk reads off the model, validated edge by edge."""
    cycle = rook_walk(model)
    if not validate_cycle(g, cycle):
        raise AnalysisError("the rook's-graph walk is not a Hamilton cycle of the graph")
    return HamiltonianReport(cycle, True, 0, False, n <= 3 * m + 1, "rook's-graph walk")


class ChromaticReport:
    """The three lower bounds on chi that cert's parameters fix, and no chi
    yet; haemers_exact writes 1 - tau2/tau1 in lowest terms, 0 if tau1 = 0."""

    def __init__(self, cert: SrgCertificate):
        mult2, tau1, tau2 = cert.multiplicities[2], cert.tau1, cert.tau2
        num, den = (tau1 - tau2, tau1) if tau1 else (0, 1)
        common = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // common, den // common
        ratio = str(num) if den == 1 else f"{num}/{den}"
        self.haemers_bound = min(mult2, -(-num // den))
        self.haemers_exact = f"min({mult2}, {ratio})"
        self.claimed_bound, self.clique_lower_bound = (cert.n - 1) * (cert.n - cert.m), cert.n
        self.exact_chromatic: int | None = None
        self.witness: list[int] | None = None
        self.flags = {}
        self.provenance: str | None = None


def chromatic_analysis(g: LineGraph, cert: SrgCertificate, m: int, n: int,
                       exact_limit: int = DEFAULT_EXACT_CHI_LIMIT,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> ChromaticReport:
    """Bounds, exact chromatic number where feasible, and consistency flags.

    The bounds are those cert's parameters fix (ChromaticReport); m and n
    are cert's own order, taken for perfbench/tracer.py's call and not read.
    The exact search is DSATUR-seeded branch and bound within a node
    budget; its witness coloring is verified proper before being reported.
    """
    report = ChromaticReport(cert)
    if g.nu <= exact_limit:
        chi, colors, exhausted = _exact_chromatic(g, node_budget)
        if not exhausted:
            _accept_coloring(report, g, chi, colors, "exact search")
    _flag_chromatic(report)
    return report


def chromatic_by_construction(g: LineGraph, model: RectangleModel,
                              cert: SrgCertificate) -> ChromaticReport:
    """The bounds of chromatic_analysis with chi = n certified from the model.

    The ordinary lines through one point are an n-clique of g, and
    net_coloring gives a proper n-coloring; both are checked against g.
    """
    report = ChromaticReport(cert)
    clique = _point_clique(model, _special_points(model, 0)[0])
    mask = sum(1 << v for v in clique)
    if not all((g.rows[v] | 1 << v) & mask == mask for v in clique):
        raise AnalysisError(f"the {model.n} ordinary lines through one point are not a clique")
    colors, report.provenance = net_coloring(model)
    _accept_coloring(report, g, model.n, colors, report.provenance)
    _flag_chromatic(report)
    return report


def _accept_coloring(report: ChromaticReport, g: LineGraph, chi: int, colors, source: str):
    if not (len(colors) == g.nu and _proper(g, colors) and len(set(colors)) == chi):
        raise AnalysisError(f"{source} gave a coloring that is not a proper {chi}-coloring")
    report.exact_chromatic = chi
    report.witness = colors


def _flag_chromatic(report: ChromaticReport):
    f = report.flags
    exact = report.exact_chromatic
    haemers, claimed = report.haemers_bound, report.claimed_bound
    f["exact_computed"] = exact is not None
    if exact is not None:
        f["exact_ge_clique_bound"] = exact >= report.clique_lower_bound
        f["exact_ge_haemers_bound"] = exact >= haemers
        f["exact_ge_claimed_bound"] = exact >= claimed
        f["claimed_bound_consistent"] = exact >= claimed
        if exact < claimed:
            f["note"] = (f"exact chromatic number {exact} is below the claimed "
                         f"lower bound {claimed}; the eigenvalue bound evaluates "
                         f"to {haemers}")


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


class EdgeColorReport:
    """The Vizing bracket {r, r+1} of an r-regular graph; odd order settles r+1."""

    def __init__(self, r: int, nu_odd: bool):
        self.r, self.bracket, self.nu_odd = r, (r, r + 1), nu_odd
        self.verdict = "r+1 (odd order)" if nu_odd else "unresolved"  # or "r (coloring found)"
        self.witness: dict | None = None
        self.nodes_expanded = 0
        self.flags = {}
        self.provenance: str | None = None


def chromatic_index_bracket(g: LineGraph, m: int | None = None, n: int | None = None,
                            node_budget: int = DEFAULT_NODE_BUDGET) -> EdgeColorReport:
    """The Vizing bracket {r, r+1} plus a budgeted r-edge-coloring attempt.

    Odd vertex count forces r+1 immediately.  For even order a backtracking
    search tries to realize r colors; timeout leaves the bracket only.  With
    (m, n) given, the degree-versus-eigenvalue condition max(tau1, -tau2) <
    r^0.9 and the hypothesis m+1 >= (n-1)^(1/9) are evaluated exactly as
    integer power comparisons and recorded as informational flags.
    """
    rep = _edge_bracket(g, m, n)
    if rep.nu_odd:
        return rep
    assign, rep.nodes_expanded = _edge_coloring(g, rep.r, node_budget)
    if assign is not None:
        _check_edge_coloring(rep, g, assign.items(), "edge-coloring search")
        rep.witness = assign
    return rep


def chromatic_index_by_construction(g: LineGraph, model: RectangleModel, m: int | None = None,
                                    n: int | None = None) -> EdgeColorReport:
    """The bracket and flags of chromatic_index_bracket, settled from the model.

    Odd order forces r+1; otherwise net_one_factorization gives an
    r-edge-coloring, checked against g as it is generated.  It is not kept
    (it has up to nu*r/2 entries): rep.witness stays None, and the same
    coloring is net_one_factorization(model) again.
    """
    rep = _edge_bracket(g, m, n)
    if not rep.nu_odd:
        rep.provenance = "net 1-factorization"
        _check_edge_coloring(rep, g, net_one_factorization(model), rep.provenance)
    return rep


def _edge_bracket(g: LineGraph, m: int | None, n: int | None) -> EdgeColorReport:
    degs = {g.degree(v) for v in range(g.nu)}
    if len(degs) != 1:
        raise AnalysisError("chromatic index bracket needs a regular graph")
    r = degs.pop()
    rep = EdgeColorReport(r, g.nu % 2 == 1)
    if m is not None and n is not None:
        srg = SrgCertificate(m, n)
        x = max(srg.tau1, -srg.tau2)
        rep.flags["max_eig_lt_r_0.9"] = x ** 10 < r ** 9
        rep.flags["m_plus_1_ge_ninth_root"] = (m + 1) ** 9 >= n - 1
    return rep


def _check_edge_coloring(rep: EdgeColorReport, g: LineGraph, pairs, source: str):
    if not _proper_edges(g, pairs, rep.r):
        raise AnalysisError(f"{source} gave an assignment that is not a proper "
                            f"{rep.r}-edge-coloring")
    rep.verdict = "r (coloring found)"


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


def _proper_edges(g, pairs, r) -> bool:
    """The ((u, v), color) pairs give every edge u < v of g exactly one of
    the colors 1..r, with no color twice at a vertex."""
    in_use = [0] * g.nu   # bit c: color c is in use at the vertex
    colored = [0] * g.nu  # bit v of entry u: edge (u, v) has its color
    count = 0
    for (u, v), c in pairs:
        if not (0 <= u < v < g.nu and g.adjacent(u, v) and 1 <= c <= r) \
                or colored[u] >> v & 1:
            return False
        bit = 1 << c
        if (in_use[u] | in_use[v]) & bit:
            return False
        in_use[u] |= bit
        in_use[v] |= bit
        colored[u] |= 1 << v
        count += 1
    return count == g.num_edges


# -- witnesses read off the model; vertex v is the ordinary line structure.lines[v] --

def _special_points(model: RectangleModel, j: int) -> list[int]:
    """The n points other than D of the j-th special line, in stored order."""
    s = model.structure
    if j >= len(s.special_lines):
        raise AnalysisError(f"the model has no special line {j}")
    points = [p for p in s.lines[s.special_lines[j]] if p != s.special_point]
    if len(points) != model.n:
        raise AnalysisError(f"special line {j} has {len(points)} points besides D, "
                            f"not n = {model.n}")
    return points


def _positions(model: RectangleModel, j: int) -> list[int]:
    """For each ordinary line, the position of its point among _special_points(j)."""
    points = _special_points(model, j)
    where = {p: i for i, p in enumerate(points)}
    on_j = sum(1 << p for p in points)
    out = []
    for v, mask in enumerate(model.structure.line_masks[:model.num_ordinary_lines]):
        hit = mask & on_j
        if hit & (hit - 1) or not hit:
            raise AnalysisError(f"line {v} meets special line {j} in {hit.bit_count()} "
                                f"points, not one")
        out.append(where[hit.bit_length() - 1])
    return out


def _point_clique(model: RectangleModel, p: int) -> list[int]:
    """The n ordinary lines through point p."""
    s = model.structure
    clique = list(iter_bits(s.through[p] & (1 << model.num_ordinary_lines) - 1))
    if len(clique) != model.n:
        raise AnalysisError(f"point {s.points[p]} lies on {len(clique)} ordinary lines, "
                            f"not n = {model.n}")
    return clique


def net_coloring(model: RectangleModel) -> tuple[list[int], str]:
    """(a color per ordinary line, its provenance): n classes of n disjoint lines.

    A color class is one more parallel class of the (m+1)-net of point
    cliques.  L_2^k: line (u, v), with u and v the positions of its points
    on the special lines A and C, gets u + omega*v in GF(2^k) for omega the
    class of x, outside GF(2); u + omega*v = u' + omega*v' with u != u' or
    v != v' forces u + u' = omega*(v + v'), so the lines meet neither on A,
    nor on C, nor (as u + u' = v + v' would give omega = 1) on B.
    R(q, q^k): line <a,b,1> gets b - alpha*a for alpha the class of x, outside
    GF(q); two lines meet off D on s_beta or s_inf iff (b - b')/(a - a') is
    in GF(q) or a = a', so equal colors never meet.  The classes are the
    cosets of a linear rank-distance-2 MRD code.
    """
    if model.k < 2:
        raise AnalysisError("a trivial model has no coloring beyond its point cliques")
    if model.family == "l2k":
        mul = field_make(2, model.k).mul_codes
        return ([u ^ mul(2, v) for u, v in zip(_positions(model, 0), _positions(model, 2))],
                "(Z_2)^k orthogonal mate")
    if model.line_coeffs is None:
        raise AnalysisError("the model carries no line coefficients")
    ctx = model.ctx
    colors = []
    for v, (a, b, c) in enumerate(model.line_coeffs):
        if c != 1:
            raise AnalysisError(f"line {v} has coefficients not of the form <a,b,1>")
        colors.append(ctx.sub_codes(b, ctx.mul_codes(ctx.p, a)))
    return colors, "MRD coset"


def net_one_factorization(model: RectangleModel):
    """An r-edge-coloring for even n, as ((u, v), color) pairs with u < v.

    Every edge lies in exactly one point clique, a copy of K_n, and the point
    cliques of one special line are disjoint.  Special line j gets colors
    j(n-1)+1 .. (j+1)(n-1), and each of its cliques the round-robin
    1-factorization: members a < b < n-1 get (a+b)/2 mod n-1, members
    a < n-1 = b get a.
    """
    n = model.n
    if n % 2:
        raise AnalysisError(f"K_{n} has no 1-factorization: n is odd")
    half = n // 2  # the inverse of 2 mod n-1
    for j in range(len(model.structure.special_lines)):
        base = j * (n - 1) + 1
        for p in _special_points(model, j):
            clique = _point_clique(model, p)
            last = clique[-1]
            for a, u in enumerate(clique[:-1]):
                for b in range(a + 1, n - 1):
                    yield (u, clique[b]), base + (a + b) * half % (n - 1)
                yield (u, last), base + a


def rook_walk(model: RectangleModel) -> list[int]:
    """A closed walk through every ordinary line once.

    The point cliques of special lines 0 and 1 form a rook's graph
    K_n x K_n: cell (i, j) is the ordinary line through the i-th point of
    one and the j-th point of the other.  The walk snakes row by row over
    columns 1..n-1, then returns up column 0; consecutive cells share a row
    or a column, so consecutive lines meet.  A cell that holds two lines
    raises AnalysisError.
    """
    n = model.n
    if model.num_ordinary_lines != n * n:
        raise AnalysisError(f"{model.num_ordinary_lines} ordinary lines, not n^2 = {n * n}")
    grid = [-1] * (n * n)
    for v, (i, j) in enumerate(zip(_positions(model, 0), _positions(model, 1))):
        if grid[i * n + j] >= 0:
            raise AnalysisError(f"lines {grid[i * n + j]} and {v} meet both special "
                                f"lines 0 and 1 in the same points")
        grid[i * n + j] = v
    walk = []
    for i in range(n):
        columns = range(1, n) if i % 2 == 0 else range(n - 1, 0, -1)
        walk += [grid[i * n + j] for j in columns]
    walk += [grid[i * n] for i in range(n - 1, -1, -1)]
    return walk + walk[:1]
