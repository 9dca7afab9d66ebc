"""Test-only oracles and graph builders shared by several test modules.

Each oracle recomputes a fact by a route independent of the library code
that the tests check: numpy for the adjacency matrix, the coordinate
formula for common points, a backtracking search for incidence
isomorphisms, a pair-by-pair build of the colored graph of lines, H_q(2,k)
built from a table of matrices, an isomorphism probe on every pair,
digit-by-digit addition for the translations of a Cayley graph, a
schoolbook product in GF(p)[x] modulo the field's modulus, and the six
axioms on each plane rebuilt from a plane clique.  twisted_r39 is a
translation-invariant structure that fails A6, so that a failing input
reaches the orbit paths; invariant_mutant makes more such structures from
one mutation of line 0.  translation_group and census_closed are the
graph-level and census-level translation checks the library no longer runs:
they show, independently of the incidence certificate that replaced them,
that a certified model's graph is a Cayley graph and its clique classes are
closed under translation.  drop_line makes a structure with one line
removed.  lines_at is the oracles' own point index, read off s.lines, so
that they share none of the library's incidence index; special_line_at and
special_position read the special lines off s.lines alike, and digit_sum
adds vertex numbers digit by digit without the library's adder.
unreduced_cliques_through_0 is Bron-Kerbosch through vertex 0 on the whole
graph, without the library's twin classes of N(0).  intersection_violations
checks the clique intersection laws pair by pair with plain sets: every
(plane, point clique) pair and every vertex pair.

It also keeps the graph facts that verify's certificates imply and that no
CLI path computes: the diameter, the factorization into edge classes and
the exact vertex connectivity; the names of a report's failing verdicts
(failing); and re-checks, on the model file's point sets, of the witnesses
the CLI reports: the axioms', an anomalous clique of the census, and the
pair of a failing isomorphism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from prect._util import Translations, iter_bits, translations_of
from prect.bilinear import BilinearError, IsoReport
from prect.cliques import CliqueCensus, _bron_kerbosch
from prect.construct import (BuildError, RectangleModel, build_l2k, build_subplane_rect,
                             normalize_point)
from prect.export import model_from_dict, model_to_dict
from prect.gf import field_make
from prect.incidence import IncidenceStructure, check_axioms, elementary_counts, order_of
from prect.linegraph import LineGraph, eccentricity, edge_class


def graph_from_edges(nu: int, edges) -> LineGraph:
    rows = [0] * nu
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return LineGraph(rows)


def unreduced_cliques_through_0(g: LineGraph) -> list[tuple[int, ...]]:
    """The maximal cliques through vertex 0, sorted, by Bron-Kerbosch on the
    whole graph from R = {0}, P = N(0), with no twin classes."""
    return sorted(tuple(iter_bits(mask)) for mask in _bron_kerbosch(g.rows, 1, g.rows[0]))


def lines_at(s: IncidenceStructure) -> list[list[int]]:
    """[p]: the indices of the lines through point p, ascending, from s.lines."""
    at = [[] for _ in range(s.n_points)]
    for i, t in enumerate(s.lines):
        for p in t:
            at[p].append(i)
    return at


def special_line_at(s: IncidenceStructure, p: int):
    """The index of the one special line through point p, read off s.lines;
    None unless exactly one passes through it."""
    hits = [i for i, t in enumerate(s.lines) if p in t and s.special_point in t]
    return hits[0] if len(hits) == 1 else None


def special_position(s: IncidenceStructure, line_index: int) -> int:
    """The position of special line line_index among the special lines."""
    return sum(s.special_point in t for t in s.lines[:line_index])


def digit_sum(x: int, t: int, p: int, d: int) -> int:
    """x + t in GF(p)^d, the vectors of their d base-p digits."""
    return sum((x // p ** i + t // p ** i) % p * p ** i for i in range(d))


def drop_line(s: IncidenceStructure, line_index: int) -> IncidenceStructure:
    """Copy of the structure with one line removed."""
    lines = [t for i, t in enumerate(s.lines) if i != line_index]
    return IncidenceStructure(s.points, lines, s.special_point)


def without_edge(g: LineGraph, u: int, v: int) -> LineGraph:
    """A copy of g with the edge uv removed."""
    assert g.adjacent(u, v), (u, v)
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return LineGraph(rows)


def adjacency_matrix(g: LineGraph) -> np.ndarray:
    """The 0/1 adjacency matrix as an int64 numpy array."""
    a = np.zeros((g.nu, g.nu), dtype=np.int64)
    for u in range(g.nu):
        for v in iter_bits(g.rows[u]):
            a[u, v] = 1
    return a


@dataclass(frozen=True)
class CommonPoint:
    point: tuple[int, int, int]
    point_index: int
    special_position: int
    special_label: str


def common_point(l1: int, l2: int, model: RectangleModel):
    """Common point of two ordinary lines of a subplane model, or None.

    The meet of <a1,b1,1> and <a2,b2,1> is [-(b2-b1) : a2-a1 : a1*b2-a2*b1];
    it is None when that point is not among the model's points.  Only the
    line coefficients and point coordinates are read, never the stored
    point sets, which the tests compare against.
    """
    if model.line_coeffs is None:
        raise BuildError("common_point needs a coordinatized model")
    nu = model.num_ordinary_lines
    if not (0 <= l1 < nu and 0 <= l2 < nu):
        raise BuildError("common_point takes ordinary line indices")
    ctx = model.ctx
    (a1, b1, _), (a2, b2, _) = model.line_coeffs[l1], model.line_coeffs[l2]
    x = ctx.neg_code(ctx.sub_codes(b2, b1))
    y = ctx.sub_codes(a2, a1)
    z = ctx.sub_codes(ctx.mul_codes(a1, b2), ctx.mul_codes(a2, b1))
    pt = normalize_point(ctx, x, y, z)  # BuildError when l1 = l2
    if pt not in model.point_coords:
        return None
    idx = model.point_coords.index(pt)
    position = special_position(model.structure, special_line_at(model.structure, idx))
    return CommonPoint(pt, idx, position, model.special_labels[position])


def find_isomorphism(s1: IncidenceStructure, s2: IncidenceStructure):
    """Search for an incidence isomorphism mapping D to D.

    Returns a point map (list over s1 points) or None.  Backtracking with
    forced propagation: points are ordered so that most images are forced by
    lines containing two already-mapped points; practical at desk scale.
    """
    if (s1.n_points != s2.n_points or s1.n_lines != s2.n_lines
            or len(s1.special_lines) != len(s2.special_lines)):
        return None

    at1, at2 = lines_at(s1), lines_at(s2)

    def profile(s, at, p):
        return tuple(sorted(len(s.lines[i]) for i in at[p]))

    prof2 = {}
    for p in range(s2.n_points):
        prof2.setdefault(profile(s2, at2, p), []).append(p)

    lineset2 = {t: i for i, t in enumerate(s2.lines)}

    # Order: D first, then repeatedly a point on a line with the most
    # already-ordered points (so its image is usually forced).
    order = [s1.special_point]
    placed = {s1.special_point}
    while len(order) < s1.n_points:
        best, best_key = None, (-1, -1)
        for p in range(s1.n_points):
            if p in placed:
                continue
            forced = max((sum(q in placed for q in s1.lines[i])
                          for i in at1[p]), default=0)
            key = (forced, len(at1[p]))
            if key > best_key:
                best, best_key = p, key
        order.append(best)
        placed.add(best)

    mapping = {}
    used = set()

    def consistent(p, q):
        for i in at1[p]:
            mapped = [mapping[r] for r in s1.lines[i] if r in mapping]
            if not mapped:
                continue
            # q and all mapped points of this line must be collinear in s2
            # on a line of the same size.
            common = None
            for r in mapped + [q]:
                ls = set(at2[r])
                common = ls if common is None else common & ls
            ok = any(len(s2.lines[j]) == len(s1.lines[i]) for j in common) if common else False
            if not ok:
                return False
        return True

    def extend(idx):
        if idx == len(order):
            return True
        p = order[idx]
        if p == s1.special_point:
            cands = [s2.special_point]
        else:
            cands = prof2.get(profile(s1, at1, p), [])
        for q in cands:
            if q in used or not consistent(p, q):
                continue
            mapping[p] = q
            used.add(q)
            if extend(idx + 1):
                return True
            del mapping[p]
            used.discard(q)
        return False

    if not extend(0):
        return None
    pm = [mapping[p] for p in range(s1.n_points)]
    # Full verification: the induced line map must be a bijection.
    images = {tuple(sorted(pm[p] for p in t)) for t in s1.lines}
    if images != set(lineset2):
        return None
    return pm


def colored_line_graph(model: RectangleModel) -> tuple[LineGraph, dict]:
    """The graph of lines and its edge colors, pair by pair.

    Returns the graph and a dict from each edge (u, v), u < v, to the
    position of the special line through the common point of u and v, or
    None when no unique special line passes through it, or when the pair
    meets again in another point.
    """
    s = model.structure
    nu = model.num_ordinary_lines
    rows = [0] * nu
    colors = {}
    for p, lines in enumerate(lines_at(s)):
        if p == s.special_point:
            continue
        through = [i for i in lines if i < nu]
        special = [i for i in lines if s.special_point in s.lines[i]]
        c = special_position(s, special[0]) if len(special) == 1 else None
        for x in range(len(through)):
            u = through[x]
            for y in range(x + 1, len(through)):
                v = through[y]
                key = (u, v) if u < v else (v, u)
                colors[key] = None if key in colors else c
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return LineGraph(rows), colors


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


def vertex_connectivity(g: LineGraph) -> int:
    """Vertex connectivity, exactly, by augmenting paths.

    Minimizes the local connectivity over the pairs of Esfahanian and
    Hakimi (Networks, 1984): a minimum-degree vertex v against each of its
    non-neighbours, and each non-adjacent pair of neighbours of v.  A
    minimum cut either misses v, and then separates v from a non-neighbour,
    or contains v, and then separates two of its neighbours.  Complete
    graphs give nu-1.
    """
    if g.is_complete():
        return g.nu - 1
    rows = g.rows
    v = min(range(g.nu), key=g.degree)
    nv = rows[v]
    pairs = [(v, w) for w in iter_bits((1 << g.nu) - 1 & ~nv & ~(1 << v))]
    pairs += [(x, y) for x in iter_bits(nv) for y in iter_bits(nv & ~rows[x] & -(2 << x))]
    best = g.nu - 1
    for s, t in pairs:
        best = _local_connectivity(rows, s, t, best)
    return best


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


def _raw(structure: dict) -> tuple[list[set], int, int]:
    """(each line's point set, D, the number of ordinary lines) of a model
    file's structure; the ordinary lines are those missing D."""
    s = IncidenceStructure.from_json_dict(structure)
    lines = [set(t) for t in s.lines]
    return lines, s.special_point, sum(s.special_point not in t for t in lines)


def recheck_witnesses(structure: dict, axioms: dict):
    """Assert that the axiom witnesses of a report hold on the model file's
    structure, from its point sets alone.  axioms holds "verdicts" and
    "witnesses", as verify's axioms details do; a verdict missing from it
    is not checked.

    A1: the pair lies on exactly the listed lines, two or more of them when
    covered more than once, and on none when not covered.  A2: the
    quadrangle, which a passing verdict carries, has four points with no
    three on a line.  A3: the listed lines are every line of fewer than 3
    points.  A5: the special line meets the listed line in the listed
    number of points, other than 1.  A6: ordinary lines l1, l2 meet, lines
    g1 and g2 meet each of them, and g1 misses g2; no g passes through a
    common point of l1 and l2, of which there may be several where A1
    fails, so each g meets l1 and l2 in distinct points.  A failing A1, A3,
    A5 or A6 carries a witness, and a passing one none.
    """
    verdicts, witnesses = axioms["verdicts"], axioms["witnesses"]
    lines, D, _ = _raw(structure)
    for axiom in ("A1", "A3", "A5", "A6"):
        if axiom in verdicts:
            assert verdicts[axiom] == (axiom not in witnesses), (axiom, axioms)
    if "A2" in verdicts:
        assert verdicts["A2"] == ("A2" in witnesses), axioms
    if "A1" in witnesses:
        witness = witnesses["A1"]
        a, b = witness["pair"]
        holding = [i for i, t in enumerate(lines) if a in t and b in t]
        assert a != b and witness["lines"] == holding, witness
        if witness["defect"] == "covered more than once":
            assert len(holding) >= 2, witness
        else:
            assert witness["defect"] == "not covered" and not holding, witness
    if "A2" in witnesses:
        quad = witnesses["A2"]["points"]
        assert len(set(quad)) == 4, quad
        assert all(len(t & set(quad)) <= 2 for t in lines), quad
    if "A3" in witnesses:
        assert witnesses["A3"]["lines"] == [i for i, t in enumerate(lines) if len(t) < 3]
    if "A5" in witnesses:
        witness = witnesses["A5"]
        si, j, hits = witness["special"], witness["line"], witness["common_points"]
        assert D in lines[si] and j != si and hits != 1, witness
        assert len(lines[si] & lines[j]) == hits, witness
    if "A6" in witnesses:
        witness = witnesses["A6"]
        l1, l2, g1, g2 = (witness[key] for key in ("l1", "l2", "g1", "g2"))
        assert len({l1, l2, g1, g2}) == 4 and D not in lines[l1] | lines[l2], witness
        common = lines[l1] & lines[l2]
        assert common and not lines[g1] & lines[g2], witness
        for g in (g1, g2):
            assert lines[g] & lines[l1] and lines[g] & lines[l2], witness
            assert not lines[g] & common, witness


def recheck_anomalous_clique(model: dict, clique):
    """Assert that an anomalous clique of a census holds on the model file:
    a maximal clique of the graph of lines, adjacency being a common point
    other than D, that is neither the full pencil of one point (of n lines)
    nor, with no common point, of size m^2."""
    lines, D, nu = _raw(model["structure"])
    q = model["params"]["p"] ** model["params"]["e"]
    m, n = q, q ** model["params"]["k"]
    members = set(clique)
    assert members <= set(range(nu)) and len(members) == len(clique), clique

    def meets(u, v):
        return bool(lines[u] & lines[v] - {D})

    assert all(meets(u, v) for u in clique for v in clique if u < v), clique
    assert not any(all(meets(w, u) for u in clique) for w in range(nu) if w not in members), clique
    common = set.intersection(*(lines[v] for v in clique)) if clique else set()
    pencils = [sorted(i for i in range(nu) if p in lines[i]) for p in common]
    assert not (pencils == [sorted(clique)] and len(clique) == n), clique
    assert common or len(clique) != m * m, clique


def recheck_iso_witness(model: dict, mapping: list[int], witness: dict):
    """Assert that a failing isomorphism's witness holds: the sizes of the
    graph of lines, H_q(2,k) (hq2k_with_matrices) and the map differ, or the
    map is no bijection, or the pair's adjacency, a common point other than
    D, differs from that of its images in H."""
    lines, D, nu = _raw(model["structure"])
    h = hq2k_with_matrices(model["params"]["p"], model["params"]["e"], model["params"]["k"])[0]
    sizes_agree = nu == h.nu == len(mapping)
    if witness["check"] == "sizes":
        assert (witness["nu1"], witness["nu2"], witness["map"]) == (nu, h.nu, len(mapping))
        assert not sizes_agree, witness
        return
    assert sizes_agree, witness
    if witness["check"] == "bijection":
        assert sorted(mapping) != list(range(nu)), witness
        return
    assert witness["check"] == "edge", witness
    u, v = witness["pair"]
    assert u < v and tuple(witness["images"]) == (mapping[u], mapping[v]), witness
    source = bool(lines[u] & lines[v] - {D})
    assert witness["adjacent_in_source"] == source, witness
    assert h.adjacent(mapping[u], mapping[v]) != source, witness


def hq2k_with_matrices(p: int, e: int, k: int) -> tuple[LineGraph, list, dict]:
    """H_q(2,k) as (graph, matrices, index), adjacency by tuple lookup.

    matrices[u] is the pair of rows of entry codes of vertex u, and index is
    its inverse; rows run over product(range(q), repeat=k), row A major.
    """
    q = p ** e
    nu = q ** (2 * k)
    ctx = field_make(p, e)
    rows_of = list(product(range(q), repeat=k))
    matrices = []
    index = {}
    for ra in rows_of:
        for rb in rows_of:
            index[(ra, rb)] = len(matrices)
            matrices.append((ra, rb))
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
    if len(set(deltas)) != (q + 1) * (q ** k - 1):
        raise BilinearError("rank-1 delta enumeration is off")
    adj = [0] * nu
    for i, (ra, rb) in enumerate(matrices):
        for da, db in deltas:
            na = tuple(ctx.add_codes(x, y) for x, y in zip(ra, da))
            nb = tuple(ctx.add_codes(x, y) for x, y in zip(rb, db))
            adj[i] |= 1 << index[(na, nb)]
    return LineGraph(adj), matrices, index


def isomorphism_by_pairs(g1: LineGraph, g2: LineGraph, mapping: list[int]) -> IsoReport:
    """IsoReport from an adjacency probe on every pair u < v, in row-major order."""
    nu = g1.nu
    rep = IsoReport(nu)
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


# Built models whose line numbering makes the graph of lines a Cayley graph
# on GF(p)^d; PG(2,7) is the complete graph on GF(7)^2.
CAYLEY_LADDER = {
    "L_2^2": lambda: build_l2k(2), "L_2^3": lambda: build_l2k(3),
    "L_2^4": lambda: build_l2k(4), "L_2^5": lambda: build_l2k(5),
    "R(2,4)": lambda: build_subplane_rect(2, 1, 2), "R(3,9)": lambda: build_subplane_rect(3, 1, 2),
    "R(2,8)": lambda: build_subplane_rect(2, 1, 3), "R(4,16)": lambda: build_subplane_rect(2, 2, 2),
    "R(5,25)": lambda: build_subplane_rect(5, 1, 2), "R(3,27)": lambda: build_subplane_rect(3, 1, 3),
    "PG(2,7)": lambda: build_subplane_rect(7, 1, 1),
}


@lru_cache(maxsize=None)
def ladder_model(name: str) -> RectangleModel:
    return CAYLEY_LADDER[name]()


def proper_by_edges(g: LineGraph, colors) -> bool:
    """Edge by edge: whether no edge of g joins two vertices of one color."""
    return all(colors[u] != colors[v] for u, v in g.edges())


def cayley_prime(g: LineGraph):
    """p if g is the Cayley graph Cay(GF(p)^d, N(0)), with N(0) = -N(0) and
    no loop, under digit-by-digit addition of vertex numbers; else None."""
    nu = g.nu
    p = next((f for f in range(2, nu + 1) if nu % f == 0), None)  # least prime factor
    d = 0
    while p and p ** d < nu:
        d += 1
    if p is None or p ** d != nu:
        return None
    n0 = list(iter_bits(g.rows[0]))
    negated = sorted(sum(-(s // p ** i) % p * p ** i for i in range(d)) for s in n0)
    if 0 in n0 or negated != n0:
        return None
    if any(g.rows[x] != sum(1 << digit_sum(x, s, p, d) for s in n0) for x in range(nu)):
        return None
    return p


def translation_group(g: LineGraph) -> Translations | None:
    """The translations of GF(p)^d if g is a Cayley graph on it, else None,
    read from the bit rows alone.

    g is certified when nu = p^d for a prime p, vertex 0 has no loop, each
    neighbour s of 0 is adjacent to 0 (so N(0) = -N(0)), and every row t is
    row t - p^i translated by p^i, i the lowest nonzero digit of t.  By
    induction on t, row t is then N(0) translated by t: every translation
    is an automorphism, and the rows are symmetric.
    """
    rows = g.rows
    group = translations_of(g.nu)
    if group is None or rows[0] & 1 or not all(rows[s] & 1 for s in iter_bits(rows[0])):
        return None
    for t in range(1, g.nu):
        i, w = 0, 1  # t's lowest nonzero digit, and its weight p^i
        while t // w % group.p == 0:
            i, w = i + 1, w * group.p
        if rows[t] != group.step(rows[t - w], i):
            return None
    return group


CENSUS_FIELDS = ("point_cliques", "plane_cliques", "anomalous", "point_of", "plane_of",
                 "m", "n", "trivial", "nu", "checks")


def fields(report) -> dict:
    """The attributes of a report, as == compared them when the report was a
    dataclass.  A CliqueCensus compares by what it stands for: every clique
    of each class, sorted, the membership masks, its order and its checks;
    not by the cliques it keeps or the translations it carries."""
    if isinstance(report, CliqueCensus):
        return {k: getattr(report, k) for k in CENSUS_FIELDS}
    return vars(report)


def failing(report) -> list[str]:
    """The names of a report's failing verdicts, in order."""
    return [k for k, v in report.verdicts.items() if not v]


def census_with(census: CliqueCensus, **classes) -> CliqueCensus:
    """A new CliqueCensus with some of its clique classes replaced, and the
    other classes, m, n, nu and checks kept; like any census not
    made by classify_census, it carries no translations."""
    kept = {k: getattr(census, k) for k in ("point_cliques", "plane_cliques", "anomalous")}
    copy = CliqueCensus(**{**kept, **classes}, m=census.m, n=census.n, nu=census.nu)
    copy.checks = census.checks
    return copy


def intersection_violations(census: CliqueCensus, g: LineGraph) -> list[tuple]:
    """The violations of the clique intersection laws, by brute force and
    named as clique_intersections names them: each class's size against
    (m+1)n and n^2(n-1)/(m^2(m-1)) (0 and 1 for a plane), every (plane,
    point clique) pair as sets, which share 0 or m vertices, and every
    vertex pair u < v against the rows: an edge lies in exactly one clique
    of each class expected to be nonempty (the count 0, or 2 for two or
    more), and a non-edge in none of them.  Every clique of the census is
    read, so a census that carries translations lists its translates too."""
    m, n = census.m, census.n
    expected = (0, 1) if m == n else ((m + 1) * n, n * n * (n - 1) // (m * m * (m - 1)))
    classes = (census.point_cliques, census.plane_cliques)
    out = [(label, e, len(cls)) for label, e, cls in
           zip(("point-clique-count", "plane-clique-count"), expected, classes) if len(cls) != e]
    point_sets = [set(pc) for pc in classes[0]]
    for plane in classes[1]:
        for pc, pc_set in zip(classes[0], point_sets):
            k = len(pc_set.intersection(plane))
            if k not in (0, m):
                out.append(("plane-point", plane, pc, k))
    covers = [Counter(pair for c in cls for pair in combinations(sorted(c), 2)) if e else None
              for e, cls in zip(expected, classes)]
    for u in range(g.nu):
        for v in range(u + 1, g.nu):
            counts = [cover[u, v] for cover in covers if cover is not None]
            if not g.rows[u] >> v & 1:
                if any(counts):
                    out.append(("cover-of-nonedge", u, v, 0))
                continue
            for label, cover in zip(("edge-point-cover", "edge-plane-cover"), covers):
                if cover is not None and cover[u, v] != 1:
                    out.append((label, u, v, min(cover[u, v], 2)))
    return out


def at_vertex_0(violation: tuple) -> bool:
    """Whether a violation of intersection_violations is one of vertex 0: a
    pair of cliques that both hold it, or a vertex pair (0, v)."""
    label, a, b, *_ = violation
    if label == "plane-point":
        return 0 in a and 0 in b
    return not label.endswith("-count") and a == 0


def t_histogram(lines, nu: int) -> tuple[dict, bool]:
    """(t histogram, no two Lines share two Points) of a family of Lines
    over the Points 0..nu-1, pair by pair with plain sets: for each Point p
    and each Line j not through p, t counts the Lines through p that meet j.
    A repeated Line counts once for each time it is listed."""
    sets = [frozenset(ln) for ln in lines]
    hist = {}
    for p in range(nu):
        mine = [a for a in sets if p in a]
        near = frozenset().union(*mine)
        for b in sets:
            if p not in b:
                t = 0 if b.isdisjoint(near) else sum(1 for a in mine if a & b)
                hist[t] = hist.get(t, 0) + 1
    pair_ok = all(len(a & b) <= 1 for i, a in enumerate(sets) for b in sets[i + 1:])
    return dict(sorted(hist.items())), pair_ok


def census_closed(census, kind: str) -> bool:
    """Whether the clique class kind ("point_cliques" or "plane_cliques") is
    closed as a set under the translations of GF(p)^d, nu = p^d, with no
    repeated clique; closure under the d generators is closure under the
    group."""
    group, cliques = translations_of(census.nu), getattr(census, kind)
    masks = {sum(1 << v for v in c) for c in cliques}
    return (group is not None and len(masks) == len(cliques)
            and all(group.step(x, i) in masks for i in range(group.d) for x in masks))


def schoolbook_product(p: int, modulus, a: int, b: int) -> int:
    """a * b on base-p element codes of GF(p)[x]/(modulus), modulus monic.

    Long multiplication of the digit vectors, then long division from the
    top degree down; no library field code is used.
    """
    m = len(modulus) - 1
    da = [a // p ** i % p for i in range(m)]
    db = [b // p ** i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * m - 2, m - 1, -1):  # x^top = x^(top-m) (x^m - modulus)
        lead = prod[top] % p
        for i, c in enumerate(modulus[:m]):
            prod[top - m + i] -= lead * c
    return sum(c % p * p ** i for i, c in enumerate(prod[:m]))


def without_ordinary_lines(model: RectangleModel) -> RectangleModel:
    """The model with its ordinary lines deleted, so its graph of lines is empty."""
    d = model_to_dict(model)
    d["structure"]["lines"] = d["structure"]["lines"][model.num_ordinary_lines:]
    return model_from_dict(d)


def twisted_r39() -> RectangleModel:
    """R(3,9) with 2a replaced by L.a, L = [[0,1],[1,1]] over GF(3): a
    translation-invariant structure that is not a projective rectangle.

    Points are D and four special lines of 9 points each, point t of
    special line j (t in GF(3)^2, digit-numbered) at 1 + 9j + t.  Ordinary
    line (a, b), a-major and digit-numbered, meets the special lines at -b,
    a - b, L.a - b and -a.  Translating every line by (a', b') shifts each
    special line by a constant, so the translations of GF(3)^4 are
    automorphisms; A1-A5 hold, A6 fails.
    """
    vec = lambda code: (code % 3, code // 3)  # noqa: E731
    code = lambda v: v[0] % 3 + 3 * (v[1] % 3)  # noqa: E731
    points = ["D"] + [f"s{j}:{t}" for j in range(4) for t in range(9)]
    lines = []
    for a in map(vec, range(9)):
        for b in map(vec, range(9)):
            meets = [(-b[0], -b[1]), (a[0] - b[0], a[1] - b[1]),
                     (a[1] - b[0], a[0] + a[1] - b[1]), (-a[0], -a[1])]
            lines.append([1 + 9 * j + code(t) for j, t in enumerate(meets)])
    specials = [[0] + [1 + 9 * j + t for t in range(9)] for j in range(4)]
    return RectangleModel(IncidenceStructure(points, lines + specials, 0), 3, 1, 2,
                          special_labels=[f"s{j}" for j in range(4)])


INVARIANT_MUTATIONS = ["drop point", "add point", "swap point", "slide point"]


def invariant_mutant(s: IncidenceStructure, kind: str, choose) -> tuple[IncidenceStructure, str]:
    """s with one mutation of ordinary line 0 applied to every translate,
    and a description of it; choose(options) picks one of a list.

    s must have certified translations of GF(p)^d.  Translation by t sends
    a point to the point whose pencil of ordinary lines is its own pencil
    plus t, added digit by digit, so D, on none, is fixed; ordinary line t
    of the mutant is the image of the mutated line 0 under it, and the
    special lines are kept.  So the translations stay automorphisms, as in
    twisted_r39, and the mutant reaches the orbit paths unless its pencils
    collide.  kind is one of INVARIANT_MUTATIONS: drop a point of line 0,
    add a point, swap one for a point off the line, or slide one along its
    special line.  Each generator p^i's point map is read off the pencils
    once, and line t is line t - p^i under it, i the lowest nonzero digit
    of t.
    """
    group = s.translations
    assert group is not None, "the structure's translations are not certified"
    D, nu, p, d = s.special_point, group.nu, group.p, group.d
    pencils = [[i for i in ls if i < nu] for ls in lines_at(s)]
    point_of = {tuple(sorted(pen)): q for q, pen in enumerate(pencils)}
    line0 = list(s.lines[0])
    off = [q for q in range(s.n_points) if q != D and q not in line0]
    if kind == "drop point":
        q = choose(line0)
        line0.remove(q)
        what = f"line 0 loses {s.points[q]}"
    elif kind == "add point":
        q = choose(off)
        line0.append(q)
        what = f"line 0 gains {s.points[q]}"
    else:
        q = choose(line0)
        if kind == "slide point":
            along = s.lines[special_line_at(s, q)]
            off = [x for x in along if x != D and x not in line0]
        new = choose(off)
        line0[line0.index(q)] = new
        what = f"line 0 trades {s.points[q]} for {s.points[new]}"

    moves = [[point_of[tuple(sorted(digit_sum(x, p ** i, p, d) for x in pen))] for pen in pencils]
             for i in range(d)]
    lines = [line0]
    for t in range(1, nu):
        i = next(i for i in range(d) if t // p ** i % p)
        lines.append([moves[i][q] for q in lines[t - p ** i]])
    lines += [s.lines[j] for j in s.special_lines]
    return IncidenceStructure(s.points, lines, D), f"every translate of {what}"


def extract_plane_by_axioms(clique, model) -> bool:
    """The plane check as it was before it counted: all six axioms on the
    rebuilt plane (A6 exhaustively), its order and its elementary counts.
    The plane's points are those of the clique's lines plus D, gathered
    from the point lists.  Returns the verdict of the old PlaneExtraction.ok."""
    s = model.structure
    m = model.m
    pts = sorted({s.special_point}.union(*(s.lines[v] for v in clique)))
    back = {p: i for i, p in enumerate(pts)}
    lines = [tuple(back[p] for p in s.lines[v]) for v in clique]
    for si in s.special_lines:
        lines.append(tuple(back[p] for p in s.lines[si] if p in back))
    sub = IncidenceStructure([s.points[p] for p in pts], lines, back[s.special_point])
    checks = {"axioms": (True, check_axioms(sub, "full").ok)}
    try:
        checks["order"] = ((m, m), order_of(sub))
    except Exception:
        checks["order"] = ((m, m), None)
    counts = elementary_counts(sub) if checks["order"][1] == (m, m) else None
    checks["elementary_counts"] = (True, counts.ok if counts else False)
    checks["ordinary_points"] = (m * (m + 1), len(pts) - 1)
    checks["ordinary_lines"] = (m * m, len(clique))
    return all(e == a for e, a in checks.values())
