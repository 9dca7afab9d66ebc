"""Maximal clique enumeration and the point/plane clique census.

In the graph of lines of a nontrivial rectangle every maximal clique is
either a point clique (all n ordinary lines through one ordinary point) or a
plane clique (the m^2 ordinary lines of one maximal subplane); anything else
is anomalous and falsifies the rectangle property.  When n = m^2 the two
kinds have equal size, so classification tests for a common point before
looking at sizes.  A clique is its sorted vertex tuple; its point (the one
common point of its lines) or its plane (its lines' points plus D) is read
off the model where used, by pipeline.census_to_dict and extract_plane.

On a graph that carries translations (LineGraph.translations), a model's
certificate (see build_line_graph) or H_q(2,k)'s group, the enumeration
expands only the cliques through vertex 0 and walks their translates: each
maximal clique C is c + (C - c) for its least vertex c.  Such a graph may
have up to CAYLEY_MAX_VERTICES vertices, any other graph up to
ENUMERATION_MAX_VERTICES.

The census goes further.  On a graph that holds the model's certificate,
classify_census expands and classifies only the cliques through vertex 0,
and the census keeps them with the certificate (CliqueCensus.translations):
a translation maps maximal cliques to maximal cliques, pencils to pencils
and m^2-cliques to m^2-cliques, so every clique is a translate of a kept
one, and the class counts, the sizes and the per-vertex counts follow from
the kept cliques.  The sorted list of every clique is built only when read,
by the census JSON (pipeline.census_to_dict) and the all-vertex paths.
CliqueCensus.certified_by makes the one orbit decision: the census carries
a certificate, and it is the object the caller's graph
(clique_intersections) or model (plane_extraction and the geometries)
holds.  Then those work from vertex 0 and the kept cliques.  The
intersection laws are checked at a vertex from the cliques through it, and
translating by -u keeps both classes and the graph, so a violation at any
vertex u is one at vertex 0: there only vertex 0 is checked, and no clique
is translated.  Any other census (built by calling CliqueCensus, or from
cliques the caller supplies), or one paired with a graph or model that
holds another certificate, takes the all-vertex loops over every clique,
which give the same verdicts.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from ._util import Checks, Translations, holders, iter_bits
from .linegraph import LineGraph
from .structure import RectangleModel

ENUMERATION_MAX_VERTICES = 1024
# past ENUMERATION_MAX_VERTICES only the cliques through vertex 0 are
# expanded: verify --profile full took 0.21-0.26 s on L_2^6 and 2.65-2.86 s
# on R(8,64), nu = 4096, 92% of it iso; 22-25 MB (README, "Scale")
CAYLEY_MAX_VERTICES = 4096


class CliqueError(ValueError):
    pass


def _check_size(nu: int, cayley: bool):
    """Raise CliqueError past CAYLEY_MAX_VERTICES, or past
    ENUMERATION_MAX_VERTICES unless cayley (certified and not complete).

    A complete graph, a plane's, keeps the lower bound although it is
    certified.  A plane that passes A1 proves A6 from line 0, but one that
    fails A1 can keep its certificate (one point added to every ordinary
    line) and then takes A6 over every pair: all its lines meet, so that is
    nu^2/2 pairs, 8.4 million on PG(2,64) (README, "Scale").
    """
    bound = (CAYLEY_MAX_VERTICES if cayley or nu > CAYLEY_MAX_VERTICES
             else ENUMERATION_MAX_VERTICES)
    if nu > bound:
        raise CliqueError(f"enumeration limited to {bound} vertices")


def check_enumeration_bound(model: RectangleModel):
    """Raise CliqueError when the graph of lines of model is past the
    enumeration bound, read off the structure before any graph is built:
    the certificate is computed only between the two bounds, and the
    certified graph is complete iff every ordinary line meets line 0, so
    iff IncidenceStructure.at_line_0 holds all nu ordinary lines."""
    s, nu = model.structure, model.num_ordinary_lines
    _check_size(nu, ENUMERATION_MAX_VERTICES < nu <= CAYLEY_MAX_VERTICES
                and s.translations is not None
                and len(s.at_line_0[1].ordinary_lines) < nu)


def _bron_kerbosch(rows: list[int], r_mask: int, p_mask: int) -> list[int]:
    """The maximal cliques that hold r_mask and lie within r_mask | p_mask,
    as masks, by pivoting Bron-Kerbosch."""
    out = []

    def expand(r_mask: int, p_mask: int, x_mask: int):
        while p_mask or x_mask:
            pivot, best = -1, -1
            for u in iter_bits(p_mask | x_mask):
                deg = (rows[u] & p_mask).bit_count()
                if deg > best:
                    pivot, best = u, deg
            branches = p_mask & ~rows[pivot]
            if branches & (branches - 1):
                for v in iter_bits(branches):
                    bit = 1 << v
                    expand(r_mask | bit, p_mask & rows[v], x_mask & rows[v])
                    p_mask &= ~bit
                    x_mask |= bit
                return
            if not branches:
                return
            # a lone branch is the last call, so it is taken in place: a run
            # of them, as in a complete graph, costs no recursion depth
            v = branches.bit_length() - 1
            r_mask, p_mask, x_mask = r_mask | branches, p_mask & rows[v], x_mask & rows[v]
        out.append(r_mask)

    expand(r_mask, p_mask, 0)
    return out


def _cliques_through_0(g: LineGraph) -> list[tuple[int, ...]]:
    """The maximal cliques through vertex 0 of a certified graph, sorted.

    They are 0 and the maximal cliques of the subgraph on N(0).  Closed
    twins there, the neighbours v of 0 with one N(v) & N(0) | v, lie in the
    same maximal cliques; in H_q(2,k) they are the q - 1 nonzero multiples
    of a rank-1 matrix (BCN 9.5A).  So Bron-Kerbosch runs on the quotient,
    one vertex per twin class numbered by its rank, a row of as many bits
    as there are classes, and each clique it finds takes its classes whole.
    With no twins, as in L_2^k, the quotient is N(0) itself."""
    row0 = g.rows[0]
    _check_size(g.nu, row0 != (1 << g.nu) - 2)
    classes = {}  # N(v) & N(0) | v -> the twins that share it
    for v in iter_bits(row0):
        classes.setdefault(g.rows[v] & row0 | 1 << v, []).append(v)
    members = list(classes.values())
    rank = {twins[0]: c for c, twins in enumerate(members)}  # one vertex a class
    chosen = sum(1 << v for v in rank)
    rows = [sum(1 << rank[u] for u in iter_bits(g.rows[v] & chosen)) for v in rank]
    return sorted((0, *sorted(v for c in iter_bits(mask) for v in members[c]))
                  for mask in _bron_kerbosch(rows, 0, (1 << len(rows)) - 1))


def _all_translates(cliques: list[tuple[int, ...]], group: Translations) -> list[tuple[int, ...]]:
    """Every translate of the given cliques through vertex 0, each once,
    sorted: the translate by t is kept when t is its least vertex, which
    happens once for each."""
    out = []
    for clique in cliques:
        mask = sum(1 << v for v in clique)
        out.extend(c for t, c in enumerate(group.translates(mask)) if not c & (1 << t) - 1)
    return sorted(tuple(iter_bits(mask)) for mask in out)


def enumerate_maximal_cliques(g: LineGraph) -> list[tuple[int, ...]]:
    """All maximal cliques, each exactly once, sorted, via pivoting Bron-Kerbosch.

    On a certified Cayley graph (LineGraph.translations) Bron-Kerbosch runs
    from R = {0}, P = N(0) only.  Translations are automorphisms, so the
    translates of those cliques are all the maximal cliques.
    """
    if g.translations is not None:
        return _all_translates(_cliques_through_0(g), g.translations)
    _check_size(g.nu, False)
    return sorted(tuple(iter_bits(mask)) for mask in _bron_kerbosch(g.rows, 0, (1 << g.nu) - 1))


class CliqueCensus(Checks):
    """The maximal cliques of a graph of lines, as sorted vertex tuples, in
    three classes: point_cliques, plane_cliques and anomalous.

    A census that carries translations (set by classify_census on a graph
    that holds the model's certificate) keeps only the cliques of each class
    through vertex 0, in kept[class].  Every clique is one of them
    translated, so they give the class counts (count) and the clique sizes,
    and the checks at vertex 0 start from them.  The sorted lists of every
    clique, and the membership masks point_of and plane_of, are built from
    them on first read (_all_translates), which only the census JSON and
    the all-vertex paths do.  A census without translations keeps every
    clique.
    """

    def __init__(self, point_cliques: list[tuple[int, ...]], plane_cliques: list[tuple[int, ...]],
                 anomalous: list[tuple[int, ...]], m: int, n: int, nu: int,
                 translations: Translations | None = None):
        self.kept = {"point_cliques": point_cliques, "plane_cliques": plane_cliques,
                     "anomalous": anomalous}
        self.m, self.n, self.trivial = m, n, m == n
        self.nu = nu  # the graph's vertex count
        self.translations = translations
        self.checks = {}

    def _every(self, kind: str) -> list[tuple[int, ...]]:
        kept = self.kept[kind]
        return kept if self.translations is None else _all_translates(kept, self.translations)

    point_cliques = cached_property(lambda self: self._every("point_cliques"))
    plane_cliques = cached_property(lambda self: self._every("plane_cliques"))
    anomalous = cached_property(lambda self: self._every("anomalous"))
    # [v]: bit j set when point (plane) clique j holds vertex v
    point_of = cached_property(lambda self: holders(self.point_cliques, self.nu))
    plane_of = cached_property(lambda self: holders(self.plane_cliques, self.nu))

    def count(self, kind: str) -> int:
        """The number of cliques of a class.  Under translations, k cliques
        of size s through vertex 0 stand for nu k / s cliques, since every
        vertex lies in k of them."""
        kept = self.kept[kind]
        if self.translations is None:
            return len(kept)
        return sum(self.nu * k // s for s, k in Counter(map(len, kept)).items())

    def certified_by(self, translations: Translations | None) -> bool:
        """Whether the census stands for its orbit: it carries a certificate,
        and that is translations, the one the caller's graph or model holds."""
        return self.translations is not None and self.translations is translations

    @property
    def ok(self) -> bool:
        return not self.count("anomalous") and super().ok

    @property
    def expected_counts(self) -> tuple[int, int]:
        """(point cliques, plane cliques) of a rectangle of order (m, n).

        A plane's graph of lines is complete, so its one maximal clique is a
        plane clique and no pencil is maximal.
        """
        m, n = self.m, self.n
        if self.trivial:
            return 0, 1
        return (m + 1) * n, n * n * (n - 1) // (m * m * (m - 1))


def classify_census(g: LineGraph, model: RectangleModel,
                    cliques: list[tuple[int, ...]] | None = None) -> CliqueCensus:
    """Split the maximal cliques into point cliques and plane cliques.

    A clique whose member lines all share a point is the point clique of that
    point (checked to be the full pencil of size n); otherwise a clique of
    size m^2 is a plane clique; anything else is anomalous.  For nontrivial
    rectangles the counting identities are checked: (m+1)n point cliques,
    n^2(n-1)/(m^2(m-1)) plane cliques, each vertex in m+1 point cliques and
    (n-1)/(m-1) plane cliques, maximum size n.  With no cliques supplied, on
    a graph that carries the model's certificate, only the cliques through
    vertex 0 are enumerated and classified, and the census carries the
    certificate (CliqueCensus); on any other graph every clique is.
    """
    s = model.structure
    group = None
    if cliques is None:
        if g.translations is not None and g.translations is s.translations:
            group = g.translations
            cliques = _cliques_through_0(g)
        else:
            cliques = enumerate_maximal_cliques(g)
    m, n = model.m, model.n
    points, planes, anomalous = [], [], []

    for cl in cliques:
        if not cl:  # the one maximal clique of a graph with no vertices
            anomalous.append(cl)
            continue
        common = common_points(cl, model)
        if common:
            pencil = tuple(iter_bits(s.through[common.bit_length() - 1] & (1 << g.nu) - 1))
            full = common.bit_count() == 1 and cl == pencil and len(cl) == n
            (points if full else anomalous).append(cl)
        elif len(cl) == m * m:
            planes.append(cl)
        else:
            anomalous.append(cl)

    census = CliqueCensus(points, planes, anomalous, m, n, g.nu, group)
    c = census.checks
    c["anomalous"] = (0, census.count("anomalous"))
    if not census.trivial:
        points_expected, planes_expected = census.expected_counts
        c["point_clique_count"] = (points_expected, census.count("point_cliques"))
        c["plane_clique_count"] = (planes_expected, census.count("plane_cliques"))
        c["point_clique_sizes"] = ({n}, {len(pc) for pc in points})
        c["plane_clique_sizes"] = ({m * m}, {len(pc) for pc in planes})
        c["max_clique_size"] = (n, max(len(cl) for cl in cliques))
        if group is None:
            per_vertex = ({b.bit_count() for b in census.point_of},
                          {b.bit_count() for b in census.plane_of})
        else:  # every vertex lies in as many cliques of a class as vertex 0
            per_vertex = {len(points)}, {len(planes)}
        c["point_cliques_per_vertex"] = ({m + 1}, per_vertex[0])
        c["plane_cliques_per_vertex"] = ({(n - 1) // (m - 1)}, per_vertex[1])
    return census


class IntersectionReport:
    def __init__(self):
        self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations


def clique_intersections(census: CliqueCensus, g: LineGraph) -> IntersectionReport:
    """Pairwise intersection laws and the exactly-one covering of edges,
    checked at each vertex u from the cliques through it.

    A plane and a point clique share 0 or m vertices: a pair through u that
    shares k != m is reported once, at its least shared vertex.  u's
    partners in the cliques of each class are exactly its neighbours, each
    covered once: an edge (u, v), v > u, covered 0 times or 2 or more
    (counted 2) is a violation, and so is a covered non-edge.  Two cliques
    of one class that share two vertices cover that pair twice, so the cover
    checks also certify that same-class cliques share at most one vertex.
    A class with other than its expected number of cliques is a violation
    too, so that no law holds over zero cliques.  A class expected to be
    empty, the point cliques of a plane, covers no edge.

    When the census stands for its orbit under g's certificate
    (CliqueCensus.certified_by), only u = 0 is checked, from the kept
    cliques: translating by -u keeps both classes and the graph, so a
    violation at any u gives one at vertex 0.  Both paths check vertex 0
    first, from the same cliques in the same order, so they give the same
    verdict and first violation.
    """
    rep = IntersectionReport()
    kinds = ("point_cliques", "plane_cliques")
    expected = census.expected_counts
    for label, kind, count in zip(("point-clique-count", "plane-clique-count"), kinds, expected):
        if census.count(kind) != count:
            rep.violations.append((label, count, census.count(kind)))
    if census.certified_by(g.translations):
        cliques, vertices = census.kept, [0]
        through = [[(1 << len(cliques[kind])) - 1] for kind in kinds]  # each holds vertex 0
    else:
        cliques, vertices = {kind: getattr(census, kind) for kind in kinds}, range(g.nu)
        through = [census.point_of, census.plane_of]
    masks = [[sum(1 << v for v in c) for c in cliques[kind]] for kind in kinds]
    m = census.m
    for u in vertices:
        at_u = [[masks[c][j] for j in iter_bits(through[c][u])] for c in (0, 1)]
        for plane in at_u[1]:
            for pc in at_u[0]:
                shared = plane & pc
                if shared.bit_count() != m and shared & -shared == 1 << u:
                    rep.violations.append(("plane-point", tuple(iter_bits(plane)),
                                           tuple(iter_bits(pc)), shared.bit_count()))
        row, later, covered = g.rows[u], -(2 << u), 0
        for label, c in (("edge-point-cover", 0), ("edge-plane-cover", 1)):
            if not expected[c]:
                continue
            once = twice = 0  # the vertices of the class's cliques through u, of two of them
            for mask in at_u[c]:
                twice |= once & mask
                once |= mask
            for v in iter_bits(row & (~once | twice) & later):
                rep.violations.append((label, u, v, 2 if twice >> v & 1 else 0))
            covered |= once
        for v in iter_bits(covered & ~row & later):
            rep.violations.append(("cover-of-nonedge", u, v, 0))
    return rep


class PlaneExtraction(Checks):
    def __init__(self, order: int, ordinary_points: int, ordinary_lines: int):
        self.order = order
        self.ordinary_points, self.ordinary_lines = ordinary_points, ordinary_lines
        self.checks = {}


def plane_extraction(census: CliqueCensus, model: RectangleModel) -> bool:
    """Whether the census has its expected number of plane cliques and each
    rebuilds a plane of order m (extract_plane).

    When the census stands for its orbit under the model's incidence
    certificate (CliqueCensus.certified_by), each plane clique is a
    translate of one through vertex 0 by an incidence automorphism fixing
    D, which keeps every count extract_plane makes; only the kept planes,
    those through vertex 0, are extracted.
    """
    if census.count("plane_cliques") != census.expected_counts[1]:
        return False
    orbit = census.certified_by(model.structure.translations)
    planes = census.kept["plane_cliques"] if orbit else census.plane_cliques
    return all(extract_plane(pc, model).ok for pc in planes)


def common_points(clique: tuple[int, ...], model: RectangleModel) -> int:
    """The points that all of a nonempty clique's lines hold, as a mask; a
    point clique's point is its one bit."""
    masks = model.structure.line_masks
    mask = masks[clique[0]]
    for v in clique[1:]:
        mask &= masks[v]
    return mask


def plane_mask(clique: tuple[int, ...], model: RectangleModel) -> int:
    """The points of a plane clique's plane as a mask: its lines' points plus D."""
    s = model.structure
    mask = 1 << s.special_point
    for v in clique:
        mask |= s.line_masks[v]
    return mask


def extract_plane(clique: tuple[int, ...], model: RectangleModel) -> PlaneExtraction:
    """Rebuild the plane of a plane clique and verify it is a plane of order m.

    The plane's points are the union of the member lines plus D; its lines
    are the member lines together with the restrictions of the special lines.
    It is certified by counts alone: m^2+m+1 points, m^2+m+1 lines, every
    line of size m+1, every two lines meeting in exactly one point, and the
    m(m+1) ordinary points and m^2 ordinary lines of a trivial rectangle.

    For m >= 2 these make a projective plane of order m, so the six axioms
    and the elementary counts all hold.  Let r_p be the number of lines
    through p, and v = m^2+m+1.  Then sum r_p = v(m+1), and each of the
    C(v, 2) pairs of lines meets in one point, so sum C(r_p, 2) = C(v, 2) =
    v C(m+1, 2); by convexity of C(r, 2) every r_p is m+1.  No pair of points
    lies on two lines, which would share two points; the lines cover
    v C(m+1, 2) = C(v, 2) pairs of points, so each pair lies on exactly one.
    Conversely, the lines of a projective plane of order m meet pairwise.

    The lines are the model's point masks: a member line's mask, and a
    special line's mask AND the plane's.
    """
    s, m = model.structure, model.m
    masks = s.line_masks
    plane = plane_mask(clique, model)
    ext = PlaneExtraction(order=m, ordinary_points=plane.bit_count() - 1,
                          ordinary_lines=len(clique))
    lines = [masks[v] for v in clique] + [masks[i] & plane for i in s.special_lines]
    size = m * m + m + 1
    c = ext.checks
    c["points"] = (size, plane.bit_count())
    c["lines"] = (size, len(lines))
    c["line_sizes"] = ({m + 1}, {b.bit_count() for b in lines})
    c["lines_meet_once"] = ({1}, {(a & b).bit_count() for i, a in enumerate(lines)
                                  for b in lines[i + 1:]})
    c["ordinary_points"] = (m * (m + 1), ext.ordinary_points)
    c["ordinary_lines"] = (m * m, ext.ordinary_lines)
    return ext
