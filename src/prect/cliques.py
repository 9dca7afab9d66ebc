"""Maximal clique enumeration and the point/plane clique census.

In the graph of lines of a nontrivial rectangle every maximal clique is
either a point clique (all n ordinary lines through one ordinary point) or a
plane clique (the m^2 ordinary lines of one maximal subplane); anything else
is anomalous and falsifies the rectangle property.  When n = m^2 the two
kinds have equal size, so classification tests for a common point before
looking at sizes.  A clique is its sorted vertex tuple; its point (the one
common point of its lines) or its plane (its lines' points plus D) is read
off the model where used, by export.census_to_dict and extract_plane.

On a graph that carries the model's incidence certificate
(LineGraph.translations, see build_line_graph), the enumeration expands
only the cliques through vertex 0 and translates them: each maximal clique
C is c + (C - c) for its least vertex c.  Such a graph may have up to
CAYLEY_MAX_VERTICES vertices, any other graph up to
ENUMERATION_MAX_VERTICES.

The facts read off the census go the same way.  A census that
classify_census enumerated on a certified graph carries the certificate
(CliqueCensus.translations): a translation maps maximal cliques to maximal
cliques, pencils to pencils and m^2-cliques to m^2-cliques, so every clique
is a translate of one through vertex 0.  CliqueCensus.certified_by makes
the one orbit decision: the census carries a certificate, and it is the
object the caller's graph (clique_intersections) or model
(plane_extraction and the geometries) holds.  Then those work from vertex
0.  Any other census (built by calling CliqueCensus, or from cliques the
caller supplies), or one paired with a graph or model that holds another
certificate, takes the all-vertex loops, which give the same verdicts.
"""

from __future__ import annotations

from collections import Counter

from ._util import Translations, iter_bits
from .construct import RectangleModel
from .linegraph import LineGraph

ENUMERATION_MAX_VERTICES = 1024
# past ENUMERATION_MAX_VERTICES only the translates of the cliques through
# vertex 0 are enumerated: verify --profile full took 1.6-2.3 s and 82 MB
# on L_2^6, 3.8-4.8 s and 30 MB on R(8,64), nu = 4096 (README, "Scale")
CAYLEY_MAX_VERTICES = 4096


class CliqueError(ValueError):
    pass


def _check_size(nu: int, cayley: bool):
    """Raise CliqueError past CAYLEY_MAX_VERTICES, or past
    ENUMERATION_MAX_VERTICES unless cayley (certified and not complete).

    A complete graph, a plane's, keeps the lower bound although it is
    certified: all its lines meet, so sampled A6 lists nu^2/2 pairs (8.4
    million on PG(2,64), where verify --profile quick had not ended after
    5 minutes).
    """
    bound = (CAYLEY_MAX_VERTICES if cayley or nu > CAYLEY_MAX_VERTICES
             else ENUMERATION_MAX_VERTICES)
    if nu > bound:
        raise CliqueError(f"enumeration limited to {bound} vertices")


def check_enumeration_bound(model: RectangleModel):
    """Raise CliqueError when the graph of lines of model is past the
    enumeration bound, read off the structure before any graph is built:
    the certificate is computed only between the two bounds, and the
    certified graph is complete iff the pencils of line 0's points, which
    make vertex 0's row, hold every ordinary line."""
    s, nu = model.structure, model.num_ordinary_lines
    _check_size(nu, ENUMERATION_MAX_VERTICES < nu <= CAYLEY_MAX_VERTICES
                and s.translations is not None
                and len({i for p in s.lines[0] for i in s.lines_at[p] if i < nu}) < nu)


def enumerate_maximal_cliques(g: LineGraph) -> list[tuple[int, ...]]:
    """All maximal cliques, each exactly once, sorted, via pivoting Bron-Kerbosch.

    On a certified Cayley graph (LineGraph.translations) Bron-Kerbosch runs
    from R = {0}, P = N(0) only.  Translations are automorphisms, so the
    translates of those cliques are all the maximal cliques; the translate
    by t is kept when t is its least vertex, which happens once for each.
    """
    group = g.translations
    _check_size(g.nu, group is not None and g.rows[0] != (1 << g.nu) - 2)
    rows = g.rows
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

    if group is None:
        expand(0, (1 << g.nu) - 1, 0)
    else:
        expand(1, rows[0], 0)  # the maximal cliques through vertex 0
        lowest = [i for _, _, i in group.steps()]
        for clique in out[:]:
            # [j]: the clique translated by the latest t whose digits below j
            # are 0, which for t's lowest nonzero digit i is t - p^i
            last = [clique] * group.d
            for t, i in enumerate(lowest, 1):
                last[:i + 1] = [group.step(last[i], i)] * (i + 1)
                if not last[0] & (1 << t) - 1:
                    out.append(last[0])
    cliques = sorted(tuple(iter_bits(mask)) for mask in out)
    return cliques


class CliqueCensus:
    def __init__(self, point_cliques: list[tuple[int, ...]], plane_cliques: list[tuple[int, ...]],
                 anomalous: list[tuple[int, ...]], m: int, n: int, trivial: bool, nu: int):
        self.point_cliques, self.plane_cliques = point_cliques, plane_cliques
        self.anomalous = anomalous
        self.m, self.n, self.trivial = m, n, trivial
        self.nu = nu  # the graph's vertex count
        self.checks = {}
        # [v]: bit j set when point (plane) clique j holds vertex v
        self.point_of, self.plane_of = _holding(point_cliques, nu), _holding(plane_cliques, nu)
        # the incidence certificate under which both classes are closed, set
        # by classify_census only; a census built any other way has none
        self.translations: Translations | None = None

    def certified_by(self, translations: Translations | None) -> bool:
        """Whether the census stands for its orbit: it carries a certificate,
        and that is translations, the one the caller's graph or model holds."""
        return self.translations is not None and self.translations is translations

    @property
    def ok(self) -> bool:
        return not self.anomalous and all(e == a for e, a in self.checks.values())

    def mismatches(self) -> dict:
        return {k: v for k, v in self.checks.items() if v[0] != v[1]}

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


def _holding(cliques: list[tuple[int, ...]], nu: int) -> list[int]:
    """[v]: the mask of the indices of the cliques that hold vertex v.

    Each mask is formed once, from a byte array as long as its highest
    index needs, not by one OR per membership, which copies the mask."""
    indices = [[] for _ in range(nu)]
    for j, clique in enumerate(cliques):
        for v in clique:
            indices[v].append(j)
    masks = []
    for held in indices:
        bits = bytearray(held[-1] // 8 + 1 if held else 0)
        for j in held:
            bits[j >> 3] |= 1 << (j & 7)
        masks.append(int.from_bytes(bits, "little"))
        held.clear()  # so that the lists and the masks are not held at once
    return masks


def classify_census(g: LineGraph, model: RectangleModel,
                    cliques: list[tuple[int, ...]] | None = None) -> CliqueCensus:
    """Split the maximal cliques into point cliques and plane cliques.

    A clique whose member lines all share a point is the point clique of that
    point (checked to be the full pencil of size n); otherwise a clique of
    size m^2 is a plane clique; anything else is anomalous.  For nontrivial
    rectangles the counting identities are checked: (m+1)n point cliques,
    n^2(n-1)/(m^2(m-1)) plane cliques, each vertex in m+1 point cliques and
    (n-1)/(m-1) plane cliques, maximum size n.  Cliques enumerated here on a
    graph that carries the model's certificate give a census that carries it.
    """
    own = cliques is None
    if own:
        cliques = enumerate_maximal_cliques(g)
    s = model.structure
    m, n = model.m, model.n
    points, planes, anomalous = [], [], []

    masks = s.line_masks
    for cl in cliques:
        if not cl:  # the one maximal clique of a graph with no vertices
            anomalous.append(cl)
            continue
        common = masks[cl[0]]
        for v in cl[1:]:
            common &= masks[v]
        if common:
            pencil = tuple(i for i in s.lines_at[common.bit_length() - 1] if i < g.nu)
            full = common.bit_count() == 1 and cl == pencil and len(cl) == n
            (points if full else anomalous).append(cl)
        elif len(cl) == m * m:
            planes.append(cl)
        else:
            anomalous.append(cl)

    census = CliqueCensus(points, planes, anomalous, m, n, model.trivial, g.nu)
    if own and g.translations is not None and g.translations is s.translations:
        census.translations = g.translations
    c = census.checks
    c["anomalous"] = (0, len(census.anomalous))
    if not model.trivial:
        points_expected, planes_expected = census.expected_counts
        c["point_clique_count"] = (points_expected, len(census.point_cliques))
        c["plane_clique_count"] = (planes_expected, len(census.plane_cliques))
        c["point_clique_sizes"] = ({n}, {len(pc) for pc in census.point_cliques})
        c["plane_clique_sizes"] = ({m * m}, {len(pc) for pc in census.plane_cliques})
        c["max_clique_size"] = (n, max(len(cl) for cl in cliques))
        c["point_cliques_per_vertex"] = ({m + 1}, {b.bit_count() for b in census.point_of})
        c["plane_cliques_per_vertex"] = ({(n - 1) // (m - 1)},
                                         {b.bit_count() for b in census.plane_of})
    return census


class IntersectionReport:
    def __init__(self):
        self.violations, self.stats = [], {}

    @property
    def ok(self) -> bool:
        return not self.violations


def clique_intersections(census: CliqueCensus, g: LineGraph) -> IntersectionReport:
    """Pairwise intersection laws and the exactly-one covering of edges.

    A plane and a point clique share 0 or m vertices, counted from the point
    cliques through each vertex of the plane, and each adjacent vertex pair
    lies in exactly one clique of each class.  Two cliques of one class that
    share two vertices cover that pair twice, so the cover checks also
    certify that same-class cliques share at most one vertex; the doubly
    covered pair is the witness.  A cover violation records the count 0, or
    2 for two or more.  A class with other than its expected number of
    cliques is a violation too, so that no law holds over zero cliques.  A
    class expected to be empty, the point cliques of a plane, covers no edge.

    When the census stands for its orbit under g's certificate
    (CliqueCensus.certified_by), a translation moves any violation to one
    of a plane through vertex 0, or of a pair (0, v); only those are
    checked.  Sorted cliques put the planes through vertex 0
    first, so the verdict, the stats and the first violation are those of
    the check of every plane and pair.
    """
    rep = IntersectionReport()
    for label, cliques, expected in zip(("point-clique-count", "plane-clique-count"),
                                        (census.point_cliques, census.plane_cliques),
                                        census.expected_counts):
        if len(cliques) != expected:
            rep.violations.append((label, expected, len(cliques)))
    m = census.m
    npoints = len(census.point_cliques)
    orbit = census.certified_by(g.translations)
    planes = iter_bits(census.plane_of[0]) if orbit else range(len(census.plane_cliques))
    sizes = set()
    for i in planes:
        shared = Counter(j for v in census.plane_cliques[i] for j in iter_bits(census.point_of[v]))
        if len(shared) < npoints:
            sizes.add(0)
        sizes.update(shared.values())
        for j in sorted(shared):
            if shared[j] != m:
                rep.violations.append(("plane-point", i, j, shared[j]))
    rep.stats["plane_point_intersection_sizes"] = sorted(sizes)

    rows = g.rows[:1] if orbit else g.rows
    covered = [0] * g.nu
    for label, cliques, holding, expected in zip(("edge-point-cover", "edge-plane-cover"),
                                                 (census.point_cliques, census.plane_cliques),
                                                 (census.point_of, census.plane_of),
                                                 census.expected_counts):
        if not expected:
            continue
        if orbit:  # once[0] and twice[0] need only the cliques through vertex 0
            cliques = [cliques[j] for j in iter_bits(holding[0])]
        once, twice = [0] * g.nu, [0] * g.nu  # partners in one clique, in two
        for pc in cliques:
            members = sum(1 << v for v in pc)
            for v in pc:
                twice[v] |= once[v] & members
                once[v] |= members ^ (1 << v)
        for u, row in enumerate(rows):
            for v in iter_bits(row & (~once[u] | twice[u]) & -(2 << u)):
                rep.violations.append((label, u, v, 2 if twice[u] >> v & 1 else 0))
            covered[u] |= once[u]
    for u, row in enumerate(rows):
        for v in iter_bits(covered[u] & ~row & -(2 << u)):
            rep.violations.append(("cover-of-nonedge", u, v, 0))
    return rep


class PlaneExtraction:
    def __init__(self, order: int, ordinary_points: int, ordinary_lines: int):
        self.order = order
        self.ordinary_points, self.ordinary_lines = ordinary_points, ordinary_lines
        self.checks = {}

    @property
    def ok(self) -> bool:
        return all(e == a for e, a in self.checks.values())


def plane_extraction(census: CliqueCensus, model: RectangleModel) -> bool:
    """Whether the census has its expected number of plane cliques and each
    rebuilds a plane of order m (extract_plane).

    When the census stands for its orbit under the model's incidence
    certificate (CliqueCensus.certified_by), each plane clique is a
    translate of one through vertex 0 by an incidence automorphism fixing
    D, which keeps every count extract_plane makes; only the planes through
    vertex 0 are extracted.
    """
    planes = census.plane_cliques
    if len(planes) != census.expected_counts[1]:
        return False
    if census.certified_by(model.structure.translations):
        planes = [planes[j] for j in iter_bits(census.plane_of[0])]
    return all(extract_plane(pc, model).ok for pc in planes)


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
