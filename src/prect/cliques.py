"""Maximal clique enumeration and the point/plane clique census.

In the graph of lines of a nontrivial rectangle every maximal clique is
either a point clique (all n ordinary lines through one ordinary point) or a
plane clique (the m^2 ordinary lines of one maximal subplane); anything else
is anomalous and falsifies the rectangle property.  When n = m^2 the two
kinds have equal size, so classification tests for a common point before
looking at sizes.

On a graph that translation_group certifies as a Cayley graph, the
enumeration expands only the cliques through vertex 0 and translates them:
each maximal clique C is c + (C - c) for its least vertex c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._util import iter_bits
from .construct import RectangleModel
from .incidence import IncidenceStructure
from .linegraph import LineGraph, translation_group

ENUMERATION_MAX_VERTICES = 1024


class CliqueError(ValueError):
    pass


def check_enumeration_bound(nu: int):
    """Raise CliqueError when a graph of nu vertices is past the enumeration bound."""
    if nu > ENUMERATION_MAX_VERTICES:
        raise CliqueError(f"enumeration limited to {ENUMERATION_MAX_VERTICES} vertices")


def enumerate_maximal_cliques(g: LineGraph) -> list[tuple[int, ...]]:
    """All maximal cliques, each exactly once, sorted, via pivoting Bron-Kerbosch.

    On a certified Cayley graph Bron-Kerbosch runs from R = {0}, P = N(0)
    only.  Translations are automorphisms, so the translates of those
    cliques are all the maximal cliques; the translate by t is kept when t
    is its least vertex, which happens once for each.
    """
    check_enumeration_bound(g.nu)
    rows = g.rows
    out = []

    def expand(r_mask: int, p_mask: int, x_mask: int):
        if not p_mask and not x_mask:
            out.append(r_mask)
            return
        pivot, best = -1, -1
        for u in iter_bits(p_mask | x_mask):
            deg = (rows[u] & p_mask).bit_count()
            if deg > best:
                pivot, best = u, deg
        for v in iter_bits(p_mask & ~rows[pivot]):
            bit = 1 << v
            expand(r_mask | bit, p_mask & rows[v], x_mask & rows[v])
            p_mask &= ~bit
            x_mask |= bit

    group = translation_group(g)
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


@dataclass
class PointClique:
    vertices: tuple[int, ...]
    point: int  # structure point index shared by every member line


@dataclass
class PlaneClique:
    vertices: tuple[int, ...]
    plane_points: tuple[int, ...]  # union of member lines plus D


@dataclass
class CliqueCensus:
    point_cliques: list[PointClique]
    plane_cliques: list[PlaneClique]
    anomalous: list[tuple[int, ...]]
    m: int
    n: int
    trivial: bool
    checks: dict = field(default_factory=dict)

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


def classify_census(g: LineGraph, model: RectangleModel,
                    cliques: list[tuple[int, ...]] | None = None) -> CliqueCensus:
    """Split the maximal cliques into point cliques and plane cliques.

    A clique whose member lines all share a point is the point clique of that
    point (checked to be the full pencil of size n); otherwise a clique of
    size m^2 is a plane clique; anything else is anomalous.  For nontrivial
    rectangles the counting identities are checked: (m+1)n point cliques,
    n^2(n-1)/(m^2(m-1)) plane cliques, each vertex in m+1 point cliques and
    (n-1)/(m-1) plane cliques, maximum size n.
    """
    if cliques is None:
        cliques = enumerate_maximal_cliques(g)
    s = model.structure
    m, n = model.m, model.n
    census = CliqueCensus([], [], [], m, n, model.trivial)

    masks = s.line_masks
    D = s.special_point
    for cl in cliques:
        if not cl:  # the one maximal clique of a graph with no vertices
            census.anomalous.append(cl)
            continue
        common = masks[cl[0]]
        for v in cl[1:]:
            common &= masks[v]
        if common:
            pt = common.bit_length() - 1
            pencil = tuple(i for i in s.lines_at[pt] if i < g.nu)
            if common.bit_count() == 1 and cl == pencil and len(cl) == n:
                census.point_cliques.append(PointClique(cl, pt))
                continue
            census.anomalous.append(cl)
            continue
        if len(cl) == m * m:
            union = 0
            for v in cl:
                union |= masks[v]
            union |= 1 << D
            census.plane_cliques.append(PlaneClique(cl, tuple(iter_bits(union))))
        else:
            census.anomalous.append(cl)

    c = census.checks
    c["anomalous"] = (0, len(census.anomalous))
    if not model.trivial:
        points_expected, planes_expected = census.expected_counts
        c["point_clique_count"] = (points_expected, len(census.point_cliques))
        c["plane_clique_count"] = (planes_expected, len(census.plane_cliques))
        c["point_clique_sizes"] = ({n}, {len(pc.vertices) for pc in census.point_cliques})
        c["plane_clique_sizes"] = ({m * m}, {len(pc.vertices) for pc in census.plane_cliques})
        c["max_clique_size"] = (n, max(len(cl) for cl in cliques))
        pt_member = [0] * g.nu
        pl_member = [0] * g.nu
        for pc in census.point_cliques:
            for v in pc.vertices:
                pt_member[v] += 1
        for pc in census.plane_cliques:
            for v in pc.vertices:
                pl_member[v] += 1
        c["point_cliques_per_vertex"] = ({m + 1}, set(pt_member))
        c["plane_cliques_per_vertex"] = ({(n - 1) // (m - 1)}, set(pl_member))
        sets = {pc.vertices for pc in census.point_cliques}
        c["classes_set_distinct"] = (0, sum(pc.vertices in sets for pc in census.plane_cliques))
    return census


@dataclass
class IntersectionReport:
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

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
    cliques is a violation too, so that no law holds over zero cliques.
    """
    rep = IntersectionReport()
    for label, cliques, expected in zip(("point-clique-count", "plane-clique-count"),
                                        (census.point_cliques, census.plane_cliques),
                                        census.expected_counts):
        if len(cliques) != expected:
            rep.violations.append((label, expected, len(cliques)))
    m = census.m
    npoints = len(census.point_cliques)
    point_of = [[] for _ in range(g.nu)]
    for j, pc in enumerate(census.point_cliques):
        for v in pc.vertices:
            point_of[v].append(j)
    sizes = set()
    for i, pc in enumerate(census.plane_cliques):
        shared = {}
        for v in pc.vertices:
            for j in point_of[v]:
                shared[j] = shared.get(j, 0) + 1
        if len(shared) < npoints:
            sizes.add(0)
        sizes.update(shared.values())
        for j in sorted(shared):
            if shared[j] != m:
                rep.violations.append(("plane-point", i, j, shared[j]))
    rep.stats["plane_point_intersection_sizes"] = sorted(sizes)

    covered = [0] * g.nu
    for label, cliques in (("edge-point-cover", census.point_cliques),
                           ("edge-plane-cover", census.plane_cliques)):
        once, twice = [0] * g.nu, [0] * g.nu  # partners in one clique, in two
        for pc in cliques:
            members = sum(1 << v for v in pc.vertices)
            for v in pc.vertices:
                twice[v] |= once[v] & members
                once[v] |= members ^ (1 << v)
        for u, row in enumerate(g.rows):
            for v in iter_bits(row & (~once[u] | twice[u]) & -(2 << u)):
                rep.violations.append((label, u, v, 2 if twice[u] >> v & 1 else 0))
            covered[u] |= once[u]
    for u, row in enumerate(g.rows):
        for v in iter_bits(covered[u] & ~row & -(2 << u)):
            rep.violations.append(("cover-of-nonedge", u, v, 0))
    return rep


@dataclass
class PlaneExtraction:
    structure: IncidenceStructure | None  # None when the plane points miss D or a member point
    point_map: list[int]  # plane point index -> model point index
    order: int
    ordinary_points: int
    ordinary_lines: int
    contains_special_point: bool
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.contains_special_point
                and all(e == a for e, a in self.checks.values()))


def extract_plane(clique: PlaneClique, model: RectangleModel) -> PlaneExtraction:
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

    Plane points that miss D, or a point of a member line, fail at once,
    with no structure built.
    """
    s = model.structure
    m = model.m
    pts = list(clique.plane_points)
    back = {p: i for i, p in enumerate(pts)}
    ext = PlaneExtraction(
        structure=None,
        point_map=pts,
        order=m,
        ordinary_points=len(pts) - 1,
        ordinary_lines=len(clique.vertices),
        contains_special_point=s.special_point in back,
    )
    c = ext.checks
    c["member_points_inside"] = (True, all(p in back for v in clique.vertices
                                           for p in s.lines[v]))
    if not (ext.contains_special_point and c["member_points_inside"][1]):
        return ext

    lines = [tuple(back[p] for p in s.lines[v]) for v in clique.vertices]
    for si in s.special_lines:
        restricted = tuple(back[p] for p in s.lines[si] if p in back)
        lines.append(restricted)
    sub = ext.structure = IncidenceStructure([s.points[p] for p in pts], lines,
                                             back[s.special_point], validate=False)
    size = m * m + m + 1
    c["points"] = (size, sub.n_points)
    c["lines"] = (size, sub.n_lines)
    c["line_sizes"] = ({m + 1}, {len(t) for t in sub.lines})
    masks = sub.line_masks
    c["lines_meet_once"] = ({1}, {(a & b).bit_count() for i, a in enumerate(masks)
                                  for b in masks[i + 1:]})
    c["ordinary_points"] = (m * (m + 1), ext.ordinary_points)
    c["ordinary_lines"] = (m * m, ext.ordinary_lines)
    return ext
