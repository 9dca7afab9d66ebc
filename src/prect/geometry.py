"""Point-line geometries built from the clique census.

Taking the point cliques as Lines over the graph's vertices yields a partial
geometry: every non-incident Point-Line pair sees exactly m transversal
Lines.  Taking the plane cliques instead gives a transversal count t of 0 or
m depending on whether the line and the plane are disjoint point sets; both
values occur exactly when n > m^2.  At every Point, t is read
from the census's masks of the Lines through each Point and the Lines'
concurrence masks (_measure).

When the census stands for its orbit under the model's incidence
certificate (CliqueCensus.certified_by), the translations act regularly on
the Points and map Lines to Lines: the t histogram is nu times its
histogram at Point 0, and two Lines share two Points iff two Lines through
Point 0 share a second one.  When none do, Point 0 is measured from the
Lines the census keeps, those through it, by one popcount for each of
their Points and each of them (_measure_at_0), and the sorted list of
every clique is never built.  Any other census, or one whose Lines share
two Points, is measured at every Point, up to ENUMERATION_MAX_VERTICES.
"""

from __future__ import annotations

from collections import Counter

from ._util import Checks, Translations, iter_bits, meeting
from .cliques import ENUMERATION_MAX_VERTICES, CliqueCensus, CliqueError
from .structure import RectangleModel


class GeometryReport(Checks):
    """A clique class as Lines over the graph's vertices.  constant_t is the
    one t of the histogram, None unless exactly one occurs; a constant t
    and two_points_one_line, no two Lines sharing two Points, make it a
    partial geometry."""

    def __init__(self, num_points: int, num_lines: int, points_per_line: set,
                 lines_per_point: set, t_histogram: dict, two_points_one_line: bool):
        self.num_points, self.num_lines = num_points, num_lines
        self.points_per_line, self.lines_per_point = points_per_line, lines_per_point
        self.t_histogram = t_histogram
        self.constant_t = next(iter(t_histogram)) if len(t_histogram) == 1 else None
        self.is_partial_geometry = self.constant_t is not None and two_points_one_line
        self.pg_label: str | None = None
        self.line_count_matches: str | None = None  # which Line-count formula the data matches
        self.degenerate = not t_histogram
        self.checks = {"two_points_one_line": (True, two_points_one_line)}


def _measure(lines, through):
    """(t histogram, no two Lines share two Points) summed over every Point.

    through[p] has bit i set when Line i holds Point p (_util.holders).
    t(p, j), for a Line j not through p, counts the Lines i through p that
    meet j: j is in the concurrence mask of Line i (_util.meeting), computed
    once for each Line.  Those masks are added up as binary counters, bit j
    of digits[b] being digit b of t(p, j), and the Lines not through p are
    split by each digit in turn.  Two Lines through p share a second Point
    iff their other Points overlap.
    """
    pencils = [list(iter_bits(b)) for b in through]  # the Lines through each Point
    used = {i for pencil in pencils for i in pencil}
    meets = meeting(lines, through, used)
    own = {i: sum(1 << v for v in lines[i]) for i in used}  # the Points of each Line
    hist = Counter()
    pair_ok = True
    for p, pencil in enumerate(pencils):
        here = through[p]
        others = 0
        digits = []
        for i in pencil:
            mine, carry = own[i] & ~(1 << p), meets[i]
            pair_ok &= not others & mine
            others |= mine
            carry &= ~here
            for b, digit in enumerate(digits):
                digits[b], carry = digit ^ carry, digit & carry
            if carry:
                digits.append(carry)
        groups = [(0, (1 << len(lines)) - 1 & ~here)]  # (t so far, its Lines)
        for b, digit in enumerate(digits):
            groups = [(t + (bit << b), part) for t, rest in groups
                      for bit, part in ((0, rest & ~digit), (1, rest & digit)) if part]
        for t, part in groups:
            hist[t] += part.bit_count()
    return {t: c for t, c in sorted(hist.items()) if c}, pair_ok


def _measure_at_0(kept, group: Translations, num_lines: int):
    """The t histogram of a class of num_lines Lines that group maps onto
    itself, nu times its histogram at Point 0; kept are its Lines through
    Point 0.  None when two of them share a Point other than 0.

    A Line j not through 0 that meets a kept Line holds one of their Points
    x != 0, and j - x holds 0, so j is a kept Line L translated by x.  As
    j meets each kept Line at most once, t(0, j) is the number h of its
    Points that kept Lines hold, those of L translated by -x.  Each such j
    is reached from each of its h held Points, so the pairs (x, L) with a
    given h, divided by h, count the Lines with t = h; a remainder, from a
    class that is not closed, gives None too.  Every other Line not through
    0 has t = 0.
    """
    masks = [sum(1 << v for v in line) for line in kept]
    held = 0  # the Points other than 0 of the kept Lines
    for mask in masks:
        if held & mask:
            return None
        held |= mask & ~1
    pairs = Counter()  # h: the pairs (x, L) whose translate L + x holds h held Points
    for x in iter_bits(held):
        back = group.negate(x)
        near = group.translate(held, back)  # the z with z + x held
        pairs.update((mask & near).bit_count() for mask in masks if not mask >> back & 1)
    hist = {}
    for h, count in pairs.items():
        hist[h], rest = divmod(count, h)
        if rest:
            return None
    hist[0] = num_lines - len(kept) - sum(hist.values())
    return {t: group.nu * c for t, c in sorted(hist.items()) if c}


def _report(kind: str, census: CliqueCensus, model: RectangleModel) -> GeometryReport:
    """The measured report of one clique class as Lines over the graph's vertices."""
    lines, hist = census.kept[kind], None
    if census.certified_by(model.structure.translations):
        hist = _measure_at_0(lines, census.translations, census.count(kind))
    if hist is not None:
        lines_per_point, pair_ok = {len(lines)}, True  # at every Point as at Point 0
    else:
        if census.nu > ENUMERATION_MAX_VERTICES:
            raise CliqueError(f"the {kind} geometry measured at every Point is limited "
                              f"to {ENUMERATION_MAX_VERTICES} Points")
        lines = getattr(census, kind)
        through = census.point_of if kind == "point_cliques" else census.plane_of
        hist, pair_ok = _measure(lines, through)
        lines_per_point = {b.bit_count() for b in through}
    return GeometryReport(
        num_points=census.nu, num_lines=census.count(kind),
        points_per_line={len(ln) for ln in lines},
        lines_per_point=lines_per_point,
        t_histogram=hist, two_points_one_line=pair_ok)


def build_point_clique_geometry(census: CliqueCensus, model: RectangleModel) -> GeometryReport:
    """The geometry whose Lines are the point cliques; must be pg-like.

    Verifies n Points per Line, m+1 Lines per Point, any two Points on at
    most one Line, and constant t = m over all non-incident pairs.  The
    measured Line count is reported against both candidate formulas
    (m+1)n and mn.  A plane's complete graph has no maximal point clique, so
    on a trivial model only the Line count, 0, is checked.
    """
    m, n = census.m, census.n
    rep = _report("point_cliques", census, model)
    rep.line_count_matches = {(m + 1) * n: "(m+1)n", m * n: "mn"}.get(rep.num_lines)
    rep.is_partial_geometry &= rep.points_per_line == {n} and rep.lines_per_point == {m + 1}
    if rep.is_partial_geometry and rep.constant_t == m:
        rep.pg_label = f"pg({m + 1},{n},{m})"
    if census.trivial:
        rep.checks = {"num_lines": (census.expected_counts[0], rep.num_lines)}
        return rep
    c = rep.checks
    c["points_per_line"] = ({n}, rep.points_per_line)
    c["lines_per_point"] = ({m + 1}, rep.lines_per_point)
    c["constant_t"] = (m, rep.constant_t)
    c["num_points"] = (n * n, rep.num_points)
    return rep


def build_plane_clique_structure(census: CliqueCensus, model: RectangleModel) -> GeometryReport:
    """The structure whose Lines are the plane cliques, with its t distribution.

    t is 0 when the line and the plane are disjoint point sets and m when
    they share a point; disjoint pairs number (n-m)(n-m^2) per plane, so for
    n > m^2 both values occur and the structure is not a partial geometry,
    while at the minimum n = m^2 the value t = m is constant.  Trivial
    rectangles degenerate (the single plane clique meets every vertex).  The
    number of plane cliques is checked, so that no model passes over none.
    """
    m, n = census.m, census.n
    rep = _report("plane_cliques", census, model)
    support = set(rep.t_histogram)
    c = rep.checks
    c["num_lines"] = (census.expected_counts[1], rep.num_lines)
    if not rep.degenerate:
        c["t_within_0_m"] = (True, support <= {0, m})
        # A line misses a plane iff it avoids all m in-plane points on each
        # of its m+1 special lines, which counts to (n-m)(n-m^2) per plane;
        # t = 0 therefore occurs iff n > m^2.
        zeros = rep.t_histogram.get(0, 0)
        c["disjoint_pair_count"] = ((n - m) * (n - m * m) * rep.num_lines, zeros)
        if not census.trivial and n > m * m:
            c["both_t_values_occur"] = ({0, m}, support)
            c["not_partial_geometry"] = (False, rep.is_partial_geometry)
    return rep
