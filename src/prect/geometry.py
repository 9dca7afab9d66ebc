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
the Points and map Lines to Lines, so only Point 0 is measured, from the
Lines the census keeps, those through Point 0 (_measure_at_0): the Lines
that meet them are their translates by their own Points, the t histogram
is nu times its histogram at Point 0, and two Lines share two Points iff
two Lines through Point 0 share a second one.  The sorted list of every
clique is never built.  Any other census is measured at every Point, up to
ENUMERATION_MAX_VERTICES Points.
"""

from __future__ import annotations

from collections import Counter

from ._util import Checks, Translations, iter_bits, meeting
from .cliques import ENUMERATION_MAX_VERTICES, CliqueCensus, CliqueError
from .construct import RectangleModel


class GeometryReport(Checks):
    def __init__(self, num_points: int, num_lines: int, points_per_line: set,
                 lines_per_point: set, t_histogram: dict, constant_t: int | None,
                 is_partial_geometry: bool, checks: dict):
        self.num_points, self.num_lines = num_points, num_lines
        self.points_per_line, self.lines_per_point = points_per_line, lines_per_point
        self.t_histogram, self.constant_t = t_histogram, constant_t
        self.is_partial_geometry = is_partial_geometry
        self.pg_label: str | None = None
        self.line_count_matches: str | None = None  # which Line-count formula the data matches
        self.degenerate = not t_histogram
        self.checks = checks


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
    """(t histogram, no two Lines share two Points) at Point 0, for a class
    of num_lines Lines that group maps onto itself; kept are its Lines
    through Point 0.

    A Line j not through 0 that meets a kept Line holds one of their Points
    x != 0, and j - x holds 0, so it is kept: j is a kept Line translated by
    x, and it is counted at the least such x.  t(0, j) counts the kept Lines
    that hold a Point of j; every other Line not through 0 has t = 0.  Two
    kept Lines share a second Point iff some x lies on both.
    """
    owners = {}  # Point x != 0: the mask of the kept Lines (their positions) that hold x
    for b, line in enumerate(kept):
        for x in line:
            if x:
                owners[x] = owners.get(x, 0) | 1 << b
    masks = [sum(1 << v for v in line) for line in kept]
    held = sum(1 << x for x in owners)
    hist = Counter()
    for x in owners:
        back = group.negate(x)
        near = group.translate(held, back)  # the z with z + x held
        for mask in masks:
            if mask >> back & 1:  # the Line translated by x holds Point 0
                continue
            mine = group.shift(iter_bits(mask & near), x)  # its held Points, x among them
            if min(mine) == x:
                hit = 0
                for y in mine:
                    hit |= owners[y]
                hist[hit.bit_count()] += 1
    hist[0] = num_lines - len(kept) - sum(hist.values())
    return ({t: c for t, c in sorted(hist.items()) if c},
            all(not b & b - 1 for b in owners.values()))


def _report(kind: str, census: CliqueCensus, model: RectangleModel) -> GeometryReport:
    """The measured report of one clique class as Lines over the graph's vertices."""
    if census.certified_by(model.structure.translations):
        lines = census.kept[kind]
        hist, pair_ok = _measure_at_0(lines, census.translations, census.count(kind))
        hist = {t: census.nu * c for t, c in hist.items()}
        lines_per_point = {len(lines)}  # at every Point as at Point 0
    else:
        if census.nu > ENUMERATION_MAX_VERTICES:
            raise CliqueError(f"the {kind} geometry of a census without a translation "
                              f"certificate is limited to {ENUMERATION_MAX_VERTICES} Points")
        lines = getattr(census, kind)
        through = census.point_of if kind == "point_cliques" else census.plane_of
        hist, pair_ok = _measure(lines, through)
        lines_per_point = {b.bit_count() for b in through}
    constant = next(iter(hist)) if len(hist) == 1 else None
    return GeometryReport(
        num_points=census.nu, num_lines=census.count(kind),
        points_per_line={len(ln) for ln in lines},
        lines_per_point=lines_per_point,
        t_histogram=hist, constant_t=constant,
        is_partial_geometry=constant is not None and pair_ok,
        checks={"two_points_one_line": (True, pair_ok)})


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
