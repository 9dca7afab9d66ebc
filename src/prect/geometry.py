"""Point-line geometries built from the clique census.

Taking the point cliques as Lines over the graph's vertices yields a partial
geometry: every non-incident Point-Line pair sees exactly m transversal
Lines.  Taking the plane cliques instead gives a transversal count t of 0 or
m depending on whether the line and the plane are disjoint point sets; both
values occur exactly when n > m^2.  t is measured over every non-incident
pair from a table of which Lines meet, built from the census's masks of the
Lines through each Point.

When the class is closed under the translations of the vertices
(CliqueCensus.translations), they act regularly on the Points and map Lines
to Lines, so only Point 0 is measured: the t histogram is nu times its
histogram at Point 0, and two Lines share two Points iff two Lines through
Point 0 share a second one.  Any other class takes the all-Point
measurement, up to ENUMERATION_MAX_VERTICES Points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ._util import iter_bits
from .cliques import ENUMERATION_MAX_VERTICES, CliqueCensus, CliqueError
from .construct import RectangleModel


@dataclass
class GeometryReport:
    kind: str  # "point_cliques" or "plane_cliques"
    num_points: int
    num_lines: int
    points_per_line: set
    lines_per_point: set
    t_histogram: dict
    constant_t: int | None
    is_partial_geometry: bool
    pg_label: str | None
    line_count_matches: str | None  # which Line-count formula the data matches
    degenerate: bool
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(e == a for e, a in self.checks.values())

    def mismatches(self) -> dict:
        return {k: v for k, v in self.checks.items() if v[0] != v[1]}


def _measure(through, num_lines):
    """(t histogram, no two Lines share two Points) of num_lines Lines.

    through[p] has bit i set when Line i holds Point p.  meets[j] has bit i
    set when Lines i and j share a Point; t(p0, j) is the number of Lines
    through p0 that meet Line j.  A pair of Lines found together at a second
    Point shares two Points.
    """
    meets = [0] * num_lines
    pair_ok = True
    for here in through:
        for i in iter_bits(here):
            if meets[i] & here & ~(1 << i):
                pair_ok = False
            meets[i] |= here
    hist = {}
    for here in through:
        ts = [(here & mj).bit_count() for mj in meets]
        for j in iter_bits(here):
            ts[j] = -1  # incident pairs have no t
        row = Counter(ts)  # keys in order of first j, as a loop over j would insert them
        row.pop(-1, None)
        for t, count in row.items():
            hist[t] = hist.get(t, 0) + count
    return hist, pair_ok


def _measure_at_zero(lines, through):
    """_measure at Point 0 only, its histogram multiplied by the number of Points.

    t(0, j) counts the Lines i through Point 0 with j among the Lines
    meeting i, read off through[v] for the Points v of Line i.  Lines
    through Point 0 share a second Point iff their other Points overlap.
    """
    here = through[0]
    t = Counter()
    others = 0
    pair_ok = True
    for i in iter_bits(here):
        members = sum(1 << v for v in lines[i].vertices)
        pair_ok &= not others & members & ~1
        others |= members & ~1
        meets = 0
        for v in lines[i].vertices:
            meets |= through[v]
        t.update(iter_bits(meets & ~here))
    row = Counter(t.values())
    row[0] = len(lines) - here.bit_count() - len(t)
    return {k: len(through) * c for k, c in sorted(row.items()) if c}, pair_ok


def _report(kind: str, census: CliqueCensus) -> GeometryReport:
    """The measured report of one clique class as Lines over the graph's vertices."""
    lines = getattr(census, kind)
    through = census.point_of if kind == "point_cliques" else census.plane_of
    if census.translations(kind) is not None:
        hist, pair_ok = _measure_at_zero(lines, through)
    elif census.nu > ENUMERATION_MAX_VERTICES:
        raise CliqueError(f"the {kind} geometry of a class not closed under translation "
                          f"is limited to {ENUMERATION_MAX_VERTICES} Points")
    else:
        hist, pair_ok = _measure(through, len(lines))
    constant = next(iter(hist)) if len(hist) == 1 else None
    return GeometryReport(
        kind=kind, num_points=census.nu, num_lines=len(lines),
        points_per_line={len(ln.vertices) for ln in lines},
        lines_per_point={b.bit_count() for b in through},
        t_histogram=hist, constant_t=constant,
        is_partial_geometry=constant is not None and pair_ok,
        pg_label=None, line_count_matches=None, degenerate=not hist,
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
    rep = _report("point_cliques", census)
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
    rep = _report("plane_cliques", census)
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
