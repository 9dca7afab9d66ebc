"""Point-line geometries built from the clique census.

Taking the point cliques as Lines over the graph's vertices yields a partial
geometry: every non-incident Point-Line pair sees exactly m transversal
Lines.  Taking the plane cliques instead gives a transversal count t of 0 or
m depending on whether the line and the plane are disjoint point sets; both
values occur exactly when n > m^2.  t is measured over every non-incident
pair from a table of which Lines meet, built from the Lines through each
Point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .cliques import CliqueCensus
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


def _measure(lines, nu):
    """(Lines through each Point, t histogram, no two Lines share two Points).

    meets[j] has bit i set when Lines i and j share a Point; t(p0, j) is the
    number of Lines through p0 that meet Line j.  A pair of Lines found
    together at a second Point shares two Points.
    """
    on = [[] for _ in range(nu)]
    for i, ln in enumerate(lines):
        for v in ln:
            on[v].append(i)
    through = [sum(1 << i for i in mine) for mine in on]
    meets = [0] * len(lines)
    pair_ok = True
    for here, mine in zip(through, on):
        for i in mine:
            if meets[i] & here & ~(1 << i):
                pair_ok = False
            meets[i] |= here
    hist = {}
    for here, mine in zip(through, on):
        ts = [(here & mj).bit_count() for mj in meets]
        for j in mine:
            ts[j] = -1  # incident pairs have no t
        row = Counter(ts)  # keys in order of first j, as a loop over j would insert them
        row.pop(-1, None)
        for t, count in row.items():
            hist[t] = hist.get(t, 0) + count
    return on, hist, pair_ok


def _line_count_formula(count, m, n):
    if count == (m + 1) * n:
        return "(m+1)n"
    if count == m * n:
        return "mn"
    return None


def build_point_clique_geometry(census: CliqueCensus, model: RectangleModel) -> GeometryReport:
    """The geometry whose Lines are the point cliques; must be pg-like.

    Verifies n Points per Line, m+1 Lines per Point, any two Points on at
    most one Line, and constant t = m over all non-incident pairs.  The
    measured Line count is reported against both candidate formulas
    (m+1)n and mn.
    """
    m, n = census.m, census.n
    nu = n * n
    lines = [pc.vertices for pc in census.point_cliques]
    on, hist, pair_ok = _measure(lines, nu)
    constant = next(iter(hist)) if len(hist) == 1 else None
    is_pg = (constant is not None and pair_ok
             and {len(ln) for ln in lines} == {n}
             and {len(o) for o in on} == {m + 1})
    rep = GeometryReport(
        kind="point_cliques",
        num_points=nu,
        num_lines=len(lines),
        points_per_line={len(ln) for ln in lines},
        lines_per_point={len(o) for o in on},
        t_histogram=hist,
        constant_t=constant,
        is_partial_geometry=is_pg,
        pg_label=f"pg({m + 1},{n},{m})" if is_pg and constant == m else None,
        line_count_matches=_line_count_formula(len(lines), m, n),
        degenerate=not hist,
    )
    c = rep.checks
    c["points_per_line"] = ({n}, rep.points_per_line)
    c["lines_per_point"] = ({m + 1}, rep.lines_per_point)
    c["two_points_one_line"] = (True, pair_ok)
    c["constant_t"] = (m, constant)
    c["num_points"] = (n * n, nu)
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
    nu = n * n
    lines = [pc.vertices for pc in census.plane_cliques]
    on, hist, pair_ok = _measure(lines, nu)
    support = set(hist)
    rep = GeometryReport(
        kind="plane_cliques",
        num_points=nu,
        num_lines=len(lines),
        points_per_line={len(ln) for ln in lines},
        lines_per_point={len(o) for o in on},
        t_histogram=hist,
        constant_t=next(iter(hist)) if len(hist) == 1 else None,
        is_partial_geometry=len(support) == 1 and pair_ok,
        pg_label=None,
        line_count_matches=None,
        degenerate=not hist,
    )
    c = rep.checks
    c["num_lines"] = (census.expected_counts[1], len(lines))
    c["two_points_one_line"] = (True, pair_ok)
    if not rep.degenerate:
        c["t_within_0_m"] = (True, support <= {0, m})
        # A line misses a plane iff it avoids all m in-plane points on each
        # of its m+1 special lines, which counts to (n-m)(n-m^2) per plane;
        # t = 0 therefore occurs iff n > m^2.
        zeros = hist.get(0, 0)
        c["disjoint_pair_count"] = ((n - m) * (n - m * m) * len(lines), zeros)
        if not census.trivial and n > m * m:
            c["both_t_values_occur"] = ({0, m}, support)
            c["not_partial_geometry"] = (False, rep.is_partial_geometry)
    return rep
