"""Correctness oracle for prect reports, independent of the prect library.

Every expected value here comes from the closed-form counts of the paper or
from the model file itself, never from prect code:

- graph of lines of a rectangle of order (m, n) is
  srg(n^2, (m+1)(n-1), n+(m+1)(m-2), m(m+1));
- (m+1)n point cliques and n^2(n-1)/(m^2(m-1)) plane cliques (a projective
  plane, m = n, has one plane clique and no point clique);
- (n-m)(n-m^2) lines miss each plane, so t = 0 occurs that often per plane,
  and the point cliques form pg(m+1, n, m);
- two meeting ordinary lines have m^2 candidate transversals, so the A6
  quadruple space is #edges * C(m^2, 2).

Each check returns a list of human-readable problems; an empty list means
the report is correct.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

VERIFY_FULL_STAGES = {"axioms", "elementary_counts", "census", "plane_extraction"}
VERIFY_FULL_NONTRIVIAL = {"srg", "clique_intersections", "point_clique_geometry",
                          "plane_clique_structure", "krein", "eulerian_consistent"}
VERIFY_QUICK_STAGES = {"axioms", "elementary_counts", "census"}
ANALYZE_STAGES = {"eulerian_consistent", "srg", "krein"}


def comb2(x: int) -> int:
    return x * (x - 1) // 2


def srg_parameters(m: int, n: int) -> list[int]:
    return [n * n, (m + 1) * (n - 1), n + (m + 1) * (m - 2), m * (m + 1)]


def a6_space(m: int, n: int) -> int:
    edges = n * n * (m + 1) * (n - 1) // 2
    return edges * comb2(m * m)


def _verdicts(report: dict, expected: set[str]) -> list[str]:
    problems = []
    verdicts = report.get("verdicts", {})
    if set(verdicts) != expected:
        problems.append(f"verdicts {sorted(verdicts)} != expected {sorted(expected)}")
    failing = sorted(k for k, v in verdicts.items() if v is not True)
    if failing:
        problems.append(f"failing verdicts {failing}")
    if report.get("ok") is not True:
        problems.append("report ok is not true")
    return problems


def _expect(problems: list[str], what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_verify(report: dict, family: str, m: int, n: int, profile: str,
                 samples: int) -> list[str]:
    """Problems with a `prect verify` report of a rectangle of order (m, n)."""
    trivial = m == n
    expected = set(VERIFY_FULL_STAGES if profile == "full" else VERIFY_QUICK_STAGES)
    if not trivial:
        expected.add("srg")
        if profile == "full":
            expected |= VERIFY_FULL_NONTRIVIAL
            if family == "subplane":
                expected.add("bilinear_isomorphism")
    problems = _verdicts(report, expected)
    details = report.get("details", {})

    if not trivial:
        _expect(problems, "srg parameters",
                details.get("srg", {}).get("parameters"), srg_parameters(m, n))
    counts = details.get("census_counts", {})
    planes = 1 if trivial else n * n * (n - 1) // (m * m * (m - 1))
    _expect(problems, "point cliques", counts.get("point_cliques"), 0 if trivial else (m + 1) * n)
    _expect(problems, "plane cliques", counts.get("plane_cliques"), planes)
    _expect(problems, "anomalous cliques", counts.get("anomalous"), 0)

    axioms = details.get("axioms", {})
    if profile == "full":
        _expect(problems, "a6 mode", axioms.get("a6_mode"), "full")
        if not trivial:
            hist = details.get("plane_t_histogram", {})
            zeros = (n - m) * (n - m * m) * planes
            _expect(problems, "plane t=0 count", hist.get("0", 0), zeros)
            _expect(problems, "plane t=m count", hist.get(str(m), 0),
                    planes * (n * n - m * m) - zeros)
            _expect(problems, "plane t support", set(hist) <= {"0", str(m)}, True)
            _expect(problems, "pg label", details.get("pg_label"), f"pg({m + 1},{n},{m})")
    else:
        _expect(problems, "a6 mode", axioms.get("a6_mode"), "sampled")
        cov = axioms.get("a6_coverage") or {}
        space = a6_space(m, n)
        _expect(problems, "a6 space", cov.get("space"), space)
        if space <= samples:
            _expect(problems, "a6 exhaustive", cov.get("exhaustive"), True)
            _expect(problems, "a6 drawn", cov.get("drawn"), space)
            _expect(problems, "a6 distinct", cov.get("distinct"), space)
        else:
            _expect(problems, "a6 exhaustive", cov.get("exhaustive"), False)
            _expect(problems, "a6 drawn", cov.get("drawn"), samples)
            distinct = cov.get("distinct")
            if not (isinstance(distinct, int) and 0 < distinct <= min(samples, space)):
                problems.append(f"a6 distinct {distinct!r} outside (0, {min(samples, space)}]")
    return problems


def check_model(model: dict, m: int, n: int) -> list[str]:
    """Problems with a model file of order (m, n): 1 + (m+1)n points, n^2
    ordinary lines of m+1 points, m+1 special lines of n+1 points."""
    st = model["structure"]
    sizes = sorted(len(ln) for ln in st["lines"] if st["special_point"] not in ln)
    special = sorted(len(ln) for ln in st["lines"] if st["special_point"] in ln)
    problems = []
    _expect(problems, "points", len(st["points"]), 1 + (m + 1) * n)
    _expect(problems, "ordinary line sizes", sizes, [m + 1] * (n * n))
    _expect(problems, "special line sizes", special, [n + 1] * (m + 1))
    return problems


def adjacency_from_model(model: dict) -> list[set[int]]:
    """Graph of lines read straight from a model file: ordinary lines meet."""
    st = model["structure"]
    ordinary = [set(ln) for ln in st["lines"] if st["special_point"] not in ln]
    adj = [set() for _ in ordinary]
    for u, v in combinations(range(len(ordinary)), 2):
        if ordinary[u] & ordinary[v]:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def check_analyze(report: dict, m: int, n: int, adj: list[set[int]]) -> list[str]:
    """Problems with a `prect analyze` report; adj is the model's graph of lines."""
    problems = []
    verdicts = report.get("verdicts", {})
    missing = ANALYZE_STAGES - set(verdicts)
    if missing:
        problems.append(f"missing verdicts {sorted(missing)}")
    failing = sorted(k for k, v in verdicts.items() if v is not True)
    if failing:
        problems.append(f"failing verdicts {failing}")
    details = report.get("details", {})

    chi = details.get("chromatic", {})
    exact = chi.get("exact")
    if not (isinstance(exact, int) and exact >= n):
        problems.append(f"exact chromatic number {exact!r} is not >= n = {n}")
    colors = chi.get("witness")
    if (not isinstance(colors, list) or len(colors) != len(adj)
            or len(set(colors)) != exact
            or any(colors[u] == colors[v] for u in range(len(adj)) for v in adj[u])):
        problems.append("chromatic witness is not a proper coloring with exact colors")

    ham = details.get("hamiltonian", {})
    cycle = ham.get("cycle")
    if ham.get("found"):
        nu = len(adj)
        closed = (isinstance(cycle, list) and len(cycle) == nu + 1 and cycle[0] == cycle[-1]
                  and sorted(cycle[:-1]) == list(range(nu))
                  and all(cycle[i + 1] in adj[cycle[i]] for i in range(nu)))
        if not (closed and ham.get("verified") is True
                and verdicts.get("hamilton_cycle_verified") is True):
            problems.append("reported Hamilton cycle does not verify")
    return problems


def report_digest(report: dict) -> str:
    """SHA-256 of the deterministic part of a report (timings excluded)."""
    body = {k: v for k, v in report.items() if k != "timings_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
