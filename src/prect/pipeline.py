"""The subcommands that read a model file: verify, cliques, iso, geometry,
analyze and export.

Each reads its file into a _Run, whose facts (translations, graph of lines,
census, clique intersection laws, plane extraction, srg certificate,
isomorphism, geometries) are computed on first use, timed, and shared by
the verdicts that read them.  cli.main loads this module only for these
subcommands, so a `prect build` process never compiles it.  It imports the
axiom checks of prect.incidence inside cmd_verify, their one caller, so
only verify compiles them; the other subcommands report A1 from
structure._a1_witness.  The graph6, DOT, census and certificate writers
sit beside _EXPORTS, the exports that use them.  The module reaches the
report only through the RunReport it is handed, never by importing
prect.cli: under `python -m prect.cli` that import would compile cli.py a
second time.
"""

from __future__ import annotations

import json
import sys
import time
from functools import cached_property
from typing import TYPE_CHECKING

from ._util import iter_bits
from .export import ExportError, model_from_json, model_to_json
from .structure import StructureError, _a1_witness, order_of

if TYPE_CHECKING:
    from .cli import RunReport
    from .cliques import CliqueCensus
    from .linegraph import LineGraph, SrgCertificate
    from .structure import RectangleModel

# The stage modules (linegraph, cliques, bilinear, geometry, analysis) are
# imported by the facts and subcommands that use them, so each subcommand
# loads only the stages it runs.


def _timed_fact(compute):
    """A cached _Run fact whose first computation records its own time in
    run.timings_ms, the time of the facts it computes on the way excluded."""

    def timed(run):
        outer, run._nested_s = run._nested_s, 0.0
        t0 = time.perf_counter()
        value = compute(run)
        elapsed = time.perf_counter() - t0
        run.timings_ms[compute.__name__] = round((elapsed - run._nested_s) * 1000, 1)
        run._nested_s = outer + elapsed
        return value

    timed.__doc__ = compute.__doc__
    return cached_property(timed)


class _Run:
    """One model file and the facts derived from it, each computed on first use."""

    def __init__(self, path: str):
        self.timings_ms = {}
        self._nested_s = 0.0
        with open(path, encoding="utf-8") as fh:
            try:
                self.model = model_from_json(fh.read())
            except (KeyError, TypeError, IndexError) as exc:
                raise ValueError(f"malformed model file {path}: {exc}") from exc

    @cached_property
    def order(self):
        return order_of(self.model.structure)

    @_timed_fact
    def translations(self):
        """The incidence translations (IncidenceStructure.translations), or None."""
        return self.model.structure.translations

    @_timed_fact
    def graph(self):
        from .linegraph import build_line_graph

        return build_line_graph(self.model)

    @_timed_fact
    def census(self):
        """The clique census; past the enumeration bound it refuses before the
        graph of lines is built."""
        from .cliques import check_enumeration_bound, classify_census

        check_enumeration_bound(self.model)
        return classify_census(self.graph, self.model)

    @_timed_fact
    def intersections(self):
        """The clique intersection laws (cliques.clique_intersections)."""
        from .cliques import clique_intersections

        return clique_intersections(self.census, self.graph)

    @_timed_fact
    def planes(self):
        """Whether every plane clique rebuilds a plane (cliques.plane_extraction)."""
        from .cliques import plane_extraction

        return plane_extraction(self.census, self.model)

    @_timed_fact
    def cert(self):
        from .linegraph import certify_srg

        return certify_srg(self.graph, *self.order)

    @_timed_fact
    def iso(self):
        """(line -> matrix vertex map, its isomorphism certificate) onto H_q(2,k).

        H is built first, so past its bound the graph of lines is never built."""
        from .bilinear import build_hq2k, certify_isomorphism, line_matrix_map

        model = self.model
        h = build_hq2k(model.p, model.e, model.k)
        mapping = line_matrix_map(model, h)
        return mapping, certify_isomorphism(self.graph, h.graph, mapping)

    @_timed_fact
    def geometry(self):
        """(point-clique geometry, plane-clique structure)."""
        from .geometry import build_plane_clique_structure, build_point_clique_geometry

        return (build_point_clique_geometry(self.census, self.model),
                build_plane_clique_structure(self.census, self.model))


def cmd_verify(args, report: RunReport):
    from .cliques import CAYLEY_MAX_VERTICES, check_enumeration_bound
    from .incidence import check_axioms

    if args.a6_samples < 1:
        raise ValueError(f"--a6-samples must be at least 1, not {args.a6_samples}")
    run = _Run(args.model)
    model = run.model
    t0 = time.perf_counter()
    if model.num_ordinary_lines <= CAYLEY_MAX_VERTICES:
        run.translations  # certified once, for the bound, A6, the graph and the census
    check_enumeration_bound(model)  # the census would refuse after A6
    t_axioms = time.perf_counter()
    axioms = check_axioms(model.structure, "full" if args.profile == "full" else "sampled",
                          a6_samples=args.a6_samples, seed=args.seed)
    report.verdicts["axioms"] = axioms.ok
    report.details["axioms"] = {"verdicts": axioms.verdicts,
                                "witnesses": axioms.witnesses,
                                "a6_mode": axioms.a6_mode,
                                "a6_coverage": axioms.a6_coverage}
    axioms_ms = (time.perf_counter() - t_axioms) * 1000
    try:
        m, n = run.order
    except StructureError as exc:  # the axiom verdicts and witnesses still stand
        report.verdicts["order"] = False
        report.details["order"] = str(exc)
    else:
        _verify_stages(run, args.profile == "full", m, n, report)
    if args.timings:
        total_ms = (time.perf_counter() - t0) * 1000
        report.timings_ms = {**run.timings_ms, "axioms": round(axioms_ms, 1),
                             "total": round(total_ms, 1)}
    print(report.to_json())


def _verify_stages(run: _Run, full: bool, m: int, n: int, report: RunReport):
    """verify's stages after A1-A6, on a model whose order is (m, n)."""
    from .incidence import elementary_counts

    model = run.model
    counts = elementary_counts(model.structure)
    report.verdicts["elementary_counts"] = counts.ok
    report.details["count_mismatches"] = counts.mismatches()

    trivial = m == n
    if not trivial:
        report.verdicts["srg"] = run.cert.ok
        report.details["srg"] = certificate_to_dict(run.cert)
    census = run.census
    report.verdicts["census"] = census.ok
    report.details["census_counts"] = {
        "point_cliques": census.count("point_cliques"),
        "plane_cliques": census.count("plane_cliques"),
        "anomalous": census.count("anomalous"),
        "mismatches": census.mismatches(),
    }

    if full:
        if not trivial:
            report.verdicts["clique_intersections"] = run.intersections.ok
        report.verdicts["plane_extraction"] = run.planes
        if model.family == "subplane":
            report.verdicts["bilinear_isomorphism"] = run.iso[1].ok
        if not trivial:
            from .linegraph import eulerian_verdict, krein_check, planarity_verdict

            geo_pt, geo_pl = run.geometry
            report.verdicts["point_clique_geometry"] = geo_pt.ok
            report.verdicts["plane_clique_structure"] = geo_pl.ok
            report.details["pg_label"] = geo_pt.pg_label
            report.details["plane_t_histogram"] = {str(k): v for k, v in
                                                   sorted(geo_pl.t_histogram.items())}
            report.verdicts["krein"] = krein_check(run.cert).ok
            report.details["planar"] = planarity_verdict(run.graph, m, n).planar
            report.verdicts["eulerian_consistent"] = eulerian_verdict(run.graph, m, n).consistent


def _a1(run: _Run, report: RunReport):
    """A1 on the model, one pass over the incidences, with its witness on failure."""
    witness = _a1_witness(run.model.structure)
    report.verdicts["A1"] = witness is None
    if witness:
        report.details["A1"] = witness


def _census_verdicts(run: _Run, report: RunReport):
    """A1 with its witness, the census verdict and the clique counts."""
    _a1(run, report)
    census = run.census
    report.verdicts["census"] = census.ok
    report.details["counts"] = {"point": census.count("point_cliques"),
                                "plane": census.count("plane_cliques"),
                                "anomalous": census.count("anomalous")}


def cmd_cliques(args, report: RunReport):
    run = _Run(args.model)
    _census_verdicts(run, report)
    report.write(args.out, _EXPORTS["census", "json"](run))


def cmd_iso(args, report: RunReport):
    run = _Run(args.model)
    if run.model.family != "subplane":
        print("iso requires a coordinatized subplane model", file=sys.stderr)
        return 2
    _a1(run, report)
    mapping, iso = run.iso
    report.verdicts["bilinear_isomorphism"] = iso.ok
    report.details["pairs_checked"] = iso.pairs_checked
    if args.out:
        report.write(args.out, json.dumps({"line_to_matrix_vertex": mapping}, sort_keys=True))
    print(report.to_json())


def cmd_geometry(args, report: RunReport):
    run = _Run(args.model)
    _a1(run, report)
    geo_pt, geo_pl = run.geometry
    report.verdicts["point_clique_geometry"] = geo_pt.ok
    report.verdicts["plane_clique_structure"] = geo_pl.ok
    report.details["geometry"] = payload = {
        "point_cliques": {
            "pg_label": geo_pt.pg_label,
            "t_histogram": {str(k): v for k, v in sorted(geo_pt.t_histogram.items())},
            "is_partial_geometry": geo_pt.is_partial_geometry,
            "num_lines": geo_pt.num_lines,
            "line_count_matches": geo_pt.line_count_matches,
        },
        "plane_cliques": {
            "t_histogram": {str(k): v for k, v in sorted(geo_pl.t_histogram.items())},
            "is_partial_geometry": geo_pl.is_partial_geometry,
            "degenerate": geo_pl.degenerate,
        },
    }
    report.write(args.out, json.dumps(payload, sort_keys=True))


def cmd_analyze(args, report: RunReport):
    from .analysis import (ANALYSIS_MAX_VERTICES, AnalysisError, chromatic_by_construction,
                           chromatic_index_by_construction, hamiltonian_by_construction)
    from .linegraph import eulerian_verdict, krein_check, planarity_verdict

    run = _Run(args.graph)
    nu = run.model.num_ordinary_lines
    if nu > ANALYSIS_MAX_VERTICES:
        raise AnalysisError(f"analysis limited to {ANALYSIS_MAX_VERTICES} vertices, "
                            f"the model has {nu}")
    _a1(run, report)
    try:
        m, n = run.order
    except StructureError as exc:  # as in verify: a failing verdict, not an error
        report.verdicts["order"] = False
        report.details["order"] = str(exc)
        report.write(args.out, report.to_json())
        return
    g, model = run.graph, run.model

    pl = planarity_verdict(g, m, n)
    eu = eulerian_verdict(g, m, n)
    report.verdicts["eulerian_consistent"] = eu.consistent
    report.details["planar"] = {"planar": pl.planar, "reason": pl.reason}
    report.details["eulerian"] = {"eulerian": eu.eulerian, "predicate": eu.predicate}
    ham = _witnessed(report, "hamilton_cycle_verified", "hamiltonian",
                     lambda: hamiltonian_by_construction(g, model, m, n))
    if ham:
        report.details["hamiltonian"] = {
            "found": True,
            "verified": ham.verified,
            "condition_n_le_3m_plus_1": ham.condition_n_le_3m_plus_1,
            "cycle": ham.cycle,
            "provenance": ham.provenance,
        }
        report.verdicts["hamilton_cycle_verified"] = ham.verified

    if m != n:
        report.verdicts["srg"] = run.cert.ok
        chi = _witnessed(report, "chromatic_verified", "chromatic",
                         lambda: chromatic_by_construction(g, model, run.cert))
        if chi:
            report.details["chromatic"] = {
                "exact": chi.exact_chromatic,
                "haemers_bound": chi.haemers_bound,
                "haemers_exact": chi.haemers_exact,
                "claimed_bound": chi.claimed_bound,
                "clique_lower_bound": chi.clique_lower_bound,
                "flags": chi.flags,
                "witness": chi.witness,
                "provenance": chi.provenance,
            }
        report.verdicts["krein"] = krein_check(run.cert).ok
    eb = _witnessed(report, "chromatic_index_verified", "chromatic_index",
                    lambda: chromatic_index_by_construction(g, model, m, n))
    if eb:
        report.details["chromatic_index"] = {
            "bracket": list(eb.bracket),
            "verdict": eb.verdict,
            "flags": eb.flags,
            "provenance": eb.provenance,
        }
    report.write(args.out, report.to_json())


def _witnessed(report: RunReport, verdict: str, detail: str, read):
    """read(), a witness read off the model; or, when it fails its check,
    None and a failing verdict whose witness is the AnalysisError message."""
    from .analysis import AnalysisError

    try:
        return read()
    except AnalysisError as exc:
        report.verdicts[verdict] = False
        report.details[detail] = {"verified": False, "witness": str(exc)}
        return None


def graph6_str(g: LineGraph) -> str:
    """g in the standard graph6 format, vertices in construction order."""
    n = g.nu
    if n > 62:
        if n > 258047:
            raise ExportError("graph too large for this graph6 writer")
        head = bytes([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)])
    else:
        head = bytes([63 + n])
    # column j holds the pairs (i, j), i < j, in order of i: row j's low j bits, reversed
    bits = "".join(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    body = bytes(63 + int(bits[i:i + 6], 2) for i in range(0, len(bits), 6))
    return (head + body).decode("ascii")


def to_dot(g: LineGraph, model: RectangleModel) -> str:
    """DOT text; each edge carries the label of its special line (see edge_class)."""
    from .linegraph import edge_class

    labels = model.special_labels
    out = ["graph lines {"]
    for u in range(g.nu):
        out.append(f"  {u};")
    for u, v in g.edges():
        c = edge_class(model, u, v)
        if c is None:
            raise ExportError(f"lines {u} and {v} meet more than once, or in a point "
                              f"on no unique special line")
        if labels and c >= len(labels):
            raise ExportError(f"lines {u} and {v} meet on special line {c}, but the model "
                              f"labels only {len(labels)} special lines")
        label = labels[c] if labels else str(c)
        out.append(f'  {u} -- {v} [class="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def census_to_dict(census: CliqueCensus, model: RectangleModel) -> dict:
    """The census as JSON; a point clique is labelled by the one point its
    lines share, a plane clique by its plane's points, read off the model."""
    from .cliques import common_points, plane_mask

    pts = model.structure.points

    def point(clique):
        return pts[common_points(clique, model).bit_length() - 1]

    def plane(clique):
        return [pts[p] for p in iter_bits(plane_mask(clique, model))]

    return {
        "m": census.m,
        "n": census.n,
        "trivial": census.trivial,
        "point_cliques": [{"vertices": list(pc), "point": point(pc)}
                          for pc in census.point_cliques],
        "plane_cliques": [{"vertices": list(pc), "plane_points": plane(pc)}
                          for pc in census.plane_cliques],
        "anomalous": [list(c) for c in census.anomalous],
    }


def certificate_to_dict(cert: SrgCertificate) -> dict:
    return {
        "parameters": list(cert.parameters),
        "eigenvalues": [cert.tau0, cert.tau1, cert.tau2],
        "multiplicities": list(cert.multiplicities),
        "verdicts": dict(cert.verdicts),
        "witness": cert.witness,
        "ok": cert.ok,
    }


# (what, format) -> the text that export writes
_EXPORTS = {
    ("model", "json"): lambda run: model_to_json(run.model),
    ("graph", "graph6"): lambda run: graph6_str(run.graph),
    ("graph", "dot"): lambda run: to_dot(run.graph, run.model),
    ("census", "json"): lambda run: json.dumps(census_to_dict(run.census, run.model),
                                               sort_keys=True),
}


def cmd_export(args, report: RunReport):
    run = _Run(args.model)
    writer = _EXPORTS.get((args.what, args.format))
    if writer is None:
        formats = [f for what, f in _EXPORTS if what == args.what]
        allowed = " or ".join(formats) if len(formats) > 1 else f"{formats[0]} only"
        print(f"{args.what} exports as {allowed}", file=sys.stderr)
        report.verdicts["exported"] = False
        return 2
    if args.what == "census":
        _census_verdicts(run, report)
    report.write(args.out, writer(run))
    report.verdicts["exported"] = True
