"""Command-line front end: build, verify, and report on rectangle models.

Subcommands: build, verify, cliques, iso, geometry, analyze, export.  build
writes the model and one `order (m, n) = ...` line on stderr; every other
subcommand emits a RunReport as JSON with sorted keys.  With the same inputs
and seed the output is byte-identical across runs (timings are only included
on request, since they are inherently unstable).  The exit code is 0 iff
every requested verdict passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cached_property

from . import __version__
from ._util import Verdicts
from .export import (build_model, census_to_dict, certificate_to_dict, graph6_str,
                     model_from_json, model_to_json, to_dot)
from .incidence import (A6_DEFAULT_SAMPLES, A6_DEFAULT_SEED, StructureError, _a1_witness,
                        check_axioms, elementary_counts, order_of)

# The stage modules (linegraph, cliques, bilinear, geometry, analysis) are
# imported by the facts and subcommands that use them, so each subcommand
# loads only the stages it runs: build none of them.

# search nodes per --budget-ms unit; only perfbench/tracer.py still runs the
# budgeted searches, since analyze builds its witnesses instead
NODES_PER_MS = 1000


class RunReport(Verdicts):
    """Deterministic record of one CLI invocation."""

    def __init__(self, command: str, params: dict):
        self.version, self.command, self.params = __version__, command, params
        self.verdicts, self.details, self.outputs = {}, {}, []
        self.timings_ms: dict | None = None

    def to_json(self) -> str:
        return json.dumps({**vars(self), "ok": self.ok}, sort_keys=True, default=sorted)


def _write(path: str | None, text: str, report: RunReport):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.outputs.append(path)
    else:
        print(text)


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


def cmd_build(args, report: RunReport):
    model = build_model(args.family, args.p, args.e, args.k)
    m, n = order_of(model.structure)
    _write(args.out, model_to_json(model), report)
    print(f"order (m, n) = ({m}, {n})", file=sys.stderr)


def cmd_verify(args, report: RunReport):
    from .cliques import CAYLEY_MAX_VERTICES, check_enumeration_bound

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
    from .cliques import clique_intersections, plane_extraction

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
            report.verdicts["clique_intersections"] = clique_intersections(census, run.graph).ok
        report.verdicts["plane_extraction"] = plane_extraction(census, model)
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
    _write(args.out, _EXPORTS["census", "json"](run), report)


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
        _write(args.out, json.dumps({"line_to_matrix_vertex": mapping}, sort_keys=True), report)
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
    _write(args.out, json.dumps(payload, sort_keys=True), report)


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
        _write(args.out, report.to_json(), report)
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
    _write(args.out, report.to_json(), report)


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
    _write(args.out, writer(run), report)
    report.verdicts["exported"] = True


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="prect",
                                 description="projective rectangles and their graph of lines")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build a model and write it as JSON")
    b.add_argument("--family", required=True, choices=["l2k", "subplane", "plane"])
    b.add_argument("--p", type=int)
    b.add_argument("--e", type=int, default=1)
    b.add_argument("--k", type=int)
    b.add_argument("--out")

    v = sub.add_parser("verify", help="run the certification pipeline on a model")
    v.add_argument("model")
    v.add_argument("--profile", choices=["quick", "full"], default="quick")
    v.add_argument("--seed", type=int, default=A6_DEFAULT_SEED)
    v.add_argument("--a6-samples", type=int, default=A6_DEFAULT_SAMPLES,
                   help="distinct quadruples that quick's sampled A6 draws (default %(default)s)")
    v.add_argument("--timings", action="store_true")

    for name, help_ in (("cliques", "enumerate and classify maximal cliques"),
                        ("iso", "certify the bilinear forms graph isomorphism"),
                        ("geometry", "partial geometry reports from the census")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("model")
        sp.add_argument("--out")

    an = sub.add_parser("analyze", help="graph properties and chromatic analysis")
    an.add_argument("--graph", required=True)
    an.add_argument("--exact-chi-limit", type=int, default=100,
                    help="no effect: chi is read off the model, not searched for")
    an.add_argument("--budget-ms", type=int, default=60000,
                    help="no effect: every witness is read off the model, not searched for")
    an.add_argument("--out")

    ex = sub.add_parser("export", help="export a model, graph, or census")
    ex.add_argument("model")
    ex.add_argument("--what", choices=["model", "graph", "census"], default="graph")
    ex.add_argument("--format", choices=["json", "dot", "graph6"],
                    help="default: graph6 for the graph, json otherwise")
    ex.add_argument("--out")
    return ap


_DISPATCH = {"build": cmd_build, "verify": cmd_verify, "cliques": cmd_cliques, "iso": cmd_iso,
             "geometry": cmd_geometry, "analyze": cmd_analyze, "export": cmd_export}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.cmd == "export" and args.format is None:  # the first format of --what
        args.format = next(f for what, f in _EXPORTS if what == args.what)
    report = RunReport(args.cmd, {k: v for k, v in sorted(vars(args).items()) if k != "cmd"})
    try:
        code = _DISPATCH[args.cmd](args, report)  # 2 on a usage error, else None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cmd in ("cliques", "geometry", "export"):
        print(report.to_json(), file=sys.stderr)
    return code or (0 if report.ok else 1)


if __name__ == "__main__":
    raise SystemExit(main())
