"""The subcommands that read a model file: verify, cliques, iso, geometry,
analyze and export.

Each reads its file into a _Run, whose facts are computed on first use,
timed and shared.  Each fact a report states has one entry, a function of
(run, report) that is the one writer of the fact's verdict and detail
keys.  A subcommand is a list of entries, each under the conditions its
list sets, run in order until one returns True to stop the run.  The
entries import their stage modules, so a subcommand compiles only the
stages it runs.  cli.main loads this module for these subcommands only,
and it never imports prect.cli: under `python -m prect.cli` that would
compile cli.py a second time.
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
    from .linegraph import LineGraph
    from .structure import RectangleModel


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
    """A model file and its subcommand's arguments, with facts computed on first use."""

    def __init__(self, path: str, args):
        self.args, self.timings_ms, self._nested_s = args, {}, 0.0
        with open(path, encoding="utf-8") as fh:
            try:
                self.model = model_from_json(fh.read())
            except (KeyError, TypeError, IndexError) as exc:
                raise ValueError(f"malformed model file {path}: {exc}") from exc

    @cached_property
    def order(self):
        return order_of(self.model.structure)

    @_timed_fact
    def axioms(self):
        """A1-A6 (incidence.check_axioms) at verify's profile.  Past the
        enumeration bound, where the census would refuse after A6, A1-A5 run
        alone: their report, with no A6, when one fails, else the refusal."""
        from .cliques import CAYLEY_MAX_VERTICES, CliqueError, check_enumeration_bound
        from .incidence import check_axioms

        s, args = self.model.structure, self.args
        if len(s.ordinary_lines) <= CAYLEY_MAX_VERTICES:
            self.translations  # certified once, for the bound, A6, the graph and the census
        try:
            check_enumeration_bound(self.model)
        except CliqueError:
            refuted = check_axioms(s, None)
            if refuted.ok:
                raise
            return refuted
        return check_axioms(s, "full" if args.profile == "full" else "sampled",
                            a6_samples=args.a6_samples, seed=args.seed)

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
        from .bilinear import BilinearError, build_hq2k, certify_isomorphism, line_matrix_map

        if not _subplane(self):
            raise BilinearError("iso requires a coordinatized subplane model")
        h = build_hq2k(self.model.p, self.model.e, self.model.k)
        mapping = line_matrix_map(self.model, h)
        return mapping, certify_isomorphism(self.graph, h.graph, mapping)

    @_timed_fact
    def geometry(self):
        """(point-clique geometry, plane-clique structure)."""
        from .geometry import build_plane_clique_structure, build_point_clique_geometry

        return (build_point_clique_geometry(self.census, self.model),
                build_plane_clique_structure(self.census, self.model))


# -- the entries, each one fact's writer, and the subcommands, lists of entries --

def _a1(run: _Run, report: RunReport):
    """A1, one pass over the incidences, with its witness on failure."""
    witness = _a1_witness(run.model.structure)
    report.verdicts["A1"] = witness is None
    if witness:
        report.details["A1"] = witness


def _axioms(run: _Run, report: RunReport):
    """A1-A6 with their witnesses; stops a run that A1-A5 alone refuted."""
    axioms = run.axioms
    report.verdicts["axioms"] = axioms.ok
    report.details["axioms"] = _fields(axioms, "verdicts", "witnesses", "a6_mode", "a6_coverage")
    return axioms.a6_mode is None


def _order(run: _Run, report: RunReport):
    """A model with no order fails, with the reason, and stops the run."""
    try:
        run.order
    except StructureError as exc:
        report.verdicts["order"] = False
        report.details["order"] = str(exc)
        return True


def _elementary_counts(run: _Run, report: RunReport):
    from .incidence import elementary_counts

    counts = elementary_counts(run.model.structure)
    report.verdicts["elementary_counts"] = counts.ok
    report.details["count_mismatches"] = counts.mismatches()


def _srg(run: _Run, report: RunReport):
    cert = run.cert
    report.verdicts["srg"] = cert.ok
    report.details["srg"] = {"eigenvalues": [cert.tau0, cert.tau1, cert.tau2], **_fields(
        cert, "parameters", "multiplicities", "verdicts", "witness", "ok")}


def _census(run: _Run, report: RunReport):
    census = run.census
    report.verdicts["census"] = census.ok
    report.details["census_counts"] = {"mismatches": census.mismatches(), **{
        kind: census.count(kind) for kind in ("point_cliques", "plane_cliques", "anomalous")}}


def _intersections(run: _Run, report: RunReport):
    report.verdicts["clique_intersections"] = run.intersections.ok


def _planes(run: _Run, report: RunReport):
    report.verdicts["plane_extraction"] = run.planes


def _iso(run: _Run, report: RunReport):
    iso = run.iso[1]
    report.verdicts["bilinear_isomorphism"] = iso.ok
    report.details["pairs_checked"] = iso.pairs_checked


def _geometry(run: _Run, report: RunReport):
    geo_pt, geo_pl = run.geometry
    report.verdicts["point_clique_geometry"] = geo_pt.ok
    report.verdicts["plane_clique_structure"] = geo_pl.ok
    report.details["pg_label"] = geo_pt.pg_label
    report.details["plane_t_histogram"] = _histogram(geo_pl)


def _krein(run: _Run, report: RunReport):
    from .linegraph import krein_check

    report.verdicts["krein"] = krein_check(run.cert).ok


def _planar(run: _Run, report: RunReport):
    from .linegraph import planarity_verdict

    report.details["planar"] = _fields(planarity_verdict(run.graph, *run.order),
                                       "planar", "reason")


def _eulerian(run: _Run, report: RunReport):
    from .linegraph import eulerian_verdict

    eu = eulerian_verdict(run.graph, *run.order)
    report.verdicts["eulerian_consistent"] = eu.consistent
    report.details["eulerian"] = _fields(eu, "eulerian", "predicate")


def _analysis_bound(run: _Run, report: RunReport):
    """Past ANALYSIS_MAX_VERTICES, stops a run that A1 refuted, and refuses any other."""
    from .analysis import ANALYSIS_MAX_VERTICES, AnalysisError

    nu = run.model.num_ordinary_lines
    if nu > ANALYSIS_MAX_VERTICES and report.verdicts["A1"]:
        raise AnalysisError(f"analysis limited to {ANALYSIS_MAX_VERTICES} vertices, "
                            f"the model has {nu}")
    return nu > ANALYSIS_MAX_VERTICES


def _hamiltonian(run: _Run, report: RunReport):
    ham, report.details["hamiltonian"] = _witnessed(
        lambda analysis: analysis.hamiltonian_by_construction(run.graph, run.model, *run.order),
        lambda ham: {"found": True, **_fields(ham, "verified", "condition_n_le_3m_plus_1",
                                              "cycle", "provenance")})
    report.verdicts["hamilton_cycle_verified"] = ham is not None and ham.verified


def _chromatic(run: _Run, report: RunReport):
    chi, report.details["chromatic"] = _witnessed(
        lambda analysis: analysis.chromatic_by_construction(run.graph, run.model, run.cert),
        lambda chi: {"exact": chi.exact_chromatic, **_fields(
            chi, "haemers_bound", "haemers_exact", "claimed_bound", "clique_lower_bound",
            "flags", "witness", "provenance")})
    if chi is None:
        report.verdicts["chromatic_verified"] = False


def _chromatic_index(run: _Run, report: RunReport):
    eb, report.details["chromatic_index"] = _witnessed(
        lambda analysis: analysis.chromatic_index_by_construction(run.graph, run.model,
                                                                  *run.order),
        lambda eb: _fields(eb, "bracket", "verdict", "flags", "provenance"))
    if eb is None:
        report.verdicts["chromatic_index_verified"] = False


def _witnessed(read, details):
    """(read(prect.analysis), a witness read off the model, details(it)); or, when
    it fails its check, (None, details whose witness is the AnalysisError message)."""
    from . import analysis

    try:
        found = read(analysis)
    except analysis.AnalysisError as exc:
        return None, {"verified": False, "witness": str(exc)}
    return found, details(found)


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _histogram(geo) -> dict:
    return {str(k): v for k, v in sorted(geo.t_histogram.items())}


def _when(holds, entry):
    """entry, on a run for which holds(run)."""
    return lambda run, report: holds(run) and entry(run, report)


def _nontrivial(run: _Run) -> bool:
    return run.order[0] != run.order[1]


def _subplane(run: _Run) -> bool:
    return run.model.family == "subplane"


_QUICK = (_axioms, _order, _elementary_counts, _when(_nontrivial, _srg), _census)
_FULL = (*_QUICK, _when(_nontrivial, _intersections), _planes, _when(_subplane, _iso),
         *(_when(_nontrivial, entry) for entry in (_geometry, _krein, _planar, _eulerian)))
_ANALYZE = (_a1, _analysis_bound, _order, _planar, _eulerian, _hamiltonian,
            *(_when(_nontrivial, entry) for entry in (_srg, _chromatic, _krein)),
            _chromatic_index)
_CENSUS = (_a1, _census)


def cmd_verify(args, report: RunReport):
    if args.a6_samples < 1:
        raise ValueError(f"--a6-samples must be at least 1, not {args.a6_samples}")
    run = _Run(args.model, args)
    t0 = time.perf_counter()
    any(entry(run, report) for entry in (_FULL if args.profile == "full" else _QUICK))
    if args.timings:
        report.timings_ms = {**run.timings_ms,
                             "total": round((time.perf_counter() - t0) * 1000, 1)}
    print(report.to_json())


def cmd_analyze(args, report: RunReport):
    run = _Run(args.graph, args)
    any(entry(run, report) for entry in _ANALYZE)
    report.write(args.out, report.to_json())


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
    out = ["graph lines {", *(f"  {u};" for u in range(g.nu))]
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
    return {
        "m": census.m, "n": census.n, "trivial": census.trivial,
        "point_cliques": [{"vertices": list(pc),
                           "point": pts[common_points(pc, model).bit_length() - 1]}
                          for pc in census.point_cliques],
        "plane_cliques": [{"vertices": list(pc),
                           "plane_points": [pts[p] for p in iter_bits(plane_mask(pc, model))]}
                          for pc in census.plane_cliques],
        "anomalous": [list(c) for c in census.anomalous],
    }


# (what, format) -> the text that export writes
_EXPORTS = {
    ("model", "json"): lambda run: model_to_json(run.model),
    ("graph", "graph6"): lambda run: graph6_str(run.graph),
    ("graph", "dot"): lambda run: to_dot(run.graph, run.model),
    ("census", "json"): lambda run: json.dumps(census_to_dict(run.census, run.model),
                                               sort_keys=True),
}


def _geometry_json(run: _Run) -> str:
    geo_pt, geo_pl = run.geometry
    return json.dumps({
        "point_cliques": {"t_histogram": _histogram(geo_pt), **_fields(
            geo_pt, "pg_label", "is_partial_geometry", "num_lines", "line_count_matches")},
        "plane_cliques": {"t_histogram": _histogram(geo_pl), **_fields(
            geo_pl, "is_partial_geometry", "degenerate")},
    }, sort_keys=True)


# subcommand: (its entries, its product, the stream of its report).  The
# product goes to --out, or to stdout when the report goes to stderr.
_PRODUCTS = {
    "cliques": (_CENSUS, _EXPORTS["census", "json"], "stderr"),
    "geometry": ((_a1, _geometry), _geometry_json, "stderr"),
    "iso": ((_iso, _a1), lambda run: json.dumps({"line_to_matrix_vertex": run.iso[0]},
                                                sort_keys=True), "stdout"),
    "export": (tuple(_when(lambda run: run.args.what == "census", entry) for entry in _CENSUS),
               lambda run: _EXPORTS[run.args.what, run.args.format](run), "stderr"),
}


def cmd_export(args, report: RunReport):
    """export, its --format (by default --what's first) checked before the model is read."""
    formats = [f for what, f in _EXPORTS if what == args.what]
    report.params["format"] = args.format = args.format or formats[0]
    if args.format not in formats:
        allowed = " or ".join(formats) if len(formats) > 1 else f"{formats[0]} only"
        raise ValueError(f"{args.what} exports as {allowed}")
    cmd_product(args, report)


def cmd_product(args, report: RunReport):
    """cliques, geometry, iso and export, by their rows of _PRODUCTS."""
    run = _Run(args.model, args)
    entries, product, stream = _PRODUCTS[args.cmd]
    any(entry(run, report) for entry in entries)
    if args.out or stream == "stderr":
        report.write(args.out, product(run))
    print(report.to_json(), file=getattr(sys, stream))
