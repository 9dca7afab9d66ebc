"""Traced run of one prect instance, in-process, with spans per layer call.

    python3 perfbench/tracer.py SPEC_JSON OUT_PATH

run.py starts this once per instance and stage, so every traced instance
gets a fresh interpreter, as a `prect` command does.  SPEC_JSON names the
stage ("build", "verify" or "analyze"), the rung and the options; the child
calls the public functions of each prect module in the order `cli.cmd_build`,
`cli.cmd_verify` or `cli.cmd_analyze` calls them, records a span around each
call, and writes spans, work counters, per-layer exception counts and a
report in the shape the CLI prints to OUT_PATH when it ends.  Only
PYTHONPATH points it at the library; it changes no library code.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory spans: name, call, start, end, parent and instance id."""

    def __init__(self, instance: str, parent: str | None):
        self.instance = instance
        self.spans: list[dict] = []
        self.errors: dict[str, int] = {}
        self._stack = [parent]
        self._counted = None

    @contextmanager
    def span(self, name: str, call: str):
        rec = {"id": f"{self.instance}.{len(self.spans)}", "name": name, "call": call,
               "instance": self.instance, "parent": self._stack[-1],
               "start": perf_counter(), "end": None, "error": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            if exc is not self._counted:  # count once, in the layer that raised
                self._counted = exc
                layer = name.split(".")[0]
                self.errors[layer] = self.errors.get(layer, 0) + 1
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name, fn.__name__):
            return fn(*args, **kwargs)


def _fresh_field(p: int, degree: int):
    """A new GF(p^degree) context with its first table lookups done."""
    from prect.gf import FieldCtx

    ctx = FieldCtx(p, degree)
    ctx.mul_codes(1, 1)
    ctx.inv_code(1)
    return ctx


def _load(tr: Tracer, spec: dict):
    from prect.export import model_from_json

    with open(spec["model"], encoding="utf-8") as fh:
        text = fh.read()
    return tr.call("export.load", model_from_json, text)


def run_build(tr: Tracer, spec: dict, counts: dict, report: dict):
    with tr.span("setup.import", "import prect.cli"):
        import prect.cli  # noqa: F401
    from prect.construct import build_l2k, build_subplane_rect
    from prect.export import model_to_dict
    from prect.incidence import order_of

    family, p, e, k = spec["family"], spec["p"], spec["e"], spec["k"]
    if family == "l2k":
        model = tr.call("construct.build", build_l2k, k)
    else:
        degree = e if family == "plane" else e * k
        tr.call("gf.tables", _fresh_field, p, degree)
        model = tr.call("construct.build", build_subplane_rect, p, e,
                        1 if family == "plane" else k)
        n = model.n
        counts["construct.incidence_tests"] = n * n * model.structure.n_points
    tr.call("incidence.counts", order_of, model.structure)
    with tr.span("export.dump", "model_to_dict"):
        text = json.dumps(model_to_dict(model), sort_keys=True)
    counts["export.model_bytes"] = len(text.encode())
    return model


def _a6_counts(counts: dict, coverage: dict):
    counts["incidence.a6_space"] = coverage["space"]
    counts["incidence.a6_drawn"] = coverage["drawn"]
    counts["incidence.a6_distinct"] = coverage["distinct"]


def a6_probe(model) -> dict:
    """Coverage of an exhaustive A6 run: the whole space, from an untimed probe."""
    from prect.incidence import check_axioms

    space = check_axioms(model.structure, "sampled", a6_samples=0).a6_coverage["space"]
    return {"space": space, "drawn": space, "distinct": space}


def run_verify(tr: Tracer, spec: dict, counts: dict, report: dict):
    from prect.analysis import eulerian_verdict, krein_check, planarity_verdict
    from prect.bilinear import build_hq2k, certify_isomorphism, line_matrix_map
    from prect.cliques import (classify_census, clique_intersections,
                               enumerate_maximal_cliques, extract_plane)
    from prect.geometry import build_plane_clique_structure, build_point_clique_geometry
    from prect.incidence import check_axioms, elementary_counts, order_of
    from prect.linegraph import build_line_graph, certify_srg

    verdicts, details = report["verdicts"], report["details"]
    full = spec["profile"] == "full"
    model = _load(tr, spec)
    s = model.structure
    axioms = tr.call("incidence.axioms", check_axioms, s, "full" if full else "sampled",
                     a6_samples=spec["samples"], seed=spec["seed"])
    verdicts["axioms"] = axioms.ok
    details["axioms"] = {"a6_mode": axioms.a6_mode, "a6_coverage": axioms.a6_coverage}
    if axioms.a6_coverage is not None:
        _a6_counts(counts, axioms.a6_coverage)
    m, n = tr.call("incidence.counts", order_of, s)
    verdicts["elementary_counts"] = tr.call("incidence.counts", elementary_counts, s).ok

    g = tr.call("linegraph.build", build_line_graph, model)
    counts["linegraph.edges"] = g.num_edges
    trivial = m == n
    if not trivial:
        cert = tr.call("linegraph.srg", certify_srg, g, m, n)
        counts["linegraph.pairs"] = g.nu * (g.nu - 1) // 2
        verdicts["srg"] = cert.ok
        details["srg"] = {"parameters": list(cert.parameters)}
    cliques = tr.call("cliques.enumerate", enumerate_maximal_cliques, g)
    counts["cliques.maximal_cliques"] = len(cliques)
    census = tr.call("cliques.classify", classify_census, g, model, cliques)
    npt, npl = len(census.point_cliques), len(census.plane_cliques)
    verdicts["census"] = census.ok
    details["census_counts"] = {"point_cliques": npt, "plane_cliques": npl,
                                "anomalous": len(census.anomalous)}

    if full:
        if not trivial:
            inter = tr.call("cliques.intersections", clique_intersections, census, g)
            counts["cliques.intersection_pairs"] = (npt * (npt - 1) // 2
                                                    + npl * (npl - 1) // 2 + npt * npl)
            verdicts["clique_intersections"] = inter.ok
        extracted = 0
        planes_ok = True
        for pc in census.plane_cliques:  # stops at the first failure, as the CLI does
            extracted += 1
            if not tr.call("cliques.extract", extract_plane, pc, model).ok:
                planes_ok = False
                break
        counts["cliques.planes_extracted"] = extracted
        verdicts["plane_extraction"] = planes_ok
        if model.family == "subplane":
            h = tr.call("bilinear.hq2k", build_hq2k, model.p, model.e, model.k)
            mapping = tr.call("bilinear.map", line_matrix_map, model, h)
            iso = tr.call("bilinear.iso", certify_isomorphism, g, h.graph, mapping)
            counts["bilinear.pairs_checked"] = iso.pairs_checked
            verdicts["bilinear_isomorphism"] = iso.ok
        if not trivial:
            geo_pt = tr.call("geometry.point", build_point_clique_geometry, census, model)
            geo_pl = tr.call("geometry.plane", build_plane_clique_structure, census, model)
            counts["geometry.nonincident_pairs"] = (sum(geo_pt.t_histogram.values())
                                                    + sum(geo_pl.t_histogram.values()))
            verdicts["point_clique_geometry"] = geo_pt.ok
            verdicts["plane_clique_structure"] = geo_pl.ok
            details["pg_label"] = geo_pt.pg_label
            details["plane_t_histogram"] = {str(t): c for t, c in
                                            sorted(geo_pl.t_histogram.items())}
            verdicts["krein"] = tr.call("analysis.verdicts", krein_check, cert).ok
            tr.call("analysis.verdicts", planarity_verdict, g, m, n)
            eu = tr.call("analysis.verdicts", eulerian_verdict, g, m, n)
            verdicts["eulerian_consistent"] = eu.consistent


def run_analyze(tr: Tracer, spec: dict, counts: dict, report: dict):
    from prect.analysis import (chromatic_analysis, chromatic_index_bracket,
                                eulerian_verdict, hamiltonian_search, krein_check,
                                planarity_verdict)
    from prect.cli import NODES_PER_MS
    from prect.incidence import order_of
    from prect.linegraph import build_line_graph, certify_srg

    verdicts, details = report["verdicts"], report["details"]
    model = _load(tr, spec)
    m, n = tr.call("incidence.counts", order_of, model.structure)
    g = tr.call("linegraph.build", build_line_graph, model)
    counts["linegraph.edges"] = g.num_edges
    budget = max(1, spec["budget_ms"]) * NODES_PER_MS

    tr.call("analysis.verdicts", planarity_verdict, g, m, n)
    eu = tr.call("analysis.verdicts", eulerian_verdict, g, m, n)
    ham = tr.call("analysis.hamilton", hamiltonian_search, g, node_budget=budget, m=m, n=n)
    counts["analysis.hamilton_nodes"] = ham.nodes_expanded
    verdicts["eulerian_consistent"] = eu.consistent
    details["hamiltonian"] = {"found": ham.cycle is not None, "verified": ham.verified,
                              "cycle": ham.cycle}
    if ham.cycle is not None:
        verdicts["hamilton_cycle_verified"] = ham.verified
    if m != n:
        cert = tr.call("linegraph.srg", certify_srg, g, m, n)
        counts["linegraph.pairs"] = g.nu * (g.nu - 1) // 2
        verdicts["srg"] = cert.ok
        chi = tr.call("analysis.chromatic", chromatic_analysis, g, cert, m, n,
                      exact_limit=spec["exact_chi_limit"], node_budget=budget)
        details["chromatic"] = {"exact": chi.exact_chromatic, "witness": chi.witness}
        verdicts["krein"] = tr.call("analysis.verdicts", krein_check, cert).ok
        eb = tr.call("analysis.chromatic_index", chromatic_index_bracket, g, m, n,
                     node_budget=budget)
    else:
        eb = tr.call("analysis.chromatic_index", chromatic_index_bracket, g,
                     node_budget=budget)
    counts["analysis.chromatic_index_nodes"] = eb.nodes_expanded


STAGES = {"build": run_build, "verify": run_verify, "analyze": run_analyze}


def trace(spec: dict) -> dict:
    """Run one stage of one instance under a fresh tracer; never raises."""
    tr = Tracer(spec["instance"], spec.get("parent"))
    counts: dict = {}
    report: dict = {"verdicts": {}, "details": {}}
    exception = None
    try:
        with tr.span(f"cli.{spec['stage']}", spec["stage"]):
            if spec["stage"] != "build":
                with tr.span("cli.import", "import prect.cli"):
                    import prect.cli  # noqa: F401
            model = STAGES[spec["stage"]](tr, spec, counts, report)
    except Exception as exc:  # recorded in the spans and per-layer error counts
        exception = type(exc).__name__
    else:
        # verify --profile full checks the whole A6 space; its size is
        # probed here, after the build and outside every span
        if spec["stage"] == "build" and spec.get("profile") == "full":
            _a6_counts(counts, a6_probe(model))
    report["ok"] = exception is None and all(report["verdicts"].values())
    return {"spans": tr.spans, "counts": counts, "errors": tr.errors,
            "report": report, "exception": exception}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    result = trace(spec)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
