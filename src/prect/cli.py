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
import gc
import json
import sys

from . import __version__
from ._util import A6_DEFAULT_SAMPLES, A6_DEFAULT_SEED, Verdicts

# This module holds build and the parser only.  The subcommands that read a
# model live in prect.pipeline, which main loads only for them, and cmd_build
# imports the builders, so each process compiles only what its subcommand runs.

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

    def write(self, path: str | None, text: str):
        """text into the file at path, which the report then lists, or on stdout."""
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.outputs.append(path)
        else:
            print(text)


def cmd_build(args, report: RunReport):
    from .construct import build_model
    from .export import model_to_json
    from .structure import order_of

    model = build_model(args.family, args.p, args.e, args.k)
    m, n = order_of(model.structure)
    report.write(args.out, model_to_json(model))
    print(f"order (m, n) = ({m}, {n})", file=sys.stderr)


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


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    command = cmd_build
    if args.cmd != "build":
        from . import pipeline

        command = getattr(pipeline, f"cmd_{args.cmd}")
        if args.cmd == "export" and args.format is None:  # the first format of --what
            args.format = next(f for what, f in pipeline._EXPORTS if what == args.what)
    report = RunReport(args.cmd, {k: v for k, v in sorted(vars(args).items()) if k != "cmd"})
    try:
        code = command(args, report)  # 2 on a usage error, else None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cmd in ("cliques", "geometry", "export"):
        print(report.to_json(), file=sys.stderr)
    return code or (0 if report.ok else 1)


def run() -> int:
    """main on the command line, for `prect` and `python -m prect.cli`.

    Once main returns, every live object is frozen (gc.freeze), so the
    full collection at interpreter exit walks none of them; reference
    counting still frees them, and stdio is flushed as before.  main itself
    freezes nothing, so a caller in the same process is unaffected."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
