"""Byte identity of the command line between two source trees.

    python tools/identity.py --parent OLD --change NEW

OLD and NEW are checkout roots, each holding src/prect; OLD also holds
tests/oracles.py.  The 91 model files are written once, by OLD's code: the
15 models that the build runs also write (every benchmark rung, L_2^6,
R(8,64) and PG(2,2), and the construction's other shapes R(4,64), with e = 2
and k = 3, PG(2,9), a plane over an extension field, and R(7,49)), twisted
R(3,9), the 40 invariant mutants of L_2^3, R(3,9), R(4,16), L_2^6 and
R(8,64) (each kind, first and last choice; the last two's swapped and slid
ones keep their certificate and take the orbit paths at nu = 4096), 9 files
whose "family" says something else or is missing, and 12 more of L_2^3,
R(3,9) and R(4,16): with the last ordinary line duplicated, with it dropped,
with the ordinary lines in reverse order, and with ordinary lines 0 and 5
swapped, each line keeping its coordinates.  Reversal is x -> c - x on the
digit vectors, so those files keep their translation certificate; the
swapped ones lose it and take every all-vertex path.  Two files permute
points: L_2^3 with a1 and a3 swapped in its ordinary lines, and R(3,9) with
two points of special line 0 swapped in its ordinary lines.  The last 12 are
L_2^4 with one malformed parameter each, those of the CLI tests.  Every file
then goes through verify --profile quick at seeds 0-2, verify --profile
full, cliques, iso, geometry, analyze and the 9 export what/format pairs,
each of which writes --out: with the 15 builds, 1,562 runs.  Each run is
`python -m prect.cli` in a fresh process and temporary directory, once with
each tree's src, two at a time, and the two runs are compared on their exit
code, stdout, stderr and --out bytes, with any timings_ms object read as
null.  The JSON printed on stdout is the byte_identity block of a
BENCH_*.json record; it lists each differing run and the parts of it that
differ.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

OUT = "out"  # the --out file, relative to each run's own directory
JOBS = 2  # runs at a time

BUILDS = {  # name: build arguments
    "L_2^2": ("l2k", None, None, 2), "L_2^3": ("l2k", None, None, 3),
    "L_2^4": ("l2k", None, None, 4), "L_2^6": ("l2k", None, None, 6),
    "R(3,9)": ("subplane", 3, 1, 2), "R(2,8)": ("subplane", 2, 1, 3),
    "R(4,16)": ("subplane", 2, 2, 2), "R(5,25)": ("subplane", 5, 1, 2),
    "R(3,27)": ("subplane", 3, 1, 3), "R(8,64)": ("subplane", 2, 3, 2),
    "PG(2,7)": ("plane", 7, 1, 1), "PG(2,2)": ("plane", 2, 1, 1),
    "R(4,64)": ("subplane", 2, 2, 3), "PG(2,9)": ("plane", 3, 2, 1),
    "R(7,49)": ("subplane", 7, 1, 2),
}

# Run with OLD's src and tests on the path; writes <name>.json into argv[1].
_WRITE_MODELS = r"""
import json, sys
from oracles import INVARIANT_MUTATIONS, invariant_mutant, twisted_r39
from prect.export import model_to_dict, model_to_json
from prect.incidence import IncidenceStructure
try:
    from prect.construct import build_model
except ImportError:  # a tree that keeps build_model in prect.export
    from prect.export import build_model

builds, out = json.loads(sys.argv[2]), sys.argv[1]
def write(name, text):
    with open(f"{out}/{name}.json", "w", encoding="utf-8") as fh:
        fh.write(text)
models = {name: build_model(*args) for name, args in builds.items()}
models["R(2,4)"] = build_model("subplane", 2, 1, 2)
models["PG(2,3)"] = build_model("plane", 3, 1, 1)
for name in builds:
    write(name, model_to_json(models[name]))
write("twisted R(3,9)", model_to_json(twisted_r39()))
for name in ("L_2^3", "R(3,9)", "R(4,16)", "L_2^6", "R(8,64)"):
    for kind in INVARIANT_MUTATIONS:
        for end in (0, -1):
            d = model_to_dict(models[name])
            mutant = invariant_mutant(models[name].structure, kind, lambda opts: opts[end])[0]
            d["structure"] = mutant.to_json_dict()
            write(f"{name} {kind} {'first' if end == 0 else 'last'}", json.dumps(d, sort_keys=True))
for name, family in (("R(3,9)", "l2k"), ("R(3,9)", "plane"), ("R(3,9)", "nope"),
                     ("R(3,9)", None), ("R(4,16)", "l2k"), ("R(2,4)", "l2k"),
                     ("L_2^2", "subplane"), ("L_2^2", "plane"), ("PG(2,3)", "subplane")):
    d = model_to_dict(models[name])
    if family is None:
        del d["family"]
    else:
        d["family"] = family
    write(f"{name} as {family or 'no family'}", json.dumps(d, sort_keys=True))
for name in ("L_2^3", "R(3,9)", "R(4,16)"):
    s = models[name].structure
    nu = len(s.ordinary_lines)
    for form, order in (("last line twice", [*range(nu), nu - 1]),
                        ("last line dropped", range(nu - 1)), ("reversed", range(nu)[::-1]),
                        ("lines 0 and 5 swapped", [5, 1, 2, 3, 4, 0, *range(6, nu)])):
        d = model_to_dict(models[name])
        lines = [s.lines[i] for i in order] + [s.lines[j] for j in s.special_lines]
        d["structure"] = IncidenceStructure(s.points, lines, s.special_point).to_json_dict()
        if "line_coeffs" in d:
            d["line_coeffs"] = [d["line_coeffs"][i] for i in order]
        write(f"{name} {form}", json.dumps(d, sort_keys=True))
for name, x, y in (("L_2^3", "a1", "a3"), ("R(3,9)", "[0:1:1]", "[0:1:2]")):
    d, swap = model_to_dict(models[name]), {x: y, y: x}
    d["structure"]["lines"] = [ln if "D" in ln else [swap.get(v, v) for v in ln]
                               for ln in d["structure"]["lines"]]
    write(f"{name} points {x} and {y} swapped", json.dumps(d, sort_keys=True))
for field, value in (("e", -1), ("e", 0), ("p", 1), ("k", 0), ("e", 1.0), ("k", "4"),
                     ("p", True), ("q", 4), ("m", 3), ("n", 17), ("n", 16.0), ("e", 10 ** 18)):
    d = model_to_dict(models["L_2^4"])
    d["params"][field] = value
    write(f"L_2^4 {field}={value!r}", json.dumps(d, sort_keys=True))
"""

_TIMINGS = re.compile(rb'"timings_ms": (?:null|\{[^{}]*\})')


def write_models(tree: Path, models: Path) -> list[Path]:
    """The corpus's model files, written into models by tree's code, sorted."""
    subprocess.run([sys.executable, "-c", _WRITE_MODELS, str(models), json.dumps(BUILDS)],
                   env=_env(tree, "src", "tests"), check=True)
    return sorted(models.glob("*.json"))


def corpus(models: list[Path]) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every run: the builds, then 17 per model file."""
    cases = []
    for name, (family, p, e, k) in BUILDS.items():
        args = ["build", "--family", family, "--k", str(k)]
        if p is not None:
            args += ["--p", str(p), "--e", str(e)]
        cases.append((f"build {name}", args + ["--out", OUT]))
    for path in models:
        model = str(path.resolve())
        runs = [["verify", model, "--seed", str(seed)] for seed in range(3)]
        runs.append(["verify", model, "--profile", "full"])
        runs += [[cmd, model, "--out", OUT] for cmd in ("cliques", "iso", "geometry")]
        runs.append(["analyze", "--graph", model, "--out", OUT])
        runs += [["export", model, "--what", what, "--format", fmt, "--out", OUT]
                 for what in ("model", "graph", "census") for fmt in ("json", "dot", "graph6")]
        cases += [(f"{' '.join(a for a in args if a not in (model, '--out', OUT))} {path.stem}",
                   args) for args in runs]
    return cases


def run_case(tree: Path, args: list[str]) -> dict:
    """One CLI run with tree's src, in a new temporary directory: its exit
    code, stdout, stderr and --out bytes (None when not written), timings
    read as null."""
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "prect.cli", *args], cwd=cwd,
                              capture_output=True, env=_env(tree, "src"))
        out = Path(cwd, OUT)
        written = out.read_bytes() if out.exists() else None
    return {"exit": proc.returncode, "stdout": _strip(proc.stdout), "stderr": _strip(proc.stderr),
            "out": written and _strip(written)}


def compare(parent: Path, change: Path, cases) -> list[dict]:
    """{"case", "parts"} for each case whose runs with the two trees differ, in order."""
    def one(index_case):
        i, (name, args) = index_case
        sides = [("parent", parent), ("change", change)][::1 if i % 2 else -1]  # alternate
        runs = {side: run_case(tree, args) for side, tree in sides}
        parts = [part for part in ("exit", "stdout", "stderr", "out")
                 if runs["parent"][part] != runs["change"][part]]
        return {"case": name, "parts": parts} if parts else None

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return [d for d in pool.map(one, enumerate(cases)) if d]


def byte_identity(cases, differences) -> dict:
    return {"method": " ".join(__doc__.split("\n\n")[2].split()),
            "cases": len(cases), "identical": len(cases) - len(differences),
            "differ": len(differences), "differences": differences}


def _env(tree: Path, *dirs: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(str(tree.resolve() / d) for d in dirs)}


def _strip(data: bytes) -> bytes:
    return _TIMINGS.sub(b'"timings_ms": null', data)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as models:
        cases = corpus(write_models(args.parent, Path(models)))
        differences = compare(args.parent, args.change, cases)
    print(json.dumps(byte_identity(cases, differences), indent=1))
    return 0 if not differences else 1


if __name__ == "__main__":
    raise SystemExit(main())
