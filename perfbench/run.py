#!/usr/bin/env python3
"""Certification benchmark for the `prect` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload

Run from the root of a source checkout; the library is taken from ./src.
One client drives a closed loop: it starts one `prect` subprocess at a time
and starts the next only when the previous one has ended.

Set-up builds every model file of the workload with `prect build`, three
times; `setup_s` is the median.  With --trace 0 the workload's instances
then run as passes until S seconds have gone by (at least one pass):
`wall_s` is the median over passes of the summed wall time of the pass's
subprocesses, `peak_rss_mb` the median over passes of the largest
`ru_maxrss` of one subprocess (taken per child with os.wait4), and
`pass_ratio` the share of all instances run that passed.  An instance fails
if it exits nonzero, raises, fails the oracle in oracle.py, or prints a
report whose SHA-256 differs from an earlier run of the same library code
and command line.

Times are in reference seconds.  On a shared host the speed of a CPU
drifts by tens of percent within seconds, so the benchmark pins itself and
its subprocesses to one CPU, and while a subprocess runs it times a fixed
reference loop on that CPU every SAMPLE_EVERY_S seconds, and once before
and after.  Each measured phase of a run (set-up, untraced passes, traced
passes) is scaled by REF_LOOP_S over the mean loop time of its subprocesses,
weighted by their wall time: a reference second is a second on a CPU where
the loop takes REF_LOOP_S.  Raw wall times are printed and recorded too.

With --trace 1 one untraced pass runs first, then traced passes until S
seconds have gone by: every instance runs in tracer.py, in-process calls
with spans around each call into a prect module, and the per-layer metrics
are medians over traced passes.  Spans are written to .work/ at the end.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit status is 0 when that line is printed; without ./src/prect,
or when set-up fails, it is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 3
A6_SAMPLES = 10 ** 5        # a tenth of the CLI default; the candidate table is the same
BUDGET_MS = 2000            # every search on the analyze rungs ends under it
EXACT_CHI_LIMIT = 100
CHILD_TIMEOUT_S = 150
REF_LOOP_ITERATIONS = 25_000
REF_LOOP_S = 0.012          # the loop beside a prect child, quiet 2-vCPU Xeon guest
REF_ROWS = [(1 << 700) - 1 - 7919 * i for i in range(64)]
SAMPLE_EVERY_S = 0.1


@dataclass(frozen=True)
class Rung:
    """One model of the instance ladder, with its order (m, n) in closed form."""

    name: str
    family: str
    p: int | None = None
    e: int = 1
    k: int | None = None

    @property
    def order(self) -> tuple[int, int]:
        if self.family == "l2k":
            return 2, 2 ** self.k
        q = self.p ** self.e
        return (q, q) if self.family == "plane" else (q, q ** self.k)

    @property
    def model_file(self) -> str:
        return re.sub(r"[^A-Za-z0-9]+", "_", self.name).strip("_") + ".json"

    def build_args(self) -> list[str]:
        args = ["build", "--family", self.family, "--out", self.model_file]
        if self.family != "l2k":
            args += ["--p", str(self.p), "--e", str(self.e)]
        if self.family != "plane":
            args += ["--k", str(self.k)]
        return args


L22, L23, L24 = Rung("L_2^2", "l2k", k=2), Rung("L_2^3", "l2k", k=3), Rung("L_2^4", "l2k", k=4)
R28 = Rung("R(2,8)", "subplane", 2, 1, 3)
R39 = Rung("R(3,9)", "subplane", 3, 1, 2)
R416 = Rung("R(4,16)", "subplane", 2, 2, 2)
R327 = Rung("R(3,27)", "subplane", 3, 1, 3)
R525 = Rung("R(5,25)", "subplane", 5, 1, 2)
PG7 = Rung("PG(2,7)", "plane", 7, 1)

# (command, rung); command is "full" or "quick" (prect verify --profile) or "analyze".
# A pass of every workload stays under about 10 s, so that a run of 15 s
# holds a median: L_2^5 (45 s a pass) and R(5,25) under --profile full (10 s)
# are left out, and quick-sampled draws 10^5 A6 quadruples instead of the
# default 10^6, which builds the same candidate table (and so the same peak
# RSS) in a quarter of the time.  Rungs past nu = 1024 cannot run at all:
# clique enumeration stops at 1024 vertices, and sampled A6 needs 2.9 GB on
# R(7,49) and runs out of memory on R(8,64).
WORKLOADS = {
    "narrow-full": [("full", L24)],
    "subplane-full": [("full", R39), ("full", R28), ("full", PG7), ("full", R416)],
    "quick-sampled": [("quick", R525), ("quick", R327)],
    "analyze": [("analyze", L22), ("analyze", L23), ("analyze", R39), ("analyze", L24)],
    # smallest rungs, every code path; for the benchmark's own tests
    "smoke": [("full", L22), ("full", R39), ("quick", R39), ("analyze", L22),
              ("analyze", R39)],
}

LAYERS = ["cli", "export", "gf", "construct", "incidence", "linegraph", "cliques",
          "bilinear", "geometry", "analysis"]
SPAN_METRICS = ["cli.import", "export.load", "gf.tables", "construct.build",
                "incidence.axioms", "linegraph.build", "linegraph.srg",
                "cliques.enumerate", "cliques.classify", "cliques.intersections",
                "cliques.extract", "bilinear.hq2k", "bilinear.map", "bilinear.iso",
                "geometry.point", "geometry.plane", "analysis.hamilton",
                "analysis.chromatic", "analysis.chromatic_index", "analysis.verdicts"]
COUNT_METRICS = ["export.model_bytes", "construct.incidence_tests", "incidence.a6_space",
                 "incidence.a6_drawn", "incidence.a6_distinct", "linegraph.pairs",
                 "linegraph.edges", "cliques.maximal_cliques", "cliques.intersection_pairs",
                 "cliques.planes_extracted", "bilinear.pairs_checked",
                 "geometry.nonincident_pairs", "analysis.hamilton_nodes",
                 "analysis.chromatic_index_nodes"]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "peak_rss_mb":
        return "MB"
    return "count"


def instance_key(command: str, rung: Rung, seed: int) -> str:
    return f"{command} {rung.name}" + (f" seed={seed}" if command == "quick" else "")


def instance_args(command: str, rung: Rung, seed: int) -> list[str]:
    if command == "analyze":
        return ["analyze", "--graph", rung.model_file, "--budget-ms", str(BUDGET_MS),
                "--exact-chi-limit", str(EXACT_CHI_LIMIT)]
    args = ["verify", rung.model_file, "--profile", command]
    if command == "quick":
        args += ["--seed", str(seed), "--a6-samples", str(A6_SAMPLES)]
    return args


def instances(workload: str, seed: int) -> list[tuple[str, Rung]]:
    """The workload's instances in an order drawn from the seed."""
    order = list(WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    return order


def reference_loop() -> float:
    """Seconds a fixed loop of bitset popcounts and dict stores takes now.

    It is built from the operations prect's inner loops are made of, so it
    slows down as they do when other tenants load the host.
    """
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(REF_LOOP_ITERATIONS):
        acc += (REF_ROWS[i & 63] & REF_ROWS[(i >> 6) & 63]).bit_count()
        table[i & 4095] = (i, acc)
    return perf_counter() - t0


def cpu_speed() -> float:
    return statistics.median(reference_loop() for _ in range(5))


@dataclass
class Child:
    returncode: int
    wall_s: float   # raw wall time
    loop_s: float   # mean reference-loop time while it ran
    rss_mb: float   # this child's own ru_maxrss
    stdout: str
    stderr: str


def speed_scale(timed) -> float:
    """REF_LOOP_S over the wall-time-weighted mean loop time of (wall_s, loop_s)."""
    timed = list(timed)
    return REF_LOOP_S * sum(w for w, _ in timed) / sum(w * loop for w, loop in timed)


def exception_type(child: Child) -> str | None:
    """The type of what made a child exit nonzero, from its stderr."""
    if child.returncode == 0:
        return None
    if child.returncode < 0:
        return f"Signal{-child.returncode}"
    if "Traceback (most recent call last)" in child.stderr:
        last = child.stderr.strip().splitlines()[-1]
        match = re.match(r"([A-Za-z_][\w.]*)(:|$)", last)
        return match.group(1) if match else "UnknownException"
    return f"Exit{child.returncode}"


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "prect").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class HashStore:
    """Report hashes per instance, kept across runs of the same library code."""

    def __init__(self, path: Path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.all = json.load(fh)
        except (OSError, ValueError):
            self.all = {}
        self.known = self.all.setdefault(code_digest(), {})

    def check(self, key: str, digest: str) -> str | None:
        """A problem if key already has another digest under this code."""
        old = self.known.setdefault(key, digest)
        return None if old == digest else f"report hash changed: {old[:12]} -> {digest[:12]}"

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.all, fh, sort_keys=True)
        os.replace(tmp, self.path)


class Bench:
    """One benchmark run: its work directory, CPU-speed probe and report hashes."""

    def __init__(self, work: Path = WORK):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.hashes = HashStore(work / "hashes.json")
        self.speed = cpu_speed()

    def child(self, cmd: list[str]) -> Child:
        """Run cmd to completion in the work directory, sampling CPU speed."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        loops = [self.speed]
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_EVERY_S):
                loops.append(reference_loop())

        sampler = threading.Thread(target=sample, daemon=True)
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                stop.set()
            wall = perf_counter() - t0
            sampler.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        self.speed = cpu_speed()
        return Child(proc.returncode, wall, statistics.mean(loops + [self.speed]),
                     usage.ru_maxrss / 1024, stdout, stderr)

    def prect(self, args: list[str]) -> Child:
        return self.child([sys.executable, "-m", "prect.cli", *args])

    def check_report(self, command: str, rung: Rung, report: dict) -> list[str]:
        m, n = rung.order
        if command == "analyze":
            with open(self.work / rung.model_file, encoding="utf-8") as fh:
                adj = oracle.adjacency_from_model(json.load(fh))
            return oracle.check_analyze(report, m, n, adj)
        return oracle.check_verify(report, rung.family, m, n, command, A6_SAMPLES)

    def setup(self, insts) -> list[Child]:
        """Build every model file of the workload; one child per build."""
        children = []
        for rung in dict.fromkeys(r for _, r in insts):
            child = self.prect(rung.build_args())
            if child.returncode != 0:
                raise RuntimeError(f"prect build {rung.name} failed: {child.stderr[-300:]}")
            with open(self.work / rung.model_file, encoding="utf-8") as fh:
                problems = oracle.check_model(json.load(fh), *rung.order)
            if problems:
                raise RuntimeError(f"prect build {rung.name}: {problems}")
            children.append(child)
        return children

    def run_instance(self, command: str, rung: Rung, seed: int,
                     cmd: list[str] | None = None) -> dict:
        """One untraced instance: run it, check its report, hash it."""
        cmd = cmd or [sys.executable, "-m", "prect.cli", *instance_args(command, rung, seed)]
        child = self.child(cmd)
        rec = {"instance": instance_key(command, rung, seed), "wall_s": child.wall_s,
               "loop_s": child.loop_s, "rss_mb": child.rss_mb, "returncode": child.returncode,
               "exception": exception_type(child), "sha256": None, "problems": []}
        lines = child.stdout.strip().splitlines()
        report = None
        if lines:
            try:
                report = json.loads(lines[-1])
            except ValueError:
                rec["problems"].append("last stdout line is not a JSON report")
        if isinstance(report, dict):
            rec["problems"] += self.check_report(command, rung, report)
            rec["sha256"] = oracle.report_digest(report)
            changed = self.hashes.check(" ".join(cmd[1:]), rec["sha256"])
            if changed:
                rec["problems"].append(changed)
        elif rec["exception"] is None:
            rec["problems"].append("no report printed")
        rec["ok"] = rec["exception"] is None and not rec["problems"]
        return rec

    def untraced_pass(self, insts, seed: int) -> list[dict]:
        records = [self.run_instance(c, r, seed) for c, r in insts]
        for rec in records:
            print_record(rec)
        return records

    def traced_instance(self, stage: str, command: str, rung: Rung, seed: int,
                        instance: str, parent: str) -> tuple[dict, Child]:
        """Run tracer.py on one stage of one instance; its result and its child."""
        spec = {"stage": stage, "instance": instance, "parent": parent,
                "family": rung.family, "p": rung.p, "e": rung.e, "k": rung.k,
                "model": rung.model_file,
                "profile": None if command == "analyze" else command,
                "seed": seed if command == "quick" else 0, "samples": A6_SAMPLES,
                "budget_ms": BUDGET_MS, "exact_chi_limit": EXACT_CHI_LIMIT}
        out = self.work / f"trace-child-{os.getpid()}.json"
        out.unlink(missing_ok=True)
        child = self.child([sys.executable, str(BENCH / "tracer.py"), json.dumps(spec),
                            str(out)])
        try:
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            out.unlink()
        except (OSError, ValueError):
            result = {"spans": [], "counts": {}, "errors": {"cli": 1}, "report": None,
                      "exception": exception_type(child) or "NoTraceWritten"}
        return result, child

    def traced_pass(self, index: int, insts, seed: int,
                    spans: list[dict]) -> tuple[dict, list[dict]]:
        """One traced pass: its raw per-layer metrics and one record per child."""
        pass_id = f"pass{index}"
        t0 = perf_counter()
        durations = dict.fromkeys(SPAN_METRICS, 0.0)
        counts = dict.fromkeys(COUNT_METRICS, 0)
        errors = dict.fromkeys(LAYERS, 0)
        total = 0.0
        records = []
        for i, (command, rung) in enumerate(insts):
            stage = "analyze" if command == "analyze" else "verify"
            built = self.traced_instance("build", command, rung, seed, f"{pass_id}.{i}.build",
                                         pass_id)
            ran = self.traced_instance(stage, command, rung, seed, f"{pass_id}.{i}", pass_id)
            total += ran[1].wall_s
            for res, child in (built, ran):
                spans += res["spans"]
                for sp in res["spans"]:
                    if sp["name"] in durations:
                        durations[sp["name"]] += sp["end"] - sp["start"]
                for name, value in res["counts"].items():
                    counts[name] += value
                for layer, value in res["errors"].items():
                    errors[layer] += value
            exception = built[0]["exception"] or ran[0]["exception"]
            problems = ([] if exception else
                        self.check_report(command, rung, ran[0]["report"]))
            records.append({"instance": instance_key(command, rung, seed), "traced": True,
                            "wall_s": ran[1].wall_s, "loop_s": ran[1].loop_s,
                            "build": [built[1].wall_s, built[1].loop_s],
                            "exception": exception, "problems": problems,
                            "ok": exception is None and not problems})
        spans.append({"id": pass_id, "name": "trace.pass", "call": None, "instance": None,
                      "parent": None, "start": t0, "end": perf_counter(), "error": None})
        metrics = {f"{name}_s": value for name, value in durations.items()}
        metrics.update(counts)
        drawn = counts["incidence.a6_drawn"]
        metrics["incidence.a6_distinct_ratio"] = (counts["incidence.a6_distinct"] / drawn
                                                  if drawn else 0.0)
        metrics.update({f"{layer}.errors": value for layer, value in errors.items()})
        metrics["trace.total_s"] = total
        return metrics, records

    def write(self, name: str, data):
        with open(self.work / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)


def print_record(rec: dict):
    status = "ok" if rec["ok"] else "FAILED " + "; ".join(
        filter(None, [rec["exception"]] + rec["problems"]))
    digest = (rec.get("sha256") or "-")[:16]
    rss = f"{rec['rss_mb']:8.1f} MB" if "rss_mb" in rec else "  traced"
    print(f"  {rec['instance']:<24} {rec['wall_s']:8.3f} s (loop {rec['loop_s'] * 1e3:6.2f} ms) "
          f"{rss} sha256 {digest}  {status}")


def end_to_end(passes: list[list[dict]], setups: list[list[Child]]) -> dict:
    flat = [rec for p in passes for rec in p]
    failed = sum(not rec["ok"] for rec in flat)
    scale = speed_scale((rec["wall_s"], rec["loop_s"]) for rec in flat)
    setup_scale = speed_scale((c.wall_s, c.loop_s) for rep in setups for c in rep)
    return {
        "wall_s": scale * statistics.median(sum(rec["wall_s"] for rec in p) for p in passes),
        "setup_s": setup_scale * statistics.median(sum(c.wall_s for c in rep) for rep in setups),
        "peak_rss_mb": statistics.median(max(rec["rss_mb"] for rec in p) for p in passes),
        "pass_ratio": (len(flat) - failed) / len(flat),
    }


def per_layer(metric_passes: list[dict], traced: list[dict], untraced_wall: float) -> dict:
    """Medians over traced passes; times in reference seconds of the traced children."""
    scale = speed_scale(pair for rec in traced
                        for pair in ((rec["wall_s"], rec["loop_s"]), rec["build"]))
    out = {name: statistics.median(m[name] for m in metric_passes) for name in metric_passes[0]}
    out = {name: v * scale if metric_unit(name) == "s" else v for name, v in out.items()}
    out["trace.overhead_s"] = out["trace.total_s"] - untraced_wall
    return out


def print_metrics(metrics: dict):
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {metric_unit(name)}")


def result_line(metrics: dict, records: list[dict]) -> dict:
    return {
        "correct": not any(rec["problems"] for rec in records),
        "attempted": len(records),
        "failed": sum(not rec["ok"] for rec in records),
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }


def run(bench: Bench, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    insts = instances(workload, seed)
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          + ", ".join(f"{c} {r.name}" for c, r in insts))
    setups = [bench.setup(insts) for _ in range(SETUP_REPEATS)]
    print("setup: " + ", ".join(f"{sum(c.wall_s for c in rep):.3f} s" for rep in setups))

    t0 = perf_counter()
    passes = []
    while not passes or (not trace and perf_counter() - t0 < seconds):
        print(f"pass {len(passes)}")
        passes.append(bench.untraced_pass(insts, seed))
    bench.hashes.save()
    metrics = e2e = end_to_end(passes, setups)
    print_metrics(e2e)
    print(f"failed_ratio {1 - e2e['pass_ratio']:.6g} ratio")
    records = [rec for p in passes for rec in p]
    if trace:
        spans: list[dict] = []
        metric_passes = []
        traced_records = []
        t0 = perf_counter()
        while not metric_passes or perf_counter() - t0 < seconds:
            print(f"traced pass {len(metric_passes)}")
            layer, traced = bench.traced_pass(len(metric_passes), insts, seed, spans)
            for rec in traced:
                print_record(rec)
            metric_passes.append(layer)
            traced_records += traced
        records += traced_records
        metrics = per_layer(metric_passes, traced_records, e2e["wall_s"])
        bench.write(f"spans-{workload}-seed{seed}.json", spans)
        print_metrics(metrics)
    bench.write(f"records-{workload}-seed{seed}-trace{int(trace)}.json", records)
    return result_line(metrics, records)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload but smoke, one JSON line each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "prect" / "cli.py").is_file():
        print(f"error: no prect sources under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = [w for w in WORKLOADS if w != "smoke"] if args.workload == "all" else [args.workload]
    bench = Bench()
    for name in names:
        try:
            result = run(bench, name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
