"""Self-tests of the benchmark: metrics, oracle and failure counting.

Run with `python -m pytest perfbench/tests`; they use the smoke workload on
the smallest rungs (L_2^2, R(3,9)) and take a few seconds.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench_run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH.relative_to(ROOT) / "run.py"),
                           "--workload", "smoke", "--seed", "3", "--seconds", "0.1",
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    proc = _bench_run(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 5
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {m.group(1): m.group(2) for m in
               (re.match(r"(\S+) \S+ (\S+)$", ln) for ln in lines[:-1]) if m}
    for name, unit in want.items():
        assert printed.get(name) == unit, name
    assert "failed_ratio" in printed


def test_benchmark_json_names_known_workloads():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench_run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    b = run.Bench(tmp_path_factory.mktemp("work"))
    b.setup([(c, r) for c, r in run.WORKLOADS["smoke"]])
    return b


def _report(bench, command, rung, seed=0):
    child = bench.prect(run.instance_args(command, rung, seed))
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def test_oracle_accepts_real_reports(bench):
    for command, rung in run.WORKLOADS["smoke"]:
        assert bench.check_report(command, rung, _report(bench, command, rung)) == []


@pytest.mark.parametrize("path,value", [
    (("details", "srg", "parameters"), [81, 32, 13, 13]),
    (("details", "census_counts", "point_cliques"), 35),
    (("details", "census_counts", "plane_cliques"), 37),
    (("details", "plane_t_histogram"), {"0": 81, "3": 2511}),
    (("details", "pg_label"), "pg(3,9,3)"),
    (("verdicts", "bilinear_isomorphism"), False),
])
def test_oracle_rejects_corrupted_verify_report(bench, path, value):
    report = copy.deepcopy(_report(bench, "full", run.R39))
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert bench.check_report("full", run.R39, report)


def test_oracle_rejects_missing_stage_and_wrong_a6_space(bench):
    report = _report(bench, "full", run.R39)
    del report["verdicts"]["krein"]
    assert bench.check_report("full", run.R39, report)
    quick = _report(bench, "quick", run.R39)
    quick["details"]["axioms"]["a6_coverage"]["space"] += 1
    assert bench.check_report("quick", run.R39, quick)


def test_oracle_rejects_corrupted_analyze_report(bench):
    report = _report(bench, "analyze", run.R39)
    low = copy.deepcopy(report)
    low["details"]["chromatic"]["exact"] = 8
    assert bench.check_report("analyze", run.R39, low)
    broken = copy.deepcopy(report)
    cycle = broken["details"]["hamiltonian"]["cycle"]
    cycle[1] = cycle[2]  # visits a vertex twice
    assert bench.check_report("analyze", run.R39, broken)


def test_oracle_formulas():
    assert oracle.srg_parameters(3, 9) == [81, 32, 13, 12]
    assert oracle.a6_space(5, 25) == 13_500_000
    assert oracle.a6_space(3, 27) == 1_364_688


def test_raising_instance_counts_as_failed(bench):
    rec = bench.run_instance("analyze", run.L22, 0,
                             cmd=[sys.executable, "-c", "raise RecursionError('deep')"])
    assert rec["exception"] == "RecursionError" and not rec["ok"]
    line = run.result_line({"wall_s": 1.0}, [rec])
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 1, 1)


def test_wrong_report_is_incorrect(bench):
    rec = bench.run_instance("full", run.R39, 0,
                             cmd=[sys.executable, "-c", "print('{\"verdicts\": {}}')"])
    assert rec["problems"] and not rec["ok"]
    assert run.result_line({}, [rec])["correct"] is False


def test_changed_report_hash_is_a_problem(tmp_path):
    store = run.HashStore(tmp_path / "hashes.json")
    assert store.check("verify x", "a" * 64) is None
    assert store.check("verify x", "a" * 64) is None
    assert "hash changed" in store.check("verify x", "b" * 64)
    store.save()
    assert "hash changed" in run.HashStore(tmp_path / "hashes.json").check("verify x", "c" * 64)


def test_tracer_counts_an_error_once_in_the_raising_layer():
    tr = tracer.Tracer("t0", None)

    def boom():
        raise RecursionError("deep")

    with pytest.raises(RecursionError):
        with tr.span("cli.analyze", "analyze"):
            tr.call("analysis.chromatic_index", boom)
    assert tr.errors == {"analysis": 1}
    assert [s["error"] for s in tr.spans] == ["RecursionError", "RecursionError"]
    assert tr.spans[1]["parent"] == tr.spans[0]["id"]
