"""Serialization round trips, graph6/DOT output, and the CLI pipelines."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from oracles import (CAYLEY_LADDER, graph_from_edges, invariant_mutant, ladder_model,
                     recheck_witnesses, twisted_r39)
from prect.cli import RunReport, main
from prect.cliques import CliqueCensus, classify_census
from prect.construct import RectangleModel, build_plane, build_subplane_rect
from prect.export import model_from_json, model_to_dict, model_to_json
from prect.gf import field_make
from prect.linegraph import LineGraph, build_line_graph
from prect.pipeline import census_to_dict, graph6_str, to_dot


def parse_graph6(text: str) -> LineGraph:
    data = [b - 63 for b in text.strip().encode("ascii")]
    if data[0] == 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    bits = []
    for b in data:
        bits.extend((b >> s) & 1 for s in range(5, -1, -1))
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return LineGraph(rows)


def census_from_dict(d: dict, model: RectangleModel) -> CliqueCensus:
    return CliqueCensus(
        point_cliques=[tuple(pc["vertices"]) for pc in d["point_cliques"]],
        plane_cliques=[tuple(pc["vertices"]) for pc in d["plane_cliques"]],
        anomalous=[tuple(c) for c in d["anomalous"]],
        m=d["m"], n=d["n"], nu=model.num_ordinary_lines,
    )


def test_graph6_k4():
    k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert graph6_str(k4) == "C~"


def test_graph6_round_trip(g_l22, g_r39):
    for g in (g_l22, g_r39):
        back = parse_graph6(graph6_str(g))
        assert back.nu == g.nu and back.rows == g.rows


def test_graph6_path_graph():
    p4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    # decode by hand: n=4, bits (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) = 101001
    assert graph6_str(p4) == chr(63 + 4) + chr(63 + 0b101001)


def test_dot_carries_edge_colors(r24, g_r24):
    dot = to_dot(g_r24, r24)
    assert 'class="s_0"' in dot and 'class="s_inf"' in dot
    assert dot.count(" -- ") == g_r24.num_edges


def test_cli_dot_export_of_a_point_off_every_special_line_is_an_error(tmp_path, capsys):
    """A DOT edge whose common point lies on no special line has no class: a
    typed error with exit 2, not a traceback."""
    out = tmp_path / "m.json"
    run_cli("build", "--family", "subplane", "--p", "3", "--e", "1", "--k", "2",
            "--out", str(out))
    d = json.loads(out.read_text())
    s_inf = next(ln for ln in d["structure"]["lines"] if "D" in ln and "[1:0:1]" in ln)
    s_inf.remove("[1:0:1]")
    out.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("export", str(out), "--what", "graph", "--format", "dot") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "special line" in captured.err


def test_cli_dot_export_of_an_unlabelled_special_line_is_an_error(tmp_path, capsys):
    """PG(2,3) with one point moved off a special line onto a new line [D, x]
    has five special lines and four labels: the edges at x have no label, a
    typed error with exit 2, not an IndexError."""
    d = _built(tmp_path, "m.json", "--family", "plane", "--p", "3")
    s = d["structure"]
    first = next(ln for ln in s["lines"] if s["special_point"] in ln)
    x = next(p for p in first if p != s["special_point"])
    first.remove(x)
    s["lines"].append([s["special_point"], x])
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("export", str(path), "--what", "graph", "--format", "dot") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: lines ")
    assert err.endswith("but the model labels only 4 special lines\n")


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize("profile", ["quick", "full"])
def test_cli_verify_rejects_fewer_than_one_a6_sample(tmp_path, capsys, samples, profile):
    """No draws would pass sampled A6 over nothing: exit 2 and an error line,
    before the model is read."""
    _built(tmp_path, "m.json", "--family", "subplane", "--p", "3", "--k", "2")
    capsys.readouterr()
    assert run_cli("verify", str(tmp_path / "m.json"), "--profile", profile,
                   "--a6-samples", samples) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --a6-samples must be at least 1, not {samples}\n"


def test_model_json_round_trip(l22, r39):
    for model in (l22, r39):
        back = model_from_json(model_to_json(model))
        for attr in ("points", "lines", "special_point"):
            assert getattr(back.structure, attr) == getattr(model.structure, attr)
        assert (back.p, back.e, back.k, back.family) == \
            (model.p, model.e, model.k, model.family)
        if model.line_coeffs is not None:
            assert back.line_coeffs == model.line_coeffs
        assert model_to_json(back) == model_to_json(model)


def test_census_json_round_trip(census_l22, l22):
    d = census_to_dict(census_l22, l22)
    back = census_from_dict(json.loads(json.dumps(d, sort_keys=True)), l22)
    assert census_to_dict(back, l22) == d


def run_cli(*argv):
    return main(list(argv))


def test_cli_build_l2k(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_cli("build", "--family", "l2k", "--k", "2", "--out", str(out)) == 0
    model = model_from_json(out.read_text())
    assert model.num_ordinary_lines == 16


def test_cli_build_subplane_order(tmp_path, capsys):
    """build writes the model and one order line on stderr, and no report."""
    out = tmp_path / "m.json"
    assert run_cli("build", "--family", "subplane", "--p", "3", "--e", "1",
                   "--k", "2", "--out", str(out)) == 0
    assert capsys.readouterr() == ("", "order (m, n) = (3, 9)\n")


def test_cli_build_plane_trivial(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli("build", "--family", "plane", "--p", "2", "--e", "1",
                   "--out", str(out)) == 0
    model = model_from_json(out.read_text())
    assert model.trivial and model.structure.n_points == 7


def test_cli_verify_full_l22(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(out))
    capsys.readouterr()
    assert run_cli("verify", str(out), "--profile", "full") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    assert rep["verdicts"]["srg"] is True


def test_cli_verify_full_r28(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "subplane", "--p", "2", "--e", "1", "--k", "3",
            "--out", str(out))
    capsys.readouterr()
    assert run_cli("verify", str(out), "--profile", "full") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    assert rep["verdicts"]["bilinear_isomorphism"] is True
    assert rep["verdicts"]["plane_extraction"] is True


def test_cli_verify_corrupted_model_fails(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(out))
    d = json.loads(out.read_text())
    d["structure"]["lines"][0] = d["structure"]["lines"][0][:2]
    out.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("verify", str(out), "--profile", "quick") == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is False
    assert rep["details"]["axioms"]["witnesses"]


def test_cli_verify_report_deterministic(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "subplane", "--p", "2", "--e", "1", "--k", "2",
            "--out", str(out))
    capsys.readouterr()
    run_cli("verify", str(out), "--profile", "full", "--seed", "5")
    first = capsys.readouterr().out
    run_cli("verify", str(out), "--profile", "full", "--seed", "5")
    second = capsys.readouterr().out
    assert first == second


def test_cli_verify_timings_flag(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(out))
    capsys.readouterr()
    run_cli("verify", str(out))
    assert json.loads(capsys.readouterr().out)["timings_ms"] is None
    run_cli("verify", str(out), "--timings")
    assert json.loads(capsys.readouterr().out)["timings_ms"] is not None


def test_cli_iso_and_geometry(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "subplane", "--p", "3", "--e", "1", "--k", "2",
            "--out", str(out))
    capsys.readouterr()
    assert run_cli("iso", str(out)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdicts"]["bilinear_isomorphism"] is True

    geo = tmp_path / "geo.json"
    assert run_cli("geometry", str(out), "--out", str(geo)) == 0
    payload = json.loads(geo.read_text())
    assert payload["point_cliques"]["pg_label"] == "pg(4,9,3)"


def test_run_report_writes_sets_sorted():
    report = RunReport("verify", {})
    report.details = {"set": {3, 1, 2}, "frozen": frozenset({"b", "a"}), "in": [{5, 4}]}
    assert json.loads(report.to_json())["details"] == {"set": [1, 2, 3], "frozen": ["a", "b"],
                                                       "in": [[4, 5]]}


# (model file, argv with {} for it, where the report is written: stdout,
# the last line of stderr, the --out file, or None for a usage error)
ENDINGS = [(model, argv, where) for model in ("r39.json", "r39 drop point.json")
           for argv, where in ((("verify", "{}"), "stdout"),
                               (("verify", "{}", "--profile", "full"), "stdout"),
                               (("cliques", "{}", "--out", "payload"), "stderr"),
                               (("iso", "{}"), "stdout"),
                               (("geometry", "{}", "--out", "payload"), "stderr"),
                               (("analyze", "--graph", "{}", "--out", "payload"), "--out"),
                               (("export", "{}", "--what", "census"), "stderr"))]
ENDINGS += [("l22.json", ("iso", "{}"), None),
            ("r39.json", ("export", "{}", "--what", "model", "--format", "dot"), None)]


@pytest.mark.parametrize("model,argv,where", ENDINGS,
                         ids=[" ".join(argv).format(model) for model, argv, _ in ENDINGS])
def test_cli_exit_code_is_read_off_the_report(tmp_path, capsys, monkeypatch, model, argv,
                                              where):
    """Exit 0 iff the report passes and 1 otherwise, wherever the subcommand
    writes it; R(3,9) passes and its translates of line 0 less a point
    fail.  A usage error exits 2."""
    monkeypatch.chdir(tmp_path)
    run_cli("build", "--family", "l2k", "--k", "2", "--out", "l22.json")
    r39 = build_subplane_rect(3, 1, 2)
    (tmp_path / "r39.json").write_text(model_to_json(r39))
    d = model_to_dict(r39)
    d["structure"] = invariant_mutant(r39.structure, "drop point",
                                      lambda opts: opts[0])[0].to_json_dict()
    (tmp_path / "r39 drop point.json").write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    code = run_cli(*(a.format(model) for a in argv))
    out, err = capsys.readouterr()
    if where is None:
        assert code == 2
        return
    if where == "--out":
        out = (tmp_path / "payload").read_text()
    report = json.loads(err.splitlines()[-1] if where == "stderr" else out)
    assert report["ok"] == (model == "r39.json")
    assert code == (0 if report["ok"] else 1)


def test_cli_iso_rejects_combinatorial_model(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(out))
    capsys.readouterr()
    assert run_cli("iso", str(out)) == 2


def test_cli_export_graph6_and_census_round_trip(tmp_path, capsys, l22, g_l22):
    model_file = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(model_file))
    g6 = tmp_path / "g.g6"
    assert run_cli("export", str(model_file), "--what", "graph", "--format",
                   "graph6", "--out", str(g6)) == 0
    parsed = parse_graph6(g6.read_text())
    assert parsed.rows == g_l22.rows

    cj = tmp_path / "census.json"
    assert run_cli("export", str(model_file), "--what", "census", "--format",
                   "json", "--out", str(cj)) == 0
    census = census_from_dict(json.loads(cj.read_text()), l22)
    direct = classify_census(build_line_graph(l22), l22)
    assert census_to_dict(census, l22) == census_to_dict(direct, l22)


def test_cli_export_rejected_format_fails(tmp_path, capsys):
    model_file = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(model_file))
    capsys.readouterr()
    assert run_cli("export", str(model_file), "--what", "model", "--format", "dot") == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "model exports as json only"
    rep = json.loads(err[1])
    assert rep["ok"] is False and rep["verdicts"] == {"exported": False}


@pytest.mark.parametrize("what,fmt", [(None, "graph6"), ("graph", "graph6"), ("model", "json"),
                                      ("census", "json")])
def test_cli_export_without_format_takes_the_first_of_what(tmp_path, capsys, what, fmt):
    """The bare command exports the graph as graph6; the report's params
    record the format taken, and the bytes are those of naming it."""
    model_file = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(model_file))
    capsys.readouterr()
    what_args = ("--what", what) if what else ()
    assert run_cli("export", str(model_file), *what_args) == 0
    bare = capsys.readouterr()
    rep = json.loads(bare.err.splitlines()[-1])
    assert rep["params"]["format"] == fmt and rep["params"]["what"] == (what or "graph")
    assert run_cli("export", str(model_file), "--what", what or "graph", "--format", fmt) == 0
    assert capsys.readouterr() == bare


def test_cli_export_census_fails_with_the_verdicts_of_cliques(tmp_path, capsys, monkeypatch):
    """PG(2,3) with one new point on every ordinary line fails A1 and its
    census: export writes the census, and exits 1 with the verdicts,
    witness and counts that cliques reports."""
    monkeypatch.chdir(tmp_path)
    _write_golden_mutants(tmp_path)
    assert run_cli("cliques", "thick.json") == 1
    cliques = capsys.readouterr()
    assert run_cli("export", "thick.json", "--what", "census") == 1
    export = capsys.readouterr()
    assert export.out == cliques.out
    rep, want = json.loads(export.err), json.loads(cliques.err)
    assert rep["verdicts"] == {**want["verdicts"], "exported": True}
    assert rep["verdicts"]["A1"] is False and rep["verdicts"]["census"] is False
    assert rep["details"] == want["details"] and "A1" in rep["details"]


def test_cli_analyze_reports_a1_and_fails_with_it(tmp_path, capsys, monkeypatch):
    """PG(2,3) with one new point on every ordinary line fails A1 (every
    pair of ordinary lines meets twice): analyze exits 1 with a failing A1
    verdict, as cliques does, and its witness re-checks on the file."""
    monkeypatch.chdir(tmp_path)
    _write_golden_mutants(tmp_path)
    assert run_cli("analyze", "--graph", "thick.json") == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdicts"]["A1"] is False and not rep["ok"]
    structure = json.loads((tmp_path / "thick.json").read_text())["structure"]
    recheck_witnesses(structure, {"verdicts": {"A1": False},
                                  "witnesses": {"A1": rep["details"]["A1"]}})
    assert run_cli("cliques", "thick.json") == 1
    assert json.loads(capsys.readouterr().err)["details"]["A1"] == rep["details"]["A1"]


@pytest.mark.parametrize("args", [("--family", "plane", "--p", "3", "--k", "5"),
                                  ("--family", "l2k", "--k", "2", "--p", "7"),
                                  ("--family", "l2k", "--k", "2", "--e", "3")],
                         ids=["plane-k", "l2k-p", "l2k-e"])
def test_cli_build_refuses_a_parameter_its_family_ignores(tmp_path, capsys, args):
    out = tmp_path / "m.json"
    assert run_cli("build", *args, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: family ")
    assert not out.exists()


def test_cli_build_takes_the_k_a_plane_fixes(tmp_path, capsys):
    assert run_cli("build", "--family", "plane", "--p", "3", "--k", "1",
                   "--out", str(tmp_path / "pg.json")) == 0


def test_cli_analyze(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(out))
    capsys.readouterr()
    assert run_cli("analyze", "--graph", str(out), "--exact-chi-limit", "100",
                   "--budget-ms", "5000") == 0
    rep = json.loads(capsys.readouterr().out)
    chrom = rep["details"]["chromatic"]
    assert chrom["exact"] == 4
    assert chrom["haemers_bound"] == 4
    assert chrom["claimed_bound"] == 6
    assert chrom["flags"]["claimed_bound_consistent"] is False


def test_cli_unknown_family_errors(capsys):
    with pytest.raises(SystemExit):
        run_cli("build", "--family", "nope", "--k", "2")


# SHA-256 of [exit code, stdout, stderr, the --out file or None] for the
# smallest rungs of every subcommand.  Recorded from the CLI as it was before
# its subcommands shared one per-run fact cache, with the "threads" member
# that reports carried then deleted; every report must stay byte-identical.
# The PG(2,7) and R(3,27) builds (plane labels, g^2 terms with odd p) and the
# R(4,16) line map (subfield coordinates with e > 1, read from a loaded model)
# were recorded while field elements were still objects.  The rejected export
# was re-recorded when it gained its failing "exported" verdict.  The analyze
# report was re-recorded (after its old digest was confirmed) when its
# witnesses came to be read off the model: a different Hamilton cycle and
# coloring, a provenance for each witness, and no budget_exhausted field.
# The geometry and cliques runs on L_2^3 with --out (both t values, the
# written census) were recorded before the census kept its membership index.
# The L_2^4 and R(3,27) census exports were recorded while the census still
# stored each clique's point or plane.  The iso reports of R(3,9) and R(4,16)
# were re-recorded when iso came to report A1: each gained "A1": true only.
# The two census exports were re-recorded (after their old digests were
# confirmed) when export came to judge the census as cliques does: each
# report gained "A1": true, "census": true and the clique counts only.
# The sampled quick reports (R(3,9) at 5000 samples, R(3,27) and PG(2,7) at
# 100,000, and the swapped R(3,9) below) were re-recorded (after their old
# digests were confirmed) when the samples came to be distinct quadruples:
# each moved only its a6_coverage "distinct" up to "drawn".
# The two analyze reports were re-recorded (after their old digests were
# confirmed) when analyze came to report A1: each gained "A1": true only.
# The builds of R(5,25), R(2,8), R(8,64) (e = 3), R(4,64) (e = 2, k = 3),
# PG(2,9) (a plane over an extension field) and R(7,49) were recorded from
# the code before the subplane construction read its lines from a difference
# table and the model writer decoded each field code once.
# Models are read by relative path, since the path is part of the report's
# params.
GOLDEN_STDOUT = [
    (("build", "--family", "subplane", "--p", "3", "--e", "1", "--k", "2"), "r39.json",
     "76326a3d3f479d61e287915dee075590b0ce637c3f26f4763d0dd59ad3e25f0f"),
    (("build", "--family", "subplane", "--p", "2", "--e", "2", "--k", "2"), "r416.json",
     "f998bd39603a67a597d514bf85de828258f228374057e77f8e7430fc21a88e51"),
    (("build", "--family", "l2k", "--k", "3"), "l23.json",
     "214802c5154e2adeb939a4960664a8f34d7b1b10ccb5ef5a2660091de84f732e"),
    (("build", "--family", "l2k", "--k", "2"), "l22.json",
     "fc3e2879bbab55bd25d99f0fc6d634300d8d7e50f3ac2bf997416e40155774fe"),
    (("build", "--family", "plane", "--p", "7"), "pg27.json",
     "4bfa986a65fa98adccc592b6c0a544051c4e327c777a07001459c0b39c826d61"),
    (("build", "--family", "subplane", "--p", "3", "--e", "1", "--k", "3"), "r327.json",
     "2296883a27cb4a51434b304ed3d2255d8b22faa66eebde6e8a04b0463737b070"),
    (("build", "--family", "l2k", "--k", "4"), "l24.json",
     "c74b0c9d907672667562b4aa97617afd4e29a49afdab2cc7b465ea0b58ef753f"),
    (("build", "--family", "subplane", "--p", "5", "--e", "1", "--k", "2"), None,
     "9ea38755d274f640c418bb9c523e31a536d8631bc29dc776742853b668762cb4"),
    (("build", "--family", "subplane", "--p", "2", "--e", "1", "--k", "3"), None,
     "9895ac28a13bee4f278a4807eed65af5ed809add0953d860c4b9abf8989e6ad1"),
    (("build", "--family", "subplane", "--p", "2", "--e", "3", "--k", "2"), None,
     "5ed8bcb270f7c187e077f0689bbfa07bb7c1781add6c49ae7ce392578d233277"),
    (("build", "--family", "subplane", "--p", "2", "--e", "2", "--k", "3"), None,
     "5bf01869e33d57507c2c3ed05eae87c1149d9e018ecae59d2f5b97fa30a2b954"),
    (("build", "--family", "plane", "--p", "3", "--e", "2"), None,
     "6ebedc3d5f915d85882f6ce2d8d71e68179a0bc2341c578aab8c676136d62029"),
    (("build", "--family", "subplane", "--p", "7", "--e", "1", "--k", "2"), None,
     "c451e750fdb90a79b05881260243f98e63d8bca865cb6014121250006911d3da"),
    (("verify", "r39.json", "--profile", "quick", "--seed", "3", "--a6-samples", "5000"), None,
     "6832df30ebf045edef73e40dfab5a5e5d6f8b05f97c7bfae1607909e559cb606"),
    (("verify", "r39.json", "--profile", "full"), None,
     "3b99dac7a1bedc2e664de0e64489b3fbe6e305bf7932e00311a387d85522008c"),
    (("verify", "l23.json", "--profile", "full"), None,
     "ffff2afdc0d3e0d1c9a98a2a58fc5962bb40fab461961e2ad4bd3280a5c898de"),
    (("verify", "r416.json", "--profile", "full"), None,
     "49b23517bc9c6efb0940920d57c0de7720f105707eb26ed907a8ac11bea78a56"),
    (("verify", "l24.json", "--profile", "full"), None,
     "353abf4b0c285041aa5753e0ca1441cadfae8d1f8be5cba7063059cc4b767a53"),
    (("verify", "pg27.json", "--profile", "full"), None,
     "522ea1b27a966c8e55c13b95eef6d4322db3a5905ae65bee91b2e36b01084e50"),
    (("cliques", "r39.json"), None,
     "f64e4f80f4c3f6df80a8004cf3c24521e49083065fa92570782b78daf75cceb4"),
    (("geometry", "r39.json"), None,
     "d480b560220b8a6357975be506b9ba4e1900225b47acb393c013a8526ef61122"),
    (("geometry", "l23.json", "--out", "geo.json"), None,
     "f3ac1acf6729cf5de17091d474ba7de8bd8e2e3cee471236240e720fd1486c31"),
    (("geometry", "l24.json"), None,
     "2c87bd9faaf16a007f99ae2cf6f788c0603b0a83449ebb7ea8c6513977dfc8f4"),
    (("cliques", "l23.json", "--out", "census.json"), None,
     "7aa82600e231741a2a213ab373a75684336ad90d29c0b8571014ad1481908683"),
    (("iso", "r39.json"), None,
     "792d071c57505142f4db4ebcbf4b1e619a8bd4badbf258fdca05d4566f0a0a80"),
    (("iso", "r39.json", "--out", "iso.json"), None,
     "eebb4295a9278c31f7e16f0780267a947be7b5832a64076ceb45aee483a682fe"),
    (("iso", "l22.json"), None,
     "bd014368ac66efa322fbcbb647e3a6c026ced9b35ca6e2729f98278163b52508"),
    (("iso", "r416.json", "--out", "iso.json"), None,
     "6d949e2f172c7b97b6096888cdc3f427491f3b0fa6ba5c1c68a58aabe905d3a8"),
    (("analyze", "--graph", "l22.json", "--budget-ms", "5000"), None,
     "8377827f49657078108d766ec15d1071348354a984363972ab013af32cc8cc86"),
    (("analyze", "--graph", "r39.json"), None,
     "438c377d79604dfb0e9d42676067f06e26e224ac6b7eb3c41f1bfe56a32bcf58"),
    (("export", "r39.json", "--what", "model", "--format", "json"), None,
     "6b60656735aa187d45894647849d844194c95c96b21fe774c9aa113b49432bb4"),
    (("export", "r39.json", "--what", "graph", "--format", "graph6"), None,
     "b95f0806cd2a71c8faa635149478aa63275e92d404ec14099e06c920fcbc92ed"),
    (("export", "r39.json", "--what", "census", "--format", "json"), None,
     "423488398a92dc8ec3308bbd12cc8a4cfbd5415ea28e63bbe47b259c8f7947b3"),
    # censuses with n > m^2, where the plane cliques are smaller than the point cliques
    (("export", "l24.json", "--what", "census", "--format", "json"), None,
     "61286214e304ed4dc08174ebc84bf2b2f40c7fe262165505ca41a576bd9cb000"),
    (("cliques", "r327.json", "--out", "census.json"), None,
     "ba922b4b2c955965509f3a539b73aa7896e74febd41863c18596c0c3923a10e4"),
    (("export", "r39.json", "--what", "model", "--format", "dot"), None,
     "0447b350204b163b14243786491245e72b37b0db6f265ecde2f7b35282d1725a"),
    (("export", "l23.json", "--what", "graph", "--format", "dot"), None,
     "20f2bd72fd63c9ec85e1b880d81e591526bd0a6cf78e41077176aac24d410918"),
    (("export", "r39.json", "--what", "graph", "--format", "dot"), None,
     "79dc5c66254fc7fce9fabd67fcd28c9b0be96b50ace9d44d2e27969fd85a3c1b"),
    (("export", "r416.json", "--what", "graph", "--format", "dot"), None,
     "11e75c0751abe3239ed61763476657456c4005397726b627f49decc539457963"),
    # sampled A6 in a space larger than the samples, and the exhaustive upgrade
    (("verify", "r327.json", "--profile", "quick", "--seed", "1", "--a6-samples", "100000"), None,
     "c92093e556de1d5cbda75951d68725efb80d19c2e8d337e59dbadeaad0c4e30d"),
    (("verify", "pg27.json", "--profile", "quick", "--seed", "1", "--a6-samples", "100000"), None,
     "06043352a7479a2506b7c264a33943478da03e2dcc804f534c3c2502260c4bf0"),
    (("verify", "l24.json", "--profile", "quick"), None,
     "3551e48b38b045099d3ec1e52f301a196cfbf45b646fbf3897a3aa36aecf0612"),
]


def test_cli_stdout_matches_golden_hashes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, save_as, digest in GOLDEN_STDOUT:
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        if save_as:
            (tmp_path / save_as).write_text(out)
        written = (tmp_path / argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None
        run = json.dumps([code, out, err, written])
        assert hashlib.sha256(run.encode()).hexdigest() == digest, argv


def _write_golden_mutants(where):
    """R(3,9) with ordinary lines 0 and 5 swapped in its file (a rectangle,
    uncertified), twisted R(3,9) (certified, fails A6) and PG(2,3) with one
    new point on its 9 ordinary lines (certified, fails A1: every pair of
    ordinary lines meets twice)."""
    d = model_to_dict(build_subplane_rect(3, 1, 2))
    lines = d["structure"]["lines"]
    lines[0], lines[5] = lines[5], lines[0]
    (where / "swapped.json").write_text(json.dumps(d, sort_keys=True))
    (where / "twisted.json").write_text(json.dumps(model_to_dict(twisted_r39()), sort_keys=True))
    d = model_to_dict(build_plane(3, 1))
    d["structure"]["points"].append("x")
    for line in d["structure"]["lines"][:9]:
        line.append("x")
    (where / "thick.json").write_text(json.dumps(d, sort_keys=True))


# As GOLDEN_STDOUT, for the models of _write_golden_mutants: the all-vertex
# census, the all-pairs A6 scan, per-draw sampling and the A6 candidates of
# pairs that meet twice.
GOLDEN_MUTANTS = [
    (("verify", "swapped.json", "--profile", "full"),
     "22036be2665c6faef2b10b6f900de43b4c5a130fbe0451015a25f91e3494395e"),
    (("verify", "swapped.json", "--seed", "3", "--a6-samples", "2000"),
     "f29ac4944ab770c2ac0eea0af53efe0bb3c5fede9d1bd6c1bfc04bce23fff8d0"),
    (("cliques", "swapped.json"),
     "84fd05a0b9b0a6de02d2638571450900db15f487a38dba74b4de5027f23e26de"),
    (("geometry", "swapped.json"),
     "a1cabbb252d37fe8a9ad3a2bec0fd0daba7baa23940bbde8d7c3a5306c8b2923"),
    (("verify", "twisted.json", "--profile", "full"),
     "9a69eaecef43cd3eac3565aaabb4bbadfadaefff44eb9a3f3b979aca1ca86e82"),
    (("verify", "twisted.json", "--seed", "3", "--a6-samples", "2000"),
     "7a6027415fa85808999dba14e283bcd4108290b3f114065f04bfce630ba9da8a"),
    (("cliques", "twisted.json"),
     "9af5265470a79ac5ceee8664596a9736259e67f2dcc9ecf438c1ecfb81f1f5a4"),
    (("geometry", "twisted.json"),
     "cb943ee148b8805a21b24288b602b196d89e7b93a0669dd17fcc43559abbb12c"),
    (("verify", "thick.json", "--profile", "full"),
     "035559d0872ca1cc319a6eeaa105bb22616345f72f4da15c9499d2d56eae0984"),
    (("verify", "thick.json", "--seed", "3", "--a6-samples", "2000"),
     "4132991579da80c9ef5ba47cbf1fa36ace4c13d6ff4633e06b4bea83f14daa7a"),
    (("cliques", "thick.json"),
     "c54d5de48c22fc73afdd43d31101258f7b646c25129630f3fc2f42de5b4207a1"),
    (("geometry", "thick.json"),
     "be35ff3a5c3b78acef497220f5d2cf22b1b04a623fcde86033ada65d6523babb"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_MUTANTS, ids=[" ".join(a) for a, _ in GOLDEN_MUTANTS])
def test_cli_stdout_matches_golden_hashes_off_the_built_models(tmp_path, capsys, monkeypatch,
                                                               argv, digest):
    monkeypatch.chdir(tmp_path)
    _write_golden_mutants(tmp_path)
    code = run_cli(*argv)
    out, err = capsys.readouterr()
    run = json.dumps([code, out, err, None])
    assert hashlib.sha256(run.encode()).hexdigest() == digest


def _built(tmp_path, name, *args) -> dict:
    out = tmp_path / name
    assert run_cli("build", *args, "--out", str(out)) == 0
    return json.loads(out.read_text())


def test_cli_model_without_ordinary_lines_fails_its_census(tmp_path, capsys):
    """Krein and the clique verdicts fail too, instead of holding over zero
    cliques, and the full report keeps the verdict keys of the intact model."""
    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    capsys.readouterr()
    assert run_cli("verify", str(tmp_path / "m.json"), "--profile", "full") == 0
    intact = json.loads(capsys.readouterr().out)["verdicts"]
    d["structure"]["lines"] = d["structure"]["lines"][16:]  # the three special lines
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(d, sort_keys=True))
    for argv in (("verify", str(path)), ("verify", str(path), "--profile", "full"),
                 ("cliques", str(path)), ("geometry", str(path))):
        assert run_cli(*argv) == 1, argv
        out, err = capsys.readouterr()
        rep = json.loads(out if argv[0] == "verify" else err.splitlines()[-1])
        assert rep["ok"] is False
        if argv[0] != "geometry":
            assert rep["verdicts"]["census"] is False
        if "full" in argv:
            assert set(rep["verdicts"]) == set(intact)
            for v in ("krein", "clique_intersections", "plane_extraction",
                      "plane_clique_structure"):
                assert rep["verdicts"][v] is False, v


def test_cli_plane_without_ordinary_lines_fails_its_plane_verdicts(tmp_path, capsys):
    """A trivial model expects one plane clique, so none fails extraction and structure."""
    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "1")
    d["structure"]["lines"] = d["structure"]["lines"][4:]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("verify", str(path), "--profile", "full") == 1
    assert json.loads(capsys.readouterr().out)["verdicts"]["plane_extraction"] is False
    assert run_cli("geometry", str(path)) == 1
    rep = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert rep["verdicts"]["plane_clique_structure"] is False


@pytest.mark.parametrize("args", [("--family", "plane", "--p", "2"),
                                  ("--family", "plane", "--p", "3"),
                                  ("--family", "plane", "--p", "7"),
                                  ("--family", "l2k", "--k", "1")],
                         ids=["PG(2,2)", "PG(2,3)", "PG(2,7)", "L_2^1"])
def test_cli_geometry_passes_on_a_projective_plane(tmp_path, capsys, args):
    """A plane's graph of lines is complete, so no point clique is maximal:
    the point-clique geometry checks that it has no Lines.  With the
    ordinary lines deleted the plane clique is missing, and geometry fails."""
    d = _built(tmp_path, "m.json", *args)
    capsys.readouterr()
    assert run_cli("geometry", str(tmp_path / "m.json")) == 0
    rep = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert rep["verdicts"] == {"A1": True, "plane_clique_structure": True,
                               "point_clique_geometry": True}
    assert rep["details"]["geometry"]["point_cliques"]["num_lines"] == 0
    s = d["structure"]
    s["lines"] = [ln for ln in s["lines"] if s["special_point"] in ln]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(d, sort_keys=True))
    assert run_cli("geometry", str(path)) == 1
    rep = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert rep["verdicts"] == {"A1": False, "plane_clique_structure": False,
                               "point_clique_geometry": True}


def test_cli_cliques_and_geometry_report_a1_with_its_witness(tmp_path, capsys):
    """PG(2,3) with a point added to ordinary line 0 fails A1: cliques and
    geometry exit 1 like verify and report verify's witness, which re-checks
    on the mutated structure; the intact plane passes A1 with no witness."""
    d = _built(tmp_path, "m.json", "--family", "plane", "--p", "3")
    s = d["structure"]
    s["lines"][0].append(next(p for p in s["points"]
                              if p not in s["lines"][0] and p != s["special_point"]))
    path = tmp_path / "thick.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("verify", str(path)) == 1
    axioms = json.loads(capsys.readouterr().out)["details"]["axioms"]
    recheck_witnesses(s, axioms)
    for command in ("cliques", "geometry"):
        assert run_cli(command, str(tmp_path / "m.json")) == 0
        rep = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert rep["verdicts"]["A1"] is True and "A1" not in rep["details"]
        assert run_cli(command, str(path)) == 1
        rep = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert rep["verdicts"]["A1"] is False
        assert rep["details"]["A1"] == axioms["witnesses"]["A1"]


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_cli_verify_keeps_the_axiom_verdicts_when_the_order_cannot_be_read(tmp_path, capsys,
                                                                          profile):
    """L_2^2 with c3 dropped from special line C: the special lines have
    unequal sizes, so the order cannot be read.  verify exits 1 with a
    failing order verdict beside the axiom verdicts, whose witnesses re-check
    on the file; cliques reports the same A1 witness."""
    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    s = d["structure"]
    next(ln for ln in s["lines"] if s["special_point"] in ln and "c3" in ln).remove("c3")
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("verify", str(path), "--profile", profile) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"axioms": False, "order": False}
    assert report["details"]["order"] == "special lines have unequal sizes [4, 5]"
    axioms = report["details"]["axioms"]
    assert axioms["witnesses"]["A1"] == {"defect": "not covered", "lines": [], "pair": [0, 12]}
    recheck_witnesses(s, axioms)
    assert run_cli("cliques", str(path)) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["details"]["A1"] == \
        axioms["witnesses"]["A1"]


def test_cli_analyze_reports_an_order_that_cannot_be_read(tmp_path, capsys):
    """The same file through analyze: exit 1 with failing A1 and order
    verdicts, verify's A1 witness and the order's message, on stdout or in
    the --out file, and nothing on stderr."""
    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    s = d["structure"]
    next(ln for ln in s["lines"] if s["special_point"] in ln and "c3" in ln).remove("c3")
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("analyze", "--graph", str(path)) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["verdicts"] == {"A1": False, "order": False}
    assert not report["ok"]
    assert report["details"] == {"A1": {"defect": "not covered", "pair": [0, 12], "lines": []},
                                 "order": "special lines have unequal sizes [4, 5]"}
    written = tmp_path / "report.json"
    assert run_cli("analyze", "--graph", str(path), "--out", str(written)) == 1
    assert capsys.readouterr() == ("", "")
    assert {**json.loads(written.read_text()), "outputs": [], "params": None} == \
        {**report, "params": None}


def test_cli_iso_reports_a1_with_its_witness(tmp_path, capsys):
    """R(3,9) with a new point added to every ordinary line, each its own:
    the graph of lines is unchanged, so the isomorphism holds, but A1 fails
    and iso exits 1 with verify's witness; the intact model passes A1."""
    d = _built(tmp_path, "m.json", "--family", "subplane", "--p", "3", "--k", "2")
    s = d["structure"]
    for i in range(81):
        s["points"].append(f"x{i}")
        s["lines"][i].append(f"x{i}")
    path = tmp_path / "own.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("verify", str(path)) == 1
    axioms = json.loads(capsys.readouterr().out)["details"]["axioms"]
    recheck_witnesses(s, axioms)
    assert run_cli("iso", str(tmp_path / "m.json")) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdicts"] == {"A1": True, "bilinear_isomorphism": True}
    assert "A1" not in rep["details"]
    assert run_cli("iso", str(path)) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdicts"] == {"A1": False, "bilinear_isomorphism": True}
    assert rep["details"]["A1"] == axioms["witnesses"]["A1"]


def test_cli_extra_ordinary_line_fails_its_geometry_without_a_traceback(tmp_path, capsys):
    """L_2^2 with a 17th ordinary line {a0, a1, a2}: the geometries measure the
    graph's 17 vertices, and the point-clique geometry expects n^2 = 16."""
    from prect.geometry import build_point_clique_geometry

    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    d["structure"]["lines"].insert(16, ["a0", "a1", "a2"])
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("verify", str(path), "--profile", "full") == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert not verdicts["point_clique_geometry"] and not verdicts["plane_clique_structure"]
    assert run_cli("geometry", str(path)) == 1
    rep = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert rep["verdicts"] == {"A1": False, "plane_clique_structure": False,
                               "point_clique_geometry": False}
    model = model_from_json(path.read_text())
    census = classify_census(build_line_graph(model), model)
    assert census.nu == 17
    assert build_point_clique_geometry(census, model).mismatches()["num_points"] == (16, 17)


def _too_early(*args, **kwargs):
    raise AssertionError("ran before the bound was checked")


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_cli_verify_refuses_past_the_enumeration_bound_before_a6(tmp_path, capsys,
                                                                 monkeypatch, profile):
    import prect.cliques
    import prect.incidence
    import prect.linegraph

    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    lines = d["structure"]["lines"]
    lines[0], lines[5] = lines[5], lines[0]
    (tmp_path / "swapped.json").write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()

    # between the bounds the certified graph runs, the swapped one is refused
    monkeypatch.setattr(prect.cliques, "ENUMERATION_MAX_VERTICES", 15)
    monkeypatch.setattr(prect.cliques, "CAYLEY_MAX_VERTICES", 17)
    assert run_cli("verify", str(tmp_path / "m.json"), "--profile", profile) == 0
    capsys.readouterr()
    monkeypatch.setattr(prect.incidence, "check_axioms", _too_early)
    assert run_cli("verify", str(tmp_path / "swapped.json"), "--profile", profile) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: enumeration limited to 15 vertices\n"
    # past both bounds the size alone refuses, before any graph is built
    monkeypatch.setattr(prect.cliques, "CAYLEY_MAX_VERTICES", 14)
    monkeypatch.setattr(prect.linegraph, "build_line_graph", _too_early)
    assert run_cli("verify", str(tmp_path / "m.json"), "--profile", profile) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: enumeration limited to 14 vertices\n"


@pytest.mark.parametrize("command", [("cliques",), ("geometry",),
                                     ("export", "--what", "census")])
def test_cli_census_refuses_past_the_enumeration_bound_before_the_graph(tmp_path, capsys,
                                                                        monkeypatch, command):
    import prect.cliques
    import prect.linegraph

    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    lines = d["structure"]["lines"]
    lines[0], lines[5] = lines[5], lines[0]
    (tmp_path / "swapped.json").write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()

    monkeypatch.setattr(prect.linegraph, "build_line_graph", _too_early)
    monkeypatch.setattr(prect.cliques, "ENUMERATION_MAX_VERTICES", 15)
    # between the bounds the swapped model, which is not certified, is refused
    monkeypatch.setattr(prect.cliques, "CAYLEY_MAX_VERTICES", 17)
    assert run_cli(command[0], str(tmp_path / "swapped.json"), *command[1:]) == 2
    assert capsys.readouterr() == ("", "error: enumeration limited to 15 vertices\n")
    monkeypatch.setattr(prect.cliques, "CAYLEY_MAX_VERTICES", 14)
    assert run_cli(command[0], str(tmp_path / "m.json"), *command[1:]) == 2
    assert capsys.readouterr() == ("", "error: enumeration limited to 14 vertices\n")


def test_cli_iso_refuses_past_its_bound_before_the_graph(tmp_path, capsys, monkeypatch):
    import prect.bilinear
    import prect.linegraph

    _built(tmp_path, "m.json", "--family", "subplane", "--p", "3", "--k", "2")
    capsys.readouterr()

    monkeypatch.setattr(prect.linegraph, "build_line_graph", _too_early)
    monkeypatch.setattr(prect.bilinear, "MAX_VERTICES", 80)
    assert run_cli("iso", str(tmp_path / "m.json")) == 2
    assert capsys.readouterr() == ("", "error: q^(2k) = 81 beyond bound 80\n")


@pytest.mark.parametrize("fmt", ["graph6", "dot"])
def test_cli_export_graph_refuses_past_the_graph_bound(tmp_path, capsys, monkeypatch, fmt):
    """export --what graph has no bound of its own: build_line_graph refuses
    a model past its bound, a LineGraphError, and export exits 2."""
    import prect.linegraph

    _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    capsys.readouterr()
    argv = ("export", str(tmp_path / "m.json"), "--what", "graph", "--format", fmt)
    monkeypatch.setattr(prect.linegraph, "MAX_VERTICES", 16)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(prect.linegraph, "MAX_VERTICES", 15)
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", "error: graph of lines limited to 15 vertices, "
                                       "the model has 16\n")
    with pytest.raises(prect.linegraph.LineGraphError):
        prect.linegraph.build_line_graph(model_from_json((tmp_path / "m.json").read_text()))


@pytest.mark.parametrize("args", [("--family", "l2k", "--k", "3"),
                                  ("--family", "subplane", "--p", "3", "--k", "2")])
def test_cli_renumbered_model_is_not_translation_certified_and_passes(tmp_path, capsys, args):
    d = _built(tmp_path, "m.json", *args)
    lines = d["structure"]["lines"]
    lines[0], lines[5] = lines[5], lines[0]
    if "line_coeffs" in d:
        d["line_coeffs"][0], d["line_coeffs"][5] = d["line_coeffs"][5], d["line_coeffs"][0]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(d, sort_keys=True))
    assert build_line_graph(model_from_json(path.read_text())).translations is None
    capsys.readouterr()
    assert run_cli("verify", str(path), "--profile", "full") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["verdicts"]["srg"] and rep["verdicts"]["census"]


def test_cli_verify_timings_report_each_fact(tmp_path, capsys):
    _built(tmp_path, "m.json", "--family", "subplane", "--p", "2", "--k", "2")
    capsys.readouterr()
    run_cli("verify", str(tmp_path / "m.json"), "--timings")
    quick = json.loads(capsys.readouterr().out)["timings_ms"]
    assert set(quick) == {"axioms", "total", "translations", "graph", "cert", "census"}
    run_cli("verify", str(tmp_path / "m.json"), "--profile", "full", "--timings")
    full = json.loads(capsys.readouterr().out)["timings_ms"]
    assert set(full) == set(quick) | {"intersections", "planes", "iso", "geometry"}
    assert all(t >= 0 for t in full.values())
    assert sum(full[k] for k in ("graph", "translations", "cert", "census", "intersections",
                                 "planes", "iso", "geometry")) <= full["total"]


def _moved_point(d: dict, rng: random.Random) -> dict:
    """Model dict d with one point moved from one ordinary line to another."""
    s = d["structure"]
    ordinary = [ln for ln in s["lines"] if s["special_point"] not in ln]
    while True:
        l1, l2 = rng.sample(ordinary, 2)
        x = rng.choice(l1)
        if x not in l2:
            break
    l1.remove(x)
    l2.append(x)
    return d


@pytest.mark.parametrize("args", [("--family", "l2k", "--k", "2"),
                                  ("--family", "subplane", "--p", "3", "--k", "2")])
def test_cli_moved_point_fails_a1_with_a_witness_and_no_dot_export(tmp_path, capsys, args):
    """verify exits 1 with an A1 witness that re-checks on the file: the pair
    lies on every listed line, and on two or more.  Two lines then meet
    twice, so their edge has no class and the DOT export exits 2."""
    rng = random.Random(7)
    for i in range(4):
        d = _moved_point(_built(tmp_path, "m.json", *args), rng)
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(d, sort_keys=True))
        capsys.readouterr()
        for profile in ("quick", "full"):
            assert run_cli("verify", str(path), "--profile", profile) == 1, i
            axioms = json.loads(capsys.readouterr().out)["details"]["axioms"]
            assert axioms["witnesses"]["A1"]["defect"] == "covered more than once"
            recheck_witnesses(d["structure"], axioms)
        assert run_cli("export", str(path), "--what", "graph", "--format", "dot") == 2, i
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: lines ") and "more than once" in err


def test_cli_extra_line_fails_the_isomorphism_and_keeps_the_report(tmp_path, capsys):
    """R(3,9) plus an ordinary line through three points of one special line:
    82 ordinary lines, 81 coefficient triples.  The isomorphism fails its
    sizes check, A1 fails on the three collinear points, and verify still
    reports every other verdict."""
    from prect.pipeline import _Run

    d = _built(tmp_path, "m.json", "--family", "subplane", "--p", "3", "--k", "2")
    lines = d["structure"]["lines"]
    specials = [ln for ln in lines if d["structure"]["special_point"] in ln]
    lines.insert(lines.index(specials[0]), specials[1][1:4])
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("iso", str(path)) == 1
    assert json.loads(capsys.readouterr().out)["verdicts"] == {"A1": False,
                                                              "bilinear_isomorphism": False}
    assert run_cli("verify", str(path), "--profile", "full") == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert len(verdicts) == 11 and verdicts["bilinear_isomorphism"] is False
    assert _Run(str(path)).iso[1].witness == {"check": "sizes", "nu1": 82, "nu2": 81, "map": 81}


def test_cli_relabelled_special_point_names_the_misplaced_line(tmp_path, capsys):
    """With D relabelled, the lines through the new D are special but come
    before ordinary lines; every subcommand refuses the file by that line."""
    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "2")
    d["structure"]["special_point"] = "a1"
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(d, sort_keys=True))
    first = next(i for i, ln in enumerate(d["structure"]["lines"]) if "a1" in ln)
    capsys.readouterr()
    for argv in (("verify", str(path)), ("cliques", str(path)), ("analyze", "--graph", str(path))):
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr().err == (
            f"error: line {first} passes through the special point a1 but comes before an "
            f"ordinary line: special lines come last in a model file\n")


def test_cli_subplane_model_without_coordinates_runs_as_a_coordinate_free_model(tmp_path,
                                                                                capsys):
    """R(2,4) with its coordinates removed is a coordinate-free model over
    (Z_2)^2, whatever its file's family says: it passes verify --profile
    full with no isomorphism verdict, and iso refuses it."""
    d = _built(tmp_path, "m.json", "--family", "subplane", "--p", "2", "--k", "2")
    for key in ("point_coords", "line_coeffs", "special_coeffs"):
        del d[key]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(d, sort_keys=True))
    assert model_from_json(path.read_text()).family == "l2k"
    capsys.readouterr()
    assert run_cli("verify", str(path), "--profile", "full") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and "bilinear_isomorphism" not in report["verdicts"]
    assert run_cli("iso", str(path)) == 2
    assert capsys.readouterr() == ("", "iso requires a coordinatized subplane model\n")


MALFORMED_PARAMS = [
    ("e", -1, "e = -1 is not an integer >= 1"),
    ("e", 0, "e = 0 is not an integer >= 1"),
    ("p", 1, "p = 1 is not an integer >= 2"),
    ("k", 0, "k = 0 is not an integer >= 1"),
    ("e", 1.0, "e = 1.0 is not an integer >= 1"),
    ("k", "4", "k = '4' is not an integer >= 1"),
    ("p", True, "p = True is not an integer >= 2"),
    ("q", 4, "q = 4 is not p^e for p = 2, e = 1, k = 4"),
    ("m", 3, "m = 3 is not q for p = 2, e = 1, k = 4"),
    ("n", 17, "n = 17 is not q^k for p = 2, e = 1, k = 4"),
    ("n", 16.0, "n = 16.0 is not q^k for p = 2, e = 1, k = 4"),
    ("e", 10 ** 18, "q = 2 is not p^e for p = 2, e = 1000000000000000000, k = 4"),
]


@pytest.mark.parametrize("field,value,message", MALFORMED_PARAMS,
                         ids=[f"{f}={v!r}" for f, v, _ in MALFORMED_PARAMS])
def test_cli_malformed_model_parameters_are_a_typed_error(tmp_path, capsys, field, value,
                                                          message):
    """A parameter that is not an integer in range, or a q, m or n that is not
    p^e, q or q^k, exits 2 naming the field, before any check expects a float."""
    d = _built(tmp_path, "m.json", "--family", "l2k", "--k", "4")
    d["params"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli("verify", str(path), "--profile", "full") == 2
    assert capsys.readouterr() == ("", f"error: model parameter {message}\n")


# Each built model with the family labels that its p, e, k or coordinates
# rule out; every model is also relabelled "nope" and has the key deleted.
RELABELLED = {
    "R(3,9)": (("subplane", "--p", "3", "--k", "2"), ("l2k", "plane")),
    "R(4,16)": (("subplane", "--p", "2", "--e", "2", "--k", "2"), ("l2k",)),
    "R(2,4)": (("subplane", "--p", "2", "--k", "2"), ("l2k",)),
    "L_2^2": (("l2k", "--k", "2"), ("subplane", "plane")),
    "PG(2,3)": (("plane", "--p", "3"), ("subplane",)),
}


@pytest.mark.parametrize("build,labels", RELABELLED.values(), ids=RELABELLED)
def test_cli_model_file_runs_as_its_data_says_whatever_its_family(tmp_path, capsys, build,
                                                                  labels):
    """The file's family is not read: a built model file with its family
    changed, to a label its data rules out or to none of the three, or with
    the key deleted, gives the exit code, stdout and stderr of the intact
    file under verify, iso and analyze, and exports the derived family."""
    d = _built(tmp_path, "m.json", "--family", *build)
    path = tmp_path / "model.json"
    commands = (("verify", str(path), "--profile", "full"), ("iso", str(path)),
                ("analyze", "--graph", str(path)), ("export", str(path), "--what", "model"))

    def runs(model):
        path.write_text(json.dumps(model, sort_keys=True))
        out = []
        for argv in commands:
            capsys.readouterr()
            out.append((run_cli(*argv), *capsys.readouterr()))
        return out

    intact = runs(d)
    assert json.loads(intact[-1][1])["family"] == build[0]
    for label in (*labels, "nope", None):
        relabelled = {key: value for key, value in d.items() if key != "family"}
        if label:
            relabelled["family"] = label
        assert runs(relabelled) == intact, label


@pytest.mark.parametrize("args", [("verify", "--profile", "quick"),
                                  ("verify", "--profile", "full"), ("cliques",)],
                         ids=["quick", "full", "cliques"])
def test_cli_model_over_a_prime_power_p_is_a_typed_error(tmp_path, capsys, args):
    """An R(4,16) file relabelled p = 4, e = 1 keeps q, m and n consistent;
    its coordinates name GF(4^2), which does not exist, so loading it exits 2."""
    d = _built(tmp_path, "m.json", "--family", "subplane", "--p", "2", "--e", "2", "--k", "2")
    d["params"].update(p=4, e=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    assert run_cli(args[0], str(path), *args[1:]) == 2
    assert capsys.readouterr() == ("", "error: p = 4 is not prime\n")


@pytest.mark.parametrize("args", [("verify", "--profile", "quick"),
                                  ("verify", "--profile", "full"), ("cliques",)],
                         ids=["quick", "full", "cliques"])
def test_cli_model_over_a_large_prime_p_is_refused_by_the_field_bound(tmp_path, capsys,
                                                                      monkeypatch, args):
    """An R(3,9) file relabelled p = q = m = n = 2^61 - 1, e = k = 1, keeps
    its parameters consistent; its field is past the order bound, which is
    checked before p is tested for primality (by trial division, minutes
    at this p), so loading it exits 2 at once."""
    import prect.gf

    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    d = _built(tmp_path, "m.json", "--family", "subplane", "--p", "3", "--k", "2")
    p = 2 ** 61 - 1
    d["params"].update(p=p, q=p, m=p, n=p, e=1, k=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d, sort_keys=True))
    capsys.readouterr()
    monkeypatch.setattr(prect.gf, "is_prime", no_trial_division)
    assert run_cli(args[0], str(path), *args[1:]) == 2
    assert capsys.readouterr() == ("", f"error: field order {p}^1 exceeds bound 8192\n")


@pytest.mark.parametrize("name", CAYLEY_LADDER)
def test_reading_a_model_restores_its_coordinates_and_field(name):
    """The reader codes coordinates by the field's own rule without making
    the field: a ladder model read back has the built coordinates, and its
    field, made on first use, is the built model's GF(p^(ek))."""
    built = ladder_model(name)
    read = model_from_json(model_to_json(built))
    for attr in ("point_coords", "line_coeffs", "special_coeffs"):
        assert getattr(read, attr) == getattr(built, attr), attr
    if built.point_coords is None:
        assert read.ctx is None
    else:
        assert read.ctx is field_make(built.p, built.e * built.k) is built.ctx


def _r39_runs(tmp_path, capsys, edit):
    """(exit, stdout, stderr) of verify, analyze and export --what model on
    R(3,9)'s file after edit(file dict)."""
    d = _built(tmp_path, "m.json", "--family", "subplane", "--p", "3", "--k", "2")
    edit(d)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(d, sort_keys=True))
    runs = []
    for argv in (("verify", str(path)), ("analyze", "--graph", str(path)),
                 ("export", str(path), "--what", "model")):
        capsys.readouterr()
        runs.append((run_cli(*argv), *capsys.readouterr()))
    return runs


@pytest.mark.parametrize("key, index", [("point_coords", 1), ("line_coeffs", 4),
                                        ("special_coeffs", 2)])
def test_a_coordinate_vector_of_the_wrong_length_exits_2(tmp_path, capsys, key, index):
    def edit(d):
        d[key][index][0] = [*d[key][index][0], 0]

    assert _r39_runs(tmp_path, capsys, edit) == [(2, "", "error: expected 2 coefficients, "
                                                         "got 3\n")] * 3


@pytest.mark.parametrize("shift", [3, 6, -3])
def test_a_digit_out_of_range_is_read_mod_p(tmp_path, capsys, shift):
    """A digit is taken mod p, as gf.FieldCtx.encode takes it: a file with
    one digit of a point and one of a line moved by a multiple of p runs as
    the file with the digits in range."""
    def edit(d):
        d["point_coords"][5][1][0] += shift
        d["line_coeffs"][7][1][1] += shift

    assert _r39_runs(tmp_path, capsys, edit) == _r39_runs(tmp_path, capsys, lambda d: None)


def test_the_reader_checks_the_field_order_before_primality(tmp_path, capsys, monkeypatch):
    """The reader applies the field check of _util itself: with its trial
    division patched to fail, a file over p = 2^61 - 1 exits 2 by the order
    bound."""
    import prect._util

    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    p = 2 ** 61 - 1
    monkeypatch.setattr(prect._util, "is_prime", no_trial_division)

    def edit(d):
        d["params"].update(p=p, q=p, m=p, n=p, e=1, k=1)

    assert _r39_runs(tmp_path, capsys, edit) == [
        (2, "", f"error: field order {p}^1 exceeds bound 8192\n")] * 3
