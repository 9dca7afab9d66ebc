"""Serialization round trips, graph6/DOT output, and the CLI pipelines."""

from __future__ import annotations

import hashlib
import json

import pytest

from prect.cli import main
from prect.cliques import classify_census
from prect.export import (census_from_dict, census_to_dict, graph6_str, model_from_json,
                          model_to_json, parse_graph6, to_dot)
from prect.linegraph import LineGraph, build_line_graph


def test_graph6_k4():
    k4 = LineGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert graph6_str(k4) == "C~"


def test_graph6_round_trip(g_l22, g_r39):
    for g in (g_l22, g_r39):
        back = parse_graph6(graph6_str(g))
        assert back.nu == g.nu and back.rows == g.rows


def test_graph6_path_graph():
    p4 = LineGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    # decode by hand: n=4, bits (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) = 101001
    assert graph6_str(p4) == chr(63 + 4) + chr(63 + 0b101001)


def test_dot_carries_edge_colors(g_r24):
    dot = to_dot(g_r24)
    assert 'class="s_0"' in dot and 'class="s_inf"' in dot
    assert dot.count(" -- ") == g_r24.num_edges


def test_model_json_round_trip(l22, r39):
    for model in (l22, r39):
        back = model_from_json(model_to_json(model))
        assert back.structure == model.structure
        assert (back.p, back.e, back.k, back.family) == \
            (model.p, model.e, model.k, model.family)
        if model.line_coeffs is not None:
            assert [lc.codes for lc in back.line_coeffs] == \
                [lc.codes for lc in model.line_coeffs]
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
    out = tmp_path / "m.json"
    assert run_cli("build", "--family", "subplane", "--p", "3", "--e", "1",
                   "--k", "2", "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert "(3, 9)" in err


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


def test_cli_env_threads_recorded(tmp_path, capsys, monkeypatch):
    out = tmp_path / "m.json"
    run_cli("build", "--family", "l2k", "--k", "2", "--out", str(out))
    capsys.readouterr()
    monkeypatch.setenv("PRECT_THREADS", "4")
    run_cli("verify", str(out), "--profile", "quick")
    rep = json.loads(capsys.readouterr().out)
    assert rep["details"]["threads"] == 4


# SHA-256 of stdout for the smallest rungs, recorded before the A6 sampler
# and the subplane builder were rewritten; every report must stay
# byte-identical.  Models are read by relative path, since the path is part
# of the report's params.
GOLDEN_STDOUT = [
    (("build", "--family", "subplane", "--p", "3", "--e", "1", "--k", "2"), "r39.json",
     "023d56516ad175cbc9b52a49f7de8419d7fe8b57ba187c1a0258b0499704a6f2"),
    (("build", "--family", "subplane", "--p", "2", "--e", "2", "--k", "2"), "r416.json",
     "20bdc8bf4274904de1cee6322d73579f689590b3347d8c851444e8ce65e261eb"),
    (("build", "--family", "l2k", "--k", "3"), "l23.json",
     "015b5a54eafdb1199ad1673d5e5b234c8b3e0b8d859bb1a01b91040a8ed052c2"),
    (("verify", "r39.json", "--profile", "quick", "--seed", "3", "--a6-samples", "5000"), None,
     "4cadbde91c0b4e2ee528656d06a20ee07a64780e30d285489426e037e28c284a"),
    (("verify", "l23.json", "--profile", "full"), None,
     "0a3b5ec54fedcd95c3c6bd1f13ad8cfe0ba09aac74eaa25036896e18118e5a27"),
    (("verify", "r416.json", "--profile", "full"), None,
     "b50dbb480cdc9e12eda1a47d413c446667a528a1dd8c2a278db4efd5d9f05eec"),
]


def test_cli_stdout_matches_golden_hashes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRECT_THREADS", raising=False)
    for argv, save_as, digest in GOLDEN_STDOUT:
        run_cli(*argv)
        out = capsys.readouterr().out
        if save_as:
            (tmp_path / save_as).write_text(out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
