"""Planarity, Eulerian, Hamiltonian, chromatic work, Krein, and the K4xK4 note."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

import prect

from oracles import graph_from_edges, without_edge
from prect._util import iter_bits
from prect.analysis import (AnalysisError, ChromaticReport, _exact_chromatic, _proper,
                            _proper_edges, chromatic_analysis, chromatic_by_construction,
                            chromatic_index_bracket, chromatic_index_by_construction,
                            eulerian_verdict, hamiltonian_by_construction,
                            hamiltonian_search, krein_check, net_coloring,
                            net_one_factorization, planarity_verdict, rook_walk,
                            validate_cycle)
from prect.construct import build_l2k, build_subplane_rect
from prect.export import model_from_dict, model_to_dict
from prect.linegraph import LineGraph, SrgCertificate, build_line_graph, certify_srg

KNOWN_HAMILTON_CYCLE = [4, 5, 6, 7, 8, 9, 10, 11, 3, 2, 1, 0, 15, 14, 13, 12, 4]


def test_planarity_pp2_is_k4(g_pp2):
    rep = planarity_verdict(g_pp2, 2, 2)
    assert rep.planar and rep.is_k4


def test_planarity_l22_r39(g_l22, g_r39):
    assert not planarity_verdict(g_l22, 2, 4).planar
    assert not planarity_verdict(g_r39, 3, 9).planar


@pytest.mark.parametrize("fix,m,n,expect", [
    ("g_l22", 2, 4, False),
    ("g_r39", 3, 9, True),
    ("g_l23", 2, 8, False),
    ("g_r416", 4, 16, False),
])
def test_eulerian_matches_parity_rule(fix, m, n, expect, request):
    rep = eulerian_verdict(request.getfixturevalue(fix), m, n)
    assert rep.eulerian is expect
    assert rep.consistent


def test_known_hamilton_cycle_validates(g_l22):
    assert validate_cycle(g_l22, KNOWN_HAMILTON_CYCLE)


def test_validate_cycle_rejects_bad_sequences(g_l22):
    assert not validate_cycle(g_l22, KNOWN_HAMILTON_CYCLE[:-1])  # not closed
    assert not validate_cycle(g_l22, [0, 1, 0])                  # too short
    non_edge = [0, 6] + KNOWN_HAMILTON_CYCLE[2:]                 # l_0, l_6 disjoint
    assert not g_l22.adjacent(0, 6)
    assert not validate_cycle(g_l22, non_edge)


def test_validate_cycle_rejects_vertices_out_of_range(g_l22):
    for bad in (-1, g_l22.nu):
        seq = [bad] + KNOWN_HAMILTON_CYCLE[1:-1] + [bad]
        assert not validate_cycle(g_l22, seq)


def test_hamiltonian_search_l22(g_l22):
    rep = hamiltonian_search(g_l22, m=2, n=4)
    assert rep.cycle is not None and rep.verified
    assert rep.condition_n_le_3m_plus_1 is True


def test_hamiltonian_search_r39(g_r39):
    rep = hamiltonian_search(g_r39, m=3, n=9)
    assert rep.condition_n_le_3m_plus_1 is True  # 9 <= 10
    assert rep.cycle is not None and rep.verified


def test_hamiltonian_search_l23_condition_fails_search_still_runs(g_l23):
    rep = hamiltonian_search(g_l23, m=2, n=8)
    assert rep.condition_n_le_3m_plus_1 is False  # 8 > 7
    assert rep.cycle is not None or rep.budget_exhausted


def test_hamiltonian_budget_reports_inconclusive(g_r39):
    rep = hamiltonian_search(g_r39, node_budget=3, m=3, n=9)
    assert rep.cycle is None and rep.budget_exhausted


def test_chromatic_analysis_l22(g_l22):
    cert = certify_srg(g_l22, 2, 4)
    rep = chromatic_analysis(g_l22, cert, 2, 4)
    assert rep.haemers_bound == 4          # min(6, 1 - tau2/tau1) = min(6, 4)
    assert rep.claimed_bound == 6    # (n-1)(n-m)
    assert rep.clique_lower_bound == 4
    assert rep.exact_chromatic == 4
    colors = rep.witness
    assert len(set(colors)) == 4
    for u, v in g_l22.edges():
        assert colors[u] != colors[v]
    assert rep.flags["claimed_bound_consistent"] is False
    assert "note" in rep.flags


def test_chromatic_exact_k4(g_pp2):
    from prect.analysis import _exact_chromatic

    chi, colors, exhausted = _exact_chromatic(g_pp2, 10 ** 6)
    assert chi == 4 and not exhausted


def test_chromatic_exact_known_small_graphs():
    from prect.analysis import _exact_chromatic

    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert _exact_chromatic(c5, 10 ** 6)[0] == 3
    petersen = graph_from_edges(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
        (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
    assert _exact_chromatic(petersen, 10 ** 6)[0] == 3


def test_chromatic_exact_l23_is_eight(g_l23, r28, g_r28):
    """chi of the order-(2,8) graph is exactly 8, not the greedy value.

    Regression for a search bug that abandoned palette alternatives once a
    new color could not improve the incumbent.  Oracle: the classes
    b = theta*a + t for theta outside GF(2) are eight independent sets
    partitioning the coordinatized twin, so chi <= 8; the size-8 point
    clique forces chi >= 8.
    """
    from prect.gf import field_make

    ctx = field_make(2, 3)
    theta = 2  # the class of x
    classes = {}
    for idx in range(64):
        a_code, b_code = divmod(idx, 8)
        t = ctx.sub_codes(b_code, ctx.mul_codes(theta, a_code))
        classes.setdefault(t, []).append(idx)
    assert len(classes) == 8
    for cl in classes.values():
        for i, u in enumerate(cl):
            for v in cl[i + 1:]:
                assert not g_r28.adjacent(u, v)

    cert = certify_srg(g_l23, 2, 8)
    rep = chromatic_analysis(g_l23, cert, 2, 8, exact_limit=100)
    assert rep.exact_chromatic == 8
    del r28


def test_chromatic_bounds_only_over_limit(g_r39):
    cert = certify_srg(g_r39, 3, 9)
    rep = chromatic_analysis(g_r39, cert, 3, 9, exact_limit=10)
    assert rep.exact_chromatic is None
    assert rep.haemers_bound == 2          # min(48, 9/5) rounded up
    assert rep.claimed_bound == 48


PRIME_POWER_ORDERS = [(m, m ** k) for m in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
                      for k in range(1, 9) if m ** k <= 256]


@pytest.mark.parametrize("m,n", PRIME_POWER_ORDERS,
                         ids=[f"{m},{n}" for m, n in PRIME_POWER_ORDERS])
def test_integer_haemers_bound_matches_fractions(m, n):
    """ChromaticReport's integer eigenvalue bound and its text equal the
    rational computation min(mult2, 1 - tau2/tau1), rounded up."""
    mult2, tau1, tau2 = (n - m) * (n - 1), n - m - 1, -(m + 1)
    ratio = Fraction(1) - Fraction(tau2, tau1) if tau1 else Fraction(0)
    rep = ChromaticReport(SrgCertificate(m, n))
    assert rep.haemers_bound == ceil(min(Fraction(mult2), ratio))
    assert rep.haemers_exact == f"min({mult2}, {ratio})"
    assert (rep.claimed_bound, rep.clique_lower_bound) == ((n - 1) * (n - m), n)


def test_chromatic_index_k4(g_pp2):
    rep = chromatic_index_bracket(g_pp2)
    assert rep.bracket == (3, 4)
    assert rep.verdict == "r (coloring found)"


def test_chromatic_index_l22(g_l22):
    rep = chromatic_index_bracket(g_l22, 2, 4)
    assert rep.bracket == (9, 10)
    assert rep.flags["max_eig_lt_r_0.9"] is True   # max(1,3)^10 < 9^9
    assert rep.flags["m_plus_1_ge_ninth_root"] is True
    assert rep.verdict in ("r (coloring found)", "unresolved")
    if rep.witness is not None:
        assert len(rep.witness) == g_l22.num_edges


def test_chromatic_index_odd_order_immediate(g_r39):
    rep = chromatic_index_bracket(g_r39, 3, 9)
    assert rep.nu_odd and rep.verdict == "r+1 (odd order)"
    assert rep.bracket == (32, 33)


@pytest.mark.parametrize("fix,m,n", [
    ("g_l22", 2, 4), ("g_l23", 2, 8), ("g_r39", 3, 9), ("g_r416", 4, 16),
])
def test_krein_conditions_pass(fix, m, n, request):
    cert = certify_srg(request.getfixturevalue(fix), m, n)
    rep = krein_check(cert)
    assert rep.ok


def test_krein_fails_with_a_failed_certificate(g_l22):
    """The formula eigenvalues pass Krein, but describe the graph only when it is srg."""
    assert krein_check(certify_srg(g_l22, 2, 4)).srg
    for g in (LineGraph([]), without_edge(g_l22, 0, next(iter_bits(g_l22.rows[0])))):
        rep = krein_check(certify_srg(g, 2, 4))
        assert (rep.lhs1, rep.rhs1, rep.lhs2, rep.rhs2) == (8, 40, 0, 24)
        assert not rep.srg and not rep.ok


def test_krein_values_l22(g_l22):
    rep = krein_check(certify_srg(g_l22, 2, 4))
    assert (rep.lhs1, rep.rhs1) == (8, 40)
    assert (rep.lhs2, rep.rhs2) == (0, 24)


def tensor_square_report(g: LineGraph, parts: list[list[int]]) -> dict:
    """Diagnostics for the 16-vertex graph against two descriptions.

    Checks whether the given 4-vertex parts are cliques with cross-degree 2,
    whether the stated 'adjacent to exactly one of the two' property holds
    literally, and whether the graph is isomorphic to the categorical
    product of K_4 with itself (adjacent iff both coordinates differ).
    """
    out = {}
    part_cliques = all(g.adjacent(u, v) for p in parts
                       for i, u in enumerate(p) for v in p[i + 1:])
    out["parts_are_cliques"] = part_cliques
    cross = True
    exactly_one = True
    for i, pi in enumerate(parts):
        for j, pj in enumerate(parts):
            if i == j:
                continue
            for v in pi:
                friends = [u for u in pj if g.adjacent(v, u)]
                if len(friends) != 2:
                    cross = False
                else:
                    for x in pj:
                        if x in friends:
                            continue
                        if sum(g.adjacent(x, u) for u in friends) != 1:
                            exactly_one = False
    out["cross_degree_two"] = cross
    out["exactly_one_property"] = exactly_one

    prod = graph_from_edges(16, [
        (4 * a + b, 4 * c + d)
        for a in range(4) for b in range(4) for c in range(4) for d in range(4)
        if (4 * a + b) < (4 * c + d) and a != c and b != d
    ])
    out["isomorphic_to_categorical_k4xk4"] = _small_iso(g, prod)
    return out


def _small_iso(g1: LineGraph, g2: LineGraph) -> bool:
    """Backtracking isomorphism test for small graphs (order <= 32)."""
    if g1.nu != g2.nu or g1.num_edges != g2.num_edges:
        return False
    nu = g1.nu
    mapping = [-1] * nu
    used = [False] * nu

    def ok(v, w):
        for u in range(v):
            if g1.adjacent(u, v) != g2.adjacent(mapping[u], w):
                return False
        return True

    def extend(v):
        if v == nu:
            return True
        for w in range(nu):
            if used[w] or g1.degree(v) != g2.degree(w) or not ok(v, w):
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return extend(0)


def test_tensor_square_report(g_l22):
    """The four stated parts are cliques with cross-degree 2 and the graph is
    isomorphic to the categorical K_4 x K_4; the literal 'adjacent to exactly
    one of the two' claim fails inside a part (parts are cliques)."""
    parts = [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]
    rep = tensor_square_report(g_l22, parts)
    assert rep["parts_are_cliques"]
    assert rep["cross_degree_two"]
    assert rep["isomorphic_to_categorical_k4xk4"]
    assert not rep["exactly_one_property"]


def test_eulerian_connectivity_of_the_empty_graph():
    assert eulerian_verdict(LineGraph([]), 1, 1).connected


def test_eulerian_direct_check_detects_disconnection():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    rep = eulerian_verdict(g, 1, 1)
    assert not rep.eulerian and not rep.connected


def _improper_searches(monkeypatch):
    """Make both coloring searches return a coloring that is not proper."""
    import prect.analysis as analysis

    monkeypatch.setattr(analysis, "_exact_chromatic",
                        lambda g, node_budget: (1, [0] * g.nu, False))
    monkeypatch.setattr(analysis, "_edge_coloring",
                        lambda g, r, node_budget: ({e: 1 for e in g.edges()}, 1))


def test_improper_witness_raises_analysis_error(g_l22, monkeypatch):
    _improper_searches(monkeypatch)
    cert = certify_srg(g_l22, 2, 4)
    with pytest.raises(AnalysisError):
        chromatic_analysis(g_l22, cert, 2, 4)
    with pytest.raises(AnalysisError):
        chromatic_index_bracket(g_l22, 2, 4)


def _improper_constructors(monkeypatch, which):
    """Make one witness constructor return a witness that is not proper."""
    import prect.analysis as analysis

    broken = {
        "net_coloring": lambda model: ([0] * model.num_ordinary_lines, "constant"),
        "net_one_factorization": lambda model: (
            (e, 1) for e in build_line_graph(model).edges()),
        "rook_walk": lambda model: list(range(model.num_ordinary_lines)) + [0],
    }
    monkeypatch.setattr(analysis, which, broken[which])


def test_improper_witness_is_a_failing_cli_verdict(tmp_path, capsys, monkeypatch):
    """The failed witness becomes a failing verdict with its message; the
    rest of the report is kept and is that of the intact run."""
    from prect.cli import main

    out = tmp_path / "m.json"
    main(["build", "--family", "l2k", "--k", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", "--graph", str(out)]) == 0
    intact = json.loads(capsys.readouterr().out)
    for which, verdict, detail in (("net_coloring", "chromatic_verified", "chromatic"),
                                   ("net_one_factorization", "chromatic_index_verified",
                                    "chromatic_index"),
                                   ("rook_walk", "hamilton_cycle_verified", "hamiltonian")):
        with monkeypatch.context() as patch:
            _improper_constructors(patch, which)
            assert main(["analyze", "--graph", str(out)]) == 1, which
        out_, err = capsys.readouterr()
        rep = json.loads(out_)
        assert err == "" and rep["ok"] is False, which
        assert [v for v, ok in rep["verdicts"].items() if not ok] == [verdict], which
        assert rep["details"][detail]["verified"] is False, which
        assert "not a proper" in rep["details"][detail]["witness"] or \
            "not a Hamilton cycle" in rep["details"][detail]["witness"], which
        for key in set(intact["details"]) - {detail}:
            assert rep["details"][key] == intact["details"][key], (which, key)
        assert {v for v in rep["verdicts"] if v != verdict} == \
            set(intact["verdicts"]) - {verdict}, which


_OPTIMIZED_RUN = """
import prect.analysis as analysis
from prect.construct import build_l2k
from prect.linegraph import build_line_graph, certify_srg

model = build_l2k(2)
g = build_line_graph(model)
analysis.net_coloring = lambda model: ([0] * g.nu, "constant")
analysis.net_one_factorization = lambda model: ((e, 1) for e in g.edges())
analysis.rook_walk = lambda model: list(range(g.nu)) + [0]
raised = 0
for call in (lambda: analysis.chromatic_by_construction(g, model, certify_srg(g, 2, 4)),
             lambda: analysis.chromatic_index_by_construction(g, model, 2, 4),
             lambda: analysis.hamiltonian_by_construction(g, model, 2, 4)):
    try:
        call()
    except analysis.AnalysisError:
        raised += 1
print(__debug__, raised)
"""


def _run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(prect.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_witness_checks_survive_optimize_flag():
    """Under python -O (asserts stripped, __debug__ False) every check still raises."""
    proc = _run_python("-O", "-c", _OPTIMIZED_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "3"]


# -- witnesses read off the model, against the validators and the search --

WITNESS_MODELS = {
    "L_2^2": lambda: build_l2k(2),
    "L_2^3": lambda: build_l2k(3),
    "L_2^4": lambda: build_l2k(4),
    "L_2^5": lambda: build_l2k(5),
    "R(2,4)": lambda: build_subplane_rect(2, 1, 2),
    "R(3,9)": lambda: build_subplane_rect(3, 1, 2),
    "R(2,8)": lambda: build_subplane_rect(2, 1, 3),
    "R(4,16)": lambda: build_subplane_rect(2, 2, 2),
    "R(5,25)": lambda: build_subplane_rect(5, 1, 2),
    "R(2,32)": lambda: build_subplane_rect(2, 1, 5),
    "PG(2,2)": lambda: build_subplane_rect(2, 1, 1),
    "PG(2,7)": lambda: build_subplane_rect(7, 1, 1),
}


@pytest.mark.parametrize("name", WITNESS_MODELS)
def test_constructed_witnesses_pass_their_validators(name):
    model = WITNESS_MODELS[name]()
    g = build_line_graph(model)
    n = model.n
    assert validate_cycle(g, rook_walk(model))

    r = g.degree(0)
    if n % 2 == 0:
        assign = dict(net_one_factorization(model))
        assert _proper_edges(g, assign.items(), r)
        assert len(set(assign.values())) == r
    else:
        with pytest.raises(AnalysisError):
            next(net_one_factorization(model))

    if model.m == n:  # a plane: chi is nu, the graph is complete
        with pytest.raises(AnalysisError):
            net_coloring(model)
        return
    colors, provenance = net_coloring(model)
    assert provenance == ("(Z_2)^k orthogonal mate" if model.family == "l2k" else "MRD coset")
    assert _proper(g, colors) and sorted(set(colors)) == list(range(n))


@pytest.mark.parametrize("name", ["L_2^2", "R(2,4)", "R(3,9)"])
def test_constructed_chi_equals_exact_search(name):
    model = WITNESS_MODELS[name]()
    g = build_line_graph(model)
    m, n = model.m, model.n
    rep = chromatic_by_construction(g, model, certify_srg(g, m, n))
    chi, _, exhausted = _exact_chromatic(g, 10 ** 6)
    assert not exhausted and rep.exact_chromatic == chi == n
    assert rep.flags["claimed_bound_consistent"] is False


def test_constructed_reports(g_l22, l22, g_r39, r39):
    ham = hamiltonian_by_construction(g_l22, l22, 2, 4)
    assert ham.verified and ham.provenance == "rook's-graph walk"
    assert ham.condition_n_le_3m_plus_1 is True
    eb = chromatic_index_by_construction(g_l22, l22, 2, 4)
    assert eb.verdict == "r (coloring found)" and eb.provenance == "net 1-factorization"
    assert eb.flags == chromatic_index_bracket(g_l22, 2, 4).flags
    odd = chromatic_index_by_construction(g_r39, r39, 3, 9)
    assert odd.verdict == "r+1 (odd order)" and odd.provenance is None


def test_proper_edges_rejects_a_non_edge_and_a_repeated_edge(g_l22):
    r = g_l22.degree(0)
    pairs = list(net_one_factorization(build_l2k(2)))
    assert _proper_edges(g_l22, pairs, r)
    (u, v), c = pairs[0]
    w = next(w for w in range(u + 1, g_l22.nu) if not g_l22.adjacent(u, w))
    assert not _proper_edges(g_l22, [((u, w), c)] + pairs[1:], r)
    # edge (0, 1) twice in two colors, standing in for the uncolored (2, 3)
    two_edges = graph_from_edges(4, [(0, 1), (2, 3)])
    assert _proper_edges(two_edges, [((0, 1), 1), ((2, 3), 1)], 2)
    assert not _proper_edges(two_edges, [((0, 1), 1), ((0, 1), 2)], 2)


def test_cli_analyze_runs_no_search(tmp_path, capsys, monkeypatch):
    import prect.analysis as analysis
    from prect.cli import main

    def boom(*args, **kwargs):
        raise AssertionError("analyze ran a search")

    out = tmp_path / "l24.json"
    main(["build", "--family", "l2k", "--k", "4", "--out", str(out)])
    capsys.readouterr()
    for name in ("_exact_chromatic", "_edge_coloring", "hamiltonian_search"):
        monkeypatch.setattr(analysis, name, boom)
    assert main(["analyze", "--graph", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["details"]["chromatic"]["exact"] == 16
    assert rep["details"]["chromatic_index"]["verdict"] == "r (coloring found)"


def _swap_line_coeffs(d):
    d["line_coeffs"][0], d["line_coeffs"][1] = d["line_coeffs"][1], d["line_coeffs"][0]


def _line_off_special_line_c(d):
    """Line 0 trades its point on C for a new point on no special line."""
    d["structure"]["points"].append("x")
    line = d["structure"]["lines"][0]
    line[:] = ["x" if p.startswith("c") else p for p in line]


@pytest.mark.parametrize("build,mutate", [
    (lambda: build_subplane_rect(3, 1, 2), _swap_line_coeffs),
    (lambda: build_l2k(3), _line_off_special_line_c),
], ids=["R(3,9) swapped line_coeffs", "L_2^3 line off C"])
def test_mutant_models_are_failing_cli_verdicts(build, mutate, tmp_path, capsys):
    """The coloring read off the mutant fails its check: a failing verdict
    with the message as its witness, next to the planarity, Eulerian, srg
    and Krein results."""
    from prect.cli import main

    d = model_to_dict(build())
    mutate(d)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(d))
    model_from_dict(d)  # the mutant loads
    assert main(["analyze", "--graph", str(path)]) == 1
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert err == "" and rep["ok"] is False
    assert rep["verdicts"]["chromatic_verified"] is False
    assert rep["details"]["chromatic"] == {"verified": False,
                                           "witness": rep["details"]["chromatic"]["witness"]}
    assert isinstance(rep["details"]["chromatic"]["witness"], str)
    assert {"eulerian_consistent", "srg", "krein"} <= set(rep["verdicts"])
    assert {"planar", "eulerian", "hamiltonian"} <= set(rep["details"])


_SHALLOW_RUN = """
import sys
sys.setrecursionlimit(300)
from prect.cli import main
sys.exit(main(["analyze", "--graph", sys.argv[1]]))
"""


def test_cli_analyze_on_l25_needs_no_deep_recursion(tmp_path):
    """No recursion on the analyze path grows with nu: L_2^5 (nu = 1024) at depth 300."""
    from prect.cli import main

    out = tmp_path / "l25.json"
    main(["build", "--family", "l2k", "--k", "5", "--out", str(out)])
    proc = _run_python("-c", _SHALLOW_RUN, str(out))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout)["details"]["chromatic"]["exact"] == 32


def test_cli_analyze_refuses_past_its_vertex_bound(tmp_path, capsys):
    from prect.cli import main

    out = tmp_path / "r2128.json"
    main(["build", "--family", "subplane", "--p", "2", "--k", "7", "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", "--graph", str(out)]) == 2
    assert capsys.readouterr().err == ("error: analysis limited to 4096 vertices, "
                                       "the model has 16384\n")
