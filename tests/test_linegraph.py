"""Line graph construction, strong regularity, diameter, connectivity."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prect
from oracles import (CAYLEY_LADDER, adjacency_matrix, cayley_prime, colored_line_graph,
                     common_point, diameter, digit_sum, factorization_check, fields,
                     graph_from_edges, ladder_model, translation_group, vertex_connectivity,
                     without_edge)
from prect._util import iter_bits
from prect.construct import RectangleModel, build_l2k, build_subplane_rect
from prect.incidence import IncidenceStructure, order_of
from prect.linegraph import LineGraph, SrgCertificate, build_line_graph, certify_srg, edge_class


def test_l22_graph_shape(g_l22):
    assert g_l22.nu == 16
    assert all(g_l22.degree(v) == 9 for v in range(16))


def test_l23_graph_shape(g_l23):
    assert g_l23.nu == 64
    assert all(g_l23.degree(v) == 21 for v in range(64))


def test_trivial_plane_gives_k4(g_pp2):
    assert g_pp2.nu == 4 and g_pp2.is_complete()


@pytest.mark.parametrize("fix,m,n,params", [
    ("g_l22", 2, 4, (16, 9, 4, 6)),
    ("g_l23", 2, 8, (64, 21, 8, 6)),
    ("g_r39", 3, 9, (81, 32, 13, 12)),
    ("g_r416", 4, 16, (256, 75, 26, 20)),
])
def test_certify_srg_parameters(fix, m, n, params, request):
    g = request.getfixturevalue(fix)
    cert = certify_srg(g, m, n)
    assert cert.parameters == params
    assert cert.ok, cert.verdicts


def test_expected_parameters_formulas():
    """SrgCertificate(m, n) holds the closed forms of (m, n) on every rung,
    and no verdict until certify_srg gives them."""
    assert SrgCertificate(2, 4).parameters == (16, 9, 4, 6)
    assert SrgCertificate(3, 9).parameters == (81, 32, 13, 12)
    for name in CAYLEY_LADDER:
        m, n = order_of(ladder_model(name).structure)
        cert = SrgCertificate(m, n)
        assert (cert.m, cert.n, cert.nu, cert.r, cert.lam, cert.mu) == \
            (m, n, n * n, (m + 1) * (n - 1), n + (m + 1) * (m - 2), m * (m + 1)), name
        assert (cert.tau0, cert.tau1, cert.tau2) == ((m + 1) * (n - 1), n - m - 1, -(m + 1))
        assert cert.multiplicities == (1, (m + 1) * (n - 1), (n - m) * (n - 1))
        assert (cert.verdicts, cert.witness) == ({}, None)


def test_adjacency_from_common_point_matches_sets(r24, g_r24):
    nu = g_r24.nu
    for u in range(nu):
        for v in range(u + 1, nu):
            cp = common_point(u, v, r24)
            assert (cp is not None) == g_r24.adjacent(u, v)
            if cp is not None:
                assert edge_class(r24, u, v) == cp.special_position


def test_a_squared_identity(g_l22):
    # A^2 = r*I + lam*A + mu*(J - I - A) entrywise over the integers
    a = adjacency_matrix(g_l22)
    nu = g_l22.nu
    r, lam, mu = 9, 4, 6
    eye = np.eye(nu, dtype=np.int64)
    j = np.ones((nu, nu), dtype=np.int64)
    assert (a @ a == r * eye + lam * a + mu * (j - eye - a)).all()


def test_handshake(g_l23):
    assert 64 * 21 % 2 == 0
    assert g_l23.num_edges == 64 * 21 // 2


def test_diameter_values(g_l22, g_pp2):
    assert diameter(g_l22) == 2
    assert diameter(g_pp2) == 1


def test_diameter_r327():
    model = build_subplane_rect(3, 1, 3)
    assert order_of(model.structure) == (3, 27)
    g = build_line_graph(model)
    assert g.nu == 729
    assert diameter(g) == 2


@pytest.mark.parametrize("fix,m,n", [
    ("g_r24", 2, 4), ("g_r39", 3, 9), ("g_r28", 2, 8),
])
def test_factorization_classes(fix, m, n, request):
    g = request.getfixturevalue(fix)
    rep = factorization_check(g, request.getfixturevalue(fix.removeprefix("g_")))
    assert rep.ok
    assert rep.num_classes == m + 1
    assert all(d == {n - 1} for d in rep.class_degrees.values())


def test_color_classes_partition_edges(l22, g_l22):
    classes = [edge_class(l22, u, v) for u, v in g_l22.edges()]
    assert len(classes) == g_l22.num_edges
    per_color = {}
    for c in classes:
        per_color[c] = per_color.get(c, 0) + 1
    # three classes, (n-1)-regular means nu*(n-1)/2 edges each
    assert per_color == {0: 24, 1: 24, 2: 24}


def _with_lines(model: RectangleModel, lines) -> RectangleModel:
    s = model.structure
    structure = IncidenceStructure(s.points, lines, s.special_point)
    return RectangleModel(structure, model.p, model.e, model.k,
                          special_labels=model.special_labels, point_coords=model.point_coords,
                          line_coeffs=model.line_coeffs, special_coeffs=model.special_coeffs)


def _moved_point(model: RectangleModel, rng: random.Random) -> RectangleModel:
    """model with one point moved from one ordinary line to another, which breaks A1."""
    lines = [list(t) for t in model.structure.lines]
    while True:
        l1, l2 = rng.sample(range(model.num_ordinary_lines), 2)
        x = rng.choice(lines[l1])
        if x not in lines[l2]:
            break
    lines[l1].remove(x)
    lines[l2].append(x)
    return _with_lines(model, lines)


def _special_point_dropped(model: RectangleModel, rng: random.Random) -> RectangleModel:
    """model with one ordinary point taken off its special line, so it has no class."""
    s = model.structure
    lines = [list(t) for t in s.lines]
    i, p = rng.choice([(i, p) for i in s.special_lines for p in lines[i]
                       if p != s.special_point])
    lines[i].remove(p)
    return _with_lines(model, lines)


def _line_absorbed(model: RectangleModel, rng: random.Random) -> RectangleModel:
    """model with six points taken off their special lines, then one ordinary line
    joined to another, so that pairs of lines share three or more points."""
    for _ in range(6):
        model = _special_point_dropped(model, rng)
    lines = [list(t) for t in model.structure.lines]
    l1, l2 = rng.sample(range(model.num_ordinary_lines), 2)
    lines[l2] = sorted(set(lines[l2]) | set(lines[l1]))
    return _with_lines(model, lines)


def _classless_point_added(model: RectangleModel, rng: random.Random) -> RectangleModel:
    """model with a point x of the lowest special line taken off it and added to an
    ordinary line l.  The lines through x meet l at x first, of no class, and
    then at a later point of some class, which builds without error."""
    s = model.structure
    lines = [list(t) for t in s.lines]
    first = lines[s.special_lines[0]]
    x = rng.choice([p for p in first if p != s.special_point])
    first.remove(x)
    rng.choice([t for t in lines[:model.num_ordinary_lines] if x not in t]).append(x)
    return _with_lines(model, lines)


def _graph_outcome(model: RectangleModel):
    """(rows, edge class of each edge) from the library."""
    g = build_line_graph(model)
    return g.rows, {(u, v): edge_class(model, u, v) for u, v in g.edges()}


def _oracle_outcome(model: RectangleModel):
    g, colors = colored_line_graph(model)
    return g.rows, colors


def _meets_twice(model: RectangleModel, u: int, v: int) -> bool:
    s = model.structure
    return (s.line_masks[u] & s.line_masks[v] & ~(1 << s.special_point)).bit_count() > 1


def test_build_line_graph_matches_pairwise_oracle():
    """Same rows and edge classes as the pair-by-pair colored build, on valid
    models and A1-broken mutants: a moved point, with or without a point of
    no class, and a line absorbed into another after several points lose
    their class, and a point of no class added to a line.  An edge between
    lines that share two or more points, or meet in a point of no class,
    has class None."""
    models = [build_l2k(2), build_l2k(3), build_l2k(4), build_subplane_rect(2, 1, 2),
              build_subplane_rect(3, 1, 2), build_subplane_rect(2, 1, 3),
              build_subplane_rect(2, 2, 2), build_subplane_rect(7, 1, 1)]
    for model in models:
        got = _graph_outcome(model)
        assert not isinstance(got, str) and None not in got[1].values()
        assert got == _oracle_outcome(model)
    rng = random.Random(11)
    twice = classless = 0
    for i in range(160):
        model = models[i % len(models)]
        if i % 4 == 3:  # a point with no class, then a moved point
            model = _special_point_dropped(model, rng)
        mutant = _moved_point(model, rng)
        got = _graph_outcome(mutant)
        assert got == _oracle_outcome(mutant), i
        twice += any(_meets_twice(mutant, u, v) for u, v in got[1])
    for i in range(80):
        mutant = _line_absorbed(models[i % len(models)], rng)
        got = _graph_outcome(mutant)
        assert got == _oracle_outcome(mutant), i
        assert all(c is None for (u, v), c in got[1].items() if _meets_twice(mutant, u, v))
    for model in models:
        mutant = _classless_point_added(model, rng)
        got = _graph_outcome(mutant)
        assert got == _oracle_outcome(mutant)
        classless += None in got[1].values()
    assert twice >= 100 and classless == len(models)


def test_vertex_connectivity_exact_l22(g_l22):
    assert vertex_connectivity(g_l22) == 9


def test_vertex_connectivity_k4(g_pp2):
    assert vertex_connectivity(g_pp2) == 3


def test_vertex_connectivity_r39_is_its_degree(g_r39):
    """Connectivity r, which demo 02 cites from the srg theorem, counted exactly."""
    assert vertex_connectivity(g_r39) == 32 == g_r39.degree(0)


def test_connectivity_drops_after_edge_removal(g_pp2):
    g = without_edge(g_pp2, 0, 1)
    assert vertex_connectivity(g) == 2


def _maxflow_connectivity(g):
    """Vertex connectivity by scipy's max-flow on the vertex-split network,
    minimized over every non-adjacent pair."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    nu = g.nu
    if g.is_complete():
        return nu - 1
    rows_idx, cols_idx, caps = [], [], []
    for v in range(nu):
        rows_idx.append(v)          # v_in -> v_out, capacity 1
        cols_idx.append(v + nu)
        caps.append(1)
    for u, v in g.edges():
        rows_idx += [u + nu, v + nu]
        cols_idx += [v, u]
        caps += [nu, nu]            # any capacity >= nu acts as infinity here
    mat = csr_matrix((caps, (rows_idx, cols_idx)), shape=(2 * nu, 2 * nu))
    return min((maximum_flow(mat, s + nu, t).flow_value
                for s in range(nu) for t in range(s + 1, nu) if not g.adjacent(s, t)),
               default=nu - 1)


def test_vertex_connectivity_matches_maxflow_oracle(g_l22, g_pp2, g_l23):
    rng = random.Random(5)
    graphs = [g_l22, g_pp2, without_edge(g_pp2, 0, 1), g_l23]
    for _ in range(120):
        nu = rng.randint(2, 20)
        density = rng.random()
        graphs.append(graph_from_edges(nu, [(u, v) for u in range(nu) for v in range(u + 1, nu)
                                            if rng.random() < density]))
    values = [vertex_connectivity(g) for g in graphs]
    assert values == [_maxflow_connectivity(g) for g in graphs]
    assert values[:4] == [9, 3, 2, 21]
    assert values.count(0) >= 10 and max(values[4:]) >= 10  # disconnected and dense cases


def test_library_runs_without_numpy_and_scipy(tmp_path):
    src = Path(prect.__file__).resolve().parent.parent
    demo = src.parent / "demos" / "02_line_graph_strong_regularity.py"
    code = """if True:
        import importlib, pkgutil, runpy, sys
        sys.modules["numpy"] = sys.modules["scipy"] = None  # any import of them fails
        import prect
        for mod in pkgutil.iter_modules(prect.__path__):
            importlib.import_module("prect." + mod.name)
        from prect.cli import main
        assert main(["build", "--family", "l2k", "--k", "2", "--out", "l22.json"]) == 0
        assert main(["verify", "l22.json", "--profile", "full"]) == 0
        runpy.run_path(sys.argv[1], run_name="__main__")
        print("stdlib only")
    """
    proc = subprocess.run([sys.executable, "-c", code, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "stdlib only"


def test_srg_fails_with_witness_after_edge_removal(g_l22):
    cert = certify_srg(without_edge(g_l22, 0, 1), 2, 4)
    assert not cert.ok
    assert cert.witness is not None


def _numpy_srg_reference(rows, m, n):
    """Verdicts and first witness of the srg checks, recomputed with numpy.

    Degree, then common neighbors ((A A^T)[u,w] over u < w against lam or
    mu), then the identity (A - tau1*I)(A - tau2*I) = mu*J, each witness the
    first failure that np.argwhere finds in row-major order.
    """
    nu, r, lam, mu = n * n, (m + 1) * (n - 1), n + (m + 1) * (m - 2), m * (m + 1)
    tau1, tau2 = n - m - 1, -(m + 1)
    a = np.zeros((nu, nu), dtype=np.int64)
    for u, row in enumerate(rows):
        for w in range(nu):
            a[u, w] = row >> w & 1
    eye = np.eye(nu, dtype=np.int64)
    degrees = a.sum(axis=1)
    common = a @ a.T
    pair_bad = np.triu(common != np.where(a == 1, lam, mu), k=1)
    lhs = (a - tau1 * eye) @ (a - tau2 * eye)
    verdicts = {"degree_regular": bool((degrees == r).all()),
                "common_neighbor_counts": not pair_bad.any(),
                "spectral_identity": bool((lhs == mu).all())}
    witnesses = []
    if not verdicts["degree_regular"]:
        v = int(np.argwhere(degrees != r)[0][0])
        witnesses.append({"check": "degree", "vertex": v, "actual": int(degrees[v])})
    if not verdicts["common_neighbor_counts"]:
        u, w = (int(x) for x in np.argwhere(pair_bad)[0])
        witnesses.append({"check": "common_neighbors", "pair": (u, w),
                          "adjacent": bool(a[u, w]),
                          "expected": lam if a[u, w] else mu, "actual": int(common[u, w])})
    spectral = None
    if not verdicts["spectral_identity"]:
        u, w = (int(x) for x in np.argwhere(lhs != mu)[0])
        spectral = {"check": "spectral_identity", "entry": (u, w),
                    "actual": int(lhs[u, w]), "expected": mu}
        witnesses.append(spectral)
    return verdicts, (witnesses[0] if witnesses else None), spectral


def _remove_edge(rows, u, w):
    rows[u] &= ~(1 << w)
    rows[w] &= ~(1 << u)


def _flip_one_side(rows, u, w):
    rows[u] ^= 1 << w


def _self_loop(rows, u, w):
    rows[u] |= 1 << u


@pytest.mark.parametrize("mutate", [_remove_edge, _flip_one_side, _self_loop])
@pytest.mark.parametrize("fix,m,n", [("g_l22", 2, 4), ("g_l23", 2, 8)])
def test_srg_matches_numpy_reference_on_mutations(fix, m, n, mutate, request):
    """The entrywise A^2 check gives numpy's verdicts and witnesses."""
    from prect.linegraph import _square_check

    g = request.getfixturevalue(fix)
    for u, w in [(0, 1), (3, 11), (g.nu - 1, 5)]:
        if mutate is _remove_edge and not g.adjacent(u, w):
            continue
        rows = list(g.rows)
        mutate(rows, u, w)
        mutated = LineGraph(rows)
        cert = certify_srg(mutated, m, n)
        verdicts, witness, spectral = _numpy_srg_reference(rows, m, n)
        assert spectral is not None
        assert {k: cert.verdicts[k] for k in verdicts} == verdicts
        assert not cert.ok
        assert cert.witness == witness
        assert _square_check(rows, m * (m + 1), n - m - 1, -(m + 1))[1] == spectral


def test_importing_the_cli_leaves_numpy_unloaded():
    # nor scipy: no CLI path uses either
    src = str(Path(prect.__file__).resolve().parent.parent)
    code = "import sys, prect.cli; print('numpy' in sys.modules, 'scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False False"


# -- translation certificate: the graph of lines as a Cayley graph --

def _renumbered(g: LineGraph, a: int, b: int) -> LineGraph:
    """g with the numbers of vertices a and b exchanged."""
    perm = list(range(g.nu))
    perm[a], perm[b] = b, a
    rows = [0] * g.nu
    for u in range(g.nu):
        rows[perm[u]] = sum(1 << perm[v] for v in iter_bits(g.rows[u]))
    return LineGraph(rows)


def _cayley_without(g: LineGraph, p: int, s: int) -> LineGraph:
    """The Cayley graph g on GF(p)^d with s and -s dropped from N(0),
    certified by the oracle's translation_group."""
    d = 0
    while p ** d < g.nu:
        d += 1
    minus_s = sum(-(s // p ** i) % p * p ** i for i in range(d))
    rows = list(g.rows)
    for x in range(g.nu):
        for t in (s, minus_s):
            rows[x] &= ~(1 << digit_sum(x, t, p, d))
    h = LineGraph(rows)
    h.translations = translation_group(h)
    return h


@pytest.mark.parametrize("name", list(CAYLEY_LADDER))
def test_translation_group_matches_digit_addition_oracle(name):
    g = build_line_graph(ladder_model(name))
    group = translation_group(g)
    assert group is not None and group.p == cayley_prime(g)
    assert (group.p, group.d) == (g.translations.p, g.translations.d)
    for bad in (_renumbered(g, 0, g.nu - 1), _renumbered(g, 1, 2)):
        assert translation_group(bad) is cayley_prime(bad) is None or g.is_complete(), name
    assert translation_group(without_edge(g, 0, g.rows[0].bit_length() - 1)) is None


def test_a_graph_has_one_vertex_a_row(g_l22, g_r39):
    """nu is the number of rows, for hand-built, built and empty graphs, so
    no vertex loop can run past the rows."""
    for g in (graph_from_edges(3, [(0, 1)]), LineGraph([0b10, 0b01]), g_l22, g_r39,
              LineGraph([])):
        assert g.nu == len(g.rows)
    assert list(LineGraph([0b10, 0b01]).edges()) == [(0, 1)]


def test_srg_certificate_top_eigenvalue_is_its_degree(g_l22, g_r39):
    for g, m, n in ((g_l22, 2, 4), (g_r39, 3, 9)):
        cert = certify_srg(g, m, n)
        assert cert.ok and cert.tau0 == cert.r == (m + 1) * (n - 1)


def test_translation_group_on_small_graphs():
    cycle = lambda nu: graph_from_edges(nu, [(v, (v + 1) % nu) for v in range(nu)])  # noqa: E731
    looped = LineGraph([0b11, 0b11])
    one_way = LineGraph([0b010, 0b100, 0b001])  # x -> x+1 on GF(3): N(0) != -N(0)
    cases = {"C5": (cycle(5), 5), "C4": (cycle(4), 2), "C6": (cycle(6), None),
             "K2": (graph_from_edges(2, [(0, 1)]), 2), "K1": (LineGraph([0]), None),
             "empty": (LineGraph([]), None), "looped": (looped, None),
             "one-way": (one_way, None)}
    for name, (g, p) in cases.items():
        group = translation_group(g)
        assert (group and group.p) == p == cayley_prime(g), name


@pytest.mark.parametrize("name", list(CAYLEY_LADDER))
def test_srg_certificate_equals_the_all_rows_check(name):
    model = ladder_model(name)
    g = build_line_graph(model)
    m, n = order_of(model.structure)
    cert = certify_srg(g, m, n)
    assert g.translations is not None
    uncertified = LineGraph(g.rows)  # no certificate: every row
    assert fields(certify_srg(uncertified, m, n)) == fields(cert)
    assert cert.ok or m == n


@pytest.mark.parametrize("name", ["L_2^2", "L_2^3", "R(2,4)", "R(3,9)"])
def test_srg_witnesses_on_a_certified_non_srg_graph(name):
    """A Cayley graph that is not srg: row 0 gives the all-rows witnesses."""
    model = ladder_model(name)
    g = build_line_graph(model)
    m, n = order_of(model.structure)
    p = g.translations.p
    for s in (g.rows[0] & -g.rows[0]).bit_length() - 1, g.rows[0].bit_length() - 1:
        h = _cayley_without(g, p, s)
        assert h.translations is not None
        cert = certify_srg(h, m, n)
        verdicts, witness, _ = _numpy_srg_reference(h.rows, m, n)
        assert {k: cert.verdicts[k] for k in verdicts} == verdicts
        assert cert.witness == witness and not cert.ok
        assert fields(certify_srg(LineGraph(h.rows), m, n)) == fields(cert)
