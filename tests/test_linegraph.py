"""Line graph construction, strong regularity, diameter, connectivity."""

from __future__ import annotations

import numpy as np
import pytest

from prect.construct import build_subplane_rect, common_point
from prect.incidence import order_of
from prect.linegraph import (GraphError, LineGraph, build_line_graph, certify_srg,
                             diameter, expected_srg_parameters, factorization_check,
                             vertex_connectivity)


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
    assert expected_srg_parameters(2, 4) == (16, 9, 4, 6)
    assert expected_srg_parameters(3, 9) == (81, 32, 13, 12)


def test_adjacency_from_common_point_matches_sets(r24, g_r24):
    nu = g_r24.nu
    for u in range(nu):
        for v in range(u + 1, nu):
            cp = common_point(u, v, r24)
            assert (cp is not None) == g_r24.adjacent(u, v)
            if cp is not None:
                pos = r24.special_position(cp.special_line)
                assert g_r24.color_of(u, v) == pos


def test_a_squared_identity(g_l22):
    # A^2 = r*I + lam*A + mu*(J - I - A) entrywise over the integers
    a = g_l22.adjacency_matrix()
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
    rep = factorization_check(g, m, n)
    assert rep.ok
    assert rep.num_classes == m + 1
    assert all(d == {n - 1} for d in rep.class_degrees.values())


def test_color_classes_partition_edges(g_l22):
    assert len(g_l22.edge_colors) == g_l22.num_edges
    per_color = {}
    for c in g_l22.edge_colors.values():
        per_color[c] = per_color.get(c, 0) + 1
    # three classes, (n-1)-regular means nu*(n-1)/2 edges each
    assert per_color == {0: 24, 1: 24, 2: 24}


def test_vertex_connectivity_exact_l22(g_l22):
    res = vertex_connectivity(g_l22, "exact")
    assert res.value == 9 and res.mode == "exact"


def test_vertex_connectivity_k4(g_pp2):
    assert vertex_connectivity(g_pp2, "exact").value == 3


def test_vertex_connectivity_cited(g_r39):
    res = vertex_connectivity(g_r39, "cited")
    assert res.value == 32 and res.provenance == "by theorem"


def test_vertex_connectivity_bound(g_r39):
    with pytest.raises(GraphError):
        vertex_connectivity(g_r39, "exact")


def test_connectivity_drops_after_edge_removal(g_pp2):
    g = g_pp2.copy_without_edge(0, 1)
    assert vertex_connectivity(g, "exact").value == 2


def test_srg_fails_with_witness_after_edge_removal(g_l22):
    cert = certify_srg(g_l22.copy_without_edge(0, 1), 2, 4)
    assert not cert.ok
    assert cert.witness is not None


def _numpy_srg_reference(rows, m, n):
    """Verdicts and first witness of the srg checks, recomputed with numpy.

    Degree, then common neighbors ((A A^T)[u,w] over u < w against lam or
    mu), then the identity (A - tau1*I)(A - tau2*I) = mu*J, each witness the
    first failure that np.argwhere finds in row-major order.
    """
    nu, r, lam, mu = expected_srg_parameters(m, n)
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
        mutated = LineGraph(g.nu, rows)
        cert = certify_srg(mutated, m, n)
        verdicts, witness, spectral = _numpy_srg_reference(rows, m, n)
        assert spectral is not None
        assert {k: cert.verdicts[k] for k in verdicts} == verdicts
        assert not cert.ok
        assert cert.witness == witness
        _, _, lam, mu = expected_srg_parameters(m, n)
        assert _square_check(rows, lam, mu, n - m - 1, -(m + 1))[1] == spectral


def test_importing_the_cli_leaves_numpy_unloaded():
    # nor scipy: no CLI path uses either
    import os
    import subprocess
    import sys
    from pathlib import Path

    import prect

    src = str(Path(prect.__file__).resolve().parent.parent)
    code = "import sys, prect.cli; print('numpy' in sys.modules, 'scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False False"
