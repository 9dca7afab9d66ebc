"""Matrix rank, the bilinear forms graphs, and the certified isomorphisms."""

from __future__ import annotations

import random

import pytest

from oracles import (fields, hq2k_with_matrices, isomorphism_by_pairs, translation_group,
                     without_edge)
from prect.bilinear import (BilinearError, BilinearGraph, build_hq2k, certify_isomorphism,
                            line_matrix_map, map_line_to_matrix)
from prect.cliques import enumerate_maximal_cliques
from prect.gf import FieldCtx, field_make
from prect.linegraph import LineGraph, certify_srg, edge_class


def rank2xk(row_a, row_b, ctx: FieldCtx) -> int:
    """Rank of the 2 x k matrix with the given rows of ctx element codes.

    0 for the zero matrix; 1 when the matrix is nonzero and one row is a
    scalar multiple of the other (a zero row counts); 2 otherwise.
    """
    za = all(c == 0 for c in row_a)
    zb = all(c == 0 for c in row_b)
    if za and zb:
        return 0
    if za or zb:
        return 1
    i = next(i for i, c in enumerate(row_a) if c)
    lam = ctx.mul_codes(row_b[i], ctx.inv_code(row_a[i]))
    for a, b in zip(row_a, row_b):
        if ctx.mul_codes(lam, a) != b:
            return 2
    return 1


def matrix_of(h: BilinearGraph, u: int):
    """The two rows of entry codes of vertex u of h: its 2k base-q digits, row A first."""
    digits = []
    for _ in range(2 * h.k):
        u, c = divmod(u, h.q)
        digits.append(c)
    digits.reverse()
    return tuple(digits[:h.k]), tuple(digits[h.k:])


def difference_class(h: BilinearGraph, u: int, v: int):
    """Direction of the rank-1 difference of vertices u and v of h.

    "inf" when the top row of the difference is zero, else the code lam
    with bottom = lam * top.
    """
    ma, mb = matrix_of(h, u), matrix_of(h, v)
    ctx = h.ctx
    da = tuple(ctx.sub_codes(x, y) for x, y in zip(ma[0], mb[0]))
    db = tuple(ctx.sub_codes(x, y) for x, y in zip(ma[1], mb[1]))
    assert rank2xk(da, db, ctx) == 1, (u, v)
    if all(c == 0 for c in da):
        return "inf"
    i = next(i for i, c in enumerate(da) if c)
    return ctx.mul_codes(db[i], ctx.inv_code(da[i]))


def test_rank_examples():
    f2 = field_make(2, 1)
    assert rank2xk((0, 0), (0, 0), f2) == 0
    assert rank2xk((1, 0), (0, 0), f2) == 1
    assert rank2xk((1, 0), (0, 1), f2) == 2


def test_rank_proportional_rows_gf3():
    f3 = field_make(3, 1)
    assert rank2xk((1, 2), (2, 1), f3) == 1   # second row = 2 * first
    assert rank2xk((1, 2), (2, 2), f3) == 2


def test_rank_brute_force_gf3_2x2():
    """rank2xk agrees with a brute-force rank over all 81 matrices."""
    f3 = field_make(3, 1)

    def brute(ra, rb):
        rows = [r for r in (ra, rb) if any(r)]
        if not rows:
            return 0
        if len(rows) == 1:
            return 1
        det = (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % 3
        return 2 if det else 1

    from itertools import product
    for ra in product(range(3), repeat=2):
        for rb in product(range(3), repeat=2):
            assert rank2xk(ra, rb, f3) == brute(ra, rb)


@pytest.mark.parametrize("p,e,k,nu,r", [
    (2, 1, 2, 16, 9),
    (3, 1, 2, 81, 32),
    (2, 1, 3, 64, 21),
    (2, 2, 2, 256, 75),
])
def test_hq2k_shape(p, e, k, nu, r):
    h = build_hq2k(p, e, k)
    assert h.nu == nu
    assert all(h.graph.degree(v) == r for v in range(nu))
    q = p ** e
    assert r == (q + 1) * (q ** k - 1)


def test_hq2k_bound(monkeypatch):
    def built(*args):
        raise AssertionError("H was built past its bound")

    monkeypatch.setattr("prect.bilinear.field_make", built)
    for k in (8, 9):  # q^(2k) = 2^16 and 2^18, past the bound of 2^14
        with pytest.raises(BilinearError, match="beyond bound 16384"):
            build_hq2k(2, 1, k)


def test_hq2k_adjacency_is_rank_one():
    h = build_hq2k(3, 1, 2)
    for u in range(h.nu):
        for v in range(u + 1, h.nu):
            ma, mb = matrix_of(h, u), matrix_of(h, v)
            da = tuple(h.ctx.sub_codes(x, y) for x, y in zip(ma[0], mb[0]))
            db = tuple(h.ctx.sub_codes(x, y) for x, y in zip(ma[1], mb[1]))
            assert h.graph.adjacent(u, v) == (rank2xk(da, db, h.ctx) == 1)


HQ2K_PARAMS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3)]


@pytest.mark.parametrize("p,e,k", HQ2K_PARAMS)
def test_hq2k_matches_matrix_table_oracle(p, e, k):
    h = build_hq2k(p, e, k)
    graph, matrices, index = hq2k_with_matrices(p, e, k)
    assert h.graph.rows == graph.rows
    assert [matrix_of(h, u) for u in range(h.nu)] == matrices
    assert all(index[matrices[u]] == u for u in range(h.nu))


@pytest.mark.parametrize("p,e,k", HQ2K_PARAMS)
def test_hq2k_with_and_without_its_translations(p, e, k):
    """H carries the translations of GF(p)^(2ke), and the vertex-0 paths they
    select give the cliques and the srg certificate of the all-vertex paths."""
    h = build_hq2k(p, e, k)
    group, bare = h.graph.translations, LineGraph(h.nu, h.graph.rows)
    assert (group.p, group.d) == (p, 2 * k * e)
    oracle = translation_group(h.graph)
    assert (oracle.p, oracle.d) == (group.p, group.d)
    assert enumerate_maximal_cliques(h.graph) == enumerate_maximal_cliques(bare)
    q = p ** e
    assert fields(certify_srg(h.graph, q, q ** k)) == fields(certify_srg(bare, q, q ** k))


def test_hq2k_cliques_past_the_uncertified_bound():
    """H_7(2,2), nu = 2401: its (q+1)q^2 point and plane cliques, of size
    q^2 = 49, each listed once, each a clique and none extendable."""
    h = build_hq2k(7, 1, 2)
    cliques = enumerate_maximal_cliques(h.graph)
    assert len(cliques) == 2 * 8 * 49 and {len(c) for c in cliques} == {49}
    assert len(set(cliques)) == len(cliques)
    for c in cliques:
        common = (1 << h.nu) - 1
        for v in c:
            common &= h.graph.rows[v] | 1 << v
        assert common == sum(1 << v for v in c)


@pytest.mark.parametrize("fix,hparams", [
    ("r24", (2, 1, 2)),
    ("r28", (2, 1, 3)),
    ("r39", (3, 1, 2)),
    ("r416", (2, 2, 2)),
])
def test_isomorphism_report_matches_pairwise_oracle(fix, hparams, request):
    """An equal IsoReport, field by field, on the true map and on broken ones:
    two entries swapped, an edge removed on either side, a short map and a
    repeated entry."""
    model = request.getfixturevalue(fix)
    g = request.getfixturevalue("g_" + fix)
    h = build_hq2k(*hparams)
    mapping = line_matrix_map(model, h)
    rng = random.Random(str(hparams))
    cases = [(g, h.graph, mapping), (g, h.graph, mapping[:-1]),
             (g, h.graph, mapping[:-1] + mapping[:1])]
    for _ in range(35):
        broken = list(mapping)
        i, j = rng.sample(range(g.nu), 2)
        broken[i], broken[j] = broken[j], broken[i]
        cases.append((g, h.graph, broken))
    edges = list(g.edges())
    for u, v in rng.sample(edges, 10):
        cases.append((without_edge(g, u, v), h.graph, mapping))
        cases.append((g, without_edge(h.graph, mapping[u], mapping[v]), mapping))
    failures = 0
    for g1, g2, f in cases:
        rep = certify_isomorphism(g1, g2, f)
        assert fields(rep) == fields(isomorphism_by_pairs(g1, g2, f))
        failures += not rep.ok
    assert failures == len(cases) - 1


def test_map_line_to_matrix_examples(r24):
    assert map_line_to_matrix(0, r24) == ((0, 0), (0, 0))    # <0,0,1>
    assert map_line_to_matrix(2 * 4 + 1, r24) == ((0, 1), (1, 0))  # <w,1,1>


def test_map_is_bijective_r24(r24):
    seen = {map_line_to_matrix(i, r24) for i in range(16)}
    assert len(seen) == 16


@pytest.mark.parametrize("fix,hparams", [
    ("r24", (2, 1, 2)),
    ("r28", (2, 1, 3)),
    ("r39", (3, 1, 2)),
    ("r416", (2, 2, 2)),
])
def test_certified_isomorphisms(fix, hparams, request):
    from prect.linegraph import build_line_graph

    model = request.getfixturevalue(fix)
    g = build_line_graph(model)
    h = build_hq2k(*hparams)
    rep = certify_isomorphism(g, h.graph, line_matrix_map(model, h))
    assert rep.ok
    assert rep.pairs_checked == g.nu * (g.nu - 1) // 2


def test_isomorphism_detects_violation(g_r24, r24):
    h = build_hq2k(2, 1, 2)
    mapping = line_matrix_map(r24, h)
    broken = without_edge(g_r24, *next(g_r24.edges()))
    rep = certify_isomorphism(broken, h.graph, mapping)
    assert not rep.ok and rep.witness is not None


def test_isomorphism_rejects_non_bijection(g_r24):
    h = build_hq2k(2, 1, 2)
    rep = certify_isomorphism(g_r24, h.graph, [0] * 16)
    assert not rep.bijective


def test_difference_class_matches_edge_color(r39, g_r39):
    """Zero top row of the difference means an s_inf meeting, otherwise the
    common point lies on s_beta for beta = the row ratio."""
    h = build_hq2k(3, 1, 2)
    mapping = line_matrix_map(r39, h)
    sub = r39.ctx.subfield_codes(r39.q)
    for u in range(g_r39.nu):
        for v in range(u + 1, g_r39.nu):
            if not g_r39.adjacent(u, v):
                continue
            cls = difference_class(h, mapping[u], mapping[v])
            label = r39.special_labels[edge_class(r39, u, v)]
            if cls == "inf":
                assert label == "s_inf"
            else:
                # class lam in H's field corresponds to beta = lam embedded
                assert label == f"s_{sub[cls]}"


def test_hq2k_two_clique_sizes():
    h = build_hq2k(2, 1, 3)   # q=2, k=3: sizes q^k = 8 and q^2 = 4 are distinct
    sizes = {len(c) for c in enumerate_maximal_cliques(h.graph)}
    assert sizes == {8, 4}


def test_h22_clique_sizes_coincide():
    h = build_hq2k(2, 1, 2)   # q^k = q^2 = 4
    sizes = {len(c) for c in enumerate_maximal_cliques(h.graph)}
    assert sizes == {4}
