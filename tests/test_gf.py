"""Field arithmetic: canonical moduli, ops, subfields, basis coordinates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prect.gf import FieldCtx, FieldError, canonical_modulus, embed_subfield, field_make


def brute_least_irreducible_quadratic(p):
    """Independent oracle: enumerate monic quadratics, test by rootlessness."""
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic found")


def test_prime_field_degenerate_modulus():
    f2 = field_make(2, 1)
    assert f2.modulus == (0, 1)
    assert f2.add_codes(1, 1) == 0


def test_gf4_modulus_is_unique_irreducible():
    assert field_make(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_matches_enumeration_oracle():
    assert field_make(3, 2).modulus == brute_least_irreducible_quadratic(3)
    assert field_make(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("p,m", [(2, 3), (2, 4), (3, 3), (5, 2)])
def test_canonical_modulus_is_least_monic_irreducible(p, m):
    from itertools import product

    from prect.gf import _is_irreducible

    mod = canonical_modulus(p, m)
    assert mod[-1] == 1 and len(mod) == m + 1
    assert _is_irreducible(list(mod), p)
    for tail in product(range(p), repeat=m):
        f = list(tail) + [1]
        if tuple(f) == mod:
            break
        assert not _is_irreducible(f, p), f"{f} is irreducible and smaller"


def test_field_make_rejects_bad_parameters():
    with pytest.raises(FieldError):
        field_make(4, 1)
    with pytest.raises(FieldError):
        field_make(2, 0)
    with pytest.raises(FieldError):
        field_make(2, 25)  # 2^25 over the default bound


def test_gf4_multiplication_forced_by_modulus():
    f4 = field_make(2, 2)
    w = 2  # the class of x
    assert f4.decode(f4.mul_codes(w, w)) == (1, 1)   # w^2 = w + 1
    assert f4.add_codes(w, w) == 0


def test_gf9_prime_subfield_arithmetic():
    f9 = field_make(3, 2)
    assert f9.mul_codes(2, 2) == 1


def test_inverse_of_zero():
    with pytest.raises(FieldError):
        field_make(2, 2).inv_code(0)


def test_format_code_polynomial_labels():
    assert field_make(2, 4).format_code(0) == "0"
    assert field_make(3, 2).format_code(1 + 2 * 3) == "1+2g"
    assert field_make(2, 4).format_code(8) == "g^3"


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive_small(p, m):
    ctx = field_make(p, m)
    add, mul = ctx.add_codes, ctx.mul_codes
    elems = range(ctx.order)
    for x in elems:
        assert add(x, 0) == x and mul(x, 1) == x
        assert add(x, ctx.neg_code(x)) == 0
        if x:
            assert mul(x, ctx.inv_code(x)) == 1
        for y in elems:
            assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
    # associativity / distributivity on a coarser grid
    grid = elems[:: max(1, len(elems) // 6)]
    for x in grid:
        for y in grid:
            for z in grid:
                assert add(add(x, y), z) == add(x, add(y, z))
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
                assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1))
def test_field_axioms_randomized_gf81(a, b, c):
    ctx = field_make(3, 4)
    add, mul = ctx.add_codes, ctx.mul_codes
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_frobenius_fixes_whole_field(p, m):
    ctx = field_make(p, m)
    for x in range(ctx.order):
        assert ctx.pow_code(x, p ** m) == x


def in_subfield(ctx: FieldCtx, code: int, q: int) -> bool:
    """x^q = x, after checking that q is a subfield order of ctx."""
    ctx.subfield_degree(q)
    return ctx.pow_code(code, q) == code


def test_in_subfield_basics():
    f4 = field_make(2, 2)
    assert in_subfield(f4, 1, 2)
    assert not in_subfield(f4, 2, 2)  # the class of x
    with pytest.raises(FieldError):
        in_subfield(f4, 1, 3)


def test_gf16_over_gf4_exactly_four_fixed_points():
    f16 = field_make(2, 4)
    fixed = [x for x in range(16) if in_subfield(f16, x, 4)]
    assert len(fixed) == 4


@pytest.mark.parametrize("p,m,q", [(2, 2, 2), (2, 4, 4), (3, 2, 3), (2, 3, 2),
                                   (3, 4, 9), (2, 6, 8)])
def test_in_subfield_agrees_with_canonical_embedding(p, m, q):
    big = field_make(p, m)
    e = 1
    while p ** e != q:
        e += 1
    small = field_make(p, e)
    image = set(embed_subfield(small, big))
    members = {x for x in range(big.order) if in_subfield(big, x, q)}
    assert image == members


def test_basis_coords_examples():
    f4 = field_make(2, 2)
    assert f4.basis_coords_code(2, 2) == (0, 1)  # the class of x
    assert f4.basis_coords_code(0, 2) == (0, 0)


def test_basis_coords_gf9_linearity_exhaustive():
    f9 = field_make(3, 2)
    add, mul = f9.add_codes, f9.mul_codes
    elems = range(9)
    for x in elems:
        for y in elems:
            bx = f9.basis_coords_code(x, 3)
            by = f9.basis_coords_code(y, 3)
            bxy = f9.basis_coords_code(add(x, y), 3)
            assert all(add(u, v) == w for u, v, w in zip(bx, by, bxy))
    for lam in f9.subfield_codes(3):
        for x in elems:
            bx = f9.basis_coords_code(x, 3)
            blx = f9.basis_coords_code(mul(lam, x), 3)
            assert all(mul(lam, u) == v for u, v in zip(bx, blx))


@pytest.mark.parametrize("p,e,k", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)])
def test_basis_coords_bijection_and_reconstruction(p, e, k):
    ctx = field_make(p, e * k)
    q = p ** e
    seen = set()
    g = p  # the class of x
    for x in range(ctx.order):
        coords = ctx.basis_coords_code(x, q)
        assert all(in_subfield(ctx, c, q) for c in coords)
        seen.add(coords)
        acc = 0
        for i, c in enumerate(coords):
            acc = ctx.add_codes(acc, ctx.mul_codes(c, ctx.pow_code(g, i)))
        assert acc == x
    assert len(seen) == q ** k
