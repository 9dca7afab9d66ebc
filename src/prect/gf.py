"""Exact arithmetic in GF(p^m), subfield membership, and subfield coordinates.

Elements are residue classes of GF(p)[x] modulo a canonical irreducible
polynomial.  The coefficient vector (c0, c1, ..., c_{m-1}), constant term
first, is encoded as the integer sum(c_i * p**i); all arithmetic is exact
integer work on these codes.  Products, inverses and powers are lookups in
two discrete-log arrays for the least primitive element, exp and log, which
each field builds on first use from the polynomial product.

The modulus is always the lexicographically least monic irreducible of its
degree (lexicographic on the constant-first coefficient vector), so element
codes are reproducible across runs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, product

# A field's check and its coefficient code and its inverse live in _util, so
# that the model reader and writer apply them without loading this module;
# MAX_ORDER and is_prime are also served from here.
from ._util import (MAX_ORDER, FieldError, add_digits, check_field, field_code,  # noqa: F401
                    field_digits, is_prime)


# -- polynomial helpers over GF(p); coefficient lists, constant term first --

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    """Remainder of a modulo a monic polynomial mod."""
    a = list(a)
    _poly_trim(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
    return a


def _is_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_mod(f, g, p):
                return False
    return True


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over GF(p).

    For m = 1 this is the degenerate modulus x, so elements are plain
    residues mod p.
    """
    if m == 1:
        return (0, 1)
    for tail in product(range(p), repeat=m):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


class FieldCtx:
    """A field GF(p^m) with its canonical modulus, acting on element codes.

    Immutable after construction apart from internal caches; all operations
    are pure.  Create contexts with field_make, which memoizes them.
    """

    def __init__(self, p: int, m: int):
        check_field(p, m)
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = canonical_modulus(p, m)
        self._subfield_cache = {}

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.m}))" if self.m > 1 else f"FieldCtx(GF({self.p}))"

    # -- integer-coded element helpers --

    def decode(self, code: int) -> tuple[int, ...]:
        return field_digits(code, self.p, self.m)

    def encode(self, coeffs) -> int:
        return field_code(coeffs, self.p, self.m)

    def format_code(self, code: int) -> str:
        """Polynomial label in the generator g: "0", "1+2g", "g^3"."""
        terms = []
        for i, c in enumerate(self.decode(code)):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}g" if i == 1 else f"{head}g^{i}")
        return "+".join(terms) if terms else "0"

    def add_codes(self, a: int, b: int) -> int:
        return add_digits(a, b, self.p, self.m)

    def neg_code(self, a: int) -> int:
        return self.mul_codes(a, self.p - 1)

    def sub_codes(self, a: int, b: int) -> int:
        return self.add_codes(a, self.neg_code(b))

    def _poly_product(self, a: int, b: int) -> int:
        prod = _poly_mul(list(self.decode(a)), list(self.decode(b)), self.p)
        rem = _poly_mod(prod, self.modulus, self.p)
        return self.encode(rem + [0] * (self.m - len(rem)))

    @cached_property
    def _dlog(self) -> tuple[list[int], list[int]]:
        """(exp, log) for the least primitive element g, from the polynomial product.

        exp[i] = g^i for 0 <= i < 2(order - 1), so a sum of two logs needs no
        reduction; log[g^i] = i for 0 <= i < order - 1, and log[0] is unused.
        """
        n = self.order - 1
        for g in range(1, self.order):
            exp, x = [1], g
            while x != 1:  # the powers of g up to its multiplicative order
                exp.append(x)
                x = self._poly_product(x, g)
            if len(exp) == n:
                break
        log = [0] * self.order
        for i, x in enumerate(exp):
            log[x] = i
        return exp + exp, log

    def mul_codes(self, a: int, b: int) -> int:
        if a and b:
            exp, log = self._dlog
            return exp[log[a] + log[b]]
        return 0

    def pow_code(self, a: int, e: int) -> int:
        if a:
            exp, log = self._dlog
            return exp[log[a] * e % (self.order - 1)]
        if e < 0:
            raise FieldError("inverse of zero")
        return 0 if e else 1

    def inv_code(self, a: int) -> int:
        if a:
            exp, log = self._dlog
            return exp[self.order - 1 - log[a]]
        raise FieldError("inverse of zero")

    # -- subfields --

    def subfield_degree(self, q: int) -> int:
        """The e with q = p^e and e | m, or raise."""
        for e in range(1, self.m + 1):
            if self.p ** e == q:
                if self.m % e == 0:
                    return e
                break
        raise FieldError(f"{q} is not a subfield order of GF({self.p}^{self.m})")

    def subfield_codes(self, q: int) -> tuple[int, ...]:
        self.subfield_degree(q)
        key = ("codes", q)
        if key not in self._subfield_cache:
            codes = tuple(c for c in range(self.order) if self.pow_code(c, q) == c)
            if len(codes) != q:
                raise FieldError(f"subfield scan for q={q} found {len(codes)} elements")
            self._subfield_cache[key] = codes
        return self._subfield_cache[key]

    def basis_coords_code(self, code: int, q: int) -> tuple[int, ...]:
        """Codes of the k GF(q)-coordinates of code over the basis 1, g, ..., g^(k-1).

        g is the class of x.  The map is GF(q)-linear and bijective onto GF(q)^k.
        It is read from a table of every sum c_0 + c_1*g + ... + c_(k-1)*g^(k-1)
        with c_i in GF(q), built on first use.
        """
        key = ("coords", q)
        if key not in self._subfield_cache:
            k = self.m // self.subfield_degree(q)
            powers = list(accumulate([self.p] * (k - 1), self.mul_codes, initial=1))  # code p is x
            table = {}
            for coords in product(self.subfield_codes(q), repeat=k):
                acc = 0
                for c, gi in zip(coords, powers):
                    acc = self.add_codes(acc, self.mul_codes(c, gi))
                table[acc] = coords
            if len(table) != self.order:
                raise FieldError(f"1, g, ..., g^{k - 1} is not a GF({q})-basis of {self!r}")
            self._subfield_cache[key] = table
        return self._subfield_cache[key][code]


@lru_cache(maxsize=None)
def field_make(p: int, m: int) -> FieldCtx:
    """Build (and memoize) GF(p^m) with its canonical modulus."""
    return FieldCtx(p, m)


def embed_subfield(small: FieldCtx, big: FieldCtx) -> list[int]:
    """Field embedding of GF(p^e) into GF(p^m) with e | m, as a code table.

    The image of the small generator is the least root of the small modulus
    inside the big field, which makes the embedding deterministic.  Returns
    a list mapping every small code to its big code.
    """
    if small.p != big.p:
        raise FieldError("characteristic mismatch")
    if big.m % small.m:
        raise FieldError(f"GF({small.p}^{small.m}) does not embed in GF({big.p}^{big.m})")
    q = small.order
    root = None
    for cand in big.subfield_codes(q):
        acc = 0
        for c in reversed(small.modulus):
            acc = big.add_codes(big.mul_codes(acc, cand), c % big.p)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise FieldError("no root of the small modulus in the big field")
    table = []
    for code in range(q):
        acc = 0
        rpow = 1
        for c in small.decode(code):
            if c:
                acc = big.add_codes(acc, big.mul_codes(c, rpow))
            rpow = big.mul_codes(rpow, root)
        table.append(acc)
    return table
