"""Exact arithmetic in GF(p^m), subfield membership, and subfield coordinates.

Elements are residue classes of GF(p)[x] modulo a canonical irreducible
polynomial.  The coefficient vector (c0, c1, ..., c_{m-1}), constant term
first, is encoded as the integer sum(c_i * p**i); all arithmetic is exact
integer work on these codes.  Small fields cache a multiplication table.

The modulus is always the lexicographically least monic irreducible of its
degree (lexicographic on the constant-first coefficient vector), so element
codes are reproducible across runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

MAX_ORDER = 1 << 20
_TABLE_MAX_ORDER = 1 << 10


class FieldError(ValueError):
    """Invalid field parameters or operands."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        if p ** m > MAX_ORDER:
            raise FieldError(f"field order {p}^{m} exceeds bound {MAX_ORDER}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = canonical_modulus(p, m)
        self._mul_table = None
        self._inv_table = None
        self._subfield_cache = {}

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.m}))" if self.m > 1 else f"FieldCtx(GF({self.p}))"

    # -- integer-coded element helpers --

    def decode(self, code: int) -> tuple[int, ...]:
        c = []
        for _ in range(self.m):
            code, r = divmod(code, self.p)
            c.append(r)
        return tuple(c)

    def encode(self, coeffs) -> int:
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

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
        if self.p == 2:
            return a ^ b
        out = 0
        mult = 1
        for _ in range(self.m):
            a, ra = divmod(a, self.p)
            b, rb = divmod(b, self.p)
            out += ((ra + rb) % self.p) * mult
            mult *= self.p
        return out

    def neg_code(self, a: int) -> int:
        if self.p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.m):
            a, ra = divmod(a, self.p)
            out += (-ra % self.p) * mult
            mult *= self.p
        return out

    def sub_codes(self, a: int, b: int) -> int:
        return self.add_codes(a, self.neg_code(b))

    def _mul_codes_direct(self, a: int, b: int) -> int:
        prod = _poly_mul(list(self.decode(a)), list(self.decode(b)), self.p)
        rem = _poly_mod(prod, self.modulus, self.p)
        rem = rem + [0] * (self.m - len(rem))
        return self.encode(rem)

    def mul_codes(self, a: int, b: int) -> int:
        if self.order <= _TABLE_MAX_ORDER:
            if self._mul_table is None:
                self._build_tables()
            return self._mul_table[a * self.order + b]
        return self._mul_codes_direct(a, b)

    def _build_tables(self):
        n = self.order
        table = [0] * (n * n)
        for a in range(n):
            row = a * n
            for b in range(a, n):
                v = self._mul_codes_direct(a, b)
                table[row + b] = v
                table[b * n + a] = v
        self._mul_table = table

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_code(self.inv_code(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_codes(result, base)
            base = self.mul_codes(base, base)
            e >>= 1
        return result

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise FieldError("inverse of zero")
        if self.order <= _TABLE_MAX_ORDER:
            if self._inv_table is None:
                self._inv_table = [0] * self.order
                for x in range(1, self.order):
                    self._inv_table[x] = self.pow_code(x, self.order - 2)
            return self._inv_table[a]
        return self.pow_code(a, self.order - 2)

    # -- subfields --

    def subfield_degree(self, q: int) -> int:
        """The e with q = p^e and e | m, or raise."""
        for e in range(1, self.m + 1):
            if self.p ** e == q:
                if self.m % e == 0:
                    return e
                break
        raise FieldError(f"{q} is not a subfield order of GF({self.p}^{self.m})")

    def in_subfield_code(self, code: int, q: int) -> bool:
        self.subfield_degree(q)
        return self.pow_code(code, q) == code

    def subfield_codes(self, q: int) -> tuple[int, ...]:
        self.subfield_degree(q)
        key = ("codes", q)
        if key not in self._subfield_cache:
            codes = tuple(c for c in range(self.order) if self.pow_code(c, q) == c)
            if len(codes) != q:
                raise FieldError(f"subfield scan for q={q} found {len(codes)} elements")
            self._subfield_cache[key] = codes
        return self._subfield_cache[key]

    def _subfield_setup(self, q: int):
        """Row-reduced GF(p)-machinery for coordinates over GF(q).

        Returns (k, subfield GF(p)-basis codes, inverse change-of-basis rows)
        where the change of basis sends GF(p)-coordinates in the mixed basis
        {s_j * g^i} to plain polynomial coefficients.
        """
        key = ("coords", q)
        if key in self._subfield_cache:
            return self._subfield_cache[key]
        e = self.subfield_degree(q)
        k = self.m // e
        p = self.p

        # GF(p)-basis of the subfield: greedy rank selection over its codes.
        basis = []
        echelon = []  # rows (list of coeffs) in reduced form, with pivot info
        for code in self.subfield_codes(q):
            vec = list(self.decode(code))
            red = vec[:]
            for pivot, row in echelon:
                f = red[pivot]
                if f:
                    red = [(x - f * y) % p for x, y in zip(red, row)]
            piv = next((i for i, x in enumerate(red) if x), None)
            if piv is not None:
                inv = pow(red[piv], p - 2, p)
                red = [(x * inv) % p for x in red]
                echelon.append((piv, red))
                basis.append(code)
            if len(basis) == e:
                break
        if len(basis) != e:
            raise FieldError("subfield basis extraction failed")

        # Columns of M: coefficients of s_j * g^i, ordered i-major.
        gpow = 1
        cols = []
        for _ in range(k):
            for s in basis:
                cols.append(list(self.decode(self.mul_codes(s, gpow))))
            gpow = self.mul_codes(gpow, self.p if self.m > 1 else 1)
        minv = _invert_matrix_modp([list(col) for col in cols], p)
        out = (k, tuple(basis), minv)
        self._subfield_cache[key] = out
        return out

    def basis_coords_code(self, code: int, q: int) -> tuple[int, ...]:
        """Codes of the k GF(q)-coordinates of code over the basis 1, g, ..., g^(k-1).

        g is the class of x.  The map is GF(q)-linear and bijective onto GF(q)^k.
        """
        k, basis, minv = self._subfield_setup(q)
        p = self.p
        vec = self.decode(code)
        sol = [sum(minv[r][c] * vec[c] for c in range(self.m)) % p for r in range(self.m)]
        coords = []
        e = len(basis)
        for i in range(k):
            acc = 0
            for j in range(e):
                cij = sol[i * e + j]
                if cij:
                    acc = self.add_codes(acc, self.mul_codes(cij, basis[j]))
            coords.append(acc)
        return tuple(coords)


def _invert_matrix_modp(cols, p):
    """Invert the matrix whose columns are given, over GF(p).  Rows returned."""
    n = len(cols)
    a = [[cols[c][r] % p for c in range(n)] for r in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise FieldError("singular change-of-basis matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = pow(a[col][col], p - 2, p)
        a[col] = [(x * f) % p for x in a[col]]
        inv[col] = [(x * f) % p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
                inv[r] = [(x - f * y) % p for x, y in zip(inv[r], inv[col])]
    return inv


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
