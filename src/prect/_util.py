"""Small shared helpers for bitmask graph and incidence work."""

from __future__ import annotations

from math import isqrt

# sampled A6's default draws and seed: incidence.check_axioms and verify's options
A6_DEFAULT_SAMPLES = 10 ** 6
A6_DEFAULT_SEED = 0

# gf.FieldCtx sets up its discrete-log arrays by walking the powers of each
# candidate element up to the least primitive one.  Each of the 1,078 fields
# of order up to 2^13 set up within 0.3 s, and 2^14 took 1.4 s (one run
# each, 2-CPU host, Python 3.11).
MAX_ORDER = 1 << 13


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


def check_field(p: int, m: int):
    """Raise FieldError unless GF(p^m) is a field within MAX_ORDER.

    gf.FieldCtx checks its field with this, and the model reader checks a
    file's field with it without loading gf."""
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    if p ** m > MAX_ORDER:  # first, so that trial division never sees a large p
        raise FieldError(f"field order {p}^{m} exceeds bound {MAX_ORDER}")
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")


def field_code(coeffs, p: int, m: int) -> int:
    """The code sum(c_i * p**i) of an element of GF(p^m) given by its m
    coefficients, constant term first, each taken mod p (gf.FieldCtx.encode)."""
    if len(coeffs) != m:
        raise FieldError(f"expected {m} coefficients, got {len(coeffs)}")
    code = 0
    for c in reversed(coeffs):
        code = code * p + (c % p)
    return code


def field_digits(code: int, p: int, m: int) -> tuple[int, ...]:
    """The m coefficients of code, constant term first: field_code's inverse
    (gf.FieldCtx.decode)."""
    return tuple(code // p ** i % p for i in range(m))


def iter_bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def add_digits(a: int, b: int, p: int, digits: int) -> int:
    """Digit-wise sum mod p of two numbers of `digits` base-p digits: GF(p)^digits addition."""
    if p == 2:
        return a ^ b
    out = 0
    mult = 1
    for _ in range(digits):
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += ((ra + rb) % p) * mult
        mult *= p
    return out


def comb2(n: int) -> int:
    return n * (n - 1) // 2


def holders(blocks, n: int) -> list[int]:
    """[v]: the mask of the indices of the blocks that hold v, for v < n.

    Each mask is formed once, from a byte array as long as its highest
    index needs, not by one OR per membership, which copies the mask."""
    indices = [[] for _ in range(n)]
    for j, block in enumerate(blocks):
        for v in block:
            indices[v].append(j)
    masks = []
    for held in indices:
        bits = bytearray(held[-1] // 8 + 1 if held else 0)
        for j in held:
            bits[j >> 3] |= 1 << (j & 7)
        masks.append(int.from_bytes(bits, "little"))
        held.clear()  # so that the lists and the masks are not held at once
    return masks


def meeting(blocks, held: list[int], which) -> list[int]:
    """[i]: the mask of the other blocks that share an element with block i,
    for each i in which (0 for the others); held is holders(blocks, n)."""
    out = [0] * len(blocks)
    for i in which:
        mask = 0
        for v in blocks[i]:
            mask |= held[v]
        out[i] = mask & ~(1 << i)
    return out


class Checks:
    """A report that passes when each of its checks, {name: (expected,
    actual)}, got what it expected."""

    @property
    def ok(self) -> bool:
        return all(e == a for e, a in self.checks.values())

    def mismatches(self) -> dict:
        return {k: v for k, v in self.checks.items() if v[0] != v[1]}


class Verdicts:
    """A report that passes when each of its verdicts, {name: bool}, holds."""

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())


class Translations:
    """The translations of GF(p)^d, acting on masks of nu = p^d vertex bits.

    Vertex x is the vector of its base-p digits, digit i of weight p^i;
    translation by t moves bit x to bit x + t, added digit by digit mod p.
    A graph of lines or H_q(2,k) carries them: row x is row 0 translated by x.
    """

    def __init__(self, p: int, d: int):
        self.p, self.d = p, d
        self.nu = nu = p ** d
        self._moves = []  # [i]: p^i, the vertices whose digit i is p - 1, the rest, (p - 1)p^i
        self._lowest = []  # [t - 1]: the lowest nonzero digit of t, for 0 < t < p^i
        for i in range(d):
            w = p ** i
            tile = sum(1 << x for x in range(0, nu, p * w))
            top = ((1 << w) - 1) * tile << (p - 1) * w
            self._moves.append((w, top, ~top, (p - 1) * w))
            self._lowest = (self._lowest + [i]) * (p - 1) + self._lowest

    def step(self, mask: int, i: int) -> int:
        """mask translated by p^i, the unit vector of digit i: digit i
        goes up by one, and from p - 1 back to 0."""
        w, top, rest, back = self._moves[i]
        return (mask & rest) << w | (mask & top) >> back

    def translates(self, mask: int):
        """mask translated by t, for t = 0..nu-1: translate t is translate
        t - p^i moved by step(., i), i the lowest nonzero digit of t."""
        yield mask
        step = self.step
        last = [mask] * self.d  # [j]: the latest translate by a t whose digits below j are 0
        for i in self._lowest:
            last[:i + 1] = [step(last[i], i)] * (i + 1)
            yield last[0]

    def translate(self, mask: int, t: int) -> int:
        """mask translated by t: step(., i) once for each unit of digit i of t."""
        for i in range(self.d):
            t, a = divmod(t, self.p)
            for _ in range(a):
                mask = self.step(mask, i)
        return mask

    def negate(self, x: int) -> int:
        """The vertex -x, each digit negated mod p."""
        p, y, w = self.p, 0, 1
        while x:
            x, a = divmod(x, p)
            y += -a % p * w
            w *= p
        return y


def translations_of(nu: int) -> Translations | None:
    """The translations of GF(p)^d when nu = p^d for a prime p and d >= 1, else None."""
    if nu < 2:
        return None
    p = next((f for f in range(2, isqrt(nu) + 1) if nu % f == 0), nu)
    d, rest = 0, nu
    while rest % p == 0:
        d, rest = d + 1, rest // p
    return Translations(p, d) if rest == 1 else None
