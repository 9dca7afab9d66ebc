"""Small shared helpers for bitmask graph and incidence work."""

from __future__ import annotations

from math import isqrt


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

    def shift(self, vertices, t: int) -> list[int]:
        """The vertices translated by t (add_digits), in their order."""
        if self.p == 2:  # add_digits's XOR, inlined: a call a vertex cost R(8,64)'s geometry 10%
            return [x ^ t for x in vertices]
        p, d = self.p, self.d
        return [add_digits(x, t, p, d) for x in vertices]


def translations_of(nu: int) -> Translations | None:
    """The translations of GF(p)^d when nu = p^d for a prime p and d >= 1, else None."""
    if nu < 2:
        return None
    p = next((f for f in range(2, isqrt(nu) + 1) if nu % f == 0), nu)
    d, rest = 0, nu
    while rest % p == 0:
        d, rest = d + 1, rest // p
    return Translations(p, d) if rest == 1 else None
