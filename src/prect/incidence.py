"""Point-line incidence structures and the projective-rectangle axioms.

A projective rectangle is an incidence structure with a special point D
satisfying six axioms:

  A1  every two distinct points lie on exactly one line;
  A2  there are four points, no three collinear;
  A3  every line has at least three points;
  A4  there is a special point D (lines through D are special);
  A5  each special line meets every other line in exactly one point;
  A6  if ordinary lines l1, l2 meet, then any two lines meeting both of
      them in four distinct points meet each other.

Structures here are purely index-based; coordinates live in prect.construct.

The built models number their ordinary lines 0..nu-1 so that translation
of GF(p)^d on the line indices, nu = p^d, extends to incidence
automorphisms fixing D (IncidenceStructure.translations certifies this
from the structure).  Full A6 on a certified structure that passes A1 then
scans only the pairs that start with line 0, and sampled A6 runs that scan
and, when it passes, only counts its draws; any other structure, such as
one whose lines were renumbered, takes the scan over every pair or tests
each draw.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from functools import cached_property
from itertools import groupby

from ._util import Translations, comb2, iter_bits, translations_of

A6_DEFAULT_SAMPLES = 10 ** 6
A6_DEFAULT_SEED = 0
# bytes per draw when sampled A6 keeps the drawn ranks instead of a bitmap:
# an array entry, and a list slot and an int object in its sorted copy
_RANK_BYTES = 48


class StructureError(ValueError):
    """Malformed incidence structure or inconsistent parameters."""


class IncidenceStructure:
    """Points, lines as point-index sets, and a designated special point.

    Lines are stored as sorted duplicate-free tuples.  A line of fewer than
    three points is kept, so that mutated structures can be built; A3
    reports it with its index.
    """

    def __init__(self, points, lines, special_point: int):
        self.points = list(points)
        if len(set(self.points)) != len(self.points):
            raise StructureError("duplicate point labels")
        self.lines = []
        for ln in lines:
            t = tuple(sorted(set(ln)))
            if len(t) != len(tuple(ln)):
                raise StructureError(f"line {ln!r} has duplicate points")
            self.lines.append(t)
        if not 0 <= special_point < len(self.points):
            raise StructureError("special point index out of range")
        self.special_point = special_point

        np_ = len(self.points)
        for t in self.lines:
            if t and not (0 <= t[0] and t[-1] < np_):
                raise StructureError(f"line {t!r} has point index out of range")

        self.line_masks = [sum(1 << p for p in t) for t in self.lines]
        self.lines_at = [[] for _ in range(np_)]
        for i, t in enumerate(self.lines):
            for p in t:
                self.lines_at[p].append(i)
        self.lines_at = [tuple(ls) for ls in self.lines_at]
        self.special_lines = tuple(i for i, t in enumerate(self.lines)
                                   if special_point in t)
        self.ordinary_lines = tuple(i for i, t in enumerate(self.lines)
                                    if special_point not in t)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def is_special_line(self, i: int) -> bool:
        return self.special_point in self.lines[i]

    def special_line_of_point(self, p: int):
        """Index of the unique special line through an ordinary point, if unique."""
        hits = [i for i in self.lines_at[p] if self.is_special_line(i)]
        return hits[0] if len(hits) == 1 else None

    @cached_property
    def translations(self) -> Translations | None:
        """The translations of GF(p)^d on the ordinary lines, if each extends
        to an automorphism of the structure; else None.

        The ordinary lines must be lines 0..nu-1, nu = p^d, line x the vector
        of its base-p digits.  For the translation by p^i, the image of a
        point other than D is the point whose pencil of ordinary lines is
        the translate of its own; pencils must be distinct, so the map is a
        bijection, and D is fixed.  Then P is on line x iff x is in P's
        pencil iff x + p^i is in the image's pencil, so ordinary line x maps
        onto x + p^i; each special line must map onto a special line, and
        the special lines must be distinct.  Computed once per structure;
        costs O(d * incidences).
        """
        nu = len(self.ordinary_lines)
        group = translations_of(nu)
        if group is None or self.ordinary_lines[-1] != nu - 1:
            return None
        D = self.special_point
        pencils = [sum(1 << i for i in ls if i < nu) for ls in self.lines_at]
        point_of = {b: p for p, b in enumerate(pencils) if p != D}
        specials = {self.line_masks[j] for j in self.special_lines}
        if len(point_of) != self.n_points - 1 or len(specials) != len(self.special_lines):
            return None
        for i in range(group.d):
            image = [D] * self.n_points
            for p, b in enumerate(pencils):
                if p != D:
                    q = point_of.get(group.step(b, i))
                    if q is None:
                        return None
                    image[p] = q
            if any(sum(1 << image[p] for p in self.lines[j]) not in specials
                   for j in self.special_lines):
                return None
        return group

    # -- JSON interchange: labels only, geometry lives elsewhere --

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.points),
            "special_point": self.points[self.special_point],
            "lines": [[self.points[p] for p in t] for t in self.lines],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IncidenceStructure":
        points = list(d["points"])
        index = {lab: i for i, lab in enumerate(points)}
        lines = [[index[lab] for lab in ln] for ln in d["lines"]]
        return cls(points, lines, index[d["special_point"]])


class AxiomReport:
    """Per-axiom verdicts with re-checkable witnesses on failure."""

    def __init__(self, a6_mode: str):
        self.verdicts, self.witnesses = {}, {}
        self.a6_mode = a6_mode
        self.a6_coverage: dict | None = None

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def failing(self) -> list[str]:
        return [a for a, v in self.verdicts.items() if not v]


def check_axioms(s: IncidenceStructure, a6_mode: str,
                 a6_samples: int = A6_DEFAULT_SAMPLES,
                 seed: int = A6_DEFAULT_SEED) -> AxiomReport:
    """Verify axioms A1 to A6, returning verdicts and witnesses.

    a6_mode is "full", the whole quadruple enumeration, or "sampled", which
    draws a6_samples quadruples (seeded, uniform over the quadruple space).
    Sampled runs record their coverage of the space; when the space is no
    larger than the sample count they upgrade to exhaustive enumeration,
    which is cheaper and conclusive.

    Full A6 on a structure that passes A1 and whose translations are
    certified scans only the pairs (0, l2).  A translation by -l1 moves any
    failing quadruple to one that starts with line 0, whose block comes
    first in the scan over every pair, so the verdict and the witness are
    those of that scan.  A1 makes the common point of two lines, and so the
    candidates of a pair, commute with the translations.

    Sampled A6 on such a structure runs the same scan first.  If it passes,
    no quadruple of the space fails, so neither does any draw: the verdict
    is true with no witness, every sample is drawn, and the draws are only
    counted, giving the coverage the per-draw test would give.  If the
    scan fails, or the structure is not certified, each draw is tested.
    """
    rep = AxiomReport(a6_mode)
    through = [sum(1 << i for i in ls) for ls in s.lines_at]  # lines through each point

    # A1: every point pair on exactly one line.
    a1_witness = _a1_witness(s)
    rep.verdicts["A1"] = a1_witness is None
    if a1_witness:
        rep.witnesses["A1"] = a1_witness

    # A2: four points, no three collinear.
    witness4 = _find_quadrangle(s, through)
    rep.verdicts["A2"] = witness4 is not None
    if witness4 is not None:
        rep.witnesses["A2"] = {"points": witness4}

    # A3: every line has >= 3 points.
    small = [i for i, t in enumerate(s.lines) if len(t) < 3]
    rep.verdicts["A3"] = not small
    if small:
        rep.witnesses["A3"] = {"lines": small}

    # A4: the special point exists and partitions the lines.
    rep.verdicts["A4"] = True

    # A5: each special line meets every other line exactly once.
    a5_witness = None
    for si in s.special_lines:
        mask = s.line_masks[si]
        for j in range(s.n_lines):
            if j == si:
                continue
            hits = (mask & s.line_masks[j]).bit_count()
            if hits != 1:
                a5_witness = {"special": si, "line": j, "common_points": hits}
                break
        if a5_witness:
            break
    rep.verdicts["A5"] = a5_witness is None
    if a5_witness:
        rep.witnesses["A5"] = a5_witness

    # A6.
    certified = a1_witness is None and s.translations is not None
    if a6_mode == "full" and certified:
        ok6, wit6 = _a6_scan(s, through, _a6_nbr0(s, through), 1)
    elif a6_mode == "full":
        ok6, wit6 = _a6_scan(s, through, _a6_nbr(s, through, range(s.n_lines)))
    elif a6_mode == "sampled":
        ok6, wit6, rep.a6_coverage = _a6_sampled(s, through, a6_samples, seed, certified)
    else:
        raise ValueError(f"unknown a6_mode {a6_mode!r}")
    rep.verdicts["A6"] = ok6
    if wit6:
        rep.witnesses["A6"] = wit6
    return rep


def _a1_witness(s):
    """The first pair on two lines, else the first pair on none, else None.

    The lines through a point p, taken as point masks, must cover every
    other point exactly once: an overlap of two masks is a pair on two
    lines, a point in no mask a pair on none.  Pairs on two lines are
    ordered by the first line holding them, then by pair order within it;
    the first uncovered pair is (p, q) for the least such p, then q.
    """
    masks = s.line_masks
    everyone = (1 << s.n_points) - 1
    twice = {}  # point -> mask of the points it shares two lines with
    gap = None  # the least point missing a partner, and its missing partners
    for p, ls in enumerate(s.lines_at):
        seen = dup = 0
        for i in ls:
            dup |= seen & masks[i]
            seen |= masks[i]
        dup &= ~(1 << p)
        if dup:
            twice[p] = dup
        elif gap is None and seen | 1 << p != everyone:
            gap = p, everyone & ~(seen | 1 << p)
    if twice:
        for i, t in enumerate(s.lines):
            for a in t:
                # a smaller partner on line i would have been found at it already
                both = twice.get(a, 0) & masks[i]
                if both:
                    b = (both & -both).bit_length() - 1
                    lines = [j for j in s.lines_at[a] if masks[j] >> b & 1]
                    return {"pair": (a, b), "lines": lines, "defect": "covered more than once"}
    if gap:
        p, missing = gap
        return {"pair": (p, (missing & -missing).bit_length() - 1), "lines": [],
                "defect": "not covered"}
    return None


def _find_quadrangle(s, through):
    """Four points with no three collinear, or None.

    Points a, b, c are collinear iff some line passes through all three,
    that is iff through[a] & through[b] & through[c] is nonzero.
    """
    np_ = s.n_points
    for a in range(np_):
        ta = through[a]
        for b in range(a + 1, np_):
            tb = through[b]
            tab = ta & tb
            for c in range(b + 1, np_):
                tc = through[c]
                if tab & tc:
                    continue
                pairs = tab | ta & tc | tb & tc  # lines through two of a, b, c
                for d in range(c + 1, np_):
                    if not pairs & through[d]:
                        return (a, b, c, d)
    return None


def _a6_nbr(s, through, lines):
    """nbr[i], the lines meeting line i, for each i in lines (0 for the
    others), from through[p], the lines through point p."""
    nbr = [0] * s.n_lines
    for i in lines:
        mask = 0
        for p in s.lines[i]:
            mask |= through[p]
        nbr[i] = mask & ~(1 << i)
    return nbr


def _a6_nbr0(s, through):
    """nbr of _a6_nbr for line 0 and the lines meeting it: what the pairs
    (0, l2) read."""
    nbr0 = _a6_nbr(s, through, [0])[0]
    return _a6_nbr(s, through, [0, *iter_bits(nbr0)])


def _a6_pairs(s, through, nbr, blocks=None):
    """Yield (l1, l2, cmask) per intersecting ordinary pair, l1 first, for l1
    among the first `blocks` ordinary lines (all of them by default).

    cmask holds the candidate 'transversal' lines of the pair: every line
    other than l1, l2 that meets both, excluding lines through their common
    point (through any of them, should a broken structure give several);
    only those can contribute four distinct intersection points.
    """
    masks = s.line_masks
    olines = s.ordinary_lines
    for x, l1 in enumerate(olines[:blocks]):
        m1, n1 = masks[l1], nbr[l1]
        for l2 in olines[x + 1:]:
            common = m1 & masks[l2]
            if common:
                cmask = n1 & nbr[l2] & ~through[common.bit_length() - 1]
                if common & (common - 1):  # they meet again, so A1 fails
                    cmask = _off_common(cmask, common, through)
                yield l1, l2, cmask


def _off_common(cmask, common, through):
    """cmask without the lines through any point of common."""
    for p in iter_bits(common):
        cmask &= ~through[p]
    return cmask


def _a6_scan(s, through, nbr, blocks=None):
    """Every quadruple of the pairs of _a6_pairs, one pair's candidate list at
    a time, stopping at the first failure.

    Only a g2 that misses g1 can fail, so g2 runs over the candidates above
    g1 outside nbr[g1]; the first failure is the same as over all pairs.
    """
    masks = s.line_masks
    for l1, l2, cmask in _a6_pairs(s, through, nbr, blocks):
        m1, m2 = masks[l1], masks[l2]
        for g1 in iter_bits(cmask):
            miss = cmask & ~nbr[g1] & -(2 << g1)
            if not miss:
                continue
            a1, b1 = (masks[g1] & m1).bit_length(), (masks[g1] & m2).bit_length()
            for g2 in iter_bits(miss):
                # four distinct points (the highest common points differ), yet g1 misses g2
                if (masks[g2] & m1).bit_length() != a1 and (masks[g2] & m2).bit_length() != b1:
                    return False, {"l1": l1, "l2": l2, "g1": g1, "g2": g2}
    return True, None


def _a6_sampled(s, through, samples, seed, certified):
    """Seeded uniform draws over the quadruple space, pair by cumulative weight.

    certified says that A1 holds and the translations are certified.  Then
    the line-0 scan of full A6 runs first, and if it passes, every
    quadruple passes (see check_axioms), so every seeded draw would pass:
    A6 holds with no witness, all samples are drawn, and only the distinct
    ranks among the same draws are counted.  The space comes from line 0,
    nu * sum over l2 of C(candidates(0, l2), 2) / 2: translation by -l1
    maps pair (l1, l2) onto (0, l2 - l1), and the candidate counts are
    symmetric under v -> -v, as (0, v) and (-v, 0) are translates.

    Otherwise one pass stores each intersecting pair and its cumulative
    weight C(candidates, 2), 16 bytes a pair; a draw rebuilds only its own
    pair's candidate mask, picks two of its set bits and tests them.  The
    distinct draws are counted with a bitmap over the space, or, when that
    would be larger, from the sorted list of the drawn ranks.
    """
    proven = False
    if certified:
        nbr = _a6_nbr0(s, through)
        proven = _a6_scan(s, through, nbr, 1)[0]
    if proven:
        nu = len(s.ordinary_lines)
        total = nu * sum(comb2(c.bit_count()) for *_, c in _a6_pairs(s, through, nbr, 1)) // 2
        test = None
    else:
        nbr = _a6_nbr(s, through, range(s.n_lines))
        first, second, cum = array("i"), array("i"), array("q")
        total = 0
        for l1, l2, cmask in _a6_pairs(s, through, nbr):
            total += comb2(cmask.bit_count())
            first.append(l1)
            second.append(l2)
            cum.append(total)
        masks = s.line_masks

        def test(r):
            t = bisect_right(cum, r)
            l1, l2 = first[t], second[t]
            m1, m2 = masks[l1], masks[l2]
            common = m1 & m2
            cmask = nbr[l1] & nbr[l2] & ~through[common.bit_length() - 1]  # as in _a6_pairs
            if common & (common - 1):
                cmask = _off_common(cmask, common, through)
            g1, g2 = _unrank_bits(r - (cum[t - 1] if t else 0), cmask)
            # four distinct points, yet g1 misses g2
            mg1, mg2 = masks[g1], masks[g2]
            if ((mg1 & m1).bit_length() != (mg2 & m1).bit_length()
                    and (mg1 & m2).bit_length() != (mg2 & m2).bit_length()
                    and not mg1 & mg2):
                return {"l1": l1, "l2": l2, "g1": g1, "g2": g2}
            return None

    if total == 0:
        return True, None, {"space": 0, "drawn": 0, "distinct": 0, "exhaustive": True}
    if total <= samples:
        # full enumeration is cheaper and stronger than sampling here
        ok, wit = (True, None) if proven else _a6_scan(s, through, nbr)
        cov = {"space": total, "drawn": total, "distinct": total, "exhaustive": True}
        return ok, wit, cov
    drawn, distinct, witness = _a6_draws(total, samples, seed, test)
    coverage = {"space": total, "drawn": drawn, "distinct": distinct,
                "exhaustive": False}
    return witness is None, witness, coverage


def _a6_draws(total, samples, seed, test):
    """(drawn, distinct, witness) of up to `samples` seeded ranks below total.

    Each rank is Random(seed).randrange(total), inlined: the same rejection
    sampling on getrandbits, without two Python calls per draw.  The draws
    stop at the first rank whose test(rank) is a witness; test None draws
    them all.
    """
    getrandbits = random.Random(seed).getrandbits
    nbits = total.bit_length()
    seen = bytearray((total + 7) // 8) if (total + 7) // 8 <= _RANK_BYTES * samples else None
    ranks = array("q")
    drawn = distinct = 0
    witness = None
    for drawn in range(1, samples + 1):
        r = getrandbits(nbits)
        while r >= total:
            r = getrandbits(nbits)
        if seen is None:
            ranks.append(r)
        elif not (seen[r >> 3] >> (r & 7) & 1):
            seen[r >> 3] |= 1 << (r & 7)
            distinct += 1
        if test is not None:
            witness = test(r)
            if witness:
                break
    if seen is None:
        distinct = sum(1 for _ in groupby(sorted(ranks)))
    return drawn, distinct, witness


def _unrank_bits(rank, mask):
    """Positions of the rank-th pair (i-th, j-th set bit of mask), i < j.

    Pairs are ranked in lexicographic order.  The low set bits are cleared
    while i is counted, so both bits are found in one pass.
    """
    block = mask.bit_count() - 1
    while rank >= block:
        rank -= block
        block -= 1
        mask &= mask - 1
    low = mask & -mask
    mask ^= low
    for _ in range(rank):
        mask &= mask - 1
    return low.bit_length() - 1, (mask & -mask).bit_length() - 1


def order_of(s: IncidenceStructure) -> tuple[int, int]:
    """(m, n): m+1 special lines with n+1 points each, all of equal size."""
    if not s.special_lines:
        raise StructureError("no special lines")
    sizes = {len(s.lines[i]) for i in s.special_lines}
    if len(sizes) != 1:
        raise StructureError(f"special lines have unequal sizes {sorted(sizes)}")
    return len(s.special_lines) - 1, sizes.pop() - 1


class CountReport:
    """Elementary count checks; each entry is (expected, actual)."""

    def __init__(self, m: int, n: int, trivial: bool):
        self.m, self.n, self.trivial = m, n, trivial
        self.checks = {}

    @property
    def ok(self) -> bool:
        return all(e == a for e, a in self.checks.values())

    def mismatches(self) -> dict:
        return {k: v for k, v in self.checks.items() if v[0] != v[1]}


def elementary_counts(s: IncidenceStructure) -> CountReport:
    """Check the ordinary point/line counts implied by the axioms.

    Requires the axioms to hold; counts that disagree are reported as
    structure defects in the returned report.
    """
    m, n = order_of(s)
    rep = CountReport(m=m, n=n, trivial=(m == n))
    c = rep.checks
    D = s.special_point

    c["ordinary_line_count"] = (n * n, len(s.ordinary_lines))
    sizes = {len(s.lines[i]) for i in s.ordinary_lines}
    c["ordinary_line_size"] = ({m + 1}, sizes if sizes else {m + 1})
    ordinary_points = [p for p in range(s.n_points) if p != D]
    c["ordinary_point_count"] = ((m + 1) * n, len(ordinary_points))
    per_point = {len([i for i in s.lines_at[p] if not s.is_special_line(i)])
                 for p in ordinary_points}
    c["ordinary_lines_per_ordinary_point"] = ({n}, per_point)

    # Special lines minus D partition the ordinary points.
    seen = 0
    disjoint = True
    for i in s.special_lines:
        mask = s.line_masks[i] & ~(1 << D)
        if seen & mask:
            disjoint = False
        seen |= mask
    full = (1 << s.n_points) - 1 & ~(1 << D)
    c["special_partition"] = ((True, True), (disjoint, seen == full))

    c["n_ge_m_ge_2"] = (True, n >= m >= 2)
    if not rep.trivial:
        c["nontrivial_n_ge_m_squared"] = (True, n >= m * m)
    return rep
