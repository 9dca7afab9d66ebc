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

The structures judged here are prect.structure's IncidenceStructure,
purely index-based, with its pencils `through` and its line masks; A6's
table of the lines meeting each line is read off the pencils
(_util.meeting).  This module holds only the judging, A1-A6 and the
elementary counts, so only `prect verify` compiles it; A1's walk, which
every subcommand that reads a model reports, lives in prect.structure.

The built models number their ordinary lines 0..nu-1 so that translation
of GF(p)^d on the line indices, nu = p^d, extends to incidence
automorphisms fixing D (IncidenceStructure.translations certifies this
from the structure).  A6 on a certified structure that passes A1 scans
only the pairs (0, l2), on IncidenceStructure.at_line_0's narrow masks,
and sampled A6 makes no draw when that passes; any other structure, such
as one renumbered, takes the scan over every pair or tests each draw.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right

from ._util import (A6_DEFAULT_SAMPLES, A6_DEFAULT_SEED, Checks, Verdicts, comb2, iter_bits,
                    meeting)
from .structure import IncidenceStructure, _a1_witness, order_of


class AxiomReport(Verdicts):
    """Per-axiom verdicts with re-checkable witnesses on failure."""

    def __init__(self, a6_mode: str | None):
        self.verdicts, self.witnesses = {}, {}
        self.a6_mode = a6_mode
        self.a6_coverage: dict | None = None


def check_axioms(s: IncidenceStructure, a6_mode: str | None,
                 a6_samples: int = A6_DEFAULT_SAMPLES,
                 seed: int = A6_DEFAULT_SEED) -> AxiomReport:
    """Verify axioms A1 to A6, returning verdicts and witnesses.

    a6_mode is "full", the whole quadruple enumeration, "sampled", which
    draws a6_samples distinct quadruples (seeded, uniform over the quadruple
    space), or None, which stops after A5 and reports no A6.  Sampled runs
    record their coverage of the space, where drawn and distinct are equal;
    when the space is no larger than the sample count they upgrade to
    exhaustive enumeration, which is cheaper and conclusive.

    A6 on a structure that passes A1 and whose translations are certified
    scans only the pairs (0, l2) on at_line_0, which holds their candidates.
    A translation by -l1 moves any failing quadruple to one that starts with
    line 0, whose block comes first in the scan over every pair, so the
    verdict and the witness are those of that scan.  A1 makes the common
    point of two lines, and so the candidates, commute with the translations.

    Sampled A6 on such a structure takes that scan's result.  If it passes,
    no quadruple of the space fails, so neither would any draw: the verdict
    is true with no witness, and the coverage is the one the per-draw test
    gives a passing structure, a6_samples distinct quadruples, with no draw
    made.  If the scan fails, or the structure is not certified, each draw
    is tested.
    """
    rep = AxiomReport(a6_mode)

    # A1: every point pair on exactly one line.
    a1_witness = _a1_witness(s)
    rep.verdicts["A1"] = a1_witness is None
    if a1_witness:
        rep.witnesses["A1"] = a1_witness

    # A2: four points, no three collinear.
    witness4 = _find_quadrangle(s)
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
    masks = s.line_masks
    hits = ((si, j, (masks[si] & masks[j]).bit_count()) for si in s.special_lines
            for j in range(s.n_lines) if j != si)
    a5_witness = next(({"special": si, "line": j, "common_points": h}
                       for si, j, h in hits if h != 1), None)
    rep.verdicts["A5"] = a5_witness is None
    if a5_witness:
        rep.witnesses["A5"] = a5_witness
    if a6_mode is None:
        return rep

    # A6: on a certified structure one line-0 scan serves both profiles.
    scan = None
    if a1_witness is None and s.translations is not None:
        lines, local = s.at_line_0
        nbr = meeting(local.lines, local.through, range(local.n_lines))
        ok, witness, weight = _a6_scan(local, nbr, 1)
        scan = ok, witness and {k: lines[v] for k, v in witness.items()}, weight
    if a6_mode == "full":
        ok6, wit6, _ = scan or _a6_scan(s, meeting(s.lines, s.through, range(s.n_lines)), None)
    elif a6_mode == "sampled":
        ok6, wit6, rep.a6_coverage = _a6_sampled(s, a6_samples, seed, scan)
    else:
        raise ValueError(f"unknown a6_mode {a6_mode!r}")
    rep.verdicts["A6"] = ok6
    if wit6:
        rep.witnesses["A6"] = wit6
    return rep


def _find_quadrangle(s):
    """Four points with no three collinear, or None.

    Points a, b, c are collinear iff some line passes through all three,
    that is iff through[a] & through[b] & through[c] is nonzero.
    """
    np_, through = s.n_points, s.through
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


def _a6_candidates(through, nbr, l1, l2, common):
    """The candidate 'transversal' lines of the pair l1, l2, whose common
    points are the set bits of common: every line that meets both, less
    the lines through each common point (one point unless A1 fails).  Only
    those can meet l1 and l2 in four distinct points."""
    cmask = nbr[l1] & nbr[l2] & ~through[common.bit_length() - 1]
    if common & (common - 1):  # they meet again, so A1 fails
        for p in iter_bits(common):
            cmask &= ~through[p]
    return cmask


def _a6_pairs(s, nbr, blocks):
    """Yield (l1, l2, cmask) per intersecting ordinary pair, l1 first, for l1
    among the first `blocks` ordinary lines (all of them if None); cmask is
    the pair's _a6_candidates."""
    masks, through = s.line_masks, s.through
    olines = s.ordinary_lines
    for x, l1 in enumerate(olines[:blocks]):
        m1 = masks[l1]
        for l2 in olines[x + 1:]:
            common = m1 & masks[l2]
            if common:
                yield l1, l2, _a6_candidates(through, nbr, l1, l2, common)


def _a6_scan(s, nbr, blocks):
    """Every quadruple of the pairs of _a6_pairs, one pair's candidate list at
    a time, stopping at the first failure: (verdict, witness, weight), the
    weight being the sum of C(candidates, 2) over the pairs walked.

    Only a g2 that misses g1 can fail, so g2 runs over the candidates above
    g1 outside nbr[g1]; the first failure is the same as over all pairs.
    """
    masks, weight = s.line_masks, 0
    for l1, l2, cmask in _a6_pairs(s, nbr, blocks):
        weight += comb2(cmask.bit_count())
        m1, m2 = masks[l1], masks[l2]
        for g1 in iter_bits(cmask):
            miss = cmask & ~nbr[g1] & -(2 << g1)
            if not miss:
                continue
            a1, b1 = (masks[g1] & m1).bit_length(), (masks[g1] & m2).bit_length()
            for g2 in iter_bits(miss):
                # four distinct points (the highest common points differ), yet g1 misses g2
                if (masks[g2] & m1).bit_length() != a1 and (masks[g2] & m2).bit_length() != b1:
                    return False, {"l1": l1, "l2": l2, "g1": g1, "g2": g2}, weight
    return True, None, weight


def _a6_sampled(s, samples, seed, scan):
    """Seeded uniform draws of distinct quadruples, pair by cumulative weight.

    scan is check_axioms's line-0 scan, (verdict, witness, weight), or None
    on a structure that is not certified.  When it passes no draw is made
    (see check_axioms), and the space comes from its weight, nu * sum over
    l2 of C(candidates(0, l2), 2) / 2: translation by -l1 maps pair (l1, l2)
    onto (0, l2 - l1), and the candidate counts are symmetric under v -> -v,
    as (0, v) and (-v, 0) are translates.

    Otherwise nbr[i] holds the lines meeting line i, for every line, and one
    pass stores each intersecting pair and its cumulative weight
    C(candidates, 2), 16 bytes a pair; a draw rebuilds its own pair's
    _a6_candidates, picks two of its set bits and tests them (_a6_draws).
    """
    if scan and scan[0]:
        total = len(s.ordinary_lines) * scan[2] // 2
        ok, witness, drawn = True, None, min(total, samples)
    else:
        through, nbr = s.through, meeting(s.lines, s.through, range(s.n_lines))
        first, second, cum = array("i"), array("i"), array("q")
        total = 0
        for l1, l2, cmask in _a6_pairs(s, nbr, None):
            total += comb2(cmask.bit_count())
            first.append(l1)
            second.append(l2)
            cum.append(total)
        masks = s.line_masks

        def test(r):
            t = bisect_right(cum, r)
            l1, l2 = first[t], second[t]
            m1, m2 = masks[l1], masks[l2]
            cmask = _a6_candidates(through, nbr, l1, l2, m1 & m2)
            g1, g2 = _unrank_bits(r - (cum[t - 1] if t else 0), cmask)
            # four distinct points, yet g1 misses g2
            mg1, mg2 = masks[g1], masks[g2]
            if ((mg1 & m1).bit_length() != (mg2 & m1).bit_length()
                    and (mg1 & m2).bit_length() != (mg2 & m2).bit_length()
                    and not mg1 & mg2):
                return {"l1": l1, "l2": l2, "g1": g1, "g2": g2}
            return None

        # full enumeration is cheaper and stronger than sampling a space this small
        if total <= samples:
            (ok, witness, _), drawn = _a6_scan(s, nbr, None), total
        else:
            drawn, witness = _a6_draws(total, samples, seed, test)
            ok = witness is None
    return ok, witness, {"space": total, "drawn": drawn, "distinct": drawn,
                         "exhaustive": total <= samples}


def _a6_draws(total, samples, seed, test):
    """(drawn, witness) of the first `samples` distinct seeded ranks below
    total, which must exceed samples.

    The ranks are Random(seed).randrange(total), inlined: the same rejection
    sampling on getrandbits, without two Python calls per draw, with every
    rank drawn before skipped.  Each new rank is tested, and the draws stop
    at the first rank whose test(rank) is a witness; a rank seen before has
    passed, so the first witness is that of the stream with its repeats.
    """
    getrandbits = random.Random(seed).getrandbits
    nbits = total.bit_length()
    seen = set()
    while len(seen) < samples:
        r = getrandbits(nbits)
        if r < total and r not in seen:
            seen.add(r)
            witness = test(r)
            if witness:
                return len(seen), witness
    return samples, None


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


class CountReport(Checks):
    """Elementary count checks."""

    def __init__(self, m: int, n: int):
        self.m, self.n, self.trivial = m, n, m == n
        self.checks = {}


def elementary_counts(s: IncidenceStructure) -> CountReport:
    """Check the ordinary point/line counts implied by the axioms.

    Requires the axioms to hold; counts that disagree are reported as
    structure defects in the returned report.
    """
    m, n = order_of(s)
    rep = CountReport(m, n)
    c = rep.checks

    c["ordinary_line_count"] = (n * n, len(s.ordinary_lines))
    sizes = {len(s.lines[i]) for i in s.ordinary_lines}
    c["ordinary_line_size"] = ({m + 1}, sizes if sizes else {m + 1})
    ordinary_points = [p for p in range(s.n_points) if p != s.special_point]
    c["ordinary_point_count"] = ((m + 1) * n, len(ordinary_points))
    ordinary = sum(1 << i for i in s.ordinary_lines)
    per_point = {(s.through[p] & ordinary).bit_count() for p in ordinary_points}
    c["ordinary_lines_per_ordinary_point"] = ({n}, per_point)

    # Special lines minus D partition the ordinary points: (disjoint, covering).
    special = sum(1 << i for i in s.special_lines)
    on = {(s.through[p] & special).bit_count() for p in ordinary_points}
    c["special_partition"] = ((True, True), (on <= {0, 1}, 0 not in on))

    c["n_ge_m_ge_2"] = (True, n >= m >= 2)
    if not rep.trivial:
        c["nontrivial_n_ge_m_squared"] = (True, n >= m * m)
    return rep
