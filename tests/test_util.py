"""The incidence index helpers against a brute-force set oracle, and the
translate walk against digit addition.

holders(blocks, n)[v] is the mask of the blocks that hold v, and
meeting(blocks, held, which)[i] the mask of the other blocks that share an
element with block i, for i in which.  The oracle reads both off the blocks
as sets, pair by pair.  Translations(p, d).translates(mask) lists mask
translated by t for t = 0..p^d-1, translate(mask, t) one of them, and
negate(x) the vertex -x; the oracle (oracles.digit_sum) adds t to each bit
digit by digit mod p.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import digit_sum
from prect._util import Translations, holders, meeting


def _oracle(blocks, n, which):
    sets = [set(b) for b in blocks]
    held = [sum(1 << j for j, b in enumerate(sets) if v in b) for v in range(n)]
    meets = [sum(1 << j for j, c in enumerate(sets) if j != i and b & c) if i in which else 0
             for i, b in enumerate(sets)]
    return held, meets


def test_holders_and_meeting_on_the_edge_cases():
    """An empty block, one-element blocks, elements 4 and 5 that no block
    holds, and a which that is a strict subset of the blocks."""
    blocks = [[], [0], [0, 1, 2], [2, 3], [3]]
    which = [0, 1, 3]
    held = holders(blocks, 6)
    assert held == [0b110, 0b100, 0b1100, 0b11000, 0, 0]
    assert meeting(blocks, held, which) == [0, 0b100, 0, 0b10100, 0]
    assert (held, meeting(blocks, held, which)) == _oracle(blocks, 6, which)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_holders_and_meeting_match_the_set_oracle(data):
    n = data.draw(st.integers(1, 12))
    blocks = data.draw(st.lists(st.lists(st.integers(0, n - 1), unique=True, max_size=n),
                                max_size=20))
    which = data.draw(st.lists(st.sampled_from(range(len(blocks))), unique=True)
                      if blocks else st.just([]))
    held = holders(blocks, n)
    assert (held, meeting(blocks, held, which)) == _oracle(blocks, n, which)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1), (3, 3)])
def test_translates_match_digit_addition(p, d):
    nu, group = p ** d, Translations(p, d)
    rng = random.Random(f"{p},{d}")
    for mask in [0, 1, 1 << nu - 1, (1 << nu) - 1] + [rng.getrandbits(nu) for _ in range(20)]:
        walk = list(group.translates(mask))
        assert len(walk) == nu
        bits = [x for x in range(nu) if mask >> x & 1]
        for t, moved in enumerate(walk):
            assert moved == sum(1 << digit_sum(x, t, p, d) for x in bits), (mask, t)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1), (3, 3)])
def test_translate_and_negate_match_digit_addition(p, d):
    """translate(mask, t) is entry t of the walk, and x + negate(x) = 0,
    digit by digit."""
    nu, group = p ** d, Translations(p, d)
    rng = random.Random(f"shift {p},{d}")
    for mask in [0, 1, (1 << nu) - 1] + [rng.getrandbits(nu) for _ in range(5)]:
        for t, moved in enumerate(group.translates(mask)):
            assert group.translate(mask, t) == moved, (mask, t)
    for x in range(nu):
        assert digit_sum(x, group.negate(x), p, d) == 0 and group.negate(x) < nu
