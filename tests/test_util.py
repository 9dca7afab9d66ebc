"""The incidence index helpers against a brute-force set oracle.

holders(blocks, n)[v] is the mask of the blocks that hold v, and
meeting(blocks, held, which)[i] the mask of the other blocks that share an
element with block i, for i in which.  The oracle reads both off the blocks
as sets, pair by pair.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from prect._util import holders, meeting


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
