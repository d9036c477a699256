"""The generators' one draw primitive.

:func:`randbelow` is ``Random.randrange`` with a single ``int`` argument,
draw for draw: the same ``getrandbits`` calls, so a seed yields the same
value and leaves the generator in the same state.  It skips the two
Python frames ``randrange`` spends on argument checking and dispatch, the
bulk of a materialisation's set-up time before it existed.
"""

from __future__ import annotations

from typing import Callable


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform integer in ``[0, n)`` drawn by rejection from
    ``getrandbits(n.bit_length())``, as ``Random.randrange`` draws it.

    ``n`` must be a positive ``int``; an empty domain is the
    ``ValueError`` ``randrange`` raises (without the check the loop would
    never end: ``getrandbits(0)`` is always 0).
    """
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n!r}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
