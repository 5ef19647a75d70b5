"""Excedance statistics on colored permutations.

Three statistics are computed for an element pi of Z_r wr S_n:

* ``exc``: the number of letters x of the extended alphabet with
  pi(x) > x in the letter order (higher colors first, values ascending
  within a color).  This is the colored excedance number.
* ``exc_A``: the number of positions i in 1..n-1 whose window letter
  exceeds the uncolored letter i, i.e. c_i = 0 and tau(i) > i.  This is
  the excedance number of the underlying permutation restricted to
  color-0 positions.
* ``csum``: the color sum c_1 + ... + c_n.

They satisfy the decomposition identity

    exc(pi) = r * exc_A(pi) + csum(pi)

which ``summarize`` verifies on every element it touches: exc is found by
the direct scan of all r*n letters, the other two from their own
definitions, and the identity is asserted to hold.  StatSummary keeps the
counts and computes the sets of letters and positions on each access.

Every statistic is a sum over positions.  Position i holding tau(i) with
color c adds to exc the number of letters i^b, b in 0..r-1, that pi
sends above themselves, pi(i^b) = tau(i)^((c + b) mod r), counted by the
letter order itself; to exc_A its indicator [c = 0, tau(i) > i, i < n];
and c and [c > 0] to csum and to the number of nonzero colors.
contributions(r, n) gives the (exc, exc_A) entry of each (position,
value, color): the oracle tallies whole groups from it, and properties
proves the symmetry of exc on it.
"""

from __future__ import annotations

from operator import gt
from typing import NamedTuple

from .perm import (
    ColoredLetter,
    ColoredPermutation,
    GroupParams,
    apply_extended,
    iter_alphabet,
)


def csum(p: ColoredPermutation) -> int:
    """Sum of the window colors."""
    return sum(p.colors)


def exc_A(p: ColoredPermutation) -> tuple[frozenset[int], int]:
    """Excedance positions of the underlying permutation, and their number.

    Position i in 1..n-1 counts when the window letter tau(i)^{c_i} is
    greater than the uncolored letter i, which in the letter order means
    c_i = 0 and tau(i) > i.  Position n can never count and is excluded.
    """
    positions = frozenset(
        i + 1
        for i in range(p.n - 1)
        if p.colors[i] == 0 and p.values[i] > i + 1
    )
    return positions, len(positions)


def exc(p: ColoredPermutation) -> tuple[frozenset[ColoredLetter], int]:
    """Excedance letters of the extended alphabet, and their number.

    A letter x counts when pi(x) > x.  The scan applies p to each of the
    r*n letters; this is the defining computation, not a shortcut.
    """
    letters = frozenset(
        x for x in iter_alphabet(p.params) if apply_extended(p, x) > x
    )
    return letters, len(letters)


class StatSummary(NamedTuple):
    """All three statistics of one element, cross-checked.

    ``exc_set`` and ``exc_A_set`` are computed on each access.
    """

    perm: ColoredPermutation
    exc: int
    exc_A: int
    csum: int

    @property
    def exc_set(self) -> frozenset[ColoredLetter]:
        return exc(self.perm)[0]

    @property
    def exc_A_set(self) -> frozenset[int]:
        return exc_A(self.perm)[0]


def summarize(p: ColoredPermutation) -> StatSummary:
    """Compute exc, exc_A and csum of p and assert their consistency.

    The three are computed independently (exc by the full letter scan)
    and must satisfy exc = r*exc_A + csum as well as the range bounds
    exc <= r*n - 1, exc_A <= n - 1, csum <= (r-1)*n.  A violation is an
    implementation bug, not bad input.
    """
    values, colors, r = p
    n = len(values)

    # Direct scan: letter v^b maps to tau(v)^{(c_v+b) mod r}, and the image
    # is larger iff its color is smaller, or equal with a larger value.
    n_exc = 0
    for b in range(r):
        for i in range(n):
            c = colors[i] + b
            if c >= r:
                c -= r
            if c < b or (c == b and values[i] > i + 1):
                n_exc += 1

    n_exc_A = 0
    for i in range(n - 1):
        if colors[i] == 0 and values[i] > i + 1:
            n_exc_A += 1

    n_csum = sum(colors)

    if n_exc != r * n_exc_A + n_csum:
        raise AssertionError(
            f"exc = r*exc_A + csum violated for {p}: "
            f"{n_exc} != {r}*{n_exc_A} + {n_csum}"
        )
    if not (n_exc <= r * n - 1 and n_exc_A <= n - 1 and n_csum <= (r - 1) * n):
        raise AssertionError(f"statistic out of range for {p}")
    return StatSummary(p, n_exc, n_exc_A, n_csum)


def contributions(r: int, n: int):
    """(exc, exc_A): the amounts that position i + 1 adds to an element of
    Z_r wr S_n while it holds v with color c, as exc[i][v - 1][c] and
    exc_A[i][v - 1][c].

    exc counts the letters x = (i+1)^b, b in 0..r-1, with pi(x) > x in the
    letter order, where pi(x) = v^((c + b) mod r); exc_A is 1 when c = 0,
    v > i + 1 and i + 1 < n, else 0.
    """
    # rank[v][c]: place of the letter v^c in the letter order.
    rank = [[0] * r for _ in range(n + 1)]
    for place, x in enumerate(iter_alphabet(GroupParams(r, n))):
        rank[x.value][x.color] = place
    # The image of i^b is v^((c + b) mod r): compare rank[v] rotated by c,
    # a window of rank[v] written twice, with rank[i], letter by letter.
    twice = [ranks + ranks for ranks in rank]
    exc = [
        [
            tuple(sum(map(gt, twice[v][c : c + r], rank[i])) for c in range(r))
            for v in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    ascents = [
        [(int(i < n - 1 and v > i + 1),) + (0,) * (r - 1) for v in range(1, n + 1)]
        for i in range(n)
    ]
    return exc, ascents
