"""Colored permutations in window notation.

An element of the wreath product Z_r wr S_n is written in window notation
as (tau(1)^{c_1}, ..., tau(n)^{c_n}) where tau is a permutation of
{1, ..., n} and each c_i is a color in {0, ..., r-1}.  Color 0 is omitted
when printing, so ``3,1^1,2^2`` denotes tau = 312 with colors (0, 1, 2).

Such an element acts on the extended alphabet of r*n colored letters
{j^b : 1 <= j <= n, 0 <= b < r} by

    pi(j^b) = tau(j)^{(c_j + b) mod r}

so the window records the images of the color-0 letters, and raising the
color of the input raises the color of the output by the same amount.

Letters are ordered with higher colors first and values ascending within
each color:

    1^{r-1} < ... < n^{r-1} < ... < 1^1 < ... < n^1 < 1 < 2 < ... < n

The minimum letter is 1^{r-1} and the maximum is n with color 0.
"""

from __future__ import annotations

import itertools
import re
from math import factorial
from typing import Iterator, NamedTuple


class WindowParseError(ValueError):
    """A window string does not describe a group element.

    ``token_index`` is the 1-based position of the offending token, when
    one can be identified.
    """

    def __init__(self, message: str, token_index: int | None = None):
        super().__init__(message)
        self.token_index = token_index


def check_int(label: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless value is an integer in low..high (bool does
    not count); without high there is no upper bound."""
    if isinstance(value, bool) or not isinstance(value, int) or not (
        low <= value and (high is None or value <= high)
    ):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{label} must be an integer {bound}, got {value!r}")


def check_params(r: int, n: int = 1) -> None:
    """Raise ValueError unless r and n are integers >= 1 (bool does not count)."""
    check_int("number of colors r", r, 1)
    check_int("degree n", n, 1)


class GroupParams(NamedTuple("GroupParams", [("r", int), ("n", int)])):
    """Parameters (r, n) of the colored permutation group Z_r wr S_n."""

    __slots__ = ()

    def __new__(cls, r: int, n: int):
        check_params(r, n)
        return super().__new__(cls, r, n)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result through _make, so both are checked.
        params = super()._make(iterable)
        check_params(*params)
        return params

    @property
    def size(self) -> int:
        """Order of the group, r**n * n!."""
        return self.r**self.n * factorial(self.n)


class ColoredLetter(NamedTuple):
    """A letter j^b of the extended alphabet: value j with color b.

    Letters compare in the letter order, higher color first and then
    ascending value, not in the tuple order (value, color).
    """

    value: int
    color: int

    def __str__(self):
        if self.color:
            return f"{self.value}^{self.color}"
        return str(self.value)

    def _key(self) -> tuple[int, int]:
        return -self.color, self.value

    def __lt__(self, other):
        if not isinstance(other, ColoredLetter):
            return NotImplemented
        return self._key() < other._key()

    def __le__(self, other):
        if not isinstance(other, ColoredLetter):
            return NotImplemented
        return self._key() <= other._key()

    def __gt__(self, other):
        if not isinstance(other, ColoredLetter):
            return NotImplemented
        return self._key() > other._key()

    def __ge__(self, other):
        if not isinstance(other, ColoredLetter):
            return NotImplemented
        return self._key() >= other._key()


def iter_alphabet(params: GroupParams) -> Iterator[ColoredLetter]:
    """Yield the r*n letters of the extended alphabet in ascending order,
    the one that ColoredLetter's comparison defines."""
    letters = itertools.product(range(1, params.n + 1), range(params.r))
    yield from sorted(itertools.starmap(ColoredLetter, letters), key=ColoredLetter._key)


class ColoredPermutation(NamedTuple):
    """An element of Z_r wr S_n.

    ``values`` is the underlying permutation as a tuple (tau(1), ..., tau(n))
    and ``colors`` the tuple (c_1, ..., c_n) of colors by source position.
    The constructor trusts its arguments: parse_window is the validated entry.
    """

    values: tuple[int, ...]
    colors: tuple[int, ...]
    r: int

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def params(self) -> GroupParams:
        return GroupParams(self.r, self.n)

    def __str__(self):
        return format_window(self)


def apply_extended(p: ColoredPermutation, letter: ColoredLetter) -> ColoredLetter:
    """Image of a letter of the extended alphabet under p."""
    v, b = letter.value, letter.color
    check_int("letter value", v, 1, p.n)
    check_int("letter color", b, 0, p.r - 1)
    return ColoredLetter(p.values[v - 1], (p.colors[v - 1] + b) % p.r)


# ASCII digits only and no leading zeros: other Unicode digits and "01" are
# malformed tokens.
_TOKEN_RE = re.compile(r"^(0|[1-9][0-9]*)(?:\^(0|[1-9][0-9]*))?$")


def parse_window(text: str, r: int) -> ColoredPermutation:
    """Parse window notation like ``3,1^1,2^2`` into an element of Z_r wr S_n.

    n is the number of comma-separated tokens.  Each token is ``v`` or
    ``v^c`` with 1 <= v <= n and 0 <= c <= r-1, written in ASCII digits
    without leading zeros; omitted colors are 0.
    Raises WindowParseError naming the offending token.
    """
    check_params(r)
    tokens = [t.strip() for t in text.split(",")]
    n = len(tokens)
    values = []
    colors = []
    seen = set()
    for idx, token in enumerate(tokens, start=1):
        m = _TOKEN_RE.match(token)
        if m is None:
            raise WindowParseError(
                f"token {idx} ({token!r}) is not of the form v or v^c", idx
            )
        v = int(m.group(1))
        c = int(m.group(2)) if m.group(2) is not None else 0
        if not 1 <= v <= n:
            raise WindowParseError(f"token {idx}: value {v} is not in 1..{n}", idx)
        if not c < r:
            raise WindowParseError(f"token {idx}: color {c} is not in 0..{r - 1}", idx)
        if v in seen:
            raise WindowParseError(
                f"token {idx}: value {v} appears more than once", idx
            )
        seen.add(v)
        values.append(v)
        colors.append(c)
    return ColoredPermutation(tuple(values), tuple(colors), r)


def format_window(p: ColoredPermutation) -> str:
    """Render a window in the notation accepted by parse_window."""
    parts = []
    for v, c in zip(p.values, p.colors):
        parts.append(f"{v}^{c}" if c else str(v))
    return ",".join(parts)


def enumerate_group(params: GroupParams) -> Iterator[ColoredPermutation]:
    """Yield all elements of Z_r wr S_n exactly once.

    Order is lexicographic in the value word, ties broken by the color
    tuple read as base-r digits.
    """
    r = params.r
    color_words = list(itertools.product(range(r), repeat=params.n))
    for values in value_words(params.n):
        for colors in color_words:
            yield ColoredPermutation(values, colors, r)


def value_words(n: int, first_values: range | None = None) -> Iterator[tuple[int, ...]]:
    """Permutations of 1..n as tuples, in lexicographic order.

    With ``first_values``, a run of consecutive values in 1..n, only those
    starting with a value in it: consecutive runs are consecutive blocks
    of the full order.
    """
    everything = range(1, n + 1)
    firsts = everything if first_values is None else first_values
    if not set(firsts) <= set(everything):
        raise ValueError(f"first values {firsts} are not in 1..{n}")
    for first in firsts:
        rest = [v for v in everything if v != first]
        yield from map((first,).__add__, itertools.permutations(rest))
