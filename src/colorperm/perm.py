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

import functools
import itertools
import re
from dataclasses import dataclass
from math import factorial
from typing import Iterator


class WindowParseError(ValueError):
    """A window string does not describe a group element.

    ``token_index`` is the 1-based position of the offending token, when
    one can be identified.
    """

    def __init__(self, message: str, token_index: int | None = None):
        super().__init__(message)
        self.token_index = token_index


class MalformedTokenError(WindowParseError):
    """A token is not of the form ``v`` or ``v^c``."""


class ValueOutOfRangeError(WindowParseError):
    """A token's value is not in 1..n (n = number of tokens)."""


class ColorOutOfRangeError(WindowParseError):
    """A token's color is not in 0..r-1."""


class DuplicateValueError(WindowParseError):
    """Two tokens carry the same value."""


def check_params(r: int, n: int = 1) -> None:
    """Raise ValueError unless r and n are integers >= 1 (bool does not count)."""
    for label, value in (("number of colors r", r), ("degree n", n)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{label} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class GroupParams:
    """Parameters (r, n) of the colored permutation group Z_r wr S_n."""

    r: int
    n: int

    def __post_init__(self):
        check_params(self.r, self.n)

    @property
    def size(self) -> int:
        """Order of the group, r**n * n!."""
        return self.r**self.n * factorial(self.n)


@functools.total_ordering
class ColoredLetter:
    """A letter j^b of the extended alphabet: value j with color b."""

    __slots__ = ("value", "color")

    def __init__(self, value: int, color: int):
        self.value = value
        self.color = color

    def __repr__(self):
        return f"ColoredLetter({self.value}, {self.color})"

    def __str__(self):
        if self.color:
            return f"{self.value}^{self.color}"
        return str(self.value)

    def __eq__(self, other):
        if not isinstance(other, ColoredLetter):
            return NotImplemented
        return self.value == other.value and self.color == other.color

    def __hash__(self):
        return hash((self.value, self.color))

    # Order: higher color first, then ascending value.
    def __lt__(self, other):
        if not isinstance(other, ColoredLetter):
            return NotImplemented
        return (-self.color, self.value) < (-other.color, other.value)


def iter_alphabet(params: GroupParams) -> Iterator[ColoredLetter]:
    """Yield the r*n letters of the extended alphabet in ascending order."""
    for color in range(params.r - 1, -1, -1):
        for value in range(1, params.n + 1):
            yield ColoredLetter(value, color)


class ColoredPermutation:
    """An element of Z_r wr S_n.

    ``values`` is the underlying permutation as a tuple (tau(1), ..., tau(n))
    and ``colors`` the tuple (c_1, ..., c_n) of colors by source position.
    Instances are treated as immutable; do not assign to the fields.
    """

    __slots__ = ("r", "n", "values", "colors")

    def __init__(self, values, colors, r: int):
        values = tuple(values)
        colors = tuple(colors)
        n = len(values)
        check_params(r)
        if n == 0:
            raise ValueError("window must contain at least one letter")
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError(f"values {values} are not a permutation of 1..{n}")
        if len(colors) != n:
            raise ValueError(f"expected {n} colors, got {len(colors)}")
        for c in colors:
            if not (isinstance(c, int) and 0 <= c < r):
                raise ValueError(f"color {c!r} is not in 0..{r - 1}")
        self.r = r
        self.n = n
        self.values = values
        self.colors = colors

    @classmethod
    def _from_trusted(cls, r, values, colors):
        # Fast path for internal construction; inputs must already be valid.
        self = object.__new__(cls)
        self.r = r
        self.n = len(values)
        self.values = values
        self.colors = colors
        return self

    @property
    def params(self) -> GroupParams:
        return GroupParams(self.r, self.n)

    def __eq__(self, other):
        if not isinstance(other, ColoredPermutation):
            return NotImplemented
        return (
            self.r == other.r
            and self.values == other.values
            and self.colors == other.colors
        )

    def __hash__(self):
        return hash((self.r, self.values, self.colors))

    def __repr__(self):
        return f"ColoredPermutation({self.values!r}, {self.colors!r}, r={self.r})"

    def __str__(self):
        return format_window(self)


def apply_extended(p: ColoredPermutation, letter: ColoredLetter) -> ColoredLetter:
    """Image of a letter of the extended alphabet under p."""
    v, b = letter.value, letter.color
    if not (isinstance(v, int) and 1 <= v <= p.n):
        raise ValueError(f"letter value {v!r} is not in 1..{p.n}")
    if not (isinstance(b, int) and 0 <= b < p.r):
        raise ValueError(f"letter color {b!r} is not in 0..{p.r - 1}")
    return ColoredLetter(p.values[v - 1], (p.colors[v - 1] + b) % p.r)


# ASCII digits only and no leading zeros: other Unicode digits and "01" are
# malformed tokens.
_TOKEN_RE = re.compile(r"^(0|[1-9][0-9]*)(?:\^(0|[1-9][0-9]*))?$")


def parse_window(text: str, r: int) -> ColoredPermutation:
    """Parse window notation like ``3,1^1,2^2`` into an element of Z_r wr S_n.

    n is the number of comma-separated tokens.  Each token is ``v`` or
    ``v^c`` with 1 <= v <= n and 0 <= c <= r-1, written in ASCII digits
    without leading zeros; omitted colors are 0.
    Raises a subclass of WindowParseError naming the offending token.
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
            raise MalformedTokenError(
                f"token {idx} ({token!r}) is not of the form v or v^c", idx
            )
        v = int(m.group(1))
        c = int(m.group(2)) if m.group(2) is not None else 0
        if not 1 <= v <= n:
            raise ValueOutOfRangeError(
                f"token {idx}: value {v} is not in 1..{n}", idx
            )
        if not c < r:
            raise ColorOutOfRangeError(
                f"token {idx}: color {c} is not in 0..{r - 1}", idx
            )
        if v in seen:
            raise DuplicateValueError(
                f"token {idx}: value {v} appears more than once", idx
            )
        seen.add(v)
        values.append(v)
        colors.append(c)
    return ColoredPermutation._from_trusted(r, tuple(values), tuple(colors))


def format_window(p: ColoredPermutation) -> str:
    """Render a window in the notation accepted by parse_window."""
    parts = []
    for v, c in zip(p.values, p.colors):
        parts.append(f"{v}^{c}" if c else str(v))
    return ",".join(parts)


def enumerate_group(
    params: GroupParams, first_value: int | None = None
) -> Iterator[ColoredPermutation]:
    """Yield all elements of Z_r wr S_n exactly once.

    Order is lexicographic in the value word, ties broken by the color
    tuple read as base-r digits.  With ``first_value`` set, only elements
    whose window starts with that value are produced; the slices for
    first_value = 1..n are contiguous blocks of the full enumeration, so
    concatenating them reproduces it.
    """
    r = params.r
    color_words = list(itertools.product(range(r), repeat=params.n))
    make = ColoredPermutation._from_trusted
    for values in value_words(params.n, first_value):
        for colors in color_words:
            yield make(r, values, colors)


def value_words(n: int, first_value: int | None = None) -> Iterator[tuple[int, ...]]:
    """Permutations of 1..n as tuples, in lexicographic order.

    With ``first_value`` set, only those starting with that value: the
    n slices are contiguous blocks of the full order.
    """
    if first_value is None:
        return itertools.permutations(range(1, n + 1))
    if not 1 <= first_value <= n:
        raise ValueError(f"first_value {first_value} is not in 1..{n}")
    rest = [v for v in range(1, n + 1) if v != first_value]
    return ((first_value,) + tail for tail in itertools.permutations(rest))
