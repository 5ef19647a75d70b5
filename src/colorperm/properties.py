"""Structural properties: the complementing involution and sequence shape.

The involution reverses the window while complementing values, sending
position i < n to position n - i with color negated and the last position
to itself with color c mapped to r - 1 - c.  It exchanges exc with
r*n - 1 - exc, which forces the distribution of exc to be palindromic.
It maps the value word and the color word apart: symmetry_map is
value_half on the values and color_half on the colors.

The two elementwise checks walk Z_r wr S_n in enumerate_group order and
look each element's image up by its rank in that order (value-word index
times r**n plus color-word index).  image_ranks applies value_half once
per value word and color_half once per color word, and builds the ranks
of each value word's r**n elements as the outer sum of the two; an
image that is not an element of Z_r wr S_n has no rank and fails the
check, naming p and its image.  A caller running both checks at one
point, as `check`'s symmetry suite does, computes the array once at that
(r, n) and passes it to both as ``images``; without it, each check
computes its own.
check_involution tests image(image(k)) = k.  check_exc_complement reads
exc of every element from an array built per tau as an outer sum of the
oracle's per-position exceeded-letter rows, anchored to summarize at each
tau's all-zero color word, and tests exc(k) + exc(image(k)) = r*n - 1.
Each check compares whole arrays first and scans element by element only
when that comparison fails, so a failure names the first failing element
in enumeration order; both checks build it through one helper, so the
two share the message for an image outside the group.

Sequence checks (palindrome, log-concavity, unimodality) work on any
list of nonnegative counts.  Every check returns a PropertyVerdict, which
passes exactly when it carries no counterexample.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count, islice, product
from operator import eq

from . import oracle
from .perm import (
    ColoredPermutation,
    GroupParams,
    check_params,
    enumerate_group,
    format_window,
    value_words,
)
from .stats import summarize


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one property check, with a counterexample on failure."""

    name: str
    r: int | None = None
    n: int | None = None
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        # An empty counterexample (from a bare AssertionError) still fails.
        return self.counterexample is None

    def to_json_obj(self) -> dict:
        obj = {
            "property": self.name,
            "r": self.r,
            "n": self.n,
            "pass": self.passed,
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


def value_half(values: tuple[int, ...]) -> tuple[int, ...]:
    """The involution on a value word: the values at positions 1..n-1
    reversed, the last kept in place, and every value j sent to n+1-j."""
    n = len(values)
    return tuple(n + 1 - j for j in values[-2::-1]) + (n + 1 - values[-1],)


def color_half(colors: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The involution on a color word: colors 1..n-1 reversed with each b
    sent to (r-b) mod r, and the last color c kept in place as r-1-c."""
    return tuple((r - b) % r for b in colors[-2::-1]) + (r - 1 - colors[-1],)


def symmetry_map(p: ColoredPermutation) -> ColoredPermutation:
    """The involution complementing exc to r*n - 1 - exc.

    For source positions i = 1..n-1 with window letter j^b, the image
    window has letter (n+1-j)^((r-b) mod r) at position n-i; the last
    position keeps its place and maps j^b to (n+1-j)^(r-1-b).
    """
    return ColoredPermutation(value_half(p.values), color_half(p.colors, p.r), p.r)


def image_ranks(r: int, n: int) -> array:
    """Rank of symmetry_map(p) for each p, in enumerate_group order.

    The rank of an element is its index in enumerate_group order: the
    index of its value word among value_words(n) times r**n, plus the
    index of its color word among the base-r words.  An image that is not
    an element of Z_r wr S_n has no rank and reads -1.
    """
    color_words = list(product(range(r), repeat=n))
    by_values = {w: i * len(color_words) for i, w in enumerate(value_words(n))}
    by_colors = {c: i for i, c in enumerate(color_words)}
    color_ranks = [by_colors.get(color_half(c, r), -1) for c in color_words]
    inside = -1 not in color_ranks
    ranks = array("q")
    for values in by_values:
        rank = by_values.get(value_half(values), -1)
        if inside and rank >= 0:
            ranks.extend(map(rank.__add__, color_ranks))
        else:
            ranks.extend(-1 if rank < 0 or c < 0 else rank + c for c in color_ranks)
    return ranks


def _element(r: int, n: int, rank: int) -> ColoredPermutation:
    """The element of Z_r wr S_n at a rank of enumerate_group order."""
    return next(islice(enumerate_group(GroupParams(r, n)), rank, None))


def _failure(name: str, r: int, n: int, k: int, image: int, detail) -> PropertyVerdict:
    """The FAIL verdict for the element p at rank k, whose image q has rank image.

    detail(p, q) says how p fails the check; an image outside the group
    (rank -1) is named as such instead.
    """
    p = _element(r, n, k)
    q = symmetry_map(p)
    if image >= 0:
        return PropertyVerdict(name, r, n, detail(p, q))
    return PropertyVerdict(
        name, r, n,
        f"{format_window(p)} -> {format_window(q)}: "
        f"image is not an element of Z_{r} wr S_{n}",
    )


def _holds(images: array, values: array, expected) -> bool:
    """Whether every element has an image rank and values at the image of
    the k-th element is the k-th item of expected: one comparison in C
    over the whole array, which stops at the first mismatch."""
    return min(images) >= 0 and all(map(eq, map(values.__getitem__, images), expected))


def _exc_by_rank(r: int, n: int) -> array:
    """exc of every element of Z_r wr S_n, in enumerate_group order.

    For each tau, exc over its r**n color words is the outer sum over
    positions of the oracle's exceeded-letter rows, the first position
    most significant.  At the all-zero word it must equal summarize's
    letter scan; a disagreement raises AssertionError.
    """
    table = oracle._position_table(r, n)
    zeros = (0,) * n
    excs = array("q")
    for tau in value_words(n):
        sums = [0]
        for rows, v in zip(table, tau):
            row = rows[v - 1]
            sums = [s + x for s in sums for x in row]
        s = summarize(ColoredPermutation(tau, zeros, r))
        if s.exc != sums[0]:
            raise AssertionError(
                f"exceeded-letter rows disagree with summarize at {s.perm}: "
                f"exc {sums[0]} != {s.exc}"
            )
        excs.extend(sums)
    return excs


def check_exc_complement(
    r: int, n: int, *, images: array | None = None
) -> PropertyVerdict:
    """Verify exc(image) = r*n - 1 - exc(p) for every element of Z_r wr S_n.

    ``images`` is image_ranks(r, n), when the caller has it already.
    """
    check_params(r, n)
    images = image_ranks(r, n) if images is None else images
    target = r * n - 1
    excs = _exc_by_rank(r, n)
    if not _holds(images, excs, map(target.__sub__, excs)):
        for k, image in enumerate(images):
            if image < 0 or excs[k] + excs[image] != target:
                return _failure(
                    "exc_complement", r, n, k, image,
                    lambda p, q: f"{format_window(p)} -> {format_window(q)}: "
                    f"exc {excs[k]} + {excs[image]} != {target}",
                )
    return PropertyVerdict("exc_complement", r, n)


def check_involution(
    r: int, n: int, *, images: array | None = None
) -> PropertyVerdict:
    """Verify the map squares to the identity on all of Z_r wr S_n.

    ``images`` is image_ranks(r, n), when the caller has it already.
    """
    check_params(r, n)
    images = image_ranks(r, n) if images is None else images
    if not _holds(images, images, count()):
        for k, image in enumerate(images):
            if image < 0 or images[image] != k:
                return _failure(
                    "symmetry_involution", r, n, k, image,
                    lambda p, q: f"{format_window(p)} maps twice to "
                    f"{format_window(symmetry_map(q))}",
                )
    return PropertyVerdict("symmetry_involution", r, n)


def check_symmetry_dist(
    row: list[int], r: int | None = None, n: int | None = None
) -> PropertyVerdict:
    """Verify a distribution row is palindromic.

    When r and n are supplied, the row must have length r*n (the exc
    distribution); a length mismatch is a usage error, not a failure.
    """
    if r is not None and n is not None and len(row) != r * n:
        raise ValueError(f"expected a row of length {r * n}, got {len(row)}")
    length = len(row)
    for k in range(length // 2):
        if row[k] != row[length - 1 - k]:
            return PropertyVerdict(
                "exc_distribution_palindrome", r, n,
                f"k={k}: {row[k]} != {row[length - 1 - k]} at mirror position",
            )
    return PropertyVerdict("exc_distribution_palindrome", r, n)


def is_log_concave(
    row: list[int], r: int | None = None, n: int | None = None
) -> PropertyVerdict:
    """Check row[k]^2 >= row[k-1]*row[k+1] at every internal index."""
    for k in range(1, len(row) - 1):
        if row[k] * row[k] < row[k - 1] * row[k + 1]:
            return PropertyVerdict(
                "log_concave", r, n, f"k={k}: {row[k]}^2 < {row[k - 1]} * {row[k + 1]}"
            )
    return PropertyVerdict("log_concave", r, n)


def is_unimodal(
    row: list[int], r: int | None = None, n: int | None = None
) -> PropertyVerdict:
    """Check the row rises (weakly) to a peak and then falls (weakly)."""
    k = 0
    while k + 1 < len(row) and row[k] <= row[k + 1]:
        k += 1
    while k + 1 < len(row) and row[k] >= row[k + 1]:
        k += 1
    if k + 1 < len(row):
        return PropertyVerdict(
            "unimodal", r, n, f"rises again at k={k}: {row[k]} < {row[k + 1]}"
        )
    return PropertyVerdict("unimodal", r, n)
