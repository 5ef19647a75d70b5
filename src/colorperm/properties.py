"""Structural properties: the complementing involution and sequence shape.

The involution is defined by its per-position data.  It sends the letter
v^c at position i of the window to position sigma(i), as the letter
kappa(v)^gamma_i(c), where

* sigma(i) = n - i for i < n, and sigma(n) = n (position_map);
* kappa(v) = n + 1 - v (value_map);
* gamma_i(c) = (r - c) mod r for i < n, and r - 1 - c at i = n
  (color_map).

sigma and kappa are tuples of length n, and gamma is a function of
(r, n, i, c), so that mapping one element builds nothing of size r.
symmetry_map builds an image from this data in one pass over the
positions.  Both checks read the data itself, so a fault that lives in
symmetry_map alone, such as one coupling two positions, is out of their
sight; the tests compare symmetry_map with the letter scan element by
element.

The map exchanges exc with r*n - 1 - exc, which forces the distribution
of exc to be palindromic.  exc is a sum over positions: position i
holding v^c adds T[i][v][c], the exc entry of stats.contributions.  As
sigma is a permutation, exc(p) + exc(p') is the sum over i of
g_{i,tau(i)}(c_i), where

    g_{i,v}(c) = T[i][v][c] + T[sigma(i)][kappa(v)][gamma_i(c)].

That sum is r*n - 1 on every element exactly when

(a) each g_{i,v} is constant in c; call that constant h(i, v);
(b) h(i, v) - h(i, 1) - h(1, v) + h(1, 1) = 0 for all i and v;
(c) h(1, 1) + ... + h(n, n) = r*n - 1.

If they hold, h(i, v) = h(i, 1) + h(1, v) - h(1, 1), so every tau gives
the identity's sum, which (c) makes r*n - 1.  Conversely, two elements
that differ only in the color at position i have sums that differ by a
difference of values of g_{i,v}; two that swap the values 1 and v
between positions 1 and i, by the left side of (b); and the identity's
sum is the left side of (c).  So each failure has a witness among those
elements.  check_exc_complement tests (a)-(c) in O(n^2 r) and names the
broken data and the first witness whose pair sum summarize, scanning
letter by letter, confirms to be wrong; at every point it also anchors
the table to summarize at the identity and its image.  check_involution
tests that sigma and kappa are involutions and that gamma_sigma(i)
undoes gamma_i, in O(n r), and names the broken data and an element
that symmetry_map, applied twice, does not bring back.  Both first
require sigma and kappa to be permutations of 1..n and every gamma_i(c)
to be a color, so an image outside Z_r wr S_n is a failure, not a
crash.  A witness that does not fail raises AssertionError: symmetry_map
then disagrees with the data, or the table with summarize.

Sequence checks (palindrome, log-concavity, unimodality) work on any
list of nonnegative counts.  Every check returns a PropertyVerdict, which
passes exactly when it carries no counterexample.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import stats
from .perm import ColoredPermutation, check_params, format_window
from .stats import summarize


class PropertyVerdict(NamedTuple):
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


def position_map(n: int) -> tuple[int, ...]:
    """sigma: the image position of each position 1..n."""
    return (*range(n - 1, 0, -1), n)


def value_map(n: int) -> tuple[int, ...]:
    """kappa: the image value of each value 1..n."""
    return tuple(range(n, 0, -1))


def color_map(r: int, n: int, i: int, c: int) -> int:
    """gamma_i(c): the image color of color c at position i."""
    return (r - c) % r if i < n else r - 1 - c


def symmetry_map(p: ColoredPermutation) -> ColoredPermutation:
    """The involution complementing exc to r*n - 1 - exc.

    The letter v^c at position i of p's window becomes the letter
    kappa(v)^gamma_i(c) at position sigma(i) of the image's: for
    i = 1..n-1, (n+1-v)^((r-c) mod r) at position n-i, and at i = n,
    (n+1-v)^(r-1-c) in place.
    """
    r, n, kappa = p.r, p.n, value_map(p.n)
    # The image's letters, put in order by their positions.
    letters = sorted(
        (s, kappa[v - 1], color_map(r, n, i, c))
        for i, (s, v, c) in enumerate(zip(position_map(n), p.values, p.colors), 1)
    )
    _, values, colors = zip(*letters)
    return ColoredPermutation(values, colors, r)


def _element(r: int, n: int, *swaps, at: int = 1, color: int = 0) -> ColoredPermutation:
    """The identity of Z_r wr S_n with the values at each pair of positions
    in swaps exchanged, in turn, and the given color at position at."""
    values = list(range(1, n + 1))
    for a, b in swaps:
        values[a - 1], values[b - 1] = values[b - 1], values[a - 1]
    colors = tuple(color if k == at else 0 for k in range(1, n + 1))
    return ColoredPermutation(tuple(values), colors, r)


def _complement_failures(r: int, n: int, sigma, kappa, gamma):
    """(broken data, its witnesses) for each failure of (a), (b) and (c)."""
    table, _ = stats.contributions(r, n)
    h = {}
    for i, v in product(range(1, n + 1), repeat=2):
        image = table[sigma[i - 1] - 1][kappa[v - 1] - 1]
        g = [x + image[y] for x, y in zip(table[i - 1][v - 1], gamma[i - 1])]
        for c in range(r):
            if g[c] != g[0]:
                witnesses = [_element(r, n, (i, v), at=i, color=k) for k in (c, 0)]
                yield f"position {i} value {v} color {c}", witnesses
        h[i, v] = g[0]
    for i, v in product(range(2, n + 1), repeat=2):
        if h[i, v] - h[i, 1] - h[1, v] + h[1, 1]:
            witnesses = [_element(r, n, (i, v)), _element(r, n, (i, v), (1, i))]
            yield f"values 1 and {v} at positions 1 and {i}", witnesses
    # The anchor: the identity and its image, scanned letter by letter.
    identity = _element(r, n)
    diagonal = sum(h[i, i] for i in range(1, n + 1))
    if _complement_detail(identity) or diagonal != r * n - 1:
        yield "identity", [identity]


def _involution_failures(r: int, n: int, sigma, kappa, gamma):
    """(broken data, its witness) for each datum the map does not undo."""
    for what, images in (("position", sigma), ("value", kappa)):
        for k, x in enumerate(images, 1):
            if images[x - 1] != k:
                yield f"{what} {k} -> {x} -> {images[x - 1]}", [_element(r, n)]
    for i, c in product(range(1, n + 1), range(r)):
        g = gamma[i - 1][c]
        if (back := gamma[sigma[i - 1] - 1][g]) != c:
            witness = _element(r, n, at=i, color=c)
            yield f"position {i} color {c} -> {g} -> {back}", [witness]


def _complement_detail(p: ColoredPermutation) -> str | None:
    q = symmetry_map(p)
    exc, image_exc, target = summarize(p).exc, summarize(q).exc, p.r * p.n - 1
    if exc + image_exc == target:
        return None
    return f"{format_window(p)} -> {format_window(q)}: exc {exc} + {image_exc} != {target}"


def _involution_detail(p: ColoredPermutation) -> str | None:
    twice = symmetry_map(symmetry_map(p))
    return None if twice == p else f"{format_window(p)} maps twice to {format_window(twice)}"


def _verdict(name: str, r: int, n: int, failures, detail) -> PropertyVerdict:
    """The verdict of a check of the map's data at (r, n).

    A failure names the broken data and the first of its witnesses p for
    which detail(p) is a counterexample; AssertionError when none is.
    """
    check_params(r, n)
    sigma, kappa = position_map(n), value_map(n)
    gamma = [[color_map(r, n, i, c) for c in range(r)] for i in range(1, n + 1)]
    group = f"Z_{r} wr S_{n}"
    for what, images in (("position", sigma), ("value", kappa)):
        if sorted(images) != list(range(1, n + 1)):
            return PropertyVerdict(name, r, n, (
                f"{what} map {','.join(map(str, images))} is not a permutation "
                f"of 1..{n}: no image is an element of {group}"
            ))
    for i, c in product(range(1, n + 1), range(r)):
        if not 0 <= gamma[i - 1][c] < r:
            p = _element(r, n, at=i, color=c)
            return PropertyVerdict(name, r, n, (
                f"position {i} color {c} -> {gamma[i - 1][c]}: {format_window(p)} -> "
                f"{format_window(symmetry_map(p))}: image is not an element of {group}"
            ))
    for broken, witnesses in failures(r, n, sigma, kappa, gamma):
        found = next(filter(None, map(detail, witnesses)), None)
        if found is None:
            raise AssertionError(
                f"{broken}, yet {' and '.join(map(format_window, witnesses))} "
                "pass elementwise"
            )
        return PropertyVerdict(name, r, n, f"{broken}: {found}")
    return PropertyVerdict(name, r, n)


def check_exc_complement(r: int, n: int) -> PropertyVerdict:
    """Verify exc(p) + exc(symmetry_map(p)) = r*n - 1 on all of Z_r wr S_n,
    by conditions (a)-(c) on the map's data."""
    return _verdict("exc_complement", r, n, _complement_failures, _complement_detail)


def check_involution(r: int, n: int) -> PropertyVerdict:
    """Verify the map squares to the identity on all of Z_r wr S_n, by its
    data: sigma and kappa are involutions, and gamma_sigma(i) undoes gamma_i."""
    return _verdict("symmetry_involution", r, n, _involution_failures, _involution_detail)


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
