"""Brute-force oracle: count statistics by walking whole groups.

This module never touches the recursion code.  It visits every element
of Z_r wr S_n, computes each statistic from its definition and tallies
exact counts:

* joint table of (color sum, exc_A),
* joint table of (number of nonzero colors, exc_A),
* the distribution of exc, tallied directly rather than derived.

For each underlying permutation tau the r**n color words are walked in
reflected Gray-code order, so consecutive elements differ in one
position's color by +-1.  Every statistic is a sum over positions, so a
step (i, old, new) changes each by an amount fixed by the step and by
the pair (i, tau(i)):

* exc from a per-position table that counts, by the letter order itself,
  how many of the letters i^0, ..., i^(r-1) are exceeded by their images
  when position i holds tau(i) with color c;
* exc_A from its per-position indicator (c_i = 0, tau(i) > i, i < n);
* csum and the nonzero-color count ("colored") from the color that
  changed.

The four statistics are packed into one mixed-radix integer key, lowest
place first exc, exc_A, colored, csum, each stored plus a guard g.  A
step then adds one packed delta to the key, so each tau costs a fixed
number of C-level calls: its delta list is gathered from the
per-(i, tau(i)) table, itertools.accumulate runs the walk, and one
Counter per slice tallies every key.  exc is a field of its own, never
derived from the others.  At the end of the slice each distinct key is
decoded once, checked against the decomposition identity
exc = r*exc_A + csum and the range bounds (colored <= n included), and
added to the tallies.

Why a check of the decoded keys checks every element: g is one more
than the largest |delta| of its field over the whole delta table, and
below csum a field's radix holds its range with a guard of g on either
side.  The walk of tau starts at the all-zero color word, whose exc and
exc_A must equal those of stats.summarize, which scans all r*n letters
and bounds what it returns; so the start is in range.  Take the first
element of a walk that is out of range or breaks the identity.  Its
predecessor was in range, and one step moves each field by at most
g - 1, so every field of the key still lies inside its radix and the
key decodes to the element's true statistics, which fail the check.
Later keys may decode to anything, but a failing key exists.  If no key
fails, every element was in range and every key decoded exactly.

On a failing key the slice is walked again with the same key generator.
Every element before the first failing one decodes exactly and passes,
so the first element carrying a failing key is the first failing
element; an AssertionError names it and its statistics.  A
disagreement with summarize raises AssertionError at once.

The unit of work is a slice: the elements whose window starts with a
value in a run of consecutive first values.  Slices of disjoint runs are
disjoint, the runs of first_value_chunks cover the group, and slices
merge by plain addition (merge_slices).  A group with fewer than
POOL_MIN elements is one run, range(1, n + 1), whatever the workers, as
is every serial call.  brute_tables runs the tasks on a pool when there
is more than one and inline otherwise.  `check`'s sweep submits the
_count_slice tasks of its points of at least POOL_MIN elements to one
pool, sized by the most runs of any of them, before it reads the first.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import getitem, mul
from typing import Iterator, NamedTuple

from .perm import ColoredLetter, ColoredPermutation, GroupParams, value_words
from .stats import summarize
from .tables import JointTable

#: Group orders above this raise eyebrows; enumeration proceeds after a warning.
FEASIBILITY_LIMIT = 10**8
#: Groups with fewer elements than this are walked inline as one run.
#: Starting a pool of two processes and running one trivial task on it
#: takes about 11 ms, and `check` maps an element to its symmetry image
#: in about 2.6 us (0.0925 s for its default sweep's 35,722 elements),
#: so 10**4 elements take about 26 ms serially: about where a pool
#: starts to pay (shared 2-vCPU host, CPython 3.11).  Results never
#: depend on it, because the runs of any split merge to the same tallies.
POOL_MIN = 10**4


@dataclass
class OracleReport:
    """Tallies from one full enumeration of Z_r wr S_n."""

    r: int
    n: int
    size: int
    joint_by_csum: JointTable
    joint_by_colored_count: JointTable
    exc_row: list[int]
    elapsed_seconds: float


class TableDiff(NamedTuple):
    """One disagreeing cell between two joint tables."""

    i: int
    k: int
    left: int
    right: int


def _gray_walk(r: int, n: int) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Reflected Gray code on n digits in base r, as a list of steps.

    Step (i, old, new, word) changes digit i from old to new = old +- 1
    and arrives at word.  From the all-zero word, the r**n - 1 steps visit
    every word of {0..r-1}^n exactly once (Knuth, TAOCP 4A, 7.2.1.1).
    Digit 0 changes fastest.
    """
    moves: list[tuple[int, int]] = []
    for position in range(n):
        # Raise the new digit 0 -> r-1, walking the lower digits backwards
        # and forwards in turn between its moves.
        back = [(i, -d) for i, d in reversed(moves)]
        walk = list(moves)
        for value in range(1, r):
            walk.append((position, 1))
            walk.extend(back if value % 2 else moves)
        moves = walk
    word = [0] * n
    steps = []
    for i, d in moves:
        old = word[i]
        word[i] = old + d
        steps.append((i, old, old + d, tuple(word)))
    return steps


def _position_table(r: int, n: int) -> list[list[tuple[int, ...]]]:
    """table[i][v - 1][c]: exceeded letters at position i + 1.

    Counts the letters x = (i+1)^b, b in 0..r-1, with pi(x) > x in the
    letter order when the window holds v^c at position i + 1, so that
    pi(x) = v^((c + b) mod r).
    """
    # rank[v][c]: place of the letter v^c in the letter order.
    rank = [[0] * r for _ in range(n + 1)]
    letters = (ColoredLetter(v, c) for v in range(1, n + 1) for c in range(r))
    for place, x in enumerate(sorted(letters)):
        rank[x.value][x.color] = place
    table = []
    for i in range(1, n + 1):
        rows = []
        for v in range(1, n + 1):
            row = [0] * r
            for b, x in enumerate(rank[i]):
                # The image of i^b is v^d where d = (c + b) mod r.
                for d, image in enumerate(rank[v]):
                    if image > x:
                        row[(d - b) % r] += 1
            rows.append(tuple(row))
        table.append(rows)
    return table


def _step_kinds(r: int) -> list[tuple[int, int]]:
    """The (old, new) color changes a Gray step can make, indexed by kind.

    Kind j < r - 1 raises a color from j to j + 1; kind r - 1 + j lowers
    it from j + 1 to j.
    """
    return [(c, c + 1) for c in range(r - 1)] + [(c + 1, c) for c in range(r - 1)]


def _ascent(i: int, v: int, n: int) -> int:
    """exc_A indicator of position i + 1 holding v with color 0."""
    return int(i < n - 1 and v > i + 1)


def _step_deltas(r: int, n: int, table) -> list[list[list[tuple[int, ...]]]]:
    """deltas[i][v - 1][j]: how a step of kind j at position i + 1 changes
    (exc, exc_A, colored, csum) while that position holds v.

    ``table`` is _position_table(r, n), which gives the exc changes.
    """
    kinds = _step_kinds(r)
    deltas = []
    for i, rows in enumerate(table):
        per_value = []
        for v, row in enumerate(rows, start=1):
            up = _ascent(i, v, n)
            steps = []
            for old, new in kinds:
                colored = (old == 0) - (new == 0)
                steps.append((row[new] - row[old], -up * colored, colored, new - old))
            per_value.append(steps)
        deltas.append(per_value)
    return deltas


def _count_slice(r: int, n: int, first_values: range):
    """Tally every element whose window starts with a value in first_values.

    Returns flat lists, the first two of (r-1)*n + 1 rows of n each:
    by_csum[csum*n + exc_A], by_colored[colored*n + exc_A] and exc_row[exc].
    """
    steps = _gray_walk(r, n)
    table = _position_table(r, n)
    deltas = _step_deltas(r, n, table)
    kind_of = {kind: j for j, kind in enumerate(_step_kinds(r))}
    walk = [i * len(kind_of) + kind_of[old, new] for i, old, new, _ in steps]

    # Key fields, lowest place first: exc, exc_A, colored, csum, each
    # stored plus its guard.  Below csum, a field's radix holds its range
    # and a guard on either side.
    highs = (r * n - 1, n - 1, n, (r - 1) * n)
    every = chain.from_iterable(chain.from_iterable(deltas))
    # The zero row keeps all four fields when there are no steps (r = 1).
    guards = [1 + max(map(abs, field)) for field in zip((0, 0, 0, 0), *every)]
    radices = [high + 1 + 2 * guard for high, guard in zip(highs[:3], guards)]
    places = [1]
    for radix in radices:
        places.append(places[-1] * radix)
    base = sum(map(mul, guards, places))

    # Row i, indexed by the value v that position i + 1 holds (0 unused).
    excs = [(0,) + tuple(row[0] for row in rows) for rows in table]
    ups = [(0,) + tuple(_ascent(i, v, n) for v in range(1, n + 1)) for i in range(n)]
    packed = [
        [()] + [tuple(sum(map(mul, d, places)) for d in row) for row in rows]
        for rows in deltas
    ]
    zeros = (0,) * n

    def keys(tau):
        # The key of every element of tau, in walk order.
        exc = sum(map(getitem, excs, tau))
        excA = sum(map(getitem, ups, tau))
        s = summarize(ColoredPermutation(tau, zeros, r))
        if (s.exc, s.exc_A, s.csum) != (exc, excA, 0):
            raise AssertionError(
                f"Gray walk disagrees with summarize at {s.perm}: "
                f"(exc, exc_A, csum) = {(exc, excA, 0)} != "
                f"{(s.exc, s.exc_A, s.csum)}"
            )
        key = base + exc + excA * places[1]
        if not walk:
            return (key,)
        delta = list(chain.from_iterable(map(getitem, packed, tau)))
        return accumulate(map(delta.__getitem__, walk), initial=key)

    tally = Counter(chain.from_iterable(map(keys, value_words(n, first_values))))

    by_csum = [0] * ((highs[3] + 1) * n)
    by_colored = [0] * ((highs[3] + 1) * n)
    exc_row = [0] * (r * n)
    failing = {}
    for key, count in tally.items():
        rest, stats = key, []
        for radix, guard in zip(radices, guards):
            rest, field = divmod(rest, radix)
            stats.append(field - guard)
        exc, excA, colored, csum = *stats, rest - guards[3]
        # exc >= 0 follows from the identity and the other bounds.
        if exc != r * excA + csum or not (
            0 <= excA <= highs[1]
            and 0 <= colored <= highs[2]
            and 0 <= csum <= highs[3]
            and exc <= highs[0]
        ):
            failing[key] = exc, excA, csum
            continue
        by_csum[csum * n + excA] += count
        by_colored[colored * n + excA] += count
        exc_row[exc] += count

    if failing:
        # The first element in walk order that carries a failing key.
        words = [zeros] + [word for *_, word in steps]
        for tau in value_words(n, first_values):
            for word, key in zip(words, keys(tau)):
                if key in failing:
                    exc, excA, csum = failing[key]
                    p = ColoredPermutation(tau, word, r)
                    raise AssertionError(
                        f"exc = r*exc_A + csum or a range bound violated for {p}: "
                        f"exc={exc}, exc_A={excA}, csum={csum}"
                    )
    return by_csum, by_colored, exc_row


def _add(slices) -> list[list[int]]:
    """Cellwise sums of slice tallies, each a triple of flat lists."""
    return [[sum(counts) for counts in zip(*parts)] for parts in zip(*slices)]


def first_value_chunks(r: int, n: int, workers: int) -> list[range]:
    """1..n cut into runs of consecutive values, one per task of a walk
    of Z_r wr S_n: at most min(workers, n) runs, or the single run
    range(1, n + 1) when the group has fewer than POOL_MIN elements, on
    which starting a pool costs more than the walk."""
    runs = min(workers, n) if GroupParams(r, n).size >= POOL_MIN else 1
    size = -(-n // max(1, runs))
    return [range(v, min(v + size, n + 1)) for v in range(1, n + 1, size)]


def merge_slices(r: int, n: int, slices, started: float) -> OracleReport:
    """The OracleReport of slice tallies that cover Z_r wr S_n.

    ``started`` is the perf_counter reading the enumeration began at.
    """
    by_csum, by_colored, exc_row = _add(slices)
    elapsed = time.perf_counter() - started
    table_csum, table_colored = (
        JointTable(r, n, [flat[i : i + n] for i in range(0, len(flat), n)])
        for flat in (by_csum, by_colored)
    )
    return OracleReport(
        r=r,
        n=n,
        size=GroupParams(r, n).size,
        joint_by_csum=table_csum,
        joint_by_colored_count=table_colored,
        exc_row=exc_row,
        elapsed_seconds=elapsed,
    )


def brute_tables(r: int, n: int, workers: int | None = None) -> OracleReport:
    """Enumerate Z_r wr S_n and tally all three distributions.

    The slices of first_value_chunks(r, n, workers) run on a pool of one
    process each when there is more than one, and inline otherwise, as
    they are on any group below POOL_MIN; the result does not depend on
    ``workers``.  A pool task is pickled by name, so _count_slice
    replaced by a closure runs inline only.  Emits
    a RuntimeWarning when the group order exceeds FEASIBILITY_LIMIT,
    then proceeds.
    """
    size = GroupParams(r, n).size
    if size > FEASIBILITY_LIMIT:
        warnings.warn(
            f"enumerating Z_{r} wr S_{n} means {size} elements, "
            f"above the feasibility limit {FEASIBILITY_LIMIT}",
            RuntimeWarning,
            stacklevel=2,
        )
    started = time.perf_counter()
    chunks = first_value_chunks(r, n, workers or 1)
    with worker_pool(len(chunks)) as pool:
        run = map if pool is None else pool.map
        slices = list(run(_count_slice, repeat(r), repeat(n), chunks))
    return merge_slices(r, n, slices, started)


@contextmanager
def worker_pool(workers: int) -> Iterator[ProcessPoolExecutor | None]:
    """Yield None for ``workers`` <= 1, else a fresh pool of that many
    processes, started at its first task and joined when the block ends.
    """
    if workers <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def compare(left: JointTable, right: JointTable) -> list[TableDiff]:
    """Cells where two same-shape tables disagree, sorted by (i, k).

    An empty list means the tables are identical.  Tables for different
    (r, n) cannot be meaningfully compared and raise ValueError.
    """
    if left.r != right.r or left.n != right.n:
        raise ValueError(
            f"table shapes differ: (r={left.r}, n={left.n}) vs (r={right.r}, n={right.n})"
        )
    diffs = []
    for (i, k), count in left.items():
        other = right.get(i, k)
        if count != other:
            diffs.append(TableDiff(i, k, count, other))
    return diffs
