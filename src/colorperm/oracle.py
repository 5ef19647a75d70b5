"""Brute-force oracle: count statistics by walking whole groups.

This module never touches the recursion code.  It visits every element
of Z_r wr S_n, computes each statistic from its definition and tallies
exact counts:

* joint table of (color sum, exc_A),
* joint table of (number of nonzero colors, exc_A),
* the distribution of exc, tallied directly rather than derived.

For each underlying permutation tau the r**n color words are walked in
reflected Gray-code order, so consecutive elements differ in one
position's color by +-1 and every statistic changes by an O(1) update:

* exc from a per-position table that counts, by the letter order itself,
  how many of the letters i^0, ..., i^(r-1) are exceeded by their images
  when position i holds tau(i) with color c;
* exc_A from its per-position indicator (c_i = 0, tau(i) > i, i < n);
* csum and the nonzero-color count from the color that changed.

Every element is checked against the decomposition identity
exc = r*exc_A + csum and the range bounds, and at the all-zero color
word of each tau the walk's three statistics must equal those of
stats.summarize, which scans all r*n letters.  Any disagreement raises
AssertionError.

Work can be split across processes: slices by the first window value
are disjoint, cover the group, and merge by plain addition.  A call with
workers > 1 maps its slices on the pool of worker_pool, which reuses the
pool an enclosing worker_pool block has open and otherwise opens one for
the call alone.  A run of many small enumerations, such as `check`'s
sweep, opens worker_pool once so that it starts its processes once.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .perm import ColoredLetter, ColoredPermutation, GroupParams, value_words
from .stats import summarize
from .tables import JointTable

#: Group orders above this raise eyebrows; enumeration proceeds after a warning.
FEASIBILITY_LIMIT = 10**8

#: The pool worker_pool has open in this context, if any.
_OPEN_POOL: ContextVar[ProcessPoolExecutor | None] = ContextVar(
    "colorperm_open_pool", default=None
)


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


def _count_slice(r: int, n: int, first_value: int | None):
    """Tally one first-value slice (or the whole group for None).

    Returns flat lists, the first two of (r-1)*n + 1 rows of n each:
    by_csum[csum*n + exc_A], by_colored[colored*n + exc_A] and exc_row[exc].
    """
    steps = _gray_walk(r, n)
    table = _position_table(r, n)
    exc_max, excA_max, csum_max = r * n - 1, n - 1, (r - 1) * n
    by_csum = [0] * ((csum_max + 1) * n)
    by_colored = [0] * ((csum_max + 1) * n)
    exc_row = [0] * (r * n)
    zeros = (0,) * n

    for tau in value_words(n, first_value):
        exceeded = [table[i][v - 1] for i, v in enumerate(tau)]
        up = [int(i < n - 1 and v > i + 1) for i, v in enumerate(tau)]
        exc = sum(row[0] for row in exceeded)
        excA = sum(up)
        s = summarize(ColoredPermutation(tau, zeros, r))
        if (s.exc, s.exc_A, s.csum) != (exc, excA, 0):
            raise AssertionError(
                f"Gray walk disagrees with summarize at {s.perm}: "
                f"(exc, exc_A, csum) = {(exc, excA, 0)} != "
                f"{(s.exc, s.exc_A, s.csum)}"
            )
        csum = colored = 0
        by_csum[excA] += 1
        by_colored[excA] += 1
        exc_row[exc] += 1
        for i, old, new, word in steps:
            row = exceeded[i]
            exc += row[new] - row[old]
            if not old:
                excA -= up[i]
                colored += 1
            elif not new:
                excA += up[i]
                colored -= 1
            csum += new - old
            # exc >= 0 follows from the identity and the other bounds.
            if exc != r * excA + csum or not (
                0 <= excA <= excA_max and 0 <= csum <= csum_max and exc <= exc_max
            ):
                p = ColoredPermutation(tau, word, r)
                raise AssertionError(
                    f"exc = r*exc_A + csum or a range bound violated for {p}: "
                    f"exc={exc}, exc_A={excA}, csum={csum}"
                )
            by_csum[csum * n + excA] += 1
            by_colored[colored * n + excA] += 1
            exc_row[exc] += 1
    return by_csum, by_colored, exc_row


def brute_tables(r: int, n: int, workers: int | None = None) -> OracleReport:
    """Enumerate Z_r wr S_n and tally all three distributions.

    ``workers`` > 1 splits the enumeration by first window value across
    that many processes (capped at n), on the pool worker_pool has open
    if there is one; the result is identical to the serial one.  Emits a
    RuntimeWarning when the group order exceeds FEASIBILITY_LIMIT, then
    proceeds.
    """
    params = GroupParams(r, n)
    size = params.size
    if size > FEASIBILITY_LIMIT:
        warnings.warn(
            f"enumerating Z_{r} wr S_{n} means {size} elements, "
            f"above the feasibility limit {FEASIBILITY_LIMIT}",
            RuntimeWarning,
            stacklevel=2,
        )
    started = time.perf_counter()
    if workers is not None and workers > 1 and n > 1:
        workers = min(workers, n)
        with worker_pool(workers) as pool:
            # One round trip per worker, not per slice: on small groups
            # the trips cost more than the slices.
            slices = list(
                pool.map(
                    _count_slice,
                    [r] * n,
                    [n] * n,
                    range(1, n + 1),
                    chunksize=-(-n // workers),
                )
            )
    else:
        slices = [_count_slice(r, n, None)]

    by_csum, by_colored, exc_row = (
        [sum(counts) for counts in zip(*parts)] for parts in zip(*slices)
    )
    elapsed = time.perf_counter() - started

    table_csum, table_colored = (
        JointTable(r, n, [flat[i : i + n] for i in range(0, len(flat), n)])
        for flat in (by_csum, by_colored)
    )
    return OracleReport(
        r=r,
        n=n,
        size=size,
        joint_by_csum=table_csum,
        joint_by_colored_count=table_colored,
        exc_row=exc_row,
        elapsed_seconds=elapsed,
    )


@contextmanager
def worker_pool(workers: int) -> Iterator[ProcessPoolExecutor | None]:
    """Yield the pool that brute_tables maps on.

    Inside an enclosing worker_pool block this is that block's pool.
    Otherwise, for ``workers`` > 1, a pool of that many processes opens
    for the block, starts them at its first map and joins them when the
    block ends; for ``workers`` <= 1 it is None.
    """
    pool = _OPEN_POOL.get()
    if pool is not None or workers <= 1:
        yield pool
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        token = _OPEN_POOL.set(pool)
        try:
            yield pool
        finally:
            _OPEN_POOL.reset(token)


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
