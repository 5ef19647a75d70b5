"""Brute-force oracle: count statistics by walking whole groups.

This module never touches the recursion code.  It visits every element
of Z_r wr S_n, computes each statistic from its definition and tallies
exact counts:

* joint table of (color sum, exc_A),
* joint table of (number of nonzero colors, exc_A),
* the distribution of exc, each element counted at r*exc_A + csum,
  which its own exc was checked to equal.

Every statistic is a sum over positions (see stats): the exc and exc_A
entries come from stats.contributions, and the number of nonzero colors
is called "colored" below.

The elements are taken a block at a time: up to BLOCK permutations tau,
each with all r**n color words.  No word is held whole.  The window is
split at h = n // 2, and _classes lists the words of each half, r**h of
the first h positions and r**(n - h) of the rest; a word is the pair of
its indices in the two lists, filed under its (csum, colored) class.
exc and exc_A each get one Python int per class, with one fixed-width
slot for each element of the block whose word is in the class, so csum
and colored are the class's own.  A slot holds the sum of its element's
entries, built from two half sums.  bytes.translate maps each
position's values, one byte per tau, to the entries of one color: one
column per position and color.  Each half is summed once over its own
words: joining a position's columns in the order of the half's words
gives one integer per position, and their sum holds one chunk per word
of the half.  A class's int is built straight from the two halves:
joining the first half's chunk of each of its words, in the class's
order, gives one integer, joining their second half's chunks another,
and their sum holds the class's slots.

Why every slot decodes to its own element.  Every entry of
stats.contributions counts letters or positions, so each table is first
checked to hold no negative entry, and a negative one is named by its
cell before any element is walked.  A slot then holds a plain sum of
nonnegative entries.  The slot width is whole bytes, sized from the
actual tables' maxima plus one headroom bit: the largest sum of entries,
both sides of the identity below and every threshold lie below the
slot's top bit.  So no sum carries into the next slot, and even a
failing element of a nonnegative table decodes to its own statistics.

Every slot is checked at once:

* exc = r*exc_A + csum, as E = r*A + csum*ones over whole integers,
  where E and A hold exc and exc_A and ones has a 1 in every slot.
  Every slot of both sides is in range, so they are equal exactly when
  every slot is.
* exc_A <= n - 1 and exc <= r*n - 1 (both are sums of nonnegative
  entries): adding (top bit - t)*ones sets the top bit of exactly the
  slots that hold at least t, and int.bit_count of those top bits
  counts them.
* The slots of the all-zero word, class (0, 0), must equal the exc and
  exc_A of stats.summarize, which scans all r*n letters of each tau.

The same counts give exact Python-int tallies, one list of n per class:
the difference of the counts at a and a + 1 is the number of slots of
exc_A a, and a passing class adds it at a into its own list.  The walk
knows neither table's shape.  brute_tables counts a class's elements
of exc_A a at (csum, a) in one joint table, at (colored, a) in the
other and at r*a + csum in the exc row.  That row is exact, because a
class is tallied only when all of its slots pass: then each slot's own
exc equals r*a + csum, and the threshold at r*n, which the identity and
the exc_A bounds do not imply, puts that value inside the row.  A block
with a failing slot is decoded slot by slot, and an AssertionError
names the first failing element in enumerate_group order and its
statistics; where an element breaks both the anchor and the identity,
the anchor is named.

The unit of work is a slice: the elements whose window starts with a
value in a run of consecutive first values.  Slices of disjoint runs are
disjoint, the runs of first_value_chunks cover the group, and slices
merge by adding their lists class by class.  A group with fewer than
POOL_MIN elements is one run, range(1, n + 1), whatever the workers, as
is every serial call.  brute_tables is the one driver of the walk: it
runs the tasks of a group on a pool of its own when there is more than
one and inline otherwise, and merges them.  `dist`, `joint` and
`check`'s `lemma` and `recursion` suites all read a group through it.
"""

from __future__ import annotations

import time
import warnings
from itertools import islice, product, repeat
from typing import NamedTuple

from . import stats
from .perm import ColoredPermutation, GroupParams, check_int, value_words
from .stats import summarize
from .tables import JointTable

#: Group orders above this raise eyebrows; enumeration proceeds after a warning.
FEASIBILITY_LIMIT = 10**8
#: Groups with fewer elements than this are walked inline as one run.
#: The bound is sized by the oracle walk, the only walk a pool runs.
#: Medians of brute_tables serially against workers=2, each in a fresh
#: process (shared 2-vCPU host, CPython 3.11), from three sessions, and
#: last a fourth, once each block was built from two half sums:
#:   (3, 5)    29,160 elements   2.0 / 13.5 ms    3.9 / 17.0
#:   (2, 6)    46,080            4.5 / 17.3       8.7 / 22.2
#:   (4, 5)   122,880            9.5 / 16.0       7.1 / 24.1
#:   (5, 5)   375,000           21.6 / 21.3      19.4 / 28.1
#:   (3, 6)   524,880           32.5 / 29.6      36.6 / 38.3    36.7 / 43.5
#:   (2, 7)   645,120           42.7 / 32.0      71.0 / 63.5    77.3 / 65.4
#:   (6, 5)   933,120                                           75.0 / 68.9
#:   (3, 6)   524,880           24.6 / 25.1      (fourth session)
#:   (2, 7)   645,120           49.3 / 80.5      (fourth session)
#: (3, 6) is at break-even, and a pool of two gains in the first three
#: sessions only from (2, 7) on, so the bound lies between the two.  In
#: the fourth a pool lost at (2, 7) also with one full-size int per
#: position (54.4 / 72.9 and 51.3 / 79.2 ms), so the host, not the walk,
#: moved, and the bound is kept.  Results never depend on it, because the
#: runs of any split merge to the same tallies.
POOL_MIN = 6 * 10**5
#: A block holds at most BLOCK permutations tau, with all r**n color
#: words each, and fewer when that would take it past BLOCK_SLOTS
#: elements, which bounds the memory of a block.
BLOCK = 256
BLOCK_SLOTS = 2**18


class OracleReport(NamedTuple):
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


def _classes(r: int, n: int):
    """(halves, classes): the r**n color words of Z_r wr S_n by class.

    The window is cut at h = n // 2.  halves holds the words of each
    half, r**h of the first h positions and r**(n - h) of the rest, each
    a tuple of colors in product order.  classes maps each (csum,
    colored) pair that some word has to (lows, highs), where word j of
    the class is halves[0][lows[j]] + halves[1][highs[j]].  The words of
    a class are in product order and the classes in the order of their
    first word, so the first class is (0, 0), the all-zero word alone.
    """
    halves = [list(product(range(r), repeat=m)) for m in (n // 2, n - n // 2)]
    # The words of the second half by their own (csum, colored), each
    # group in product order.  Under one word of the first half every
    # group goes to a class of its own, so each class gets its words in
    # product order.
    by_high: dict[tuple[int, int], list[int]] = {}
    for k, word in enumerate(halves[1]):
        by_high.setdefault((sum(word), len(word) - word.count(0)), []).append(k)
    classes: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for i, word in enumerate(halves[0]):
        low_csum, low_colored = sum(word), len(word) - word.count(0)
        for (csum, colored), group in by_high.items():
            key = low_csum + csum, low_colored + colored
            lows, highs = classes.setdefault(key, ([], []))
            lows.extend(repeat(i, len(group)))
            highs.extend(group)
    return halves, classes


def _stored_tables(r: int, n: int):
    """(width, translations) of the packed slots of Z_r wr S_n.

    The fields are exc and exc_A, with entries from stats.contributions.
    Every entry counts letters or positions, so the first negative one,
    exc before exc_A and then by position, value and color, raises an
    AssertionError that names its cell, and a slot holds the plain sum
    of its element's entries.  translations[f][i][c][b] maps the byte v
    to byte b of the entry of position i + 1 holding v with color c.
    """
    fields = stats.contributions(r, n)
    for name, field in zip(("exc", "exc_A"), fields):
        for i, rows in enumerate(field, 1):
            for v, entries in enumerate(rows, 1):
                for c, entry in enumerate(entries):
                    if entry < 0:
                        raise AssertionError(
                            f"stats.contributions: negative {name} entry {entry} "
                            f"at position {i}, value {v}, color {c}"
                        )
    top_e, top_a = (sum(max(map(max, rows)) for rows in field) for field in fields)
    # Every field, both sides of the identity and every threshold stay
    # below the slot's top bit.
    bound = max(top_e, r * top_a + (r - 1) * n, r * n)
    width = (bound.bit_length() + 8) // 8
    translations = [
        [
            [
                [stored[b::width] + bytes(255 - n) for b in range(width)]
                for stored in (
                    bytes(width) + _slot_bytes(entries, width)
                    for entries in zip(*rows)
                )
            ]
            for rows in field
        ]
        for field in fields
    ]
    return width, translations


def _half_sums(columns, words, size: int) -> list[bytes]:
    """One chunk of size bytes per word of a half, in product order: the
    sum over the half's positions of each word's per-color columns."""
    total = 0
    for by_color, colors in zip(columns, zip(*words)):
        total += int.from_bytes(b"".join(map(by_color.__getitem__, colors)), "little")
    data = total.to_bytes(len(words) * size, "little")
    return [data[q : q + size] for q in range(0, len(data), size)]


def _packed(chunk, width: int, translations, halves, classes) -> list[int]:
    """One field of every element of the chunk, one int per class of
    classes, in its order, with slots of width bytes.

    Slot j*len(chunk) + t of class (lows, highs) holds the field of
    (chunk[t], word j), word j being halves[0][lows[j]] +
    halves[1][highs[j]]: the sum over positions of the entries, each
    position's from its values, one byte per tau, through
    bytes.translate.  A half's sums are built once per word of the half,
    first half first; the class's int is the first half's chunks joined
    in lows order plus the second half's joined in highs order.
    """
    size = len(chunk)
    columns = []
    for values, per_color in zip(map(bytes, zip(*chunk)), translations):
        by_color = []
        for per_byte in per_color:
            slots = bytearray(size * width)
            for b, translation in enumerate(per_byte):
                slots[b::width] = values.translate(translation)
            by_color.append(slots)
        columns.append(by_color)
    h = len(halves[0][0])
    low = _half_sums(columns[:h], halves[0], size * width)
    high = _half_sums(columns[h:], halves[1], size * width)
    return [
        int.from_bytes(b"".join(map(low.__getitem__, lows)), "little")
        + int.from_bytes(b"".join(map(high.__getitem__, highs)), "little")
        for lows, highs in classes.values()
    ]


def _count_slice(r: int, n: int, first_values: range):
    """Tally every element whose window starts with a value in first_values.

    Returns {(csum, colored): counts} with one entry per class of
    _classes(r, n), in its order: counts[a] is the number of the slice's
    elements of the class with exc_A a, for a = 0..n-1.
    """
    width, translations = _stored_tables(r, n)
    head = 1 << (8 * width - 1)
    halves, classes = _classes(r, n)
    ones_of: dict[int, tuple[int, int]] = {}
    tallies = {key: [0] * n for key in classes}
    zeros = (0,) * n
    taus = value_words(n, first_values)
    block = max(1, min(BLOCK, BLOCK_SLOTS // r**n))
    while chunk := list(islice(taus, block)):
        size = len(chunk)
        packed_exc, packed_excA = (
            _packed(chunk, width, field, halves, classes) for field in translations
        )
        # The slots of the all-zero word, class (0, 0), must hold the exc,
        # exc_A and csum of summarize, which scans all r*n letters of each tau.
        summaries = [summarize(ColoredPermutation(tau, zeros, r)) for tau in chunk]
        anchor = (
            int.from_bytes(_slot_bytes([s.exc for s in summaries], width), "little"),
            int.from_bytes(_slot_bytes([s.exc_A for s in summaries], width), "little"),
            any(s.csum for s in summaries),
        )
        failures = []
        for ((csum, _), members), counts, exc, excA in zip(
            classes.items(), tallies.values(), packed_exc, packed_excA
        ):
            slots = size * len(members[0])
            if slots not in ones_of:
                ones = int.from_bytes(b"\1".ljust(width, b"\0") * slots, "little")
                ones_of[slots] = ones, head * ones
            ones, heads = ones_of[slots]
            # Slots that hold at least a, for exc_A at a = 1..n, and for exc
            # at r*n: x + (head - threshold) carries into the top bit of a
            # slot exactly when the slot holds at least threshold.
            excA_at_least = [slots]
            above = excA + head * ones
            for _ in range(n):
                above -= ones
                excA_at_least.append((above & heads).bit_count())
            exc_too_large = (exc + (head - r * n) * ones) & heads
            if (
                not csum and (exc, excA, False) != anchor
                or exc != r * excA + csum * ones
                or excA_at_least[n]
                or exc_too_large
            ):
                failures += _failures(r, chunk, halves, members, csum, exc, excA, width)
            else:
                for a in range(n):
                    counts[a] += excA_at_least[a] - excA_at_least[a + 1]
        if failures:
            # The first failing element in enumerate_group order.
            raise AssertionError(min(failures)[1])
    return tallies


def _slot_bytes(values, width: int) -> bytes:
    """Each of values in width bytes, low byte first."""
    return b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))


def _decode(x: int, slots: int, width: int) -> list[int]:
    """The fields of the slots of x, lowest slot first."""
    data = x.to_bytes(slots * width, "little")
    return [
        int.from_bytes(data[j : j + width], "little") for j in range(0, len(data), width)
    ]


def _failures(r, chunk, halves, members, csum, exc, excA, width):
    """((tau index, word, kind), message) for each failing slot of one
    class, its words rebuilt from the halves as in _classes: kind 0 where
    the all-zero word disagrees with summarize, kind 1 where exc =
    r*exc_A + csum or a range bound fails.  Every slot decodes to its
    element's own statistics."""
    n, size = len(chunk[0]), len(chunk)
    words = [halves[0][i] + halves[1][k] for i, k in zip(*members)]
    slots = size * len(words)
    decoded = zip(_decode(exc, slots, width), _decode(excA, slots, width))
    found = []
    for j, (e, a) in enumerate(decoded):
        t, word = j % size, words[j // size]
        p = ColoredPermutation(chunk[t], word, r)
        s = summarize(p) if not csum else None
        if s is not None and (s.exc, s.exc_A, s.csum) != (e, a, 0):
            found.append((
                (t, word, 0),
                f"packed slots disagree with summarize at {p}: "
                f"(exc, exc_A, csum) = {(e, a, 0)} != {(s.exc, s.exc_A, s.csum)}",
            ))
        if e != r * a + csum or not (a <= n - 1 and e <= r * n - 1):
            found.append((
                (t, word, 1),
                f"exc = r*exc_A + csum or a range bound violated for {p}: "
                f"exc={e}, exc_A={a}, csum={csum}",
            ))
    return found


def first_value_chunks(r: int, n: int, workers: int) -> list[range]:
    """1..n cut into runs of consecutive values, one per task of a walk
    of Z_r wr S_n: at most min(workers, n) runs, or the single run
    range(1, n + 1) when the group has fewer than POOL_MIN elements, on
    which starting a pool costs more than the walk.  A walk goes to a
    pool exactly when it has more than one run.  workers must be an
    integer >= 1, or ValueError is raised."""
    check_int("workers", workers, 1)
    runs = min(workers, n) if GroupParams(r, n).size >= POOL_MIN else 1
    size = -(-n // runs)
    return [range(v, min(v + size, n + 1)) for v in range(1, n + 1, size)]


def brute_tables(r: int, n: int, workers: int | None = None) -> OracleReport:
    """Enumerate Z_r wr S_n and tally all three distributions.

    One pass over the slices' class lists, added by class key, fills the
    rows of both joint tables and the exc row: class (csum, colored) adds
    its count at exc_A a to cells (csum, a) and (colored, a) and to exc
    r*a + csum.

    The slices of first_value_chunks(r, n, workers) run on a pool of one
    process each when there is more than one, and inline otherwise, as
    they are on any group below POOL_MIN; the result does not depend on
    ``workers``.  With one process per slice no task ever waits in the
    queue, so an error in one slice closes the pool once the running
    slices end.  concurrent.futures is imported only when a pool opens,
    so importing the package does not import multiprocessing.  A pool
    task is pickled by its module-level name, so a fault injected by
    replacing _count_slice with a closure runs inline only; to reach the
    workers, patch a function it calls, such as stats.contributions.
    Emits a RuntimeWarning when the group order exceeds
    FEASIBILITY_LIMIT, then proceeds.  None stands for one worker; any
    other ``workers`` must be an integer >= 1, or ValueError is raised
    before the warning.
    """
    size = GroupParams(r, n).size
    chunks = first_value_chunks(r, n, 1 if workers is None else workers)
    if size > FEASIBILITY_LIMIT:
        warnings.warn(
            f"enumerating Z_{r} wr S_{n} means {size} elements, "
            f"above the feasibility limit {FEASIBILITY_LIMIT}",
            RuntimeWarning,
            stacklevel=2,
        )
    started = time.perf_counter()
    if len(chunks) == 1:
        slices = [_count_slice(r, n, chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            slices = list(pool.map(_count_slice, repeat(r), repeat(n), chunks))
    by_csum = [[0] * n for _ in range((r - 1) * n + 1)]
    by_colored = [row[:] for row in by_csum]
    exc_row = [0] * (r * n)
    for tally in slices:
        for (csum, colored), counts in tally.items():
            for a, count in enumerate(counts):
                by_csum[csum][a] += count
                by_colored[colored][a] += count
            # Every element of exc_A a in the class has exc r*a + csum, below r*n.
            for level, count in zip(range(csum, r * n, r), counts):
                exc_row[level] += count
    elapsed = time.perf_counter() - started
    tables = [JointTable(r, n, rows) for rows in (by_csum, by_colored)]
    return OracleReport(r, n, size, *tables, exc_row, elapsed)


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
