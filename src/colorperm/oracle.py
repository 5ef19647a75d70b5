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
each with all r**n color words.  exc and exc_A each get one Python int
per (csum, colored) class of words, with one fixed-width slot for each
element of the block whose word is in the class, so csum and colored
are the class's own.  A slot holds the sum of its element's stored
entries: bytes.translate maps each position's values, one byte per
tau, to the stored entries of one color, and joining those columns in
the order of the words gives one integer per position.

Why every slot decodes to its own element.  A stored entry is the
entry plus its field's lift, the least amount that makes every entry of
the field nonnegative, and a slot is decoded by subtracting the n lifts
of its positions, the field's bias.  The slot width is whole bytes,
sized from the actual tables' maxima plus one headroom bit: the largest
sum of stored entries, both sides of the identity below and every
threshold lie below the slot's top bit.  So every slot holds a
nonnegative field below its top bit, no sum carries into the next slot,
and even a failing element decodes to its own statistics, whatever the
tables hold.

Every slot is checked at once:

* exc = r*exc_A + csum, as E + r*bias_A*ones = r*A + (csum + bias_E)*ones
  over whole integers, where E and A hold the stored exc and exc_A and
  ones has a 1 in every slot.  Every slot of both sides is in range, so
  they are equal exactly when every slot is.
* 0 <= exc_A <= n - 1 and exc <= r*n - 1 (exc >= 0 follows): adding
  (top bit - t)*ones sets the top bit of exactly the slots that hold at
  least t, and int.bit_count of those top bits counts them.
* The slots of the all-zero word, class (0, 0), must equal the exc and
  exc_A of stats.summarize, which scans all r*n letters of each tau.

The same counts give exact Python-int tallies: the difference of the
counts at a and a + 1 is the number of slots of exc_A a, and each of
them is counted at a in both joint tables and at r*a + csum in the exc
row.  That row is exact, because a class is tallied only when all of
its slots pass: then each slot's own exc equals r*a + csum, and the
threshold at r*n, which the identity and the exc_A bounds do not imply,
puts that value inside the row.  A block with a failing slot is decoded
slot by slot, and an AssertionError names the first failing element in
enumerate_group order and its statistics; where an element breaks both
the anchor and the identity, the anchor is named.

The unit of work is a slice: the elements whose window starts with a
value in a run of consecutive first values.  Slices of disjoint runs are
disjoint, the runs of first_value_chunks cover the group, and slices
merge by plain addition (_add).  A group with fewer than POOL_MIN
elements is one run, range(1, n + 1), whatever the workers, as is every
serial call.  brute_tables is the one driver of the walk: it runs the
tasks of a group on a pool of its own when there is more than one and
inline otherwise, and merges them.  `dist`, `joint` and `check`'s
`lemma` and `recursion` suites all read a group through it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import chain, islice, product, repeat
from typing import NamedTuple

from . import stats
from .perm import ColoredPermutation, GroupParams, value_words
from .stats import summarize
from .tables import JointTable

#: Group orders above this raise eyebrows; enumeration proceeds after a warning.
FEASIBILITY_LIMIT = 10**8
#: Groups with fewer elements than this are walked inline as one run.
#: The bound is sized by the oracle walk, the only walk a pool runs.
#: Medians of brute_tables serially against workers=2, each in a fresh
#: process (shared 2-vCPU host, CPython 3.11), from three sessions:
#:   (3, 5)    29,160 elements   2.0 / 13.5 ms    3.9 / 17.0
#:   (2, 6)    46,080            4.5 / 17.3       8.7 / 22.2
#:   (4, 5)   122,880            9.5 / 16.0       7.1 / 24.1
#:   (5, 5)   375,000           21.6 / 21.3      19.4 / 28.1
#:   (3, 6)   524,880           32.5 / 29.6      36.6 / 38.3    36.7 / 43.5
#:   (2, 7)   645,120           42.7 / 32.0      71.0 / 63.5    77.3 / 65.4
#:   (6, 5)   933,120                                           75.0 / 68.9
#: (3, 6) is at break-even, and a pool of two gains in every session
#: only from (2, 7) on, so the bound lies between the two.  Results never
#: depend on it, because the runs of any split merge to the same tallies.
POOL_MIN = 6 * 10**5
#: A block holds at most BLOCK permutations tau, with all r**n color
#: words each, and fewer when that would take it past BLOCK_SLOTS
#: elements, which bounds the memory of a block.
BLOCK = 256
BLOCK_SLOTS = 2**18


@dataclass(frozen=True)
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


def _classes(r: int, n: int) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """The r**n color words of Z_r wr S_n, grouped by class.

    Maps each (csum, colored) pair that some word has to the list of its
    words, each a tuple of n colors, in product order.  The first class
    is (0, 0), the all-zero word alone.
    """
    classes: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for word in product(range(r), repeat=n):
        classes.setdefault((sum(word), n - word.count(0)), []).append(word)
    return classes


def _stored_tables(r: int, n: int):
    """(width, bias_e, bias_a, translations) of the packed slots of Z_r wr S_n.

    The fields are exc and exc_A, with entries from stats.contributions.
    Each entry is stored plus its field's lift, the least amount that
    makes every entry of the field nonnegative, so a slot holds its
    element's field plus the bias, n times the lift.  translations[f][i]
    [c][b] maps the byte v to byte b of the stored entry of position i + 1
    holding v with color c.
    """
    fields = stats.contributions(r, n)
    lifts = [max(0, -min(min(map(min, rows)) for rows in field)) for field in fields]
    bias_e, bias_a = (n * lift for lift in lifts)
    top_e, top_a = (
        sum(max(map(max, rows)) for rows in field) + n * lift
        for field, lift in zip(fields, lifts)
    )
    # Every stored field, both sides of the identity and every threshold
    # stay below the slot's top bit.
    bound = max(
        top_e + r * bias_a,
        r * top_a + (r - 1) * n + bias_e,
        bias_e + r * n,
        bias_a + n,
    )
    width = (bound.bit_length() + 8) // 8
    translations = [
        [
            [
                [stored[b::width] + bytes(255 - n) for b in range(width)]
                for stored in (
                    bytes(width) + _slot_bytes(entries, width, lift)
                    for entries in zip(*rows)
                )
            ]
            for rows in field
        ]
        for field, lift in zip(fields, lifts)
    ]
    return width, bias_e, bias_a, translations


def _packed(chunk, width: int, translations, digits) -> memoryview:
    """One field of every element of the chunk, in slots of width bytes.

    Slot j*len(chunk) + t holds the stored field of (chunk[t], word j),
    the words in the order of digits: the sum over positions of the
    stored entries, each position's from its values, one byte per tau,
    through bytes.translate.
    """
    size = len(chunk)
    total = 0
    for values, per_color, colors in zip(map(bytes, zip(*chunk)), translations, digits):
        by_color = []
        for per_byte in per_color:
            slots = bytearray(size * width)
            for b, translation in enumerate(per_byte):
                slots[b::width] = values.translate(translation)
            by_color.append(slots)
        total += int.from_bytes(b"".join(map(by_color.__getitem__, colors)), "little")
    return memoryview(total.to_bytes(len(digits[0]) * size * width, "little"))


def _count_slice(r: int, n: int, first_values: range):
    """Tally every element whose window starts with a value in first_values.

    Returns flat lists, the first two of (r-1)*n + 1 rows of n each:
    by_csum[csum*n + exc_A], by_colored[colored*n + exc_A] and exc_row[exc].
    """
    width, bias_e, bias_a, translations = _stored_tables(r, n)
    head = 1 << (8 * width - 1)
    classes = _classes(r, n)
    digits = list(zip(*chain.from_iterable(classes.values())))
    ones_of: dict[int, tuple[int, int, int]] = {}
    by_csum = [0] * (((r - 1) * n + 1) * n)
    by_colored = [0] * (((r - 1) * n + 1) * n)
    exc_row = [0] * (r * n)
    taus = value_words(n, first_values)
    block = max(1, min(BLOCK, BLOCK_SLOTS // len(digits[0])))
    while chunk := list(islice(taus, block)):
        size = len(chunk)
        packed_exc, packed_excA = (
            _packed(chunk, width, field, digits) for field in translations
        )
        failures = []
        start = 0
        for (csum, colored), words in classes.items():
            slots = size * len(words)
            stop = start + slots * width
            exc = int.from_bytes(packed_exc[start:stop], "little")
            excA = int.from_bytes(packed_excA[start:stop], "little")
            if slots not in ones_of:
                ones = int.from_bytes(b"\1".ljust(width, b"\0") * slots, "little")
                ones_of[slots] = ones, head * ones
            ones, heads = ones_of[slots]
            # The slots of the all-zero word must hold summarize's figures.
            anchored = csum > 0 or _anchored(
                r, chunk, exc, excA, width, bias_e, bias_a
            )
            # Slots that hold at least a, for exc_A at a = 0..n, and for exc
            # at r*n: x + (head - threshold) carries into the top bit of a
            # slot exactly when the slot holds at least threshold.
            excA_at_least = []
            above = excA + (head - bias_a) * ones
            for _ in range(n + 1):
                excA_at_least.append((above & heads).bit_count())
                above -= ones
            exc_too_large = (exc + (head - bias_e - r * n) * ones) & heads
            if (
                not anchored
                or exc + r * bias_a * ones != r * excA + (csum + bias_e) * ones
                or excA_at_least[0] != slots
                or excA_at_least[n]
                or exc_too_large
            ):
                failures += _failures(
                    r, chunk, words, csum, exc, excA, width, bias_e, bias_a
                )
            else:
                tallies = [excA_at_least[a] - excA_at_least[a + 1] for a in range(n)]
                for a, tally in enumerate(tallies):
                    by_csum[csum * n + a] += tally
                    by_colored[colored * n + a] += tally
                # Every slot of exc_A a holds exc r*a + csum, below r*n.
                for level, tally in zip(range(csum, r * n, r), tallies):
                    exc_row[level] += tally
            start = stop
        if failures:
            # The first failing element in enumerate_group order.
            raise AssertionError(min(failures)[1])
    return by_csum, by_colored, exc_row


def _slot_bytes(values, width: int, bias: int) -> bytes:
    """Each of values plus bias in width bytes, low byte first."""
    return b"".join(
        map(int.to_bytes, map(bias.__add__, values), repeat(width), repeat("little"))
    )


def _decode(x: int, slots: int, width: int, bias: int) -> list[int]:
    """The fields of the slots of x, less bias, lowest slot first."""
    data = x.to_bytes(slots * width, "little")
    return [
        int.from_bytes(data[j : j + width], "little") - bias
        for j in range(0, len(data), width)
    ]


def _anchored(r, chunk, exc, excA, width, bias_e, bias_a) -> bool:
    """Whether the slots of the all-zero word, one per tau of the chunk,
    hold the exc and exc_A of summarize, which scans all r*n letters."""
    zeros = (0,) * len(chunk[0])
    summaries = [summarize(ColoredPermutation(tau, zeros, r)) for tau in chunk]
    return (
        exc.to_bytes(len(chunk) * width, "little")
        == _slot_bytes([s.exc for s in summaries], width, bias_e)
        and excA.to_bytes(len(chunk) * width, "little")
        == _slot_bytes([s.exc_A for s in summaries], width, bias_a)
        and not any(s.csum for s in summaries)
    )


def _failures(r, chunk, words, csum, exc, excA, width, bias_e, bias_a):
    """((tau index, word, kind), message) for each failing slot of one
    class: kind 0 where the all-zero word disagrees with summarize, kind 1
    where exc = r*exc_A + csum or a range bound fails.  Every slot
    decodes to its element's own statistics."""
    n, size = len(chunk[0]), len(chunk)
    slots = size * len(words)
    decoded = zip(
        _decode(exc, slots, width, bias_e), _decode(excA, slots, width, bias_a)
    )
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
        if e != r * a + csum or not (0 <= a <= n - 1 and e <= r * n - 1):
            found.append((
                (t, word, 1),
                f"exc = r*exc_A + csum or a range bound violated for {p}: "
                f"exc={e}, exc_A={a}, csum={csum}",
            ))
    return found


def _add(slices) -> list[list[int]]:
    """Cellwise sums of slice tallies, each a triple of flat lists."""
    return [[sum(counts) for counts in zip(*parts)] for parts in zip(*slices)]


def first_value_chunks(r: int, n: int, workers: int) -> list[range]:
    """1..n cut into runs of consecutive values, one per task of a walk
    of Z_r wr S_n: at most min(workers, n) runs, or the single run
    range(1, n + 1) when the group has fewer than POOL_MIN elements, on
    which starting a pool costs more than the walk.  A walk goes to a
    pool exactly when it has more than one run."""
    runs = min(workers, n) if GroupParams(r, n).size >= POOL_MIN else 1
    size = -(-n // max(1, runs))
    return [range(v, min(v + size, n + 1)) for v in range(1, n + 1, size)]


def brute_tables(r: int, n: int, workers: int | None = None) -> OracleReport:
    """Enumerate Z_r wr S_n and tally all three distributions.

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
    FEASIBILITY_LIMIT, then proceeds.
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
    if len(chunks) == 1:
        slices = [_count_slice(r, n, chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            slices = list(pool.map(_count_slice, repeat(r), repeat(n), chunks))
    by_csum, by_colored, exc_row = _add(slices)
    elapsed = time.perf_counter() - started
    table_csum, table_colored = (
        JointTable(r, n, [flat[i : i + n] for i in range(0, len(flat), n)])
        for flat in (by_csum, by_colored)
    )
    return OracleReport(r, n, size, table_csum, table_colored, exc_row, elapsed)


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
