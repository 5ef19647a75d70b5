"""Exact distributions of excedance statistics via insertion recursions.

All counts are exact Python integers.  The central object is the joint
distribution c_i(r, n, k) = number of elements of Z_r wr S_n with color
sum i and exc_A = k, computed by a DP over n: inserting the letter n into
an element of Z_r wr S_{n-1} with exc_A = k either as an uncolored letter
(n - k ways creating a new excedance, k + 1 ways not) or carrying one of
the r - 1 nonzero colors j (which adds j to the color sum; n - k ways
leave exc_A alone, k + 1 ways lower it by one).  The base row n = 1 is
c_i(r, 1, 0) = 1 for each i in 0..r-1, one singleton window per color.
Each table is built whole from the rows prev[i] of the table for n - 1:

    c[i][k] = (n-k) (prev[i][k-1] + window[i][k]) + (k+1) (prev[i][k] + window[i][k+1])

with window[i] = prev[i-1] + ... + prev[i-r+1].

The DP runs on packed columns (Kronecker substitution): column k of the
table is one Python int P_k = sum_i c[i][k] 2^(i w), so slot i of P_k is
the cell (i, k).  The window of column k is then the sum of P_k << j w
over j = 1..r-1: one shift per copy, each added onto the column below,
so no sum starts from 0.  It is built once per column.  A new column
thus costs 2r + 1 linear big-int passes in C (r - 1 shifts and r - 1
additions that put the window onto the column below, then two small
multiples and their sum), seven at r = 3, rather than a loop over its
cells in Python.  The slot width w, in whole bytes, is fixed for a run
up to n_max so that r^n_max n_max! < 2^(w-1).  No slot ever carries into the next: a cell is
at most r^n n!, and every partial sum is nonnegative and at most the cell
it goes into.  Unpacking a column writes it to bytes once and decodes its
slots with int.from_bytes over slices fixed per table.  It first asserts
that the column is nonnegative and that the top bit of its top slot is
clear, so a fault in the insertion weights that drives cells out of their
slots is an AssertionError, which `check` reports as a FAIL line.
iter_joint_tables is a plain stream over one run of the DP: it unpacks
each table as it yields it, so such a fault ends the stream.

From the joint table follow the distribution of exc via
exc = r*exc_A + csum, the distribution d(r, n, k) of exc_A alone (also
available through its own three-term recursion), and the classical
Eulerian numbers as the case r = 1.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, NamedTuple

from .perm import GroupParams, check_int, check_params
from .tables import JointTable


def _insertion_weights(m: int, k: int) -> tuple[int, int]:
    """Ways to insert letter m into a size m-1 element with exc_A = k.

    Returns (raising, keeping): the number of insertion slots that create
    one new excedance and the number that create none.
    """
    return m - k, k + 1


def eulerian_row(n: int) -> list[int]:
    """Row n of the Eulerian triangle: permutations of S_n by excedances.

    S_n is Z_1 wr S_n, where exc_A is the classical excedance number, so
    the row is excA_dist(1, n): the colored recursion at r = 1, as in the
    paper.  n = 0 gives [1] (the empty permutation).
    """
    check_int("degree n", n, 0)
    return excA_dist(1, n) if n else [1]


def _packed_columns(r: int, n_max: int) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (m, w, cols) for m = 1, 2, ..., n_max: the joint table of
    Z_r wr S_m with column k packed as cols[k] = sum_i c_i(r, m, k) 2^(i w).

    The list is updated in place at the next step; copy it to keep it.
    """
    w = 8 * (GroupParams(r, n_max).size.bit_length() // 8 + 1)
    shifts = [j * w for j in range(1, r)]

    def u(below: int, here: int) -> int:
        # Slot i: prev[i][k-1] + prev[i-1][k] + ... + prev[i-r+1][k].
        for shift in shifts:
            below += here << shift
        return below

    cols = [sum(1 << i * w for i in range(r))]
    yield 1, w, cols
    for m in range(2, n_max + 1):
        cols.append(0)
        low = u(0, cols[0])
        for k in range(m):
            raising, keeping = _insertion_weights(m, k)
            high = u(cols[k], cols[k + 1] if k + 1 < m else 0)
            cols[k] = raising * low + keeping * high
            low = high
        yield m, w, cols


def _unpack(r: int, m: int, w: int, cols: list[int]) -> JointTable:
    """The JointTable of Z_r wr S_m from its packed columns."""
    slots, size = (r - 1) * m + 1, w // 8
    parts = [slice(at, at + size) for at in range(0, slots * size, size)]
    orders = ["little"] * slots
    columns = []
    for col in cols:
        if col < 0 or col.bit_length() >= slots * w:
            raise AssertionError(f"joint DP column out of its slots at n={m}")
        data = col.to_bytes(slots * size, "little")
        cells = map(int.from_bytes, map(data.__getitem__, parts), orders)
        columns.append(list(cells))
    return JointTable(r, m, zip(*columns))


def _slot_sum(col: int, slots: int, w: int) -> int:
    """Sum of the slots of a packed column, folding its high half onto
    its low half until one slot is left; exact, since the whole sum, a
    d(r, n, k), is below 2^(w-1)."""
    while slots > 1:
        half = (slots + 1) // 2
        col = (col >> half * w) + (col & ((1 << half * w) - 1))
        slots = half
    return col


def iter_joint_tables(r: int, n_max: int) -> Iterator[JointTable]:
    """Yield the joint (csum, exc_A) tables for n = 1, 2, ..., n_max,
    from one run of the DP."""
    for m, w, cols in _packed_columns(r, n_max):
        yield _unpack(r, m, w, cols)


def iter_joint_d_rows(r: int, n_max: int) -> Iterator[list[int]]:
    """Yield iter_joint_tables(r, n_max)'s d_row() values without
    unpacking a cell."""
    for m, w, cols in _packed_columns(r, n_max):
        yield [_slot_sum(col, (r - 1) * m + 1, w) for col in cols]


def joint_table(r: int, n: int) -> JointTable:
    """Joint distribution of (csum, exc_A) over Z_r wr S_n."""
    for m, w, cols in _packed_columns(r, n):
        pass
    return _unpack(r, m, w, cols)


def exc_row_from_table(table: JointTable) -> list[int]:
    """Distribution of exc (length r*n) read off a joint (csum, exc_A) table."""
    r, n = table.r, table.n
    row = [0] * (r * n)
    for (i, a), count in table.items():
        if count:
            row[i + r * a] += count
    return row


def exc_dist(r: int, n: int) -> list[int]:
    """Distribution of exc over Z_r wr S_n: counts for exc = 0..r*n-1."""
    return exc_row_from_table(joint_table(r, n))


def iter_excA_rows(r: int, n_max: int) -> Iterator[list[int]]:
    """Yield the rows d(r, n, 0..n-1) of excA_dist for n = 1, 2, ..., n_max."""
    check_params(r, n_max)
    row = [r]
    yield row
    for m in range(2, n_max + 1):
        # g[k] = g(k - 1) of excA_dist's second form, for k = 0..m.
        g = [below + (r - 1) * here for below, here in zip([0, *row], [*row, 0])]
        g.append(0)
        row = [(m - k) * g[k] + (k + 1) * g[k + 1] for k in range(m)]
        yield row


def excA_dist(r: int, n: int, method: str = "recurrence") -> list[int]:
    """Distribution d(r, n, k) of exc_A over Z_r wr S_n, k = 0..n-1.

    The only method, "recurrence", runs the standalone three-term recursion

        d(r, n, k) = (n-k) d(r, n-1, k-1)
                   + (k+1 + (r-1)(n-k)) d(r, n-1, k)
                   + (k+1)(r-1) d(r, n-1, k+1)

    with d(r, 1, 0) = r.  Grouped by weight, with g(j) the joint DP's
    window summed over its slots, it reads

        d(r, n, k) = (n-k) g(k-1) + (k+1) g(k),
        g(j) = d(r, n-1, j) + (r-1) d(r, n-1, j+1),

    and iter_excA_rows runs this second form, building each g(j) once.
    It must agree with joint_table(r, n).d_row(), the joint table summed
    over the color statistic.
    """
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}; use 'recurrence'")
    for row in iter_excA_rows(r, n):
        pass
    return row


def initial_condition_formula(r: int, n: int, i: int) -> int:
    """Closed form for the k = 0 column of a joint table:

        i! (r-1)^i  *  sum over 1 <= t_1 < ... < t_i <= n of
            (i+1)^(n - t_i) * prod_{u=1}^{i} u^(t_u - t_{u-1} - 1)

    with t_0 = 0.  For i > n the sum is empty and the value 0; i = 0
    gives 1.  The sum is evaluated over positions 1..n in turn: a
    position that is no t_u, with u of the t's before it, contributes
    the factor u + 1, so O(n * i) steps replace the C(n, i) terms.
    That step is Stirling's recurrence
    S(m + 1, u + 1) = (u + 1) S(m, u + 1) + S(m, u), so sums[u] ends as
    S(n + 1, u + 1) and the value is i! (r-1)^i S(n + 1, i + 1).

    Which k = 0 column the formula reproduces, by color sum or by number
    of nonzero colors, is an empirical question answered by
    initial_condition_diagnostic: both coincide for r <= 2, and for
    r >= 3 the formula matches the colored-count column only.
    """
    check_params(r, n)
    check_int("statistic value i", i, 0)
    if i > n:
        return 0
    sums = [1] + [0] * i  # sums[u]: over the positions so far, u of them t's
    for _ in range(n):
        for u in range(i, 0, -1):
            sums[u] = (u + 1) * sums[u] + sums[u - 1]
    return factorial(i) * (r - 1) ** i * sums[i]


class InitialConditionDiagnostic(NamedTuple):
    """Comparison of the k = 0 closed form against brute-force columns."""

    r: int
    n: int
    matches_csum: bool
    matches_colored_count: bool
    sum_matches_k0_total: bool

    @property
    def verdict(self) -> str:
        if self.matches_csum:
            return "both" if self.matches_colored_count else "csum"
        return "colored-count" if self.matches_colored_count else "neither"


def initial_condition_diagnostic(
    r: int, n: int, report
) -> InitialConditionDiagnostic:
    """Test which k = 0 column the closed formula reproduces.

    ``report`` is an OracleReport for (r, n), made by the caller so that
    this module never reaches the oracle.  The two candidate columns are
    the k = 0 columns of the brute-force joint tables by color sum and by
    number of nonzero colors.  The diagnostic also checks that the
    formula values sum to the total number of exc_A-free elements,
    d(r, n, 0).
    """
    check_params(r, n)
    if report.r != r or report.n != n:
        raise ValueError(
            f"report is for (r={report.r}, n={report.n}), expected (r={r}, n={n})"
        )
    width = (r - 1) * n + 1
    formula = [initial_condition_formula(r, n, i) for i in range(width)]
    csum_column = [report.joint_by_csum.get(i, 0) for i in range(width)]
    colored_column = [report.joint_by_colored_count.get(i, 0) for i in range(width)]
    return InitialConditionDiagnostic(
        r,
        n,
        matches_csum=formula == csum_column,
        matches_colored_count=formula == colored_column,
        sum_matches_k0_total=sum(formula) == sum(csum_column),
    )
