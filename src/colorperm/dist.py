"""Exact distributions of excedance statistics via insertion recursions.

All counts are exact Python integers.  The central object is the joint
distribution c_i(r, n, k) = number of elements of Z_r wr S_n with color
sum i and exc_A = k, computed by a DP over n: inserting the letter n into
an element of Z_r wr S_{n-1} with exc_A = k either as an uncolored letter
(n - k ways creating a new excedance, k + 1 ways not) or carrying one of
the r - 1 nonzero colors j (which adds j to the color sum; n - k ways
leave exc_A alone, k + 1 ways lower it by one).  The base row n = 1 is
c_i(r, 1, 0) = 1 for each i in 0..r-1, one singleton window per color.

From the joint table follow the distribution of exc via
exc = r*exc_A + csum, the distribution d(r, n, k) of exc_A alone (also
available through its own three-term recursion), and the classical
Eulerian numbers as the case r = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial
from typing import Iterator

from .perm import check_params
from .tables import JointTable


def _insertion_weights(m: int, k: int) -> tuple[int, int]:
    """Ways to insert letter m into a size m-1 element with exc_A = k.

    Returns (raising, keeping): the number of insertion slots that create
    one new excedance and the number that create none.
    """
    return m - k, k + 1


def eulerian_row(n: int) -> list[int]:
    """Row n of the Eulerian triangle: permutations of S_n by excedances.

    n = 0 gives [1] (the empty permutation).
    """
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"degree n must be an integer >= 0, got {n!r}")
    if n == 0:
        return [1]
    row = [1]
    for m in range(2, n + 1):
        new = []
        for k in range(m):
            raising, keeping = _insertion_weights(m, k)
            above = row[k] if k < m - 1 else 0
            below = row[k - 1] if k >= 1 else 0
            new.append(keeping * above + raising * below)
        row = new
    return row


def iter_joint_tables(r: int, n_max: int) -> Iterator[JointTable]:
    """Yield the joint (csum, exc_A) tables for n = 1, 2, ..., n_max."""
    check_params(r, n_max)
    table = JointTable(r, 1)
    for i in range(r):
        table.set(i, 0, 1)
    yield table
    for m in range(2, n_max + 1):
        prev = table
        table = JointTable(r, m)
        for i in range((r - 1) * m + 1):
            for k in range(m):
                raising, keeping = _insertion_weights(m, k)
                acc = raising * prev.get(i, k - 1) + keeping * prev.get(i, k)
                for j in range(1, r):
                    acc += raising * prev.get(i - j, k)
                    acc += keeping * prev.get(i - j, k + 1)
                table.set(i, k, acc)
        yield table


def joint_table(r: int, n: int) -> JointTable:
    """Joint distribution of (csum, exc_A) over Z_r wr S_n."""
    for table in iter_joint_tables(r, n):
        pass
    return table


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
    check_params(r, n)
    return exc_row_from_table(joint_table(r, n))


def excA_dist(r: int, n: int, method: str = "recurrence") -> list[int]:
    """Distribution d(r, n, k) of exc_A over Z_r wr S_n, k = 0..n-1.

    method "recurrence" runs the standalone three-term recursion

        d(r, n, k) = (n-k) d(r, n-1, k-1)
                   + (k+1 + (r-1)(n-k)) d(r, n-1, k)
                   + (k+1)(r-1) d(r, n-1, k+1)

    with d(r, 1, 0) = r; method "sum-joint" sums the joint table over the
    color statistic.  The two must agree.
    """
    check_params(r, n)
    if method == "sum-joint":
        return joint_table(r, n).d_row()
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}; use 'recurrence' or 'sum-joint'")
    row = [r]
    for m in range(2, n + 1):
        new = []
        for k in range(m):
            below = row[k - 1] if k >= 1 else 0
            here = row[k] if k < m - 1 else 0
            above = row[k + 1] if k + 1 < m - 1 else 0
            new.append(
                (m - k) * below
                + (k + 1 + (r - 1) * (m - k)) * here
                + (k + 1) * (r - 1) * above
            )
        row = new
    return row


def initial_condition_formula(r: int, n: int, i: int) -> int:
    """Closed form for the k = 0 column of a joint table:

        i! (r-1)^i  *  sum over 1 <= t_1 < ... < t_i <= n of
            (i+1)^(n - t_i) * prod_{u=1}^{i} u^(t_u - t_{u-1} - 1)

    with t_0 = 0.  For i > n the sum is empty and the value 0; i = 0
    gives 1.

    Which k = 0 column the formula reproduces, by color sum or by number
    of nonzero colors, is an empirical question answered by
    initial_condition_diagnostic: both coincide for r <= 2, and for
    r >= 3 the formula matches the colored-count column only.
    """
    check_params(r, n)
    if not (isinstance(i, int) and i >= 0):
        raise ValueError(f"statistic value i must be an integer >= 0, got {i!r}")
    if i > n:
        return 0
    prefix = factorial(i) * (r - 1) ** i
    if prefix == 0:
        return 0
    total = 0
    for t in itertools.combinations(range(1, n + 1), i):
        term = (i + 1) ** (n - (t[-1] if t else 0))
        prev = 0
        for u, t_u in enumerate(t, start=1):
            term *= u ** (t_u - prev - 1)
            prev = t_u
        total += term
    return prefix * total


@dataclass
class InitialConditionDiagnostic:
    """Comparison of the k = 0 closed form against brute-force columns."""

    r: int
    n: int
    formula: list[int] = field(repr=False)
    csum_column: list[int] = field(repr=False)
    colored_count_column: list[int] = field(repr=False)
    matches_csum: bool = False
    matches_colored_count: bool = False
    sum_matches_k0_total: bool = False
    verdict: str = "neither"


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
    matches_csum = formula == csum_column
    matches_colored = formula == colored_column
    k0_total = sum(csum_column)
    if matches_csum and matches_colored:
        verdict = "both"
    elif matches_colored:
        verdict = "colored-count"
    elif matches_csum:
        verdict = "csum"
    else:
        verdict = "neither"
    return InitialConditionDiagnostic(
        r=r,
        n=n,
        formula=formula,
        csum_column=csum_column,
        colored_count_column=colored_column,
        matches_csum=matches_csum,
        matches_colored_count=matches_colored,
        sum_matches_k0_total=sum(formula) == k0_total,
        verdict=verdict,
    )
