"""Insertion recursions: joint, marginal and exc distributions."""

import hashlib
from itertools import combinations
from math import factorial

import pytest

from colorperm import closed, dist
from colorperm.dist import (
    InitialConditionDiagnostic,
    _insertion_weights,
    eulerian_row,
    excA_dist,
    exc_dist,
    exc_row_from_table,
    initial_condition_diagnostic,
    initial_condition_formula,
    iter_joint_d_rows,
    iter_joint_tables,
    joint_table,
)
from colorperm.tables import JointTable


def _four_term(prev, r, n, i, k):
    """Cell (i, k) of the table for n from the table prev for n - 1."""
    raising, keeping = n - k, k + 1
    cell = raising * prev.get(i, k - 1) + keeping * prev.get(i, k)
    for j in range(1, r):
        cell += raising * prev.get(i - j, k) + keeping * prev.get(i - j, k + 1)
    return cell


def _reference_joint_tables(r, n_max):
    """The joint tables for n = 1..n_max, cell by cell from _four_term."""
    table = JointTable(r, 1, [[1]] * r)
    yield table
    for n in range(2, n_max + 1):
        rows = [
            [_four_term(table, r, n, i, k) for k in range(n)]
            for i in range((r - 1) * n + 1)
        ]
        table = JointTable(r, n, rows)
        yield table


class TestEulerian:
    def test_frozen_rows(self):
        assert eulerian_row(0) == [1]
        assert eulerian_row(1) == [1]
        assert eulerian_row(2) == [1, 1]
        assert eulerian_row(3) == [1, 4, 1]
        assert eulerian_row(4) == [1, 11, 11, 1]
        assert eulerian_row(5) == [1, 26, 66, 26, 1]

    def test_row_sums_are_factorials(self):
        for n in range(1, 30):
            assert sum(eulerian_row(n)) == factorial(n)

    def test_rows_are_palindromic(self):
        for n in range(1, 20):
            row = eulerian_row(n)
            assert row == row[::-1]

    @pytest.mark.parametrize("n", [-1, 2.0, True])
    def test_rejects_negative(self, n):
        with pytest.raises(ValueError, match="integer >= 0"):
            eulerian_row(n)

    def test_matches_one_color_case(self):
        for n in range(1, 10):
            assert eulerian_row(n) == excA_dist(1, n)


class TestJointTable:
    def test_base_case(self):
        table = joint_table(3, 1)
        assert [table.get(i, 0) for i in range(3)] == [1, 1, 1]
        assert table.total == 3

    def test_b2_frozen(self):
        table = joint_table(2, 2)
        cells = {key: count for key, count in table.items()}
        assert cells == {
            (0, 0): 1,
            (0, 1): 1,
            (1, 0): 3,
            (1, 1): 1,
            (2, 0): 2,
            (2, 1): 0,
        }

    def test_g32_frozen(self):
        table = joint_table(3, 2)
        assert [table.get(i, 0) for i in range(5)] == [1, 3, 5, 4, 2]
        assert [table.get(i, 1) for i in range(5)] == [1, 1, 1, 0, 0]

    def test_mass_conservation(self):
        for r in range(1, 5):
            for n in range(1, 9):
                assert joint_table(r, n).total == r**n * factorial(n)

    def test_iter_levels_consistent(self):
        tables = list(iter_joint_tables(3, 5))
        assert [t.n for t in tables] == [1, 2, 3, 4, 5]
        assert tables[-1] == joint_table(3, 5)

    def test_recursion_relation_on_enumerated_tables(self, oracle_cache):
        # The four-term cell recursion, verified between two tables that
        # were both produced by enumeration, not by the DP itself.
        for r, n in [(2, 4), (3, 4)]:
            prev = oracle_cache.get(r, n - 1).joint_by_csum
            cur = oracle_cache.get(r, n).joint_by_csum
            for i in range((r - 1) * n + 1):
                for k in range(n):
                    expected = _four_term(prev, r, n, i, k)
                    assert cur.get(i, k) == expected, (r, n, i, k)

    @pytest.mark.parametrize(
        "r, n", [(1, 60), (2, 50), (3, 40), (4, 30), (5, 25), (6, 22), (7, 20)]
    )
    def test_packed_dp_matches_the_cell_recursion(self, r, n):
        # Slots several bytes wide at every window width: r = 1 packs one
        # slot per column and shifts nothing, r = 7 adds six shifted
        # copies, and the column past the last is all zero at every n.
        assert list(iter_joint_tables(r, n)) == list(_reference_joint_tables(r, n))

    @pytest.mark.parametrize(
        "r, n, digest",
        [
            (3, 100, "deba579c63705c18663091786e668edcd8522639a35790f733b41821ca4f1052"),
            (5, 40, "b56f5e327bc4004b2b75987f77be578a1322d31fda37a3c46ee2d784bdb76625"),
        ],
    )
    def test_csv_bytes_at_large_points(self, r, n, digest):
        # Digests of the tables made by the per-cell row DP.
        csv = joint_table(r, n).to_csv().encode()
        assert hashlib.sha256(csv).hexdigest() == digest

    @pytest.mark.parametrize("r", range(1, 6))
    def test_d_rows_equal_the_unpacked_column_sums(self, r):
        expected = [table.d_row() for table in iter_joint_tables(r, 40)]
        assert list(iter_joint_d_rows(r, 40)) == expected

    @pytest.mark.parametrize("r, n", [(1, 7), (3, 9), (5, 2)])
    def test_weights_are_asked_once_per_column(self, monkeypatch, r, n):
        calls = []

        def counted(m, k):
            calls.append((m, k))
            return _insertion_weights(m, k)

        monkeypatch.setattr(dist, "_insertion_weights", counted)
        joint_table(r, n)
        # Once per (m, k): sum of m over m = 2..n calls, in DP order.
        assert calls == [(m, k) for m in range(2, n + 1) for k in range(m)]

    def test_insertion_weights(self):
        assert _insertion_weights(4, 1) == (3, 2)
        assert _insertion_weights(2, 0) == (2, 1)


class TestMarginals:
    def test_excA_frozen(self):
        assert excA_dist(2, 2) == [6, 2]
        assert excA_dist(3, 2) == [15, 3]
        assert excA_dist(2, 3) == [26, 20, 2]

    def test_methods_agree(self):
        for r in range(1, 5):
            for n in range(1, 13):
                assert excA_dist(r, n) == joint_table(r, n).d_row(), (r, n)

    def test_methods_agree_large(self):
        assert excA_dist(5, 40) == joint_table(5, 40).d_row()

    def test_bad_method(self):
        with pytest.raises(ValueError):
            excA_dist(2, 2, method="magic")

    def test_exc_dist_frozen(self):
        assert exc_dist(2, 2) == [1, 3, 3, 1]
        assert exc_dist(3, 2) == [1, 3, 5, 5, 3, 1]

    def test_exc_dist_shape_and_mass(self):
        for r in range(1, 5):
            for n in range(1, 8):
                row = exc_dist(r, n)
                assert len(row) == r * n
                assert sum(row) == r**n * factorial(n)

    def test_exc_row_from_table_matches(self):
        table = joint_table(3, 4)
        assert exc_row_from_table(table) == exc_dist(3, 4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            joint_table(0, 2)
        with pytest.raises(ValueError):
            joint_table(True, 2)
        with pytest.raises(ValueError):
            exc_dist(2, 0)


class TestInitialCondition:
    def test_frozen_values(self):
        assert initial_condition_formula(2, 2, 1) == 3
        assert initial_condition_formula(2, 1, 1) == 1
        assert initial_condition_formula(3, 1, 1) == 2
        assert initial_condition_formula(5, 7, 0) == 1

    def test_zero_cases(self):
        assert initial_condition_formula(3, 2, 5) == 0  # i > n
        assert initial_condition_formula(1, 4, 2) == 0  # no nonzero colors

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            initial_condition_formula(2, 2, -1)
        with pytest.raises(ValueError):
            initial_condition_formula(2, 3, True)

    def test_matches_the_sum_over_subsets(self):
        # The docstring's sum, term by term, as the reference for the DP.
        for r, n in [(2, 7), (3, 5), (4, 4)]:
            for i in range(n + 2):
                total = 0
                for t in combinations(range(1, n + 1), i):
                    term = (i + 1) ** (n - (t[-1] if t else 0))
                    for u, (prev, t_u) in enumerate(zip((0,) + t, t), start=1):
                        term *= u ** (t_u - prev - 1)
                    total += term
                expected = factorial(i) * (r - 1) ** i * total
                assert initial_condition_formula(r, n, i) == expected, (r, n, i)

    def test_large_point_is_a_stirling_number(self):
        # (r - 1)^i N(n, i, 0) = i! (r - 1)^i S(n + 1, i + 1); a loop over
        # the C(24, 12) subsets takes seconds here.
        for r, n, i in [(2, 24, 12), (3, 30, 7), (4, 40, 20), (5, 14, 14), (6, 60, 1)]:
            expected = factorial(i) * (r - 1) ** i * closed.stirling_row(n + 1)[i + 1]
            assert initial_condition_formula(r, n, i) == expected, (r, n, i)

    def test_matches_two_color_k0_column(self):
        # For two colors the color sum counts the colored positions, so
        # both candidate semantics coincide and the formula gives the DP
        # k = 0 column directly.
        for n in range(1, 7):
            table = joint_table(2, n)
            for i in range(n + 1):
                assert initial_condition_formula(2, n, i) == table.get(i, 0)

    def test_diverges_from_csum_column_for_three_colors(self):
        # With all colors equal to 2, exc_A = 0 and csum = 2n, so the
        # csum column ends in n[factorial]; the formula is 0 there.  The
        # formula therefore cannot describe the csum column.
        for n in range(1, 6):
            table = joint_table(3, n)
            assert table.get(2 * n, 0) == factorial(n)
            assert initial_condition_formula(3, n, 2 * n) == 0

    def test_diagnostic_verdicts(self, oracle_cache):
        diag = initial_condition_diagnostic(2, 4, oracle_cache.get(2, 4))
        assert diag.verdict == "both"
        assert diag.matches_csum and diag.matches_colored_count
        assert diag.sum_matches_k0_total

        diag = initial_condition_diagnostic(3, 3, oracle_cache.get(3, 3))
        assert diag.verdict == "colored-count"
        assert diag.matches_colored_count and not diag.matches_csum
        assert diag.sum_matches_k0_total

    @pytest.mark.parametrize(
        "matches_csum, matches_colored_count, verdict",
        [
            (True, True, "both"),
            (True, False, "csum"),
            (False, True, "colored-count"),
            (False, False, "neither"),
        ],
    )
    def test_verdict_follows_the_two_matches(
        self, matches_csum, matches_colored_count, verdict
    ):
        diag = InitialConditionDiagnostic(
            2, 3, matches_csum, matches_colored_count, sum_matches_k0_total=True
        )
        assert diag.verdict == verdict

    def test_diagnostic_rejects_wrong_report(self, oracle_cache):
        with pytest.raises(ValueError):
            initial_condition_diagnostic(2, 3, oracle_cache.get(2, 4))

    def test_diagnostic_does_not_enumerate_by_itself(self):
        # The brute-force columns come from the caller's oracle report;
        # the recursion route never runs the oracle.
        with pytest.raises(TypeError):
            initial_condition_diagnostic(2, 3)
