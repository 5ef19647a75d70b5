"""Insertion recursions: joint, marginal and exc distributions."""

from math import factorial

import pytest

from colorperm.dist import (
    _insertion_weights,
    eulerian_row,
    excA_dist,
    exc_dist,
    exc_row_from_table,
    initial_condition_diagnostic,
    initial_condition_formula,
    iter_joint_tables,
    joint_table,
)


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

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eulerian_row(-1)

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
                    raising, keeping = n - k, k + 1
                    expected = raising * prev.get(i, k - 1) + keeping * prev.get(i, k)
                    for j in range(1, r):
                        expected += raising * prev.get(i - j, k)
                        expected += keeping * prev.get(i - j, k + 1)
                    assert cur.get(i, k) == expected, (r, n, i, k)

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
                assert excA_dist(r, n, method="recurrence") == excA_dist(
                    r, n, method="sum-joint"
                ), (r, n)

    def test_methods_agree_large(self):
        assert excA_dist(5, 40, method="recurrence") == excA_dist(
            5, 40, method="sum-joint"
        )

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

    def test_diagnostic_rejects_wrong_report(self, oracle_cache):
        with pytest.raises(ValueError):
            initial_condition_diagnostic(2, 3, oracle_cache.get(2, 4))

    def test_diagnostic_does_not_enumerate_by_itself(self):
        # The brute-force columns come from the caller's oracle report;
        # the recursion route never runs the oracle.
        with pytest.raises(TypeError):
            initial_condition_diagnostic(2, 3)
