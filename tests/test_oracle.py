"""Brute-force enumeration tallies and table comparison."""

import ast
import itertools
from math import factorial
from pathlib import Path

import pytest

from colorperm.dist import joint_table
from colorperm.oracle import (
    FEASIBILITY_LIMIT,
    TableDiff,
    brute_tables,
    compare,
)
from colorperm import oracle
from colorperm.perm import GroupParams, enumerate_group
from colorperm.stats import summarize
from colorperm.tables import JointTable


def reference_slice(r, n, first_value):
    """_count_slice's flat tallies, built from enumerate_group and summarize."""
    by_csum = [0] * (((r - 1) * n + 1) * n)
    by_colored = [0] * ((n + 1) * n)
    exc_row = [0] * (r * n)
    for p in enumerate_group(GroupParams(r, n), first_value=first_value):
        s = summarize(p)
        by_csum[s.csum * n + s.exc_A] += 1
        by_colored[(n - p.colors.count(0)) * n + s.exc_A] += 1
        exc_row[s.exc] += 1
    return by_csum, by_colored, exc_row


class TestBruteTables:
    def test_b2_frozen(self):
        report = brute_tables(2, 2)
        assert report.size == 8
        cells = dict(report.joint_by_csum.items())
        assert cells == {
            (0, 0): 1,
            (0, 1): 1,
            (1, 0): 3,
            (1, 1): 1,
            (2, 0): 2,
            (2, 1): 0,
        }
        # For two colors csum and the colored count agree elementwise.
        assert report.joint_by_colored_count == report.joint_by_csum
        assert report.exc_row == [1, 3, 3, 1]

    def test_three_colors_single_letter(self):
        # The two joint semantics already differ at n = 1: csum separates
        # the colors 0, 1, 2 while the colored count lumps 1 and 2.
        report = brute_tables(3, 1)
        assert [report.joint_by_csum.get(i, 0) for i in range(3)] == [1, 1, 1]
        assert [report.joint_by_colored_count.get(i, 0) for i in range(3)] == [1, 2, 0]

    def test_semantics_differ_for_three_colors(self, oracle_cache):
        report = oracle_cache.get(3, 3)
        diffs = compare(report.joint_by_csum, report.joint_by_colored_count)
        assert diffs

    def test_exc_row_consistent_with_joint(self, oracle_cache):
        # exc is tallied directly during enumeration; rebuilding it from
        # the joint table through exc = csum + r*exc_A must agree.
        report = oracle_cache.get(3, 3)
        rebuilt = [0] * (3 * 3)
        for (i, k), count in report.joint_by_csum.items():
            if count:
                rebuilt[i + 3 * k] += count
        assert rebuilt == report.exc_row

    def test_totals(self, oracle_cache):
        for r, n in [(2, 3), (3, 3)]:
            report = oracle_cache.get(r, n)
            expected = r**n * factorial(n)
            assert report.size == expected
            assert report.joint_by_csum.total == expected
            assert report.joint_by_colored_count.total == expected
            assert sum(report.exc_row) == expected

    def test_deterministic(self):
        first = brute_tables(2, 3)
        second = brute_tables(2, 3)
        assert first.joint_by_csum == second.joint_by_csum
        assert first.joint_by_colored_count == second.joint_by_colored_count
        assert first.exc_row == second.exc_row

    def test_parallel_matches_serial(self):
        serial = brute_tables(3, 3)
        parallel = brute_tables(3, 3, workers=2)
        assert parallel.joint_by_csum == serial.joint_by_csum
        assert parallel.joint_by_colored_count == serial.joint_by_colored_count
        assert parallel.exc_row == serial.exc_row

    def test_feasibility_warning(self, monkeypatch):
        monkeypatch.setattr(oracle, "FEASIBILITY_LIMIT", 5)
        with pytest.warns(RuntimeWarning, match="feasibility"):
            report = brute_tables(2, 2)
        assert report.exc_row == [1, 3, 3, 1]  # warned, not refused

    def test_no_warning_below_limit(self):
        assert FEASIBILITY_LIMIT == 10**8
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            brute_tables(2, 2)

    def test_elapsed_recorded(self):
        assert brute_tables(2, 2).elapsed_seconds >= 0.0


class TestGrayWalk:
    @pytest.mark.parametrize(
        "r, n", [(1, 1), (1, 4), (2, 1), (5, 1), (2, 4), (3, 3), (4, 2)]
    )
    def test_visits_every_word_once_by_unit_steps(self, r, n):
        steps = oracle._gray_walk(r, n)
        words = [(0,) * n] + [word for *_, word in steps]
        assert sorted(words) == list(itertools.product(range(r), repeat=n))
        for before, (i, old, new, word) in zip(words, steps):
            assert abs(new - old) == 1
            assert (before[i], word[i]) == (old, new)
            assert before[:i] + before[i + 1 :] == word[:i] + word[i + 1 :]


class TestIncrementalWalk:
    @pytest.mark.parametrize("r, n", [(1, 4), (2, 1), (2, 5), (3, 4), (4, 3)])
    def test_matches_summarize_tally_on_every_slice(self, r, n):
        assert oracle._count_slice(r, n, None) == reference_slice(r, n, None)
        for first in range(1, n + 1):
            assert oracle._count_slice(r, n, first) == reference_slice(r, n, first)

    def test_summarize_assertion_propagates(self, monkeypatch):
        def broken(p):
            raise AssertionError("injected")

        monkeypatch.setattr(oracle, "summarize", broken)
        with pytest.raises(AssertionError, match="injected"):
            brute_tables(2, 3)

    @pytest.mark.parametrize(
        "color, caught_by",
        [(0, "disagrees with summarize"), (1, r"exc = r\*exc_A \+ csum")],
    )
    def test_off_by_one_in_position_table_is_caught(
        self, monkeypatch, color, caught_by
    ):
        # Negative control: one exceeded count too many where position 1
        # holds value 2.  At color 0 the per-tau summarize anchor sees it;
        # at color 1 only the per-element identity check can.
        build = oracle._position_table

        def skewed(r, n):
            table = build(r, n)
            row = list(table[0][1])
            row[color] += 1
            table[0][1] = tuple(row)
            return table

        monkeypatch.setattr(oracle, "_position_table", skewed)
        with pytest.raises(AssertionError, match=caught_by):
            brute_tables(2, 3)


class TestCompare:
    def test_equal_tables(self):
        assert compare(joint_table(2, 3), brute_tables(2, 3).joint_by_csum) == []

    def test_single_cell_difference(self):
        left = joint_table(2, 2)
        right = joint_table(2, 2)
        right.add(1, 0, 5)
        diffs = compare(left, right)
        assert diffs == [TableDiff(i=1, k=0, left=3, right=8)]

    def test_diffs_sorted(self):
        left = JointTable(2, 2)
        right = JointTable(2, 2)
        right.set(2, 1, 1)
        right.set(0, 0, 1)
        diffs = compare(left, right)
        assert [(d.i, d.k) for d in diffs] == [(0, 0), (2, 1)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare(JointTable(2, 2), JointTable(2, 3))
        with pytest.raises(ValueError):
            compare(JointTable(2, 2), JointTable(3, 2))


ROUTES = ("oracle", "dist", "closed")


class TestRouteIndependence:
    @pytest.mark.parametrize("route", ROUTES)
    def test_route_reaches_neither_other_route(self, route):
        # Follow the package-relative imports of each module's source,
        # function bodies included, starting from the route, without
        # importing anything.
        package = Path(oracle.__file__).parent
        reached, pending = set(), [route]
        while pending:
            name = pending.pop()
            if name in reached:
                continue
            reached.add(name)
            tree = ast.parse((package / f"{name}.py").read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    if node.module:
                        pending.append(node.module)
                    else:
                        pending.extend(alias.name for alias in node.names)
        assert "perm" in reached
        assert not reached & (set(ROUTES) - {route})
