"""Brute-force enumeration tallies and table comparison."""

import ast
import concurrent.futures
import dataclasses
import itertools
import multiprocessing
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from colorperm.cli import main
from colorperm.dist import initial_condition_diagnostic, joint_table
from colorperm.oracle import (
    FEASIBILITY_LIMIT,
    TableDiff,
    brute_tables,
    compare,
)
from colorperm import oracle, stats
from colorperm.perm import GroupParams, enumerate_group
from colorperm.stats import summarize
from colorperm.tables import JointTable


def reference_slice(r, n, first_values):
    """_count_slice's flat tallies, built from enumerate_group and summarize."""
    by_csum = [0] * (((r - 1) * n + 1) * n)
    by_colored = [0] * (((r - 1) * n + 1) * n)
    exc_row = [0] * (r * n)
    for p in enumerate_group(GroupParams(r, n)):
        if p.values[0] not in first_values:
            continue
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

    @pytest.mark.parametrize(
        "r, n, workers, pools",
        [
            (3, 3, 2, []),
            (2, 7, 2, [2]),
            (2, 7, 3, [3]),
            (3, 3, 9, []),
            (3, 1, 2, []),
            (2, 3, 2, []),
        ],
        ids=["3", "r2-7", "r2-7-w3", "3-w9", "1-w2", "r2-3"],
    )
    def test_parallel_matches_serial(self, monkeypatch, r, n, workers, pools):
        # [max_workers, tasks handed to map] of every pool the test opens.
        opened = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.load = [kwargs["max_workers"], 0]
                opened.append(self.load)

            def map(self, fn, *iterables, **kwargs):
                calls = list(zip(*iterables))
                self.load[1] += len(calls)
                return super().map(fn, *zip(*calls), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        serial = brute_tables(r, n)
        assert opened == []  # one task, run inline
        parallel = brute_tables(r, n, workers=workers)
        assert parallel.joint_by_csum == serial.joint_by_csum
        assert parallel.joint_by_colored_count == serial.joint_by_colored_count
        assert parallel.exc_row == serial.exc_row
        # One process per chunk of first values, on a pool the call closes;
        # Z_3 wr S_3 (162 elements) and Z_2 wr S_3 (48) are below POOL_MIN
        # and one chunk.
        assert [size for size, _ in opened] == pools
        # Every pool is given exactly one task per process, so no task
        # ever waits in its queue and there is none to cancel.
        assert all(tasks == size for size, tasks in opened)
        assert multiprocessing.active_children() == []

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

    def test_report_is_frozen(self):
        report = brute_tables(2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.exc_row = [0]

    def test_importing_the_cli_imports_no_process_pool(self):
        # brute_tables imports the pool machinery only when it opens a pool.
        src = Path(oracle.__file__).resolve().parents[1]
        code = (
            "import sys, colorperm.cli; "
            "print('concurrent.futures.process' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout == "False\n"


class TestFirstValueChunks:
    def test_runs_partition_the_first_values(self):
        # Groups below POOL_MIN are one run; the others at most
        # min(workers, n).
        for r, n in itertools.product((1, 2, 3), range(1, 10)):
            pooled = GroupParams(r, n).size >= oracle.POOL_MIN
            assert oracle.first_value_chunks(r, n, 1) == [range(1, n + 1)]
            for workers in range(1, 13):
                runs = oracle.first_value_chunks(r, n, workers)
                assert 1 <= len(runs) <= (min(workers, n) if pooled else 1)
                assert all(run.step == 1 and len(run) > 0 for run in runs)
                assert [v for run in runs for v in run] == list(range(1, n + 1))

    def test_uneven_split(self, pool_every_group):
        assert oracle.first_value_chunks(3, 5, 3) == [
            range(1, 3), range(3, 5), range(5, 6)
        ]

    @pytest.mark.parametrize(
        "pool_min, runs", [(48, [range(1, 3), range(3, 4)]), (49, [range(1, 4)])]
    )
    def test_pool_min_is_the_least_group_order_split(
        self, monkeypatch, pool_min, runs
    ):
        # Z_2 wr S_3 has 48 elements.
        monkeypatch.setattr(oracle, "POOL_MIN", pool_min)
        assert oracle.first_value_chunks(2, 3, 2) == runs


def assert_every_slice_matches(r, n):
    """_count_slice equals reference_slice on every run of consecutive
    first values, the whole range included."""
    singles = [reference_slice(r, n, range(v, v + 1)) for v in range(1, n + 1)]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 2):
            expected = tuple(oracle._add(singles[a - 1 : b - 1]))
            assert oracle._count_slice(r, n, range(a, b)) == expected


class TestClasses:
    @pytest.mark.parametrize("r, n", [(1, 4), (2, 3), (3, 3), (10, 3), (70, 2)])
    def test_every_word_once_under_its_own_class_in_product_order(self, r, n):
        classes = oracle._classes(r, n)
        words = list(itertools.product(range(r), repeat=n))
        for (csum, colored), members in classes.items():
            assert all(
                (sum(word), n - word.count(0)) == (csum, colored) for word in members
            )
            assert members == sorted(members)
        assert sorted(itertools.chain.from_iterable(classes.values())) == words


def misfile(monkeypatch, csum_by, colored_by):
    """Patch oracle._classes to file the first word of class (1, 1), in
    product order, under (1 + csum_by, 1 + colored_by).  _count_slice
    looks _classes up as a module global, so forked workers see it too."""
    classes = oracle._classes

    def misfiled(r, n):
        found = classes(r, n)
        word = found[1, 1].pop(0)
        found.setdefault((1 + csum_by, 1 + colored_by), []).append(word)
        return found

    monkeypatch.setattr(oracle, "_classes", misfiled)


class TestPackedWalk:
    @pytest.mark.parametrize(
        "r, n",
        [(1, 4), (1, 6), (2, 1), (2, 5), (2, 6), (3, 4), (4, 3), (5, 3), (6, 2)],
    )
    def test_matches_summarize_tally_on_every_slice(self, r, n):
        assert_every_slice_matches(r, n)

    @pytest.mark.parametrize("r, n", [(70, 2), (1000, 1)])
    def test_two_byte_slots_match_on_every_slice(self, r, n):
        # exc reaches 2r - 1 = 139 and r - 1 = 999: past one byte with
        # its headroom bit.
        assert_every_slice_matches(r, n)

    @pytest.mark.parametrize("r, n", [(6, 3), (10, 3)])
    def test_few_permutations_many_words_match_on_every_slice(self, r, n):
        # A slice of one first value holds 2 permutations and r**3 words
        # each, spread over many (csum, colored) classes.
        assert_every_slice_matches(r, n)

    @pytest.mark.parametrize("r, n", [(2, 4), (3, 3), (1, 5)])
    def test_slices_longer_than_one_block_match(self, monkeypatch, r, n):
        # Two permutations per block: every slice of more than one first
        # value spans several blocks, and some end on a partial one.
        monkeypatch.setattr(oracle, "BLOCK", 2)
        assert_every_slice_matches(r, n)

    def test_one_call_builds_the_tables_once(self, monkeypatch):
        built = []
        build = stats.contributions

        def counted(r, n):
            built.append((r, n))
            return build(r, n)

        monkeypatch.setattr(stats, "contributions", counted)
        oracle._count_slice(2, 4, range(1, 5))
        assert built == [(2, 4)]

    def test_summarize_assertion_propagates(self, monkeypatch):
        def broken(p):
            raise AssertionError("injected")

        monkeypatch.setattr(oracle, "summarize", broken)
        with pytest.raises(AssertionError, match="injected"):
            brute_tables(2, 3)

    @pytest.mark.parametrize(
        "color, by, message",
        [
            # At color 0 the per-tau summarize anchor sees the skew.  The
            # identity fails at the same element, and the anchor is named.
            (
                0,
                1,
                "packed slots disagree with summarize at 2,1,3: "
                "(exc, exc_A, csum) = (3, 1, 0) != (2, 1, 0)",
            ),
            # At color 1 only the identity check on the slots can; it names
            # the first failing element in enumerate_group order.
            (
                1,
                1,
                "exc = r*exc_A + csum or a range bound violated for 2^1,1,3: "
                "exc=2, exc_A=0, csum=1",
            ),
            # r + 3 lies outside 0..r, the range of any exceeded count.  The
            # slots are sized from the skewed table, so the slot still
            # decodes to the element's own statistics.
            (
                1,
                5,
                "exc = r*exc_A + csum or a range bound violated for 2^1,1,3: "
                "exc=6, exc_A=0, csum=1",
            ),
            # So does a skew that needs two bytes a slot.
            (
                1,
                300,
                "exc = r*exc_A + csum or a range bound violated for 2^1,1,3: "
                "exc=301, exc_A=0, csum=1",
            ),
        ],
    )
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("block", [None, 1], ids=["block", "block1"])
    def test_position_table_skew_is_caught(
        self, monkeypatch, pool_every_group, color, by, message, workers, block
    ):
        # Negative control: exceeded counts too many where position 1
        # holds value 2.  With one permutation a block, the failing
        # element is named from its own block, as from a shared one.
        if block:
            monkeypatch.setattr(oracle, "BLOCK", block)
        build = stats.contributions

        def skewed(r, n):
            table, ascents = build(r, n)
            row = list(table[0][1])
            row[color] += by
            table[0][1] = tuple(row)
            return table, ascents

        monkeypatch.setattr(stats, "contributions", skewed)
        with pytest.raises(AssertionError) as caught:
            brute_tables(2, 3, workers=workers)
        assert str(caught.value) == message

    def test_word_filed_under_the_next_csum_is_caught(self, monkeypatch):
        # Negative control: 1,2,3^1 is tallied with class (2, 1).  Its
        # slots hold its own exc and exc_A, so the identity check fails
        # at the class's csum.
        misfile(monkeypatch, csum_by=1, colored_by=0)
        with pytest.raises(AssertionError) as caught:
            brute_tables(2, 3)
        assert str(caught.value) == (
            "exc = r*exc_A + csum or a range bound violated for 1,2,3^1: "
            "exc=1, exc_A=0, csum=2"
        )

    def test_excA_below_zero_is_caught(self, monkeypatch):
        # Negative control: position 1 holding 1 with color 1 adds -1 to
        # exc_A.  The all-zero word is right, so the summarize anchor
        # cannot see it; the biased slots decode exc_A of 1^1,2,3 to -1.
        build = stats.contributions

        def wrong(r, n):
            exc, excA = build(r, n)
            row = list(excA[0][0])
            row[1] = -1
            excA[0][0] = tuple(row)
            return exc, excA

        monkeypatch.setattr(stats, "contributions", wrong)
        with pytest.raises(AssertionError) as caught:
            brute_tables(2, 3)
        assert str(caught.value) == (
            "exc = r*exc_A + csum or a range bound violated for 1^1,2,3: "
            "exc=1, exc_A=-1, csum=1"
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_exc_above_its_range_is_caught(
        self, monkeypatch, pool_every_group, workers
    ):
        # Negative control: position 2 holding 1 with color 1 adds 1 to
        # exc_A and r to exc.  The identity still holds and exc_A stays
        # at most n - 1, so only the threshold of exc at r*n can see that
        # 2,1^1,3^1 reaches exc = 6 in Z_2 wr S_3.
        build = stats.contributions

        def wrong(r, n):
            exc, excA = build(r, n)
            for field, by in ((exc, r), (excA, 1)):
                row = list(field[1][0])
                row[1] += by
                field[1][0] = tuple(row)
            return exc, excA

        monkeypatch.setattr(stats, "contributions", wrong)
        with pytest.raises(AssertionError) as caught:
            brute_tables(2, 3, workers=workers)
        assert str(caught.value) == (
            "exc = r*exc_A + csum or a range bound violated for 2,1^1,3^1: "
            "exc=6, exc_A=2, csum=2"
        )


class TestTallyMiscount:
    """Negative controls that keep every total, so no mass check can see
    them: one count moved to the next exc_A column, which the DP
    comparison and the k = 0 closed form (C08) must catch, and one word
    filed under the next colored count, which only C08 can.
    """

    @pytest.fixture
    def miscount(self, monkeypatch):
        count_slice = oracle._count_slice

        def moved(r, n, first_values):
            by_csum, by_colored, exc_row = count_slice(r, n, first_values)
            if r > 1 and n > 1:
                for flat in (by_csum, by_colored):
                    flat[n] -= 1  # cell (1, 0)
                    flat[n + 1] += 1  # cell (1, 1)
            return by_csum, by_colored, exc_row

        monkeypatch.setattr(oracle, "_count_slice", moved)

    def test_caught_by_the_recursion_suite(self, miscount, capsys):
        code = main(["check", "--r-max", "2", "--n-max", "3", "--suite", "recursion"])
        fails = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")
        ]
        assert code == 1
        assert fails[0] == (
            "FAIL dp_joint_matches_enumeration r=2 n=2: "
            "cell (i=1, k=0): dp=3 enumeration=2"
        )

    @pytest.fixture
    def colored_misfiled(self, monkeypatch):
        # Every check inside the oracle passes: they read csum, and nothing
        # in check reads the colored-count table (ROADMAP item 7).
        misfile(monkeypatch, csum_by=0, colored_by=1)

    @pytest.mark.parametrize("fault", ["miscount", "colored_misfiled"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_caught_by_the_initial_condition(self, request, fault, n):
        request.getfixturevalue(fault)
        report = brute_tables(3, n)
        assert initial_condition_diagnostic(3, n, report).verdict == "neither"


def zeros(r, n):
    return JointTable(r, n, [[0] * n for _ in range((r - 1) * n + 1)])


class TestCompare:
    @pytest.mark.parametrize("r, n", [(2, 3), (5, 3), (6, 2)])
    def test_equal_tables(self, r, n):
        # (5, 3) and (6, 2) give the DP's color window widths 4 and 5.
        assert compare(joint_table(r, n), brute_tables(r, n).joint_by_csum) == []

    def test_single_cell_difference(self):
        right = JointTable(2, 2, [[1, 1], [8, 1], [2, 0]])
        diffs = compare(joint_table(2, 2), right)
        assert diffs == [TableDiff(i=1, k=0, left=3, right=8)]

    def test_diffs_sorted(self):
        right = JointTable(2, 2, [[1, 0], [0, 0], [0, 1]])
        diffs = compare(zeros(2, 2), right)
        assert [(d.i, d.k) for d in diffs] == [(0, 0), (2, 1)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare(zeros(2, 2), zeros(2, 3))
        with pytest.raises(ValueError):
            compare(zeros(2, 2), zeros(3, 2))


ROUTES = ("oracle", "dist", "closed")


class TestRouteIndependence:
    # properties proves the symmetry on stats.contributions alone, so it
    # may reach none of the routes.
    @pytest.mark.parametrize("route", [*ROUTES, "properties"])
    def test_route_reaches_neither_other_route(self, route):
        # Follow the package-relative imports of each module's source,
        # function bodies included, starting from the module, without
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


class TestClosedFormIndependence:
    # The closed suite and C03 compare D_closed with d_explicit; that
    # comparison means something only while neither computes through the
    # other, so neither function body may name the other or its helper.
    @pytest.mark.parametrize(
        "function, foreign",
        [
            ("D_closed", {"d_explicit", "_alternants"}),
            ("d_explicit", {"D_closed"}),
            ("_alternants", {"D_closed"}),
        ],
    )
    def test_closed_form_names_neither_other(self, function, foreign):
        source = (Path(oracle.__file__).parent / "closed.py").read_text()
        body = next(
            node
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == function
        )
        names = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & foreign
