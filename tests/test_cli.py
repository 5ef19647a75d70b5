"""Command line behavior: outputs, formats, exit codes."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from colorperm import cli, closed, dist, oracle, properties, stats, tables
from colorperm.cli import main

#: Exit status and stdout of every subcommand in every format at small
#: points; any change to these bytes is a change to the CLI's output.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stirling_row_off_at_3_2(n):
    """S(n, 0..n) with S(3, 2) off by one, carried up by the recurrence."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m)] + [1]
        if m == 3:
            row[2] += 1
    return tuple(row)


def _negative_weights(m, k):
    """keeping = -1 at k = 0: cell (0, 0) is -1 from n = 2 on."""
    return m - k, k - 1


def _overflowing_weights(m, k):
    """Cells above r^m m!, the bound the DP's slot width is sized for."""
    return 2 * (m - k) + 5, k + 1


class TestStats:
    def test_text_golden(self, capsys):
        code, out, err = run_cli(capsys, "stats", "--r", "3", "3,1^1,2^2")
        assert code == 0 and err == ""
        assert out == (
            "window: 3,1^1,2^2\n"
            "r: 3\n"
            "n: 3\n"
            "exc: 6\n"
            "exc_A: 1\n"
            "csum: 3\n"
            "exc_letters: 1^2,2^2,3^2,1^1,3^1,1\n"
            "exc_A_positions: 1\n"
        )

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--r", "3", "--format", "json", "1^1,3^2,4,2^1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["exc"] == 7
        assert obj["exc_A"] == 1
        assert obj["csum"] == 4
        assert obj["exc_A_positions"] == [3]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--r", "2", "--format", "csv", "2,1")
        assert code == 0
        assert out.startswith("stat,value\nwindow,")
        assert "\nexc,2\n" in out
        assert "\ncsum,0\n" in out

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "stats", "--r", "2", "2,2")
        assert code == 2
        assert out == ""
        assert "error:" in err and "token 2" in err

    @pytest.mark.parametrize("window", ["\u0663,1,2", "1^01,2"])
    def test_non_ascii_or_non_canonical_number_exits_2(self, capsys, window):
        code, out, err = run_cli(capsys, "stats", "--r", "2", window)
        assert (code, out) == (2, "")
        assert "error:" in err and "token 1" in err and "Traceback" not in err

    def test_color_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--r", "2", "1^5,2")
        assert code == 2
        assert "color" in err


class TestDist:
    def test_text_default_dp(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--r", "2", "--n", "2", "--target", "exc"
        )
        assert (code, out) == (0, "1,3,3,1\n")

    def test_all_methods_agree(self, capsys):
        rows = {}
        for method in ("brute", "dp", "closed", "explicit"):
            code, out, _ = run_cli(
                capsys,
                "dist", "--r", "3", "--n", "3",
                "--target", "excA", "--method", method,
            )
            assert code == 0
            rows[method] = out
        assert len(set(rows.values())) == 1

    def test_exc_brute_equals_dp(self, capsys):
        outputs = []
        for method in ("brute", "dp"):
            code, out, _ = run_cli(
                capsys,
                "dist", "--r", "2", "--n", "4",
                "--target", "exc", "--method", method,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_closed_with_exc_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "dist", "--r", "2", "--n", "2", "--target", "exc", "--method", "closed",
        )
        assert code == 2
        assert "excA" in err

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dist", "--r", "2", "--n", "2", "--target", "excA", "--format", "csv",
        )
        assert (code, out) == (0, "k,count\n0,6\n1,2\n")

    def test_json_counts_are_strings(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dist", "--r", "2", "--n", "3", "--target", "exc", "--format", "json",
        )
        obj = json.loads(out)
        assert obj["counts"] == ["1", "7", "16", "16", "7", "1"]

    def test_bad_r_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", "--r", "0", "--n", "2", "--target", "exc"
        )
        assert code == 2
        assert "error:" in err


class TestJointAndPoly:
    def test_joint_text_golden(self, capsys):
        code, out, _ = run_cli(capsys, "joint", "--r", "2", "--n", "2")
        assert (code, out) == (0, "i\\k,0,1\n0,1,1\n1,3,1\n2,2,0\n")

    def test_joint_brute_matches_dp(self, capsys):
        outputs = []
        for method in ("brute", "dp"):
            code, out, _ = run_cli(
                capsys, "joint", "--r", "3", "--n", "3", "--method", method
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_joint_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "joint", "--r", "2", "--n", "3", "--format", "json"
        )
        obj = json.loads(out)
        assert obj["r"] == 2 and obj["n"] == 3
        assert obj["counts"]["0,0"] == "1"

    @pytest.mark.parametrize(
        "case",
        [case for case in GOLDEN if case["argv"][0] == "joint"],
        ids=lambda case: " ".join(case["argv"]),
    )
    def test_joint_renders_only_its_format(self, capsys, monkeypatch, case):
        # JSON is written by to_json alone, and CSV and text by to_csv
        # alone; the other renderer is never called.
        argv = case["argv"]
        unused = "to_csv" if argv[argv.index("--format") + 1] == "json" else "to_json"

        def refuse(table):
            raise AssertionError(f"{unused} called")

        monkeypatch.setattr(tables.JointTable, unused, refuse)
        assert run_cli(capsys, *argv)[:2] == (case["exit"], case["stdout"])

    def test_poly_text(self, capsys):
        assert run_cli(capsys, "poly", "--r", "2", "--n", "2")[:2] == (
            0,
            "6 + 2*t\n",
        )

    def test_poly_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--r", "3", "--n", "2", "--format", "csv"
        )
        assert (code, out) == (0, "k,coefficient\n0,15\n1,3\n")

    def test_poly_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--r", "1", "--n", "4", "--format", "json"
        )
        assert json.loads(out)["coefficients"] == ["1", "11", "11", "1"]

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="the interpreter has no int/str digit limit",
    )
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_console_prints_counts_past_the_digit_limit(self, fmt):
        # Each coefficient has about 4,400 digits; str() refuses it under
        # the default limit, which the console entry point lifts.
        r = 10**2200 + 7
        exact = list(closed.D_closed(r, 2).coeffs)
        done = subprocess.run(
            [sys.executable, "-m", "colorperm.cli", "poly", "--r", str(r),
             "--n", "2", "--format", fmt],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if fmt == "text":
                printed = done.stdout.replace("*t", "").split(" + ")
            elif fmt == "json":
                printed = json.loads(done.stdout)["coefficients"]
            else:
                printed = [line.split(",")[1] for line in done.stdout.split()[1:]]
            assert [int(c) for c in printed] == exact
        finally:
            sys.set_int_max_str_digits(limit)


class TestBijection:
    def test_text_golden(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--r", "3", "2^1,1^2,4^1,3")
        assert code == 0
        assert out == (
            "window: 2^1,1^2,4^1,3\n"
            "image: 1^2,4^1,3^2,2^2\n"
            "exc: 4\n"
            "image_exc: 7\n"
            "expected_sum: 11\n"
        )

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bijection", "--r", "2", "--format", "json", "2,1"
        )
        obj = json.loads(out)
        assert obj["exc"] + obj["image_exc"] == obj["expected_sum"] == 3


class TestCheck:
    def test_small_all_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--r-max", "2", "--n-max", "3")
        assert code == 0
        assert "failed" in out.splitlines()[-1]
        assert "0 failed" in out.splitlines()[-1]
        assert all(line.startswith(("PASS", "FAIL")) for line in out.splitlines()[:-1])

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "3", "--suite", "lemma"
        )
        assert code == 0
        assert all(
            "lemma_exc_decomposition" in line
            for line in out.splitlines()
            if line.startswith("PASS")
        )

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--r-max", "1", "--n-max", "3",
            "--suite", "closed", "--format", "json",
        )
        obj = json.loads(out)
        assert obj["pass"] is True
        assert all(v["pass"] for v in obj["verdicts"])
        assert {"property", "r", "n", "pass"} <= set(obj["verdicts"][0])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--r-max", "1", "--n-max", "2",
            "--suite", "symmetry", "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "property,r,n,pass,counterexample"
        assert all(",true," in line for line in lines[1:])

    def test_point_above_the_cap_prints_a_skip_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "8", "--suite", "recursion"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[-2:] == [
            "SKIP dp_matches_enumeration r=2 n=8: 10321920 elements above the cap 1000000",
            "30 checks, 30 passed, 0 failed, 1 skipped",
        ]

    def test_skips_in_json_and_csv(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "BRUTE_SUITE_CAP", 10)
        argv = ("check", "--r-max", "2", "--n-max", "3", "--suite", "lemma")
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        obj = json.loads(out)
        assert obj["pass"] is True and len(obj["verdicts"]) == 5
        assert obj["skipped"] == [
            {
                "property": "lemma_exc_decomposition",
                "r": 2,
                "n": 3,
                "elements": "48",
                "cap": 10,
            }
        ]
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert out.splitlines()[-1] == (
            "lemma_exc_decomposition,2,3,skip,48 elements above the cap 10"
        )

    @pytest.mark.parametrize(
        "module, suite, name",
        [
            (oracle, "lemma", "lemma_exc_decomposition"),
            (oracle, "recursion", "dp_matches_enumeration"),
            (properties, "symmetry", "exc_complement_and_involution"),
        ],
    )
    # An empty message is still a FAIL: a verdict passes only when its
    # counterexample is None, never when it is merely falsy.
    @pytest.mark.parametrize("message", ["injected", ""])
    def test_assertion_in_a_suite_is_a_fail_line(
        self, capsys, monkeypatch, module, suite, name, message
    ):
        def broken(p):
            raise AssertionError(message)

        monkeypatch.setattr(module, "summarize", broken)
        argv = ("check", "--r-max", "1", "--n-max", "2", "--suite", suite)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err == ""
        line = f"FAIL {name} r=1 n=2" + (f": {message}" if message else "")
        assert line in out.splitlines()
        assert out.splitlines()[-1].endswith(" failed") and " 0 failed" not in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        obj = json.loads(out)
        (verdict,) = [v for v in obj["verdicts"] if v["property"] == name and v["n"] == 2]
        assert code == 1 and obj["pass"] is False
        assert verdict == {
            "property": name, "r": 1, "n": 2, "pass": False, "counterexample": message
        }

    def test_position_table_skew_fails_the_lemma(self, capsys, monkeypatch):
        # Negative control: one exceeded count too many at color 1 where
        # position 1 holds value 2.  Only the oracle's per-element identity
        # check can see it, so the lemma verdict must come from there.
        build = stats.contributions

        def skewed(r, n):
            table, ascents = build(r, n)
            if r > 1 and n > 1:
                row = list(table[0][1])
                row[1] += 1
                table[0][1] = tuple(row)
            return table, ascents

        monkeypatch.setattr(stats, "contributions", skewed)
        code, out, err = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "3", "--suite", "lemma"
        )
        first = next(line for line in out.splitlines() if line.startswith("FAIL"))
        assert code == 1 and err == ""
        assert first.startswith("FAIL lemma_exc_decomposition r=2 n=2: ")

    @pytest.mark.parametrize("threads", [[], ["--threads", "2"]], ids=["serial", "2"])
    @pytest.mark.parametrize("suite", ["lemma", "all"])
    def test_each_point_is_enumerated_once(
        self, capsys, monkeypatch, submitted, pool_every_group, suite, threads
    ):
        # lemma and recursion read one oracle report per point; (2, 3)
        # with its 48 elements lies above the cap and is never enumerated.
        # A serial run walks each point inline as the one run 1..n.  A
        # threaded one, with every group pooled, hands the runs of each
        # point of more than one run to that point's pool once, and walks
        # the points of n = 1 inline once each.
        monkeypatch.setattr(cli, "BRUTE_SUITE_CAP", 10)
        points = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
        calls = []
        if threads:
            # A closure cannot be pickled onto the pool, so the inline
            # walks are counted by the tables each _count_slice call builds
            # first; the workers' calls stay in the workers.
            exact = oracle._stored_tables

            def counted(r, n):
                calls.append((r, n))
                return exact(r, n)

            monkeypatch.setattr(oracle, "_stored_tables", counted)
        else:
            exact = oracle._count_slice

            def counted(r, n, first_values):
                calls.append((r, n, first_values))
                return exact(r, n, first_values)

            monkeypatch.setattr(oracle, "_count_slice", counted)
        code, _, _ = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "3", "--suite", suite, *threads
        )
        assert code == 0
        walks = [
            (r, n, tuple(run))
            for name, r, n, run in submitted
            if name == "_count_slice"
        ]
        if threads:
            assert sorted(calls) == [(1, 1), (2, 1)]
            assert walks == [
                (r, n, tuple(run))
                for r, n in [(1, 2), (1, 3), (2, 2)]
                for run in oracle.first_value_chunks(r, n, 2)
            ]
        else:
            assert calls == [(r, n, range(1, n + 1)) for r, n in points]
            assert walks == []

    @pytest.mark.parametrize("threads", [None, 2], ids=["serial", "2"])
    def test_brute_suites_read_each_point_through_brute_tables_once(
        self, capsys, monkeypatch, threads
    ):
        # brute_tables is the one seam of check's enumerations: once per
        # point within the cap, with the --threads value, for lemma and
        # recursion together; the other suites never call it.
        monkeypatch.setattr(cli, "BRUTE_SUITE_CAP", 10)
        calls = []
        exact = oracle.brute_tables

        def counted(r, n, workers=None):
            calls.append((r, n, workers))
            return exact(r, n, workers=workers)

        monkeypatch.setattr(oracle, "brute_tables", counted)
        flag = ["--threads", str(threads)] if threads else []
        sweep = ("--r-max", "2", "--n-max", "3")
        code, _, _ = run_cli(capsys, "check", "--suite", "all", *sweep, *flag)
        assert code == 0
        points = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
        assert calls == [(r, n, threads) for r, n in points]
        calls.clear()
        for suite in ("closed", "eq2", "symmetry", "logconcave"):
            code, _, _ = run_cli(capsys, "check", "--suite", suite, *sweep, *flag)
            assert code == 0, suite
        assert calls == []

    @pytest.mark.parametrize("suite", ["logconcave", "closed"])
    def test_excA_recurrence_runs_once_per_r(self, capsys, monkeypatch, suite):
        calls = []
        exact = dist.iter_excA_rows

        def counted(r, n_max):
            calls.append((r, n_max))
            return exact(r, n_max)

        monkeypatch.setattr(dist, "iter_excA_rows", counted)
        code, _, _ = run_cli(
            capsys, "check", "--r-max", "3", "--n-max", "6", "--suite", suite
        )
        assert code == 0
        assert calls == [(1, 6), (2, 6), (3, 6)]

    def test_symmetry_runs_one_joint_dp_per_r(self, capsys, monkeypatch):
        calls = []
        exact = dist._packed_columns

        def counted(r, n_max):
            calls.append((r, n_max))
            return exact(r, n_max)

        monkeypatch.setattr(dist, "_packed_columns", counted)
        code, _, _ = run_cli(
            capsys, "check", "--r-max", "3", "--n-max", "6", "--suite", "symmetry"
        )
        assert code == 0
        assert calls == [(1, 6), (2, 6), (3, 6)]

    @pytest.mark.parametrize(
        "suite, fail, summary",
        [
            (
                "closed",
                "FAIL excA_distribution_agreement r=2: injected at (2, 3)",
                "9 checks, 8 passed, 1 failed",
            ),
            (
                "logconcave",
                "FAIL excA_shape r=2: injected at (2, 3)",
                "17 checks, 16 passed, 1 failed",
            ),
        ],
        ids=["closed", "logconcave"],
    )
    def test_stream_fault_is_one_fail_line_for_its_r(
        self, capsys, monkeypatch, suite, fail, summary
    ):
        # A row stream that raises is one FAIL line that names only its
        # r; the PASS lines of that r before the fault are dropped, and
        # the sweep goes on to the next r.
        exact = dist.iter_excA_rows

        def faulty(r, n_max):
            for n, row in enumerate(exact(r, n_max), 1):
                if (r, n) == (2, 3):
                    raise AssertionError("injected at (2, 3)")
                yield row

        monkeypatch.setattr(dist, "iter_excA_rows", faulty)
        code, out, err = run_cli(
            capsys, "check", "--r-max", "3", "--n-max", "4", "--suite", suite
        )
        lines = out.splitlines()
        assert (code, err) == (1, "")
        assert [line for line in lines if " r=2" in line] == [fail]
        assert lines[-2].startswith("PASS") and lines[-2].endswith(" r=3 n=4")
        assert lines[-1] == summary

    def test_joint_dp_runs_once_per_recursion_point(self, capsys, monkeypatch):
        # The joint table and the exc row come from one DP run per point.
        calls = []
        exact = dist._packed_columns

        def counted(r, n_max):
            calls.append((r, n_max))
            return exact(r, n_max)

        monkeypatch.setattr(dist, "_packed_columns", counted)
        code, _, _ = run_cli(
            capsys, "check", "--r-max", "3", "--n-max", "5", "--suite", "recursion"
        )
        assert code == 0
        assert sorted(calls) == [(r, n) for r in (1, 2, 3) for n in range(1, 6)]

    @pytest.mark.parametrize(
        "suite, first_fail",
        [
            # d_explicit's own nonnegativity assertion trips first; the
            # crash becomes a FAIL at that n and the sweep goes on to n = 4.
            (
                "closed",
                "FAIL excA_distribution_agreement r=1 n=3: "
                "d(1, 3, 2) evaluated negative: -1",
            ),
            ("eq2", "FAIL polynomial_derivative_recurrence r=1 n=3: n=3: "),
        ],
        ids=["closed", "eq2"],
    )
    def test_stirling_fault_is_caught_at_its_first_n(
        self, capsys, monkeypatch, suite, first_fail
    ):
        monkeypatch.setattr(closed, "stirling_row", _stirling_row_off_at_3_2)
        code, out, err = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "4", "--suite", suite
        )
        lines = out.splitlines()
        first = next(line for line in lines if line.startswith("FAIL"))
        assert code == 1 and err == ""
        assert first.startswith(first_fail)
        if suite == "closed":
            assert "PASS excA_distribution_agreement r=1 n=2" in lines
            assert any(
                line.startswith("FAIL excA_distribution_agreement r=1 n=4")
                for line in lines
            )

    def test_stirling_fault_is_caught_with_a_warm_alternant_cache(
        self, capsys, monkeypatch
    ):
        # Clean values for n = 3 sit in d_explicit's cache first; a cache
        # keyed on n alone would hand them back under the fault.
        closed.D_closed(1, 3)
        assert [closed.d_explicit(1, 3, k) for k in range(3)] == [1, 4, 1]
        monkeypatch.setattr(closed, "stirling_row", _stirling_row_off_at_3_2)
        code, out, err = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "4", "--suite", "closed"
        )
        first = next(line for line in out.splitlines() if line.startswith("FAIL"))
        assert code == 1 and err == ""
        assert first == (
            "FAIL excA_distribution_agreement r=1 n=3: "
            "d(1, 3, 2) evaluated negative: -1"
        )

    def test_closed_suite_builds_each_polynomial_once(self, capsys, monkeypatch):
        calls = []
        exact = closed.D_closed

        def counted(r, n):
            calls.append((r, n))
            return exact(r, n)

        monkeypatch.setattr(closed, "D_closed", counted)
        code, _, _ = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "4", "--suite", "closed"
        )
        assert code == 0
        assert sorted(calls) == [(r, n) for r in (1, 2) for n in range(1, 5)]

    def test_explicit_sum_sign_flip_is_caught(self, capsys, monkeypatch):
        exact = closed._alternants

        def flipped(row):
            alternants = list(exact(row))
            if len(alternants) > 1:
                alternants[1] = -alternants[1]
            return tuple(alternants)

        monkeypatch.setattr(closed, "_alternants", flipped)
        code, out, err = run_cli(
            capsys, "check", "--r-max", "2", "--n-max", "4", "--suite", "closed"
        )
        lines = out.splitlines()
        first = next(line for line in lines if line.startswith("FAIL"))
        assert code == 1 and err == ""
        assert "PASS excA_distribution_agreement r=1 n=1" in lines
        assert first == (
            "FAIL excA_distribution_agreement r=1 n=2: "
            "d(1, 2, 0) evaluated negative: -3"
        )

    @staticmethod
    def _last_color(last):
        """color_map with the color c at the last position sent to last(r, n, c)."""
        exact = properties.color_map

        def mapped(r, n, i, c):
            return last(r, n, c) if i == n else exact(r, n, i, c)

        return mapped

    def test_image_outside_the_group_is_a_fail_line(self, capsys, monkeypatch):
        # Color r - c at the last position is r itself when c = 0: no
        # element has it, so neither check may pass or crash.
        monkeypatch.setattr(
            properties, "color_map", self._last_color(lambda r, n, c: r - c)
        )
        argv = ("check", "--suite", "symmetry", "--r-max", "2", "--n-max", "2")
        code, out, err = run_cli(capsys, *argv)
        lines = out.splitlines()
        assert code == 1 and err == ""
        for name in ("exc_complement", "symmetry_involution"):
            assert (
                f"FAIL {name} r=1 n=1: position 1 color 0 -> 1: "
                "1 -> 1^1: image is not an element of Z_1 wr S_1"
            ) in lines
            assert (
                f"FAIL {name} r=2 n=2: position 2 color 0 -> 2: "
                "1,2 -> 2,1^2: image is not an element of Z_2 wr S_2"
            ) in lines
        assert lines[-1] == "12 checks, 4 passed, 8 failed"
        # The symmetry suite opens no pool, so --threads prints the same bytes.
        assert run_cli(capsys, *argv, "--threads", "2") == (code, out, err)

    def test_position_out_of_range_is_a_fail_line(self, capsys, monkeypatch):
        # The last position sent to n + 1: no image is an element, and
        # neither check may crash on it.
        exact = properties.position_map
        monkeypatch.setattr(
            properties, "position_map", lambda n: exact(n)[:-1] + (n + 1,)
        )
        code, out, err = run_cli(
            capsys, "check", "--suite", "symmetry", "--r-max", "1", "--n-max", "2"
        )
        assert code == 1 and err == ""
        assert out.splitlines()[-4:] == [
            "PASS exc_distribution_palindrome r=1 n=2",
            "FAIL exc_complement r=1 n=2: position map 1,3 is not a permutation "
            "of 1..2: no image is an element of Z_1 wr S_2",
            "FAIL symmetry_involution r=1 n=2: position map 1,3 is not a "
            "permutation of 1..2: no image is an element of Z_1 wr S_2",
            "6 checks, 2 passed, 4 failed",
        ]

    def test_last_position_color_slip_is_caught(self, capsys, monkeypatch):
        # Negative control: the last position mapped like the others, by
        # (r - c) mod r instead of r - 1 - c.  The map is still an
        # involution, so only the complement check can see it.
        monkeypatch.setattr(
            properties, "color_map", self._last_color(lambda r, n, c: (r - c) % r)
        )
        argv = ("check", "--suite", "symmetry", "--r-max", "2", "--n-max", "2")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err == ""
        assert run_cli(capsys, *argv, "--threads", "2") == (code, out, err)
        assert out == (
            "PASS exc_distribution_palindrome r=1 n=1\n"
            "PASS exc_complement r=1 n=1\n"
            "PASS symmetry_involution r=1 n=1\n"
            "PASS exc_distribution_palindrome r=1 n=2\n"
            "PASS exc_complement r=1 n=2\n"
            "PASS symmetry_involution r=1 n=2\n"
            "PASS exc_distribution_palindrome r=2 n=1\n"
            "FAIL exc_complement r=2 n=1: position 1 value 1 color 1: "
            "1^1 -> 1^1: exc 1 + 1 != 1\n"
            "PASS symmetry_involution r=2 n=1\n"
            "PASS exc_distribution_palindrome r=2 n=2\n"
            "FAIL exc_complement r=2 n=2: position 2 value 1 color 1: "
            "2,1^1 -> 1,2^1: exc 3 + 1 != 3\n"
            "PASS symmetry_involution r=2 n=2\n"
            "12 checks, 10 passed, 2 failed\n"
        )
        _, out, _ = run_cli(
            capsys, "check", "--suite", "symmetry", "--r-max", "4", "--n-max", "4"
        )
        fails = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
        assert {"FAIL exc_complement r=3 n=4", "FAIL exc_complement r=4 n=3"} <= set(fails)

    def test_fault_above_the_old_elementwise_cap_is_caught(self, capsys, monkeypatch):
        # The last color kept, only at r >= 3 and n >= 6, where no group
        # has fewer than 524,880 elements: the first FAIL is at (3, 6).
        monkeypatch.setattr(
            properties,
            "color_map",
            self._last_color(lambda r, n, c: c if r >= 3 and n >= 6 else r - 1 - c),
        )
        code, out, err = run_cli(
            capsys, "check", "--suite", "symmetry", "--r-max", "4", "--n-max", "7"
        )
        lines = out.splitlines()
        assert code == 1 and err == ""
        assert not any(line.startswith("SKIP") for line in lines)
        assert next(line for line in lines if line.startswith("FAIL")) == (
            "FAIL exc_complement r=3 n=6: position 6 value 1 color 1: "
            "6,2,3,4,5,1 -> 2,3,4,5,1,6: exc 3 + 12 != 17"
        )
        assert lines[-1] == "84 checks, 80 passed, 4 failed"

    def test_value_half_without_complement_is_caught(self, capsys, monkeypatch):
        # Negative control: the values reversed but not complemented.  The
        # map is still an involution, so only the complement check sees it.
        monkeypatch.setattr(properties, "value_map", lambda n: tuple(range(1, n + 1)))
        code, out, err = run_cli(
            capsys, "check", "--suite", "symmetry", "--r-max", "2", "--n-max", "3"
        )
        lines = out.splitlines()
        first = next(line for line in lines if line.startswith("FAIL"))
        assert code == 1 and err == ""
        assert first == (
            "FAIL exc_complement r=1 n=2: values 1 and 2 at positions 1 and 2: "
            "1,2 -> 1,2: exc 0 + 0 != 1"
        )
        assert not any(line.startswith("FAIL symmetry_involution") for line in lines)
        assert lines[-1] == "18 checks, 14 passed, 4 failed"

    def test_diagonal_moved_by_the_table_is_caught_at_the_identity(
        self, capsys, monkeypatch
    ):
        # Negative control for condition (c): every exc entry at position 1
        # raised by 1.  Each pair term still agrees across colors (a) and
        # is additive (b), but the diagonal sum is off by one, and
        # summarize finds the identity and its image sound.
        build = stats.contributions

        def raised(r, n):
            exc, excA = build(r, n)
            exc[0] = [tuple(e + 1 for e in entries) for entries in exc[0]]
            return exc, excA

        monkeypatch.setattr(stats, "contributions", raised)
        argv = ("check", "--suite", "symmetry", "--r-max", "2", "--n-max", "3")
        code, out, err = run_cli(capsys, *argv)
        lines = out.splitlines()
        assert code == 1 and err == ""
        assert lines[0] == (
            "FAIL exc_complement_and_involution r=1 n=1: "
            "identity, yet 1 pass elementwise"
        )
        assert lines[-1] == "6 checks, 0 passed, 6 failed"
        assert run_cli(capsys, *argv, "--threads", "2") == (code, out, err)

    def test_symmetry_suite_calls_summarize_twice_per_point(self, capsys, monkeypatch):
        # Each passing point anchors the per-position check with the
        # identity and its image, and scans no other element.
        calls = []
        exact = properties.summarize

        def counted(p):
            calls.append((p.r, p.n))
            return exact(p)

        monkeypatch.setattr(properties, "summarize", counted)
        code, _, _ = run_cli(
            capsys, "check", "--suite", "symmetry", "--r-max", "3", "--n-max", "4"
        )
        assert code == 0
        assert calls == [(r, n) for r in range(1, 4) for n in range(1, 5) for _ in "pq"]

    def test_threads_open_one_pool_per_pooled_point(
        self, capsys, opened_pools, pool_every_group
    ):
        # Every point of n >= 2 is split in two and walked on a pool of
        # its own, opened when a suite first reads it.
        code, out, err = run_cli(
            capsys,
            "check", "--suite", "all", "--r-max", "3", "--n-max", "4",
            "--threads", "2",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "111 checks, 111 passed, 0 failed"
        assert opened_pools == [2] * 9
        assert multiprocessing.active_children() == []

    def test_sweep_of_small_groups_opens_no_pool(self, capsys, opened_pools):
        # Every group of r <= 2, n <= 3 is below POOL_MIN, so it is walked
        # inline when a suite reads it.
        argv = ("check", "--suite", "all", "--r-max", "2", "--n-max", "3")
        for fmt in ("text", "json"):
            serial = run_cli(capsys, *argv, "--format", fmt)
            assert serial[0] == 0
            assert run_cli(capsys, *argv, "--format", fmt, "--threads", "2") == serial
        assert opened_pools == []

    def test_each_pool_has_as_many_processes_as_its_point_has_runs(
        self, capsys, monkeypatch, opened_pools, pool_every_group
    ):
        # Under the cap only Z_1 wr S_n for n <= 3 is enumerated, so a
        # point has at most n runs, whatever --threads says; (1, 1) is one
        # run, walked inline.
        monkeypatch.setattr(cli, "BRUTE_SUITE_CAP", 10)
        code, out, err = run_cli(
            capsys,
            "check", "--suite", "lemma", "--r-max", "1", "--n-max", "12",
            "--threads", "12",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "3 checks, 3 passed, 0 failed, 9 skipped"
        assert opened_pools == [2, 3]
        assert multiprocessing.active_children() == []

    def test_pool_is_closed_after_a_failing_run(
        self, capsys, monkeypatch, opened_pools, pool_every_group
    ):
        # A fault that the forked workers inherit and raise at (2, 2): the
        # FAIL comes back through that point's pool, the next point still
        # runs on a pool of its own, and every pool is shut down.
        build = stats.contributions

        def skewed(r, n):
            table, ascents = build(r, n)
            if (r, n) == (2, 2):
                row = list(table[0][1])
                row[1] += 1
                table[0][1] = tuple(row)
            return table, ascents

        monkeypatch.setattr(stats, "contributions", skewed)
        code, out, err = run_cli(
            capsys,
            "check", "--suite", "lemma", "--r-max", "2", "--n-max", "3",
            "--threads", "2",
        )
        lines = out.splitlines()
        assert code == 1 and err == ""
        assert lines[-2:] == [
            "PASS lemma_exc_decomposition r=2 n=3",
            "6 checks, 5 passed, 1 failed",
        ]
        assert lines[-3].startswith("FAIL lemma_exc_decomposition r=2 n=2: ")
        assert opened_pools == [2] * 4
        assert multiprocessing.active_children() == []

    def test_a_failing_pooled_report_fails_alike_when_read_again(
        self, capsys, monkeypatch, pool_every_group
    ):
        # lemma reads the pooled report of (2, 2) and gets the fault the
        # workers inherit; recursion reads it again, on a fresh pool, and
        # must print the same counterexample, as a serial run does.  The
        # symmetry suite reads the same table in the parent and fails too.
        build = stats.contributions

        def skewed(r, n):
            table, ascents = build(r, n)
            if (r, n) == (2, 2):
                row = list(table[0][1])
                row[1] += 1
                table[0][1] = tuple(row)
            return table, ascents

        monkeypatch.setattr(stats, "contributions", skewed)
        argv = ("check", "--suite", "all", "--r-max", "2", "--n-max", "3")
        serial = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--threads", "2") == serial
        fails = {
            line.split(": ", 1)[0]: line.split(": ", 1)[1]
            for line in serial[1].splitlines()
            if line.startswith("FAIL") and " r=2 n=2: " in line
        }
        lemma = fails["FAIL lemma_exc_decomposition r=2 n=2"]
        assert fails["FAIL dp_matches_enumeration r=2 n=2"] == lemma
        assert fails["FAIL exc_complement_and_involution r=2 n=2"] == (
            "position 1 value 1 color 1, yet 1^1,2 and 1,2 pass elementwise"
        )
        assert multiprocessing.active_children() == []

    def test_threaded_sweep_prints_the_serial_bytes(self, capsys, pool_every_group):
        # The text bytes of both runs are goldens; this compares the JSON
        # with every group pooled.
        argv = ("check", "--suite", "all", "--r-max", "3", "--n-max", "5")
        serial = run_cli(capsys, *argv, "--format", "json")
        assert serial[0] == 0
        assert run_cli(capsys, *argv, "--format", "json", "--threads", "2") == serial

    @pytest.mark.parametrize(
        "fault, fails, summary",
        [
            (
                "short-exc-row",
                [
                    "FAIL dp_exc_matches_enumeration r=2 n=2: exc row of length 3, not 4",
                    "FAIL exc_complement_and_involution r=2 n=2: "
                    "expected a row of length 4, got 3",
                ],
                "44 checks, 32 passed, 12 failed",
            ),
            (
                "narrow-table",
                [
                    "FAIL dp_matches_enumeration r=2 n=2: "
                    "rows must fill the box: 3 rows of 2",
                    "FAIL exc_complement_and_involution r=1: "
                    "rows must fill the box: 1 rows of 1",
                    "FAIL exc_complement_and_involution r=2: "
                    "rows must fill the box: 2 rows of 1",
                ],
                "34 checks, 26 passed, 8 failed",
            ),
        ],
        ids=["short-exc-row", "narrow-table"],
    )
    def test_wrong_shapes_in_a_suite_are_fail_lines(
        self, capsys, monkeypatch, pool_every_group, fault, fails, summary
    ):
        # A DP exc row of the wrong length, and a joint table whose rows
        # cannot fill its box (a ValueError), are invariants broken inside
        # the code under test: FAIL lines for the points they reach, never
        # an IndexError traceback or a usage error, threaded or not.  The
        # symmetry suite reads its tables as a stream, so there the fault
        # is one FAIL line per r.
        if fault == "short-exc-row":
            row = dist.exc_row_from_table
            monkeypatch.setattr(dist, "exc_row_from_table", lambda t: row(t)[:-1])
        else:
            unpack = dist._unpack
            monkeypatch.setattr(
                dist, "_unpack", lambda r, m, w, cols: unpack(r, m, w, cols[:-1])
            )
        argv = ("check", "--suite", "all", "--r-max", "2", "--n-max", "3")
        serial = run_cli(capsys, *argv)
        code, out, err = serial
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert all(line in lines for line in fails)
        assert lines[-1] == summary
        assert run_cli(capsys, *argv, "--threads", "2") == serial

    def test_unexpected_error_in_a_worker_stops_the_run(
        self, monkeypatch, opened_pools, pool_every_group
    ):
        # A TypeError is no FAIL line: raised in the workers of the first
        # pooled point, (1, 2), it stops the run, and the pool is shut
        # down.  The inline walk of (1, 1) runs in the parent and passes.
        build = stats.contributions

        def broken(r, n):
            if multiprocessing.parent_process() is None:
                return build(r, n)
            raise TypeError("injected")

        monkeypatch.setattr(stats, "contributions", broken)
        with pytest.raises(TypeError, match="injected"):
            main(["check", "--r-max", "3", "--n-max", "5", "--threads", "2"])
        assert opened_pools == [2]
        assert multiprocessing.active_children() == []

    def test_dropped_excA_recurrence_term_is_caught_by_closed(
        self, capsys, monkeypatch
    ):
        # Negative control: iter_excA_rows without its term
        # (k+1)(r-1) d(n-1, k+1).  The factor r - 1 hides it at r = 1 and
        # the term is zero at n = 2, so the first FAIL is at r = 2, n = 3.
        # Only `closed` compares the recurrence with another route.
        def dropped(r, n_max):
            row = [r]
            yield row
            for m in range(2, n_max + 1):
                row = [
                    (m - k) * (row[k - 1] if k >= 1 else 0)
                    + (k + 1 + (r - 1) * (m - k)) * (row[k] if k < m - 1 else 0)
                    for k in range(m)
                ]
                yield row

        monkeypatch.setattr(dist, "iter_excA_rows", dropped)
        sweep = ("--r-max", "3", "--n-max", "5")
        code, out, err = run_cli(capsys, "check", "--suite", "closed", *sweep)
        lines = out.splitlines()
        first = next(line for line in lines if line.startswith("FAIL"))
        assert code == 1 and err == ""
        assert "PASS excA_distribution_agreement r=2 n=2" in lines
        assert first == (
            "FAIL excA_distribution_agreement r=2 n=3: "
            "joint row [26, 20, 2] != recurrence row [24, 20, 2]"
        )
        for suite in ("logconcave", "recursion", "symmetry", "eq2"):
            code, out, _ = run_cli(capsys, "check", "--suite", suite, *sweep)
            assert code == 0, suite

    @pytest.mark.parametrize(
        "weights, suite, first_fail",
        [
            (
                _negative_weights,
                "recursion",
                "FAIL dp_matches_enumeration r=1 n=2: "
                "joint DP column out of its slots at n=2",
            ),
            (
                _negative_weights,
                "closed",
                "FAIL excA_distribution_agreement r=1 n=2: "
                "joint row [-1, 1] != recurrence row [1, 1]",
            ),
            (
                _overflowing_weights,
                "recursion",
                "FAIL dp_joint_matches_enumeration r=1 n=2: "
                "cell (i=0, k=1): dp=7 enumeration=1",
            ),
            (
                _overflowing_weights,
                "closed",
                "FAIL excA_distribution_agreement r=1 n=2: "
                "joint row [1, 7] != recurrence row [1, 1]",
            ),
        ],
        ids=[
            "negative-recursion",
            "negative-closed",
            "overflow-recursion",
            "overflow-closed",
        ],
    )
    def test_packed_dp_faults_are_fail_lines(
        self, capsys, monkeypatch, weights, suite, first_fail
    ):
        # Negative controls for the packed joint DP: a cell below 0 or
        # above its slot is a FAIL line, never an OverflowError.
        monkeypatch.setattr(dist, "_insertion_weights", weights)
        code, out, err = run_cli(
            capsys, "check", "--r-max", "3", "--n-max", "5", "--suite", suite
        )
        lines = out.splitlines()
        first = next(line for line in lines if line.startswith("FAIL"))
        assert code == 1 and err == ""
        assert first == first_fail
        if suite == "recursion":
            # Both faults outgrow the top slot at r = 1 by n = 4.
            assert any(line.endswith("out of its slots at n=4") for line in lines)

    @pytest.mark.parametrize("flag", ["--r-max", "--n-max"])
    def test_empty_sweep_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "check", flag, "0")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_threads_flag_accepted(self, capsys, pool_every_group):
        code, out, _ = run_cli(
            capsys,
            "check", "--r-max", "2", "--n-max", "3",
            "--suite", "recursion", "--threads", "2",
        )
        assert code == 0


class TestOutputPlumbing:
    @pytest.mark.parametrize(
        "case", GOLDEN, ids=[" ".join(case["argv"]) for case in GOLDEN]
    )
    def test_golden_bytes(self, capsys, case):
        assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], "")

    def test_out_into_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "poly.txt"
        code, out, err = run_cli(
            capsys, "poly", "--r", "2", "--n", "2", "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_threads_below_one_exits_2(self, capsys, count):
        with pytest.raises(SystemExit) as info:
            main(["dist", "--r", "2", "--n", "2", "--target", "exc", "--threads", count])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["٣", "1_0", "+3", " 3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "--r", None, "--n", "2"],
            ["poly", "--r", "2", "--n", None],
            ["check", "--r-max", None, "--n-max", "1", "--suite", "logconcave"],
            ["check", "--r-max", "1", "--n-max", None, "--suite", "logconcave"],
            ["dist", "--r", "2", "--n", "2", "--target", "exc", "--method", "brute",
             "--threads", None],
        ],
        ids=["r", "n", "r-max", "n-max", "threads"],
    )
    def test_integer_options_take_ascii_decimal_only(self, capsys, argv, text):
        # int() takes all of these: non-ASCII digits, underscores, a sign
        # and surrounding spaces.
        slot = argv.index(None)
        with pytest.raises(SystemExit) as info:
            main(argv[:slot] + [text] + argv[slot + 1 :])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert f"argument {argv[slot - 1]}:" in err and "Traceback" not in err

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(capsys, "poly", "--r", "2", "--n", "5")
        target = tmp_path / "poly.txt"
        code, out, _ = run_cli(
            capsys, "poly", "--r", "2", "--n", "5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "dist", "--r", "3", "--n", "4", "--target", "exc")
        second = run_cli(capsys, "dist", "--r", "3", "--n", "4", "--target", "exc")
        assert first == second

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_choice_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["dist", "--r", "2", "--n", "2", "--target", "des"])
        assert info.value.code == 2


_R = (("--r",), "r", None, None, True, "number of colors", "decimal")
_N = (("--n",), "n", None, None, True, "degree", "decimal")
_THREADS = (
    ("--threads",), "threads", None, None, False,
    "worker processes for brute enumeration", "decimal>=1",
)
_OUTPUT = [
    (
        ("--format",), "format", "text", ("text", "json", "csv"), False,
        "output format (default text)", None,
    ),
    (
        ("--out",), "out", None, None, False,
        "write output to this file instead of stdout", None,
    ),
]

#: Every subcommand's help and options, in declaration order: option
#: strings, dest, default, choices, required, help and integer type.
PARSER_SNAPSHOT = {
    "stats": ("statistics of one element", [
        _R,
        ((), "window", None, None, True, "window notation, e.g. 3,1^1,2^2", None),
        *_OUTPUT,
    ]),
    "dist": ("distribution of a statistic over a group", [
        _R,
        _N,
        (
            ("--target",), "target", None, ("exc", "excA"), True,
            "which statistic to distribute", None,
        ),
        (
            ("--method",), "method", "dp", ("brute", "dp", "closed", "explicit"),
            False,
            "brute enumeration, insertion recursions, closed form or explicit sum",
            None,
        ),
        _THREADS,
        *_OUTPUT,
    ]),
    "joint": ("joint (csum, exc_A) table over a group", [
        _R,
        _N,
        (
            ("--method",), "method", "dp", ("brute", "dp"), False,
            "brute enumeration or insertion recursions", None,
        ),
        _THREADS,
        *_OUTPUT,
    ]),
    "poly": ("generating polynomial of exc_A", [_R, _N, *_OUTPUT]),
    "bijection": ("apply the complementing involution", [
        _R,
        ((), "window", None, None, True, "window notation, e.g. 2^1,1^2,4^1,3", None),
        *_OUTPUT,
    ]),
    "check": ("run invariant suites over parameter sweeps", [
        (("--r-max",), "r_max", 3, None, False, "largest r (default 3)", "decimal"),
        (("--n-max",), "n_max", 5, None, False, "largest n (default 5)", "decimal"),
        (
            ("--suite",), "suite", "all",
            ("lemma", "recursion", "closed", "eq2", "symmetry", "logconcave", "all"),
            False, "which suite to run (default all)", None,
        ),
        _THREADS,
        *_OUTPUT,
    ]),
}


def _type_name(kind):
    if kind is cli._decimal:
        return "decimal"
    if getattr(kind, "func", None) is cli._decimal:
        return f"decimal>={kind.keywords['least']}"
    return kind


class TestParser:
    def test_parser_is_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        argv = ("poly", "--r", "2", "--n", "3")
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and run_cli(capsys, *argv) == first
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        with pytest.raises(SystemExit) as exit_info:
            main(["poly", "--r", "2"])
        assert exit_info.value.code == 2
        assert "--n" in capsys.readouterr().err
        assert run_cli(capsys, *argv) == first

    def _subparsers(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        return sub

    def test_subcommands_and_their_help(self):
        sub = self._subparsers()
        assert sub.required
        assert {a.dest: a.help for a in sub._choices_actions} == {
            name: help_text for name, (help_text, _) in PARSER_SNAPSHOT.items()
        }
        assert list(sub.choices) == list(PARSER_SNAPSHOT)

    @pytest.mark.parametrize("name", list(PARSER_SNAPSHOT))
    def test_options_match_the_snapshot(self, name):
        parser = self._subparsers().choices[name]
        actions = [
            (
                tuple(a.option_strings), a.dest, a.default, a.choices,
                a.required, a.help, _type_name(a.type),
            )
            for a in parser._actions
            if a.dest != "help"
        ]
        assert actions == PARSER_SNAPSHOT[name][1]
        assert parser.get_default("func") is getattr(cli, f"cmd_{name}")

    @pytest.mark.parametrize("name", list(PARSER_SNAPSHOT))
    def test_help_exits_0(self, capsys, name):
        with pytest.raises(SystemExit) as info:
            main([name, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: colorperm {name}")
