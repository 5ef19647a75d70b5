"""Command line behavior: outputs, formats, exit codes."""

import json
from pathlib import Path

import pytest

from colorperm import cli, closed, oracle, properties
from colorperm.cli import main

#: Exit status and stdout of every subcommand in every format at small
#: points; any change to these bytes is a change to the CLI's output.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_symmetry_reports_skipped_elementwise_checks(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ELEMENTWISE_SUITE_CAP", 2)
        code, out, _ = run_cli(
            capsys, "check", "--r-max", "1", "--n-max", "3", "--suite", "symmetry"
        )
        assert code == 0
        assert out.splitlines()[-3:] == [
            "PASS exc_distribution_palindrome r=1 n=3",
            "SKIP exc_complement_and_involution r=1 n=3: 6 elements above the cap 2",
            "7 checks, 7 passed, 0 failed, 1 skipped",
        ]

    @pytest.mark.parametrize(
        "module, suite, name",
        [
            (cli, "lemma", "lemma_exc_decomposition"),
            (oracle, "recursion", "dp_matches_enumeration"),
            (properties, "symmetry", "exc_complement_and_involution"),
        ],
    )
    def test_assertion_in_a_suite_is_a_fail_line(
        self, capsys, monkeypatch, module, suite, name
    ):
        def broken(p):
            raise AssertionError("injected")

        monkeypatch.setattr(module, "summarize", broken)
        code, out, err = run_cli(
            capsys, "check", "--r-max", "1", "--n-max", "2", "--suite", suite
        )
        assert code == 1 and err == ""
        assert f"FAIL {name} r=1 n=2: injected" in out.splitlines()
        assert out.splitlines()[-1].endswith(" failed") and " 0 failed" not in out

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
        exact = closed.stirling2
        exact.cache_clear()
        # Off by one at S(3, 2); the exact triangle recurses through the
        # module name, so every S(n, 2) above it inherits the fault.
        monkeypatch.setattr(
            closed,
            "stirling2",
            lambda n, j: exact(n, j) + (1 if (n, j) == (3, 2) else 0),
        )
        try:
            code, out, err = run_cli(
                capsys, "check", "--r-max", "2", "--n-max", "4", "--suite", suite
            )
        finally:
            exact.cache_clear()
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

    @pytest.mark.parametrize("flag", ["--r-max", "--n-max"])
    def test_empty_sweep_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "check", flag, "0")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_threads_flag_accepted(self, capsys):
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

    def test_threads_below_one_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["dist", "--r", "2", "--n", "2", "--target", "exc", "--threads", "-5"])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err

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
