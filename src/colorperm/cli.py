"""Command line interface.

Subcommands:

* stats      statistics of one element given in window notation
* dist       distribution of a statistic over a whole group
* joint      joint (csum, exc_A) table over a whole group
* poly       generating polynomial of exc_A
* bijection  apply the complementing involution to one element
* check      run invariant suites over parameter sweeps

Output is deterministic for fixed inputs.  JSON output renders counts as
decimal strings.  Exit status: 0 on success, 1 when a check finds a
violated invariant, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from typing import NamedTuple

from . import closed, dist, oracle, properties
from .perm import (
    GroupParams,
    check_params,
    enumerate_group,
    format_window,
    parse_window,
)
from .stats import summarize

#: Brute-force suites skip parameter points with more elements than this.
BRUTE_SUITE_CAP = 10**6
#: Elementwise involution suites use a tighter cap.
ELEMENTWISE_SUITE_CAP = 10**5

SUITE_NAMES = ("lemma", "recursion", "closed", "eq2", "symmetry", "logconcave")


# Every cmd_* returns (exit status, JSON object, CSV rows, text); main
# renders the one that --format asks for.  CSV rows of None mean the text
# is already CSV.  A ValueError from a cmd_* is a usage error (exit 2).


def _key_value(obj: dict):
    """CSV rows and text for a flat record; list values join with ';' or ','."""

    def flat(value, sep):
        return sep.join(map(str, value)) if isinstance(value, list) else value

    rows = [("stat", "value")] + [(key, flat(value, ";")) for key, value in obj.items()]
    text = "".join(f"{key}: {flat(value, ',')}\n" for key, value in obj.items())
    return rows, text


def cmd_stats(args):
    p = parse_window(args.window, args.r)
    s = summarize(p)
    obj = {
        "window": format_window(p),
        "r": p.r,
        "n": p.n,
        "exc": s.exc,
        "exc_A": s.exc_A,
        "csum": s.csum,
        "exc_letters": [str(x) for x in sorted(s.exc_set)],
        "exc_A_positions": sorted(s.exc_A_set),
    }
    return (0, obj, *_key_value(obj))


def _dist_row(args) -> list[int]:
    r, n = args.r, args.n
    if args.method == "brute":
        report = oracle.brute_tables(r, n, workers=args.threads)
        if args.target == "exc":
            return report.exc_row
        return report.joint_by_csum.d_row()
    if args.method == "dp":
        if args.target == "exc":
            return dist.exc_dist(r, n)
        return dist.excA_dist(r, n, method="recurrence")
    if args.method == "closed":
        poly = closed.D_closed(r, n)
        return [poly.coeff(k) for k in range(n)]
    return [closed.d_explicit(r, n, k) for k in range(n)]


def cmd_dist(args):
    if args.method in ("closed", "explicit") and args.target == "exc":
        raise ValueError(
            f"method {args.method!r} computes the exc_A distribution only; "
            "use --target excA"
        )
    row = _dist_row(args)
    obj = {
        "r": args.r,
        "n": args.n,
        "target": args.target,
        "method": args.method,
        "counts": [str(c) for c in row],
    }
    return 0, obj, [("k", "count"), *enumerate(row)], ",".join(map(str, row)) + "\n"


def cmd_joint(args):
    if args.method == "brute":
        table = oracle.brute_tables(args.r, args.n, workers=args.threads).joint_by_csum
    else:
        table = dist.joint_table(args.r, args.n)
    return 0, table.to_json_obj(), None, table.to_csv()


def cmd_poly(args):
    poly = closed.D_closed(args.r, args.n)
    coeffs = [poly.coeff(k) for k in range(args.n)]
    obj = {"r": args.r, "n": args.n, "coefficients": [str(c) for c in coeffs]}
    return 0, obj, [("k", "coefficient"), *enumerate(coeffs)], poly.render() + "\n"


def cmd_bijection(args):
    p = parse_window(args.window, args.r)
    q = properties.symmetry_map(p)
    obj = {
        "window": format_window(p),
        "image": format_window(q),
        "exc": summarize(p).exc,
        "image_exc": summarize(q).exc,
        "expected_sum": p.r * p.n - 1,
    }
    return (0, obj, *_key_value(obj))


def _sweep(r_max: int, n_max: int):
    for r in range(1, r_max + 1):
        for n in range(1, n_max + 1):
            yield r, n


class Skip(NamedTuple):
    """A sweep point left unchecked because its group is above a size cap."""

    name: str
    r: int
    n: int
    size: int
    cap: int

    def reason(self) -> str:
        return f"{self.size} elements above the cap {self.cap}"


def _over_cap(name: str, r: int, n: int, cap: int) -> list:
    """[Skip] when Z_r wr S_n has more than cap elements, else []."""
    size = GroupParams(r, n).size
    return [Skip(name, r, n, size, cap)] if size > cap else []


def _run_points(name: str, points, check) -> list:
    """Concatenate check(r, n) over the points, turning a crash into a FAIL.

    An AssertionError is an invariant violated inside the code under
    test; it becomes a FAIL verdict named ``name`` for that point, with
    the message as the counterexample, and the sweep goes on.
    """
    entries = []
    for r, n in points:
        try:
            entries.extend(check(r, n))
        except AssertionError as exc:
            entries.append(
                properties.PropertyVerdict(
                    name=name, passed=False, r=r, n=n, counterexample=str(exc)
                )
            )
    return entries


def _per_r(r_max: int):
    return ((r, None) for r in range(1, r_max + 1))


def suite_lemma(r_max, n_max, workers=None) -> list:
    """exc = r*exc_A + csum on every element of every feasible group."""
    name = "lemma_exc_decomposition"

    def check(r, n):
        skipped = _over_cap(name, r, n, BRUTE_SUITE_CAP)
        if skipped:
            return skipped
        for p in enumerate_group(GroupParams(r, n)):
            summarize(p)
        return [properties.PropertyVerdict(name=name, passed=True, r=r, n=n)]

    return _run_points(name, _sweep(r_max, n_max), check)


def suite_recursion(r_max, n_max, workers=None) -> list:
    """DP joint table and exc row against full enumeration."""
    name = "dp_matches_enumeration"

    def check(r, n):
        skipped = _over_cap(name, r, n, BRUTE_SUITE_CAP)
        if skipped:
            return skipped
        report = oracle.brute_tables(r, n, workers=workers)
        diffs = oracle.compare(dist.joint_table(r, n), report.joint_by_csum)
        counterexample = None
        if diffs:
            d = diffs[0]
            counterexample = (
                f"cell (i={d.i}, k={d.k}): dp={d.left} enumeration={d.right}"
            )
        joint = properties.PropertyVerdict(
            name="dp_joint_matches_enumeration",
            passed=not diffs,
            r=r,
            n=n,
            counterexample=counterexample,
        )
        dp_exc = dist.exc_dist(r, n)
        counterexample = None
        if dp_exc != report.exc_row:
            k = next(
                k for k in range(r * n) if dp_exc[k] != report.exc_row[k]
            )
            counterexample = (
                f"exc={k}: dp={dp_exc[k]} enumeration={report.exc_row[k]}"
            )
        exc = properties.PropertyVerdict(
            name="dp_exc_matches_enumeration",
            passed=counterexample is None,
            r=r,
            n=n,
            counterexample=counterexample,
        )
        return [joint, exc]

    return _run_points(name, _sweep(r_max, n_max), check)


def suite_closed(r_max, n_max, workers=None) -> list:
    """Recurrence, joint-sum, closed form and explicit sum all agree."""
    name = "excA_distribution_agreement"

    def agreement(r, n, table):
        rows = {
            "recurrence": dist.excA_dist(r, n, method="recurrence"),
            "sum-joint": table.d_row(),
            "closed": [closed.D_closed(r, n).coeff(k) for k in range(n)],
            "explicit": [closed.d_explicit(r, n, k) for k in range(n)],
        }
        baseline = rows["recurrence"]
        bad = next(
            (method for method, row in rows.items() if row != baseline), None
        )
        return [
            properties.PropertyVerdict(
                name=name,
                passed=bad is None,
                r=r,
                n=n,
                counterexample=(
                    None
                    if bad is None
                    else f"{bad} row {rows[bad]} != recurrence row {baseline}"
                ),
            )
        ]

    def check(r, _):
        # The joint tables come one n at a time from a single DP run per
        # r; each n is still its own point, so a crash names it.
        verdicts = []
        for n, table in zip(
            range(1, n_max + 1), dist.iter_joint_tables(r, n_max)
        ):
            verdicts += _run_points(
                name, [(r, n)], lambda r, n: agreement(r, n, table)
            )
        return verdicts

    return _run_points(name, _per_r(r_max), check)


def suite_eq2(r_max, n_max, workers=None) -> list:
    """Derivative recurrence for the generating polynomial."""
    name = "polynomial_derivative_recurrence"

    def check(r, _):
        report = closed.check_eq2(r, max(n_max, 2))
        return [
            properties.PropertyVerdict(
                name=name,
                passed=report.passed,
                r=r,
                n=report.first_failure_n if not report.passed else report.n_max,
                counterexample=report.detail,
            )
        ]

    return _run_points(name, _per_r(r_max), check)


def suite_symmetry(r_max, n_max, workers=None) -> list:
    """Palindromic exc distribution, plus the involution elementwise."""
    name = "exc_complement_and_involution"

    def check(r, n):
        verdicts = [properties.check_symmetry_dist(dist.exc_dist(r, n), r, n)]
        skipped = _over_cap(name, r, n, ELEMENTWISE_SUITE_CAP)
        if skipped:
            return verdicts + skipped
        return verdicts + [
            properties.check_exc_complement(r, n),
            properties.check_involution(r, n),
        ]

    return _run_points(name, _sweep(r_max, n_max), check)


def suite_logconcave(r_max, n_max, workers=None) -> list:
    """Log-concavity (and hence unimodality) of the exc_A distribution.

    For r <= 2 this always holds; for larger r the verdicts carry an
    "empirical" suffix because they only certify the swept range.
    """

    def check(r, n):
        row = dist.excA_dist(r, n)
        suffix = "" if r <= 2 else "_empirical"
        return [
            replace(verdict, name=f"excA_{verdict.name}{suffix}")
            for verdict in (
                properties.is_log_concave(row, r, n),
                properties.is_unimodal(row, r, n),
            )
        ]

    return _run_points("excA_shape", _sweep(r_max, n_max), check)


_SUITES = {
    "lemma": suite_lemma,
    "recursion": suite_recursion,
    "closed": suite_closed,
    "eq2": suite_eq2,
    "symmetry": suite_symmetry,
    "logconcave": suite_logconcave,
}


def run_suites(suite: str, r_max: int, n_max: int, workers=None) -> list:
    """Verdicts and Skip entries of the named suite (or all), in sweep order."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    entries = []
    for name in names:
        entries.extend(_SUITES[name](r_max, n_max, workers=workers))
    return entries


def _entry_line(e) -> str:
    if isinstance(e, Skip):
        return f"SKIP {e.name} r={e.r} n={e.n}: {e.reason()}"
    line = ("PASS " if e.passed else "FAIL ") + e.name
    if e.r is not None:
        line += f" r={e.r}"
    if e.n is not None:
        line += f" n={e.n}"
    if not e.passed and e.counterexample:
        line += f": {e.counterexample}"
    return line


def cmd_check(args):
    check_params(args.r_max, args.n_max)
    entries = run_suites(args.suite, args.r_max, args.n_max, workers=args.threads)
    verdicts = [e for e in entries if not isinstance(e, Skip)]
    skips = [e for e in entries if isinstance(e, Skip)]
    failed = [v for v in verdicts if not v.passed]
    obj = {
        "suite": args.suite,
        "r_max": args.r_max,
        "n_max": args.n_max,
        "verdicts": [v.to_json_obj() for v in verdicts],
    }
    if skips:
        # Group orders outgrow JSON's exact integers, so they go as strings.
        obj["skipped"] = [
            {
                "property": e.name,
                "r": e.r,
                "n": e.n,
                "elements": str(e.size),
                "cap": e.cap,
            }
            for e in skips
        ]
    obj["pass"] = not failed
    # The csv module writes None as an empty field.
    rows = [("property", "r", "n", "pass", "counterexample")] + [
        (e.name, e.r, e.n, "skip", e.reason())
        if isinstance(e, Skip)
        else (e.name, e.r, e.n, "true" if e.passed else "false", e.counterexample)
        for e in entries
    ]
    summary = (
        f"{len(verdicts)} checks, {len(verdicts) - len(failed)} passed, "
        f"{len(failed)} failed"
    )
    if skips:
        summary += f", {len(skips)} skipped"
    lines = [_entry_line(e) for e in entries] + [summary]
    return (1 if failed else 0), obj, rows, "\n".join(lines) + "\n"


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"worker count must be at least 1, got {text!r}")
    return count


def _add_output_options(parser):
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorperm",
        description="Excedance statistics and distributions on colored permutation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="statistics of one element")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("window", help="window notation, e.g. 3,1^1,2^2")
    _add_output_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dist", help="distribution of a statistic over a group")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("--n", type=int, required=True, help="degree")
    p.add_argument(
        "--target",
        choices=("exc", "excA"),
        required=True,
        help="which statistic to distribute",
    )
    p.add_argument(
        "--method",
        choices=("brute", "dp", "closed", "explicit"),
        default="dp",
        help="brute enumeration, insertion recursions, closed form or explicit sum",
    )
    p.add_argument(
        "--threads", type=_worker_count, help="worker processes for brute enumeration"
    )
    _add_output_options(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("joint", help="joint (csum, exc_A) table over a group")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("--n", type=int, required=True, help="degree")
    p.add_argument(
        "--method",
        choices=("brute", "dp"),
        default="dp",
        help="brute enumeration or insertion recursions",
    )
    p.add_argument(
        "--threads", type=_worker_count, help="worker processes for brute enumeration"
    )
    _add_output_options(p)
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("poly", help="generating polynomial of exc_A")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("--n", type=int, required=True, help="degree")
    _add_output_options(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("bijection", help="apply the complementing involution")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("window", help="window notation, e.g. 2^1,1^2,4^1,3")
    _add_output_options(p)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("check", help="run invariant suites over parameter sweeps")
    p.add_argument("--r-max", type=int, default=3, help="largest r (default 3)")
    p.add_argument("--n-max", type=int, default=5, help="largest n (default 5)")
    p.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        default="all",
        help="which suite to run (default all)",
    )
    p.add_argument(
        "--threads", type=_worker_count, help="worker processes for brute enumeration"
    )
    _add_output_options(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, obj, rows, text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(obj, indent=2) + "\n"
    elif args.format == "csv" and rows is not None:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    try:
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
