"""Command line interface.

Subcommands:

* stats      statistics of one element given in window notation
* dist       distribution of a statistic over a whole group
* joint      joint (csum, exc_A) table over a whole group
* poly       generating polynomial of exc_A
* bijection  apply the complementing involution to one element
* check      run invariant suites over parameter sweeps

Each subcommand is one row of _COMMANDS: its handler, help text and
options, with the options that several subcommands share declared once.

Output is deterministic for fixed inputs.  JSON output renders counts as
decimal strings.  A check verdict passes exactly when it carries no
counterexample; a FAIL line adds the counterexample after a colon when it
is not empty.  Exit status: 0 on success, 1 when a check finds a violated
invariant, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache, partial
from itertools import repeat
from typing import NamedTuple

from . import closed, dist, oracle, properties
from .perm import GroupParams, check_params, format_window, parse_window
from .properties import PropertyVerdict
from .stats import summarize

#: Brute-force suites skip parameter points with more elements than this.
BRUTE_SUITE_CAP = 10**6

# Every cmd_* returns (exit status, JSON object, CSV rows, text); main
# renders the one that --format asks for.  A JSON object given as a str is
# already rendered, and CSV rows of None mean the text is already CSV.  A
# ValueError from a cmd_* is a usage error (exit 2).


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
        return dist.excA_dist(r, n)
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
    text = table.to_json() if args.format == "json" else table.to_csv()
    return 0, text, None, text


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


class Skip(NamedTuple):
    """A sweep point left unchecked because its group is above a size cap."""

    name: str
    r: int
    n: int
    size: int
    cap: int

    def reason(self) -> str:
        return f"{self.size} elements above the cap {self.cap}"


def _run_points(name: str, points, check) -> list:
    """Concatenate check(r, n, *rest) over the points (r, n, *rest).

    An AssertionError or ValueError is an invariant violated inside the
    code under test (run_suites has validated the sweep's bounds already);
    it becomes a FAIL verdict named ``name`` for that point, with the
    message as the counterexample, and the sweep goes on.
    """
    entries = []
    for r, n, *rest in points:
        try:
            entries.extend(check(r, n, *rest))
        except (AssertionError, ValueError) as exc:
            entries.append(PropertyVerdict(name, r, n, str(exc)))
    return entries


def _sweep(name: str, r_max: int, n_max: int, check, streams=lambda r: ()) -> list:
    """Concatenate check(r, n, *items) over r = 1..r_max and n = 1..n_max,
    with one item per n from each of the iterables streams(r).

    Each r is also a point of its own: a stream that raises, or that
    does not hold exactly one item per n, is one FAIL line for its r, in
    place of that r's verdicts.
    """

    def per_r(r, _):
        points = zip(range(1, n_max + 1), *streams(r), strict=True)
        return _run_points(name, ((r, *point) for point in points), check)

    return _run_points(name, zip(range(1, r_max + 1), repeat(None)), per_r)


def _capped(name: str, check):
    """check(r, n), or a Skip where Z_r wr S_n has more than
    BRUTE_SUITE_CAP elements."""

    def capped(r, n):
        size = GroupParams(r, n).size
        if size > BRUTE_SUITE_CAP:
            return [Skip(name, r, n, size, BRUTE_SUITE_CAP)]
        return check(r, n)

    return capped


def suite_lemma(r_max, n_max, report) -> list:
    """exc = r*exc_A + csum on every element of every feasible group.

    The oracle asserts the identity and the range bounds on every element
    it visits, so the verdict at (r, n) is PASS exactly when its report
    builds; an AssertionError becomes that point's FAIL line.  `recursion`
    reads the same report, so the two suites share one enumeration.
    """
    name = "lemma_exc_decomposition"

    def check(r, n):
        report(r, n)
        return [PropertyVerdict(name, r, n)]

    return _sweep(name, r_max, n_max, _capped(name, check))


def suite_recursion(r_max, n_max, report) -> list:
    """DP joint table and exc row against full enumeration."""
    name = "dp_matches_enumeration"

    def check(r, n):
        brute = report(r, n)
        table = dist.joint_table(r, n)
        diffs = oracle.compare(table, brute.joint_by_csum)
        joint = None
        if diffs:
            d = diffs[0]
            joint = f"cell (i={d.i}, k={d.k}): dp={d.left} enumeration={d.right}"
        dp_exc = dist.exc_row_from_table(table)
        exc = None
        if len(dp_exc) != r * n:
            exc = f"exc row of length {len(dp_exc)}, not {r * n}"
        elif dp_exc != brute.exc_row:
            k = next(k for k in range(r * n) if dp_exc[k] != brute.exc_row[k])
            exc = f"exc={k}: dp={dp_exc[k]} enumeration={brute.exc_row[k]}"
        return [
            PropertyVerdict("dp_joint_matches_enumeration", r, n, joint),
            PropertyVerdict("dp_exc_matches_enumeration", r, n, exc),
        ]

    return _sweep(name, r_max, n_max, _capped(name, check))


def suite_closed(r_max, n_max, report) -> list:
    """Recurrence, joint-sum, closed form and explicit sum all agree."""
    name = "excA_distribution_agreement"

    def check(r, n, recurrence, joint):
        poly = closed.D_closed(r, n)
        rows = {
            "joint": joint,
            "closed": [poly.coeff(k) for k in range(n)],
            "explicit": [closed.d_explicit(r, n, k) for k in range(n)],
        }
        for method, row in rows.items():
            if row != recurrence:
                detail = f"{method} row {row} != recurrence row {recurrence}"
                return [PropertyVerdict(name, r, n, detail)]
        return [PropertyVerdict(name, r, n)]

    def streams(r):
        return dist.iter_excA_rows(r, n_max), dist.iter_joint_d_rows(r, n_max)

    return _sweep(name, r_max, n_max, check, streams)


def suite_eq2(r_max, n_max, report) -> list:
    """Derivative recurrence for the generating polynomial."""
    name = "polynomial_derivative_recurrence"

    def check(r, _):
        eq2 = closed.check_eq2(r, max(n_max, 2))
        n = eq2.n_max if eq2.passed else eq2.first_failure_n
        return [PropertyVerdict(name, r, n, eq2.detail)]

    return _run_points(name, zip(range(1, r_max + 1), repeat(None)), check)


def suite_symmetry(r_max, n_max, report) -> list:
    """Palindromic exc distribution, plus the involution by its data.

    The exc rows come from one joint table stream, so one DP run, per r.
    """
    name = "exc_complement_and_involution"

    def check(r, n, table):
        return [
            properties.check_symmetry_dist(dist.exc_row_from_table(table), r, n),
            properties.check_exc_complement(r, n),
            properties.check_involution(r, n),
        ]

    return _sweep(
        name, r_max, n_max, check, lambda r: [dist.iter_joint_tables(r, n_max)]
    )


def suite_logconcave(r_max, n_max, report) -> list:
    """Log-concavity (and hence unimodality) of the exc_A distribution.

    For r <= 2 this always holds; for larger r the verdicts carry an
    "empirical" suffix because they only certify the swept range.
    """
    name = "excA_shape"

    def check(r, n, row):
        suffix = "" if r <= 2 else "_empirical"
        return [
            verdict._replace(name=f"excA_{verdict.name}{suffix}")
            for verdict in (
                properties.is_log_concave(row, r, n),
                properties.is_unimodal(row, r, n),
            )
        ]

    return _sweep(name, r_max, n_max, check, lambda r: [dist.iter_excA_rows(r, n_max)])


_SUITES = {
    "lemma": suite_lemma,
    "recursion": suite_recursion,
    "closed": suite_closed,
    "eq2": suite_eq2,
    "symmetry": suite_symmetry,
    "logconcave": suite_logconcave,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(suite: str, r_max: int, n_max: int, workers=None) -> list:
    """Verdicts and Skip entries of the named suite (or all), in sweep order.

    Every suite takes (r_max, n_max, report), where report(r, n) is
    oracle.brute_tables(r, n, workers=workers), cached for the run, so
    that `lemma` and `recursion` share one enumeration per point.  A
    report that raises is not cached: read again, it walks the group
    again and raises the same message.  Every suite but `eq2` walks its
    points through _sweep; `lemma` and `recursion` wrap their per-point
    check in _capped, which skips the groups above BRUTE_SUITE_CAP.
    r_max and n_max must be integers >= 1, and suite one of SUITE_NAMES
    or "all", or ValueError is raised.
    """
    check_params(r_max, n_max)
    if suite not in (*SUITE_NAMES, "all"):
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"suite must be one of {known} or all, got {suite!r}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    report = cache(partial(oracle.brute_tables, workers=workers))
    return [entry for name in names for entry in _SUITES[name](r_max, n_max, report)]


def _entry_line(e) -> str:
    if isinstance(e, Skip):
        return f"SKIP {e.name} r={e.r} n={e.n}: {e.reason()}"
    line = f"{'PASS' if e.passed else 'FAIL'} {e.name} r={e.r}"
    if e.n is not None:
        line += f" n={e.n}"
    if e.counterexample:
        line += f": {e.counterexample}"
    return line


def cmd_check(args):
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


def _decimal(text: str, least: int = 0) -> int:
    """argparse type of the integer options: unlike int(), ASCII digits only."""
    if not (text.isascii() and text.isdigit() and int(text) >= least):
        raise argparse.ArgumentTypeError(f"not an ASCII decimal >= {least}: {text!r}")
    return int(text)


def _option(*flags, **spec):
    return flags, spec


_R = _option("--r", type=_decimal, required=True, help="number of colors")
_N = _option("--n", type=_decimal, required=True, help="degree")
_THREADS = _option(
    "--threads", type=partial(_decimal, least=1),
    help="worker processes for brute enumeration",
)
_FORMAT = _option(
    "--format", choices=("text", "json", "csv"), default="text",
    help="output format (default text)",
)
_OUT = _option("--out", help="write output to this file instead of stdout")


#: One row per subcommand: handler, help text and the options it takes
#: before _FORMAT and _OUT, which every subcommand takes last.
_COMMANDS = {
    "stats": (cmd_stats, "statistics of one element", [
        _R, _option("window", help="window notation, e.g. 3,1^1,2^2"),
    ]),
    "dist": (cmd_dist, "distribution of a statistic over a group", [
        _R, _N,
        _option(
            "--target", choices=("exc", "excA"), required=True,
            help="which statistic to distribute",
        ),
        _option(
            "--method", choices=("brute", "dp", "closed", "explicit"), default="dp",
            help="brute enumeration, insertion recursions, closed form or explicit sum",
        ),
        _THREADS,
    ]),
    "joint": (cmd_joint, "joint (csum, exc_A) table over a group", [
        _R, _N,
        _option(
            "--method", choices=("brute", "dp"), default="dp",
            help="brute enumeration or insertion recursions",
        ),
        _THREADS,
    ]),
    "poly": (cmd_poly, "generating polynomial of exc_A", [_R, _N]),
    "bijection": (cmd_bijection, "apply the complementing involution", [
        _R, _option("window", help="window notation, e.g. 2^1,1^2,4^1,3"),
    ]),
    "check": (cmd_check, "run invariant suites over parameter sweeps", [
        _option("--r-max", type=_decimal, default=3, help="largest r (default 3)"),
        _option("--n-max", type=_decimal, default=5, help="largest n (default 5)"),
        _option(
            "--suite", choices=SUITE_NAMES + ("all",), default="all",
            help="which suite to run (default all)",
        ),
        _THREADS,
    ]),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="colorperm",
        description="Excedance statistics and distributions on colored permutation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, spec in (*options, _FORMAT, _OUT):
            p.add_argument(*flags, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, obj, rows, text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = obj if isinstance(obj, str) else json.dumps(obj, indent=2) + "\n"
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
    """Console entry point: counts of any length print in full."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(main())


if __name__ == "__main__":
    run()
