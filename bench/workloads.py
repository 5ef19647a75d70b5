"""The three workloads of the colorperm benchmark and their exact gates.

A workload is a list of job groups.  One pass runs every group once, in
an order drawn from the seed; the jobs of a group run in sequence and
may use the outputs of the jobs before them.  Each job's output is
checked exactly after the pass, outside the timed region, against
references that come from a different route than the job itself.

Workloads (names are stable; later changes cite them):

* ``enumerate``: brute_tables on Z_2 wr S_7 and Z_3 wr S_5 serially,
  then Z_2 wr S_7 with two workers.  Almost all perm, stats and oracle.
* ``recurrence``: the joint DP, the exc_A recurrence, the closed forms
  and table serialization at large n.  Enumerates nothing.
* ``cli``: ``cli.main`` in process for ``check --suite all`` (serial and
  with two threads), ``stats`` and ``bijection`` on seeded windows, and
  ``poly`` and ``dist`` at small points.  Many tiny groups.

Every workload also has a smoke scale, run during set-up as the warm-up
and by the negative-control tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

WORKLOADS = ("enumerate", "recurrence", "cli")

SCALES = {
    "enumerate": {
        "full": {"serial": [(2, 7), (3, 5)], "workers2": (2, 7)},
        "smoke": {"serial": [(2, 3), (3, 2)], "workers2": (2, 3)},
    },
    "recurrence": {
        "full": {
            "joint": [(3, 100), (5, 40)],
            "excA": (3, 500),
            "D_closed": (3, 200),
            "d_explicit": (3, 100),
            "eq2": (3, 40),
            # d_explicit at the ROADMAP point takes about a millisecond:
            # it is checked, not timed on its own.
            "d_explicit_point": (4, 12),
        },
        "smoke": {
            "joint": [(3, 6), (5, 4)],
            "excA": (3, 12),
            "D_closed": (3, 8),
            "d_explicit": (3, 6),
            "eq2": (3, 5),
            "d_explicit_point": (4, 5),
        },
    },
    "cli": {
        "full": {"sweep": (3, 5), "windows": 16, "poly": (3, 9), "dist": (2, 6)},
        "smoke": {"sweep": (2, 3), "windows": 3, "poly": (2, 4), "dist": (2, 3)},
    },
}


@dataclass
class Job:
    """One timed call into the program.

    ``call`` receives the outputs of the earlier jobs of its group, keyed
    by job key.  ``check`` returns a description of every mismatch (an
    empty list means the output is exact).  ``units`` counts the work
    done, for the rate named by ``rate``; both are evaluated after the
    pass, outside the timed region.  A job with a ``span`` name is a probe
    that a traced pass wraps in a span of that name itself.
    """

    key: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], list[str]]
    rate: str | None = None
    units: Callable[[object], int] = lambda output: 0
    span: str | None = None


# --- references owned by the benchmark ---------------------------------


def group_order(r: int, n: int) -> int:
    return r**n * factorial(n)


def joint_cells(r: int, n: int) -> int:
    """Cells the joint DP fills on its way to n: sum of ((r-1)m+1)*m."""
    return sum(((r - 1) * m + 1) * m for m in range(1, n + 1))


def stirling_row(n: int) -> list[int]:
    """S(n, j) for j = 0..n, by the triangle recurrence."""
    row = [1]
    for m in range(1, n + 1):
        row = [
            (j * row[j] if j < m else 0) + (row[j - 1] if j >= 1 else 0)
            for j in range(m + 1)
        ]
    return row


def excA_poly_at(r: int, n: int, t: int, stirling: list[int]) -> int:
    """D_{r,n}(t) from the Stirling expansion, evaluated at one integer."""
    return r * sum(
        factorial(j) * stirling[j] * (t + r - 1) ** (j - 1) * (1 - t) ** (n - j)
        for j in range(1, n + 1)
    )


def exc_row_of(table) -> list[int]:
    """Distribution of exc read off a (csum, exc_A) table: exc = i + r*a."""
    row = [0] * (table.r * table.n)
    for (i, a), count in table.items():
        if count:
            row[i + table.r * a] += count
    return row


def window_stats(r: int, values: list[int], colors: list[int]):
    """exc letters, exc_A positions and csum of a window, from the definitions.

    Letter v^b maps to values[v-1]^((colors[v-1] + b) mod r); letters are
    ordered by (-color, value).
    """
    n = len(values)
    letters = []
    for b in range(r):
        for v in range(1, n + 1):
            image = (-((colors[v - 1] + b) % r), values[v - 1])
            if image > (-b, v):
                letters.append((-b, v))
    letters.sort()
    positions = [i for i in range(1, n) if colors[i - 1] == 0 and values[i - 1] > i]
    rendered = [f"{v}^{-nb}" if nb else str(v) for nb, v in letters]
    return rendered, positions, sum(colors)


def parse_window_text(text: str) -> tuple[list[int], list[int]]:
    values, colors = [], []
    for token in text.split(","):
        value, _, color = token.partition("^")
        values.append(int(value))
        colors.append(int(color) if color else 0)
    return values, colors


def format_window_text(values, colors) -> str:
    return ",".join(f"{v}^{c}" if c else str(v) for v, c in zip(values, colors))


def is_palindrome(row: list[int]) -> bool:
    return row == row[::-1]


def _diff(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {_short(got)}, want {_short(want)}"]


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


# --- workloads ---------------------------------------------------------


class Workload:
    """Jobs of one workload at one scale, and the references its gate uses.

    References are computed on first use, which is always inside a gate,
    so they cost neither set-up time nor pass time.
    """

    name = ""

    def __init__(self, cp, scale: str, rng: random.Random, tmp: Path):
        self.cp = cp
        self.scale = scale
        self.params = SCALES[self.name][scale]
        self.rng = rng
        self.tmp = tmp
        self._refs: dict = {}
        self.groups: list[list[Job]] = self.build()

    def ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def build(self) -> list[list[Job]]:
        raise NotImplementedError

    def probes(self) -> list[Job]:
        """Extra calls a traced pass makes to split a layer's time."""
        return []


class Enumerate(Workload):
    name = "enumerate"

    def build(self):
        oracle = self.cp.oracle
        groups = []
        for r, n in self.params["serial"]:
            groups.append([Job(
                key=f"brute_tables({r},{n})",
                call=lambda _, r=r, n=n: oracle.brute_tables(r, n),
                check=lambda out, _, r=r, n=n: self.check_report(out, r, n),
                rate="elements_per_s",
                units=lambda out: out.size,
            )])
        r, n = self.params["workers2"]
        groups.append([Job(
            key=f"brute_tables({r},{n},workers=2)",
            call=lambda _: oracle.brute_tables(r, n, workers=2),
            check=lambda out, _: self.check_report(out, r, n),
            rate="elements_per_s.workers2",
            units=lambda out: out.size,
        )])
        return groups

    def check_report(self, report, r, n) -> list[str]:
        order = group_order(r, n)
        joint = self.ref(("joint", r, n), lambda: self.cp.dist.joint_table(r, n))
        problems = (
            _diff("size", report.size, order)
            + _diff("joint_by_csum total", report.joint_by_csum.total, order)
            + _diff("joint_by_colored_count total", report.joint_by_colored_count.total, order)
            + _diff("exc_row total", sum(report.exc_row), order)
            + _diff("joint_by_csum vs dist.joint_table", report.joint_by_csum, joint)
            + _diff("exc_row vs joint_by_csum", report.exc_row, exc_row_of(report.joint_by_csum))
        )
        if not is_palindrome(report.exc_row):
            problems.append(f"exc_row not palindromic: {_short(report.exc_row)}")
        return problems

    def probes(self):
        """Enumeration alone, then enumeration plus summarize, per serial point."""
        perm, stats = self.cp.perm, self.cp.stats
        jobs = []
        for r, n in self.params["serial"]:
            def enumerate_only(_, r=r, n=n):
                count = 0
                for _p in perm.enumerate_group(perm.GroupParams(r, n)):
                    count += 1
                return count

            def enumerate_summarize(_, r=r, n=n):
                count = 0
                summarize = stats.summarize
                for p in perm.enumerate_group(perm.GroupParams(r, n)):
                    summarize(p)
                    count += 1
                return count

            for span, call in (
                ("perm.enumerate_group", enumerate_only),
                ("stats.summarize", enumerate_summarize),
            ):
                jobs.append(Job(
                    key=f"{span}({r},{n})",
                    span=span,
                    call=call,
                    check=lambda out, _, r=r, n=n: _diff("elements", out, group_order(r, n)),
                    units=lambda out: out,
                ))
        return jobs


class Recurrence(Workload):
    name = "recurrence"

    def build(self):
        cp, p = self.cp, self.params
        dist, closed = cp.dist, cp.closed
        groups = []
        for i, (r, n) in enumerate(p["joint"]):
            key = f"joint_table({r},{n})"
            group = [Job(
                key=key,
                call=lambda _, r=r, n=n: dist.joint_table(r, n),
                check=lambda out, _, r=r, n=n: self.check_joint(out, r, n),
                rate="cells_per_s",
                units=lambda out, r=r, n=n: joint_cells(r, n),
            )]
            if i == 0:
                group += self.render_jobs(key)
            groups.append(group)

        r, n = p["excA"]
        groups.append([Job(
            key=f"excA_dist({r},{n})",
            call=lambda _: dist.excA_dist(r, n),
            check=lambda out, _: self.check_excA_row(out, r, n),
        )])

        r2, n2 = p["D_closed"]
        groups.append([Job(
            key=f"D_closed({r2},{n2})",
            call=lambda _: closed.D_closed(r2, n2),
            check=lambda out, _: _diff(
                "D_closed coefficients vs excA_dist",
                list(out.coeffs),
                self.excA(r2, n2),
            ),
        )])

        for r3, n3 in (p["d_explicit"], p["d_explicit_point"]):
            groups.append([Job(
                key=f"d_explicit({r3},{n3},k)",
                call=lambda _, r=r3, n=n3: [closed.d_explicit(r, n, k) for k in range(n)],
                check=lambda out, _, r=r3, n=n3: _diff(
                    "d_explicit row vs excA_dist", out, self.excA(r, n)
                ),
            )])

        r5, n5 = p["eq2"]
        groups.append([Job(
            key=f"check_eq2({r5},{n5})",
            call=lambda _: closed.check_eq2(r5, n5),
            check=lambda out, _: [] if out.passed else [f"check_eq2 failed: {out.detail}"],
        )])
        return groups

    def render_jobs(self, source: str) -> list[Job]:
        JointTable = self.cp.tables.JointTable
        return [
            Job(
                key="to_json",
                call=lambda out: out[source].to_json(),
                check=lambda text, out: self.same_as_first("to_json", text),
            ),
            Job(
                key="to_csv",
                call=lambda out: out[source].to_csv(),
                check=lambda text, out: self.check_csv(text, out[source]),
            ),
            Job(
                key="from_json",
                call=lambda out: JointTable.from_json_obj(json.loads(out["to_json"])),
                check=lambda table, out: _diff("JSON round trip", table, out[source]),
            ),
        ]

    def excA(self, r, n) -> list[int]:
        return self.ref(("excA", r, n), lambda: self.cp.dist.excA_dist(r, n))

    def check_joint(self, table, r, n) -> list[str]:
        problems = (
            _diff("total", table.total, group_order(r, n))
            + _diff("d_row vs excA_dist", table.d_row(), self.excA(r, n))
        )
        if not is_palindrome(exc_row_of(table)):
            problems.append("exc row of the joint table is not palindromic")
        return problems

    def check_excA_row(self, row, r, n) -> list[str]:
        """Mass, sign, and the Stirling expansion evaluated at a few points."""
        problems = _diff("length", len(row), n) + _diff("mass", sum(row), group_order(r, n))
        if any(c < 0 for c in row):
            problems.append("negative coefficient")
        stirling = self.ref(("stirling", n), lambda: stirling_row(n))
        for t in (0, 2, -1):
            want = self.ref(("poly_at", r, n, t), lambda: excA_poly_at(r, n, t, stirling))
            got = sum(c * t**k for k, c in enumerate(row))
            problems += _diff(f"D({t}) vs Stirling expansion", got, want)
        return problems

    def check_csv(self, text, table) -> list[str]:
        lines = text.splitlines()
        want_header = "i\\k," + ",".join(str(k) for k in range(table.n))
        problems = _diff("csv header", lines[0] if lines else "", want_header)
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            row = [table.get(i, k) for k in range(table.n)]
            if cells[0] != str(i) or [int(c) for c in cells[1:]] != row:
                problems.append(f"csv row {i} differs")
                break
        problems += _diff("csv rows", len(lines) - 1, table.i_max + 1)
        return problems + self.same_as_first("to_csv", text)

    def same_as_first(self, key, text) -> list[str]:
        first = self.ref(("first", key), lambda: text)
        return [] if text == first else [f"{key} output differs from the first pass"]


class Cli(Workload):
    name = "cli"

    def build(self):
        p = self.params
        r_max, n_max = p["sweep"]
        check_args = ["check", "--r-max", str(r_max), "--n-max", str(n_max),
                      "--suite", "all", "--format", "json"]
        jobs = [
            self.command("check", check_args, self.check_sweep, rate="verdicts_per_s"),
            self.command("check-threads2", check_args + ["--threads", "2"],
                         self.check_sweep, rate="verdicts_per_s"),
        ]
        for idx in range(p["windows"]):
            r = self.rng.randint(2, 4)
            n = self.rng.randint(3, 9)
            values = list(range(1, n + 1))
            self.rng.shuffle(values)
            colors = [self.rng.randrange(r) for _ in range(n)]
            window = format_window_text(values, colors)
            jobs.append(self.command(
                f"stats-{idx}", ["stats", "--r", str(r), window, "--format", "json"],
                lambda obj, r=r, values=values, colors=colors: self.check_stats(obj, r, values, colors),
            ))
            jobs.append(self.command(
                f"bijection-{idx}", ["bijection", "--r", str(r), window, "--format", "json"],
                lambda obj, r=r, values=values, colors=colors: self.check_bijection(obj, r, values, colors),
            ))
        r, n = p["poly"]
        jobs.append(self.command(
            f"poly-{r}-{n}", ["poly", "--r", str(r), "--n", str(n), "--format", "json"],
            lambda obj: _diff(
                "poly coefficients vs excA_dist",
                [int(c) for c in obj["coefficients"]],
                self.ref(("excA", r, n), lambda: self.cp.dist.excA_dist(r, n)),
            ),
        ))
        r2, n2 = p["dist"]
        jobs.append(self.command(
            f"dist-{r2}-{n2}",
            ["dist", "--r", str(r2), "--n", str(n2), "--target", "exc",
             "--method", "brute", "--format", "json"],
            lambda obj: self.check_exc_dist(obj, r2, n2),
        ))
        return [[job] for job in jobs]

    def command(self, key, argv, check_obj, rate=None) -> Job:
        path = self.tmp / f"{self.scale}-{key}.json"
        argv = argv + ["--out", str(path)]

        def check(code, _):
            data = path.read_bytes()
            problems = _diff("exit status", code, 0)
            first = self.ref(("first", key), lambda: data)
            if data != first:
                problems.append("output bytes differ from the first pass")
            return problems + check_obj(json.loads(data))

        def call(_):
            path.unlink(missing_ok=True)
            return self.cp.cli.main(argv)

        return Job(
            key=key,
            call=call,
            check=check,
            rate=rate,
            units=lambda code: len(json.loads(path.read_bytes())["verdicts"]),
        )

    def check_sweep(self, obj) -> list[str]:
        problems = [] if obj["pass"] is True else ['"pass" is not true']
        failed = [v for v in obj["verdicts"] if not v["pass"]]
        if failed:
            problems.append(f"{len(failed)} failed verdicts, first {failed[0]}")
        if not obj["verdicts"]:
            problems.append("no verdicts")
        return problems

    def check_stats(self, obj, r, values, colors) -> list[str]:
        letters, positions, csum = window_stats(r, values, colors)
        return (
            _diff("exc", obj["exc"], len(letters))
            + _diff("exc_A", obj["exc_A"], len(positions))
            + _diff("csum", obj["csum"], csum)
            + _diff("exc_letters", obj["exc_letters"], letters)
            + _diff("exc_A_positions", obj["exc_A_positions"], positions)
        )

    def check_bijection(self, obj, r, values, colors) -> list[str]:
        n = len(values)
        image_values, image_colors = parse_window_text(obj["image"])
        problems = _diff("window", obj["window"], format_window_text(values, colors))
        if sorted(image_values) != list(range(1, n + 1)) or not all(
            0 <= c < r for c in image_colors
        ):
            return problems + [f"image {obj['image']} is not an element"]
        exc = len(window_stats(r, values, colors)[0])
        image_exc = len(window_stats(r, image_values, image_colors)[0])
        return (
            problems
            + _diff("exc", obj["exc"], exc)
            + _diff("image_exc", obj["image_exc"], image_exc)
            + _diff("exc + image_exc", exc + image_exc, r * n - 1)
        )

    def check_exc_dist(self, obj, r, n) -> list[str]:
        row = [int(c) for c in obj["counts"]]
        problems = _diff("mass", sum(row), group_order(r, n)) + _diff(
            "brute exc row vs dist.exc_dist",
            row,
            self.ref(("exc", r, n), lambda: self.cp.dist.exc_dist(r, n)),
        )
        if not is_palindrome(row):
            problems.append("exc distribution is not palindromic")
        return problems


def build(name: str, cp, scale: str, rng: random.Random, tmp: Path) -> Workload:
    cls = {"enumerate": Enumerate, "recurrence": Recurrence, "cli": Cli}[name]
    return cls(cp, scale, rng, tmp)
