"""Spans around calls into the colorperm layers, recorded from outside.

``instrumented`` replaces public functions of the package modules with
wrappers that record a span per call, and puts the originals back when
it ends; the package source is never changed.  Calls the modules make to
each other go through the same module attributes, so spans nest: a span's
parent is the span open when it started, and a layer's self time is its
span's duration minus the time covered by its children.

Per-element functions (enumerate_group, summarize) are not wrapped; the
enumerate workload splits their time with probe calls instead.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from math import factorial

from workloads import joint_cells


class Tracer:
    """Spans kept in memory and written as JSON lines when the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_label = None
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "pass": self.pass_label,
            "count": 1,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, count):
        """``fn`` recording a span; ``name`` and ``count`` see the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
                record["count"] = count(args, result)
                return result

        return traced

    def write(self, path):
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _brute_name(args, kwargs):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else None)
    if workers and workers > 1:
        return f"oracle.brute_tables.workers{workers}"
    return "oracle.brute_tables"


def _targets(cp):
    """(owner, attribute, span name, count) for every instrumented call."""
    JointTable = cp.tables.JointTable

    def elements(args, result):
        r, n = args[0], args[1]
        return r**n * factorial(n)

    def table_cells(table):
        return (table.i_max + 1) * table.n

    targets = [
        (cp.oracle, "brute_tables", _brute_name, lambda a, res: res.size),
        (cp.oracle, "compare", "oracle.compare", lambda a, res: table_cells(a[0])),
        (cp.dist, "joint_table", "dist.joint_table", lambda a, res: joint_cells(a[0], a[1])),
        (cp.dist, "excA_dist", "dist.excA_dist", lambda a, res: len(res)),
        (cp.closed, "D_closed", "closed.D_closed", lambda a, res: a[1]),
        (cp.closed, "d_explicit", "closed.d_explicit", lambda a, res: 1),
        (cp.closed, "check_eq2", "closed.check_eq2", lambda a, res: a[1] - 1),
        (cp.properties, "check_exc_complement", "properties.check_exc_complement", elements),
        (cp.properties, "check_involution", "properties.check_involution", elements),
        (JointTable, "to_json", "tables.to_json", lambda a, res: len(res)),
        (JointTable, "to_csv", "tables.to_csv", lambda a, res: len(res)),
        (JointTable, "from_json_obj", "tables.from_json", lambda a, res: table_cells(res)),
        (cp.cli, "main", "cli.main", lambda a, res: 1),
    ]
    # run_suites looks suites up in this table, so the wrappers go there.
    for suite in cp.cli.SUITE_NAMES:
        targets.append((cp.cli._SUITES, suite, f"cli.suite.{suite}", lambda a, res: len(res)))
    return targets


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextmanager
def instrumented(tracer: Tracer, cp):
    """Span wrappers installed for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _targets(cp):
            original = _get(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(original.__func__, name, count))
            else:
                wrapped = tracer.wrap(original, name, count)
            saved.append((owner, attr, original))
            _set(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)


def layer_totals(spans: list[dict]) -> dict:
    """Per pass label: {span name: [self seconds, duration seconds, count]}."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for s in spans:
        duration = s["end"] - s["start"]
        entry = totals[s["pass"]][s["name"]]
        entry[0] += duration - covered[s["id"]]
        entry[1] += duration
        entry[2] += s["count"]
    return totals
