#!/usr/bin/env python3
"""Benchmark of colorperm, run from the root of a source checkout.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Workloads are ``enumerate``, ``recurrence`` and ``cli`` (see workloads.py);
``--workload all`` runs each in its own process and prints every metric.
The package is imported from ``src/`` of the checkout and nowhere else.

A run sets up (a fresh import of the package plus every workload once
at smoke scale), then runs passes of the workload until ``--seconds``
are used, at least MIN_PASSES of them, setting up again before each and
checking every output exactly after each.  An untraced run ends with
one more pass in a fresh process, which gives the peak resident memory.
With ``--trace 1`` the run alternates untraced and traced passes, each
traced one followed by a traced coverage pass of the other workloads at
smoke scale, and reports per-layer self times instead of end-to-end
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record, with machine info, and the spans of a traced run go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("perm", "stats", "oracle", "dist", "closed", "tables", "properties", "cli")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
MEMORY_PASS_TIMEOUT = 120
#: Seconds a --workload all child may run beyond --seconds.
CHILD_GRACE = 300
#: Seconds a child has to stop after SIGTERM.
STOP_WAIT = 20

#: The rate each workload reports as items_per_s.
PRIMARY_RATE = {
    "enumerate": "elements_per_s",
    "recurrence": "cells_per_s",
    "cli": "verdicts_per_s",
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
)

#: Spans whose self time is reported as "<name>_s".
TIMED_SPANS = (
    "oracle.brute_tables",
    "oracle.brute_tables.workers2",
    "oracle.compare",
    "dist.joint_table",
    "dist.excA_dist",
    "closed.D_closed",
    "closed.d_explicit",
    "closed.check_eq2",
    "tables.to_json",
    "tables.to_csv",
    "tables.from_json",
    "properties.check_exc_complement",
    "properties.check_involution",
    "cli.main",
) + tuple(f"cli.suite.{name}" for name in ("lemma", "recursion", "closed", "eq2", "symmetry", "logconcave"))

#: Counts summed over the spans named.
COUNTED_SPANS = {
    "oracle.elements": ("oracle.brute_tables", "oracle.brute_tables.workers2"),
    "dist.cells": ("dist.joint_table",),
    "tables.json_bytes": ("tables.to_json",),
    "cli.verdicts": tuple(name for name in TIMED_SPANS if name.startswith("cli.suite.")),
}

PER_LAYER = (
    [("perm.enumerate_s", "s"), ("stats.summarize_s", "s"), ("oracle.tally_s", "s")]
    + [(f"{name}_s", "s") for name in TIMED_SPANS]
    + [(name, "count") for name in COUNTED_SPANS]
    + [("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s")]
)


def package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "colorperm" or name.startswith("colorperm.")}


def import_colorperm(src: Path) -> SimpleNamespace:
    """Import the package afresh from ``src``, re-executing every module."""
    for name in package_modules():
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("colorperm")
    if Path(package.__file__).resolve().parent != (src / "colorperm").resolve():
        raise ImportError(f"colorperm was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"colorperm.{m}") for m in MODULES})


@dataclass
class PassResult:
    wall: float
    jobs: list
    outputs: dict
    times: dict
    errors: dict


def run_pass(groups, rng: random.Random, tracer=None, root="pass", speed=None) -> PassResult:
    """Run job groups in a seeded order, timing each job; no checking here.

    With ``speed`` (a HostSpeed), the host's speed is sampled between
    jobs; the pass's wall time is the sum of its jobs' times, so it
    leaves the samples out.
    """
    groups = list(groups)
    rng.shuffle(groups)
    jobs = [job for group in groups for job in group]
    outputs, times, errors = {}, {}, {}
    clock = time.perf_counter
    gc.collect()  # every pass starts from the same collected heap
    with tracer.span(root) if tracer else nullcontext():
        for job in jobs:
            if speed:
                speed.sample()
            began = clock()
            try:
                if tracer and job.span:
                    with tracer.span(job.span) as record:
                        outputs[job.key] = job.call(outputs)
                        record["count"] = outputs[job.key]
                else:
                    outputs[job.key] = job.call(outputs)
            except Exception:
                errors[job.key] = traceback.format_exc(limit=-3)
            times[job.key] = clock() - began
    return PassResult(sum(times.values()), jobs, outputs, times, errors)


@dataclass
class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def gate(self, result: PassResult) -> dict:
        """Check every job of a pass exactly; returns {rate: [units, seconds]}."""
        rates: dict = {}
        for job in result.jobs:
            self.attempted += 1
            if job.key in result.errors:
                problems = [f"raised\n{result.errors[job.key]}"]
            else:
                try:
                    problems = job.check(result.outputs[job.key], result.outputs)
                    if job.rate:
                        entry = rates.setdefault(job.rate, [0, 0.0])
                        entry[0] += job.units(result.outputs[job.key])
                        entry[1] += result.times[job.key]
                except Exception:
                    problems = [f"gate raised\n{traceback.format_exc(limit=-3)}"]
            if problems:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{job.key}: " + "; ".join(problems))
        return rates


def memory_pass(workload: str, seed: int, tmp: Path) -> dict:
    """One full-scale pass in this (fresh) process; returns its peaks and gate.

    The peaks are read before the gate, whose references would add to
    them: the process's own peak resident set, and the largest peak of
    the worker processes it started and waited for.  A forked worker's
    figure includes pages it shares with this process, so the two are
    kept apart rather than added.
    """
    cp = import_colorperm(SRC)
    rng = random.Random(seed)
    w = workloads.build(workload, cp, "full", rng, tmp)
    result = run_pass(w.groups, rng)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    ledger = Ledger()
    ledger.gate(result)
    return {"own": own, "workers": workers, "attempted": ledger.attempted,
            "failed": ledger.failed, "messages": ledger.messages}


def run_child(args: list[str], timeout: float) -> tuple[int, str]:
    """Run ``run.py args`` in a process group of its own and wait for it.

    Should the wait end any other way than by the child's exit (a
    timeout, SIGTERM), the whole group, the child and any worker it
    forked, is stopped before the child is reaped: SIGTERM first, so the
    child stops its own children, then SIGKILL.
    """
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=timeout)
    finally:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if child.poll() is not None:
                break
            with suppress(ProcessLookupError):
                os.killpg(child.pid, sig)
            with suppress(subprocess.TimeoutExpired):
                child.wait(timeout=STOP_WAIT)
        child.wait()
    return child.returncode, out


def peak_rss(workload: str, seed: int, tmp: Path, ledger: Ledger):
    """memory_pass in a new interpreter, so set-up and earlier passes do not count."""
    code, out = run_child(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--memory-pass", str(tmp)],
        MEMORY_PASS_TIMEOUT,
    )
    if code != 0:
        raise RuntimeError(f"the memory pass exited with status {code}")
    out = json.loads(out.splitlines()[-1])
    ledger.attempted += out["attempted"]
    ledger.failed += out["failed"]
    ledger.messages += out["messages"][: 20 - len(ledger.messages)]
    return out["own"], out["workers"]


def machine_info(traced: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "colorperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        revision = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "traced": traced,
    }


def set_up(seed: int, tmp: Path, ledger: Ledger):
    """Import the package afresh and warm it up; returns the modules and the time.

    The warm-up runs every workload once at smoke scale.  Its outputs are
    checked after the clock stops, into a ledger of set-up's own.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    cp = import_colorperm(SRC)
    smoke = [workloads.build(name, cp, "smoke", rng, tmp) for name in workloads.WORKLOADS]
    results = [run_pass(w.groups, rng) for w in smoke]
    elapsed = time.perf_counter() - start
    for result in results:
        ledger.gate(result)
    return cp, elapsed


@contextmanager
def package_kept():
    """Put back the package modules that sys.modules held before the block.

    Forked workers are handed functions by module name, so the modules
    the passes were built from must stay the ones sys.modules holds.
    """
    saved = package_modules()
    try:
        yield
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def measure(workload: str, seed: int, seconds: int, trace: bool, tmp: Path) -> dict:
    setup_ledger, ledger = Ledger(), Ledger()
    tracer = tracing.Tracer(workload) if trace else None
    cp, first_setup = set_up(seed, tmp, setup_ledger)
    setup_times = [first_setup]
    rng = random.Random(seed)
    w = workloads.build(workload, cp, "full", rng, tmp)
    if trace:
        others = [workloads.build(name, cp, "smoke", rng, tmp)
                  for name in workloads.WORKLOADS if name != workload]
        coverage = [g for o in others for g in o.groups + [[p] for p in o.probes()]]

    untraced, traced, rates = [], [], []
    speed = None if trace else hostspeed.HostSpeed()
    start = time.perf_counter()
    while True:
        # Set-up is repeated before every pass, so that its median samples
        # the host over the whole run, as wall_s does.
        with package_kept():
            setup_times.append(set_up(seed, tmp, setup_ledger)[1])
        result = run_pass(w.groups, rng, speed=speed)
        rates.append(ledger.gate(result))
        untraced.append(result.wall)
        if trace:
            tracer.pass_label = f"pass-{len(traced) + 1}"
            with tracing.instrumented(tracer, cp):
                result = run_pass(w.groups, rng, tracer)
            ledger.gate(result)
            traced.append(result.wall)
            probes = w.probes()
            if probes:
                ledger.gate(run_pass([[p] for p in probes], rng, tracer, root="probe"))
            tracer.pass_label = f"coverage-{len(traced)}"
            with tracing.instrumented(tracer, cp):
                ledger.gate(run_pass(coverage, rng, tracer, root="coverage"))
        cycle = (time.perf_counter() - start) / len(untraced)
        done = len(traced) if trace else len(untraced)
        needed = MIN_TRACED_PAIRS if trace else MIN_PASSES
        # An untraced run keeps time for the memory pass after the loop.
        left = seconds - (cycle if trace else 2 * cycle)
        if done >= needed and time.perf_counter() - start > left:
            break

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "machine": machine_info(trace),
        "setup_times_s": setup_times,
        "passes": len(untraced),
        "pass_walls_s": untraced,
        "traced_passes": len(traced),
        "setup_attempted": setup_ledger.attempted,
        "setup_failed": setup_ledger.failed,
        "setup_failures": setup_ledger.messages,
    }
    if trace:
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.traced_wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
        record["trace_overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        record["spans_file"] = str(span_path(workload, seed).relative_to(ROOT))
        tracer.write(span_path(workload, seed))
    else:
        per_rate = {}
        for r in rates:
            for name, (units, spent) in r.items():
                per_rate.setdefault(name, []).append(units / spent)
        per_rate = {name: statistics.median(v) for name, v in per_rate.items()}
        own_rss, worker_rss = peak_rss(workload, seed, tmp, ledger)
        scale = speed.scale()
        unscaled = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(untraced),
            # Absent only when every job of that rate failed its gate.
            "items_per_s": per_rate.get(PRIMARY_RATE[workload], 0.0),
        }
        values = {
            "setup_s": unscaled["setup_s"] * scale,
            "wall_s": unscaled["wall_s"] * scale,
            "peak_rss_mb": own_rss,
            "items_per_s": unscaled["items_per_s"] / scale,
        }
        record["host_speed"] = {
            "samples": len(speed.samples),
            "mean_s": statistics.fmean(speed.samples),
            "reference_s": hostspeed.REFERENCE_S,
            "scale": scale,
        }
        record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record["report"] = {
            **{name: record["metrics"][name] for name in ("setup_s", "wall_s", "peak_rss_mb")},
            "worker_peak_rss_mb": {"value": worker_rss, "unit": "MB"},
            "failed_fraction": {"value": ledger.failed / ledger.attempted, "unit": "1"},
            **{name: {"value": value / scale, "unit": "1/s"} for name, value in per_rate.items()},
            "host_speed_scale": {"value": scale, "unit": "1"},
            **{f"{name}.unscaled": {"value": value, "unit": unit}
               for (name, value), unit in zip(unscaled.items(), ("s", "s", "1/s"))},
        }
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["failures"] = ledger.messages
    return record


def layer_metrics(tracer, n_passes: int) -> dict:
    """Median per traced pass of every per-layer metric.

    A metric the workload's own pass (with its probes) does not produce,
    because the workload never calls that layer, comes from the coverage
    pass that follows it: the other workloads at smoke scale.
    """
    totals = tracing.layer_totals(tracer.spans)

    def values(t):
        def dur(name):
            return t[name][1] if name in t else None

        out = {f"{name}_s": t[name][0] for name in TIMED_SPANS if name in t}
        for metric, names in COUNTED_SPANS.items():
            if any(name in t for name in names):
                out[metric] = sum(t[name][2] for name in names if name in t)
        enum, summ, brute = dur("perm.enumerate_group"), dur("stats.summarize"), dur("oracle.brute_tables")
        if enum is not None and summ is not None:
            out["perm.enumerate_s"] = enum
            out["stats.summarize_s"] = summ - enum
            if brute is not None:
                out["oracle.tally_s"] = brute - summ
        return out

    passes = [
        {**values(totals[f"coverage-{i}"]), **values(totals[f"pass-{i}"])}
        for i in range(1, n_passes + 1)
    ]
    return {
        name: statistics.median(p[name] for p in passes)
        for name, _unit in PER_LAYER
        if not name.startswith("trace.")
    }


def span_path(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-seed{seed}.spans.jsonl"


def print_record(record: dict):
    traced = "traced" if record["machine"]["traced"] else "untraced"
    print(f"{record['workload']}: seed {record['seed']}, {traced}, "
          f"{record['passes']} untraced and {record['traced_passes']} traced passes")
    for name, entry in record.get("report", record["metrics"]).items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    if "trace_overhead_s" in record:
        print(f"  {'trace overhead (traced - untraced wall)':40s} {record['trace_overhead_s']:.6g} s")
    print(f"  {'operations failed':40s} {record['failed']} of {record['attempted']}")
    print(f"  {'set-up operations failed':40s} {record['setup_failed']} of {record['setup_attempted']}")
    for message in record["setup_failures"]:
        print(f"FAIL (set-up) {message}", file=sys.stderr)
    for message in record["failures"]:
        print(f"FAIL {message}", file=sys.stderr)


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0 and record["setup_failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def run_all(args) -> int:
    """Each workload in a process of its own, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        code, out = run_child(
            ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            args.seconds + CHILD_GRACE,
        )
        lines = out.splitlines()
        if code != 0 or not lines:
            print(f"workload {name} exited with status {code}", file=sys.stderr)
            return code or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-pass", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child and worker is
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "colorperm" / "__init__.py").is_file():
        print(f"error: no colorperm package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.memory_pass:
        print(json.dumps(memory_pass(args.workload, args.seed, Path(args.memory_pass))))
        return 0

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except ImportError as exc:
        print(f"error: cannot import colorperm: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
