"""Tests of the benchmark itself, at smoke scale.

The gate must report a clean run as clean and must catch an injected
fault (a negative control), and traced passes must leave spans for
every layer and put the package back as it found it.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random

import pytest

import hostspeed
import run
import tracer as tracing
import workloads


@pytest.fixture
def cp():
    return run.import_colorperm(run.SRC)


def smoke_ledger(cp, tmp_path, name) -> run.Ledger:
    ledger = run.Ledger()
    w = workloads.build(name, cp, "smoke", random.Random(7), tmp_path)
    ledger.gate(run.run_pass(w.groups, random.Random(7)))
    return ledger


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_clean_smoke_run_reports_no_failures(cp, tmp_path, name):
    ledger = smoke_ledger(cp, tmp_path, name)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.messages


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_insertion_weight_fault_is_caught(cp, tmp_path, monkeypatch, name):
    # The fault of acceptance criterion C10: one slot too few that keeps exc_A.
    monkeypatch.setattr(cp.dist, "_insertion_weights", lambda m, k: (m - k, k))
    ledger = smoke_ledger(cp, tmp_path, name)
    assert ledger.failed / ledger.attempted > 0


def test_summarize_assertion_is_a_failure_not_a_crash(cp, tmp_path, monkeypatch):
    def broken(p):
        raise AssertionError("injected")

    monkeypatch.setattr(cp.oracle, "summarize", broken)
    ledger = smoke_ledger(cp, tmp_path, "enumerate")
    # At least the two serial calls fail; the workers=2 call fails too
    # where workers are forked and so inherit the patch.
    assert ledger.failed >= 2


def test_set_up_gates_into_its_own_ledger(tmp_path):
    ledger = run.Ledger()
    _cp, elapsed = run.set_up(7, tmp_path, ledger)
    assert elapsed > 0
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.messages


def test_set_up_between_passes_keeps_the_pass_modules(cp, tmp_path):
    # Forked workers are handed functions by name, which pickling checks
    # against sys.modules: a set-up in between must not swap the modules.
    w = workloads.build("enumerate", cp, "smoke", random.Random(7), tmp_path)
    with run.package_kept():
        run.set_up(7, tmp_path, run.Ledger())
    ledger = run.Ledger()
    ledger.gate(run.run_pass(w.groups, random.Random(7)))
    assert ledger.failed == 0, ledger.messages


def test_traced_smoke_passes_cover_every_layer(cp, tmp_path):
    tracer = tracing.Tracer("test")
    rng = random.Random(7)
    for name in workloads.WORKLOADS:
        w = workloads.build(name, cp, "smoke", rng, tmp_path)
        tracer.pass_label = name
        with tracing.instrumented(tracer, cp):
            result = run.run_pass(w.groups + [[p] for p in w.probes()], rng, tracer)
        ledger = run.Ledger()
        ledger.gate(result)
        assert ledger.failed == 0, ledger.messages

    assert set(run.MODULES) <= {span["name"].split(".")[0] for span in tracer.spans}
    for span in tracer.spans:
        assert span["end"] >= span["start"]
        assert {"name", "start", "end", "parent", "workload", "pass", "count"} <= set(span)
    # Every wrapper is gone again.
    for owner, attr, _name, _count in tracing._targets(cp):
        value = tracing._get(owner, attr)
        assert not hasattr(getattr(value, "__func__", value), "__wrapped__")


def test_coverage_pass_times_the_layers_a_workload_never_calls(cp, tmp_path):
    tracer = tracing.Tracer("recurrence")
    rng = random.Random(7)
    w = workloads.build("recurrence", cp, "smoke", rng, tmp_path)
    others = [workloads.build(n, cp, "smoke", rng, tmp_path) for n in ("enumerate", "cli")]
    with tracing.instrumented(tracer, cp):
        tracer.pass_label = "pass-1"
        run.run_pass(w.groups, rng, tracer)
        tracer.pass_label = "coverage-1"
        run.run_pass([g for o in others for g in o.groups + [[p] for p in o.probes()]], rng, tracer)
    own = run.tracing.layer_totals(tracer.spans)["pass-1"]
    assert "oracle.brute_tables" not in own
    metrics = run.layer_metrics(tracer, 1)
    assert metrics["dist.joint_table_s"] == own["dist.joint_table"][0]
    for name, unit in run.PER_LAYER:
        if unit == "s" and not name.startswith("trace."):
            assert metrics[name] > 0, name


def test_host_speed_samples_in_bursts_at_most_so_often():
    speed = hostspeed.HostSpeed()
    speed.sample()
    speed.sample()  # too soon after the first: no new burst
    assert len(speed.samples) == hostspeed.SAMPLE_BURST
    assert speed.scale() == hostspeed.REFERENCE_S / (sum(speed.samples) / len(speed.samples))


def test_untraced_pass_samples_the_host_between_jobs(cp, tmp_path):
    speed = hostspeed.HostSpeed()
    w = workloads.build("recurrence", cp, "smoke", random.Random(7), tmp_path)
    result = run.run_pass(w.groups, random.Random(7), speed=speed)
    assert speed.samples
    assert result.wall == sum(result.times.values())


def test_memory_pass_reports_its_own_peak(tmp_path):
    ledger = run.Ledger()
    own, workers = run.peak_rss("cli", 7, tmp_path, ledger)
    assert own > 0 and workers > 0
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.messages


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
