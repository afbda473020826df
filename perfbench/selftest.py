"""The benchmark's own tests, at tiny budgets.

Run from the repository root with::

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's default test run.)
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from repro.scenarios import run_scenario  # noqa: E402
import suite  # noqa: E402
from layers import PER_LAYER, REPORT_ONLY  # noqa: E402
from tracer import LAYERS  # noqa: E402

TINY = {"register-soak": 250, "kv-zipf": 200, "crash-recovery": 300}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every simulated workload to a tiny per-repeat budget."""
    for name, ops in TINY.items():
        scenario = suite.SIM_WORKLOADS[name]
        monkeypatch.setitem(suite.SIM_WORKLOADS, name, replace(scenario, default_ops=ops))
    monkeypatch.setattr(run, "OUT", HERE / "out" / "selftest")


def bench(capsys, *args):
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def printed(report, name, unit):
    return any(line.split()[:1] == [name] and line.split()[2] == unit for line in report)


def test_positive_control_broken_protocol_is_reported_failed(tiny, monkeypatch, capsys):
    # A write quorum of one loses completed writes under the loss bursts
    # of crash-recovery (at this budget, on about half the seeds: seed 0
    # is one of them); the benchmark must say so, count every operation
    # as failed and exit 1.
    broken = replace(suite.SIM_WORKLOADS["crash-recovery"], default_protocol="broken-submajority")
    monkeypatch.setitem(suite.SIM_WORKLOADS, "crash-recovery", broken)
    code, report, result = bench(
        capsys, "--workload", "crash-recovery", "--seed", "0", "--seconds", "0", "--trace", "0"
    )
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "  verdict: FAIL" in report


def test_production_protocol_passes_the_same_run(tiny, capsys):
    code, _, result = bench(
        capsys, "--workload", "crash-recovery", "--seed", "0", "--seconds", "0", "--trace", "0"
    )
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_end_to_end_metric_is_printed_with_its_unit(tiny, capsys, workload):
    code, report, result = bench(
        capsys, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"
    )
    assert code == 0 and result["correct"]
    expected = [
        name for name in run.END_TO_END
        if not name.startswith("live_")
        and (workload == "crash-recovery" or not name.startswith("vrecovery"))
    ]
    for name in expected:
        assert printed(report, name, run.END_TO_END[name]), name
    assert set(result["metrics"]) == set(run.GATED)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0


def test_live_udp_prints_its_metrics(tiny, capsys):
    code, report, result = bench(
        capsys, "--workload", "live-udp", "--seed", "1", "--seconds", "0.6", "--trace", "0"
    )
    assert code in (0, 1) and result["attempted"] > 0
    for name, unit in run.END_TO_END.items():
        if not name.startswith("v"):
            assert printed(report, name, unit), name


def traced(capsys, workload):
    code, report, result = bench(
        capsys, "--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "1"
    )
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(PER_LAYER) - set(REPORT_ONLY)
    for name, unit in PER_LAYER.items():
        assert printed(report, name, unit), name
    for name, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[name]
    # Every metric at full precision, from the run's written record.
    record = json.loads((run.OUT / f"{workload}-seed2-trace1.json").read_text())
    return record["per_layer"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_layer_self_times_add_up_to_the_traced_wall_time(tiny, capsys, workload):
    metrics = traced(capsys, workload)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["unattributed_s"]
    assert metrics["other_threads_s"] == 0.0
    assert math.isclose(total, metrics["wall_s"], rel_tol=1e-9)
    assert metrics["trace_overhead"] > 1.0
    assert all(metrics[name] == 0 for name in PER_LAYER if name.startswith("runtime."))


def test_workloads_separate_the_layers(tiny, capsys):
    soak = traced(capsys, "register-soak")
    kv = traced(capsys, "kv-zipf")
    crash = traced(capsys, "crash-recovery")
    assert all(soak[name] == 0 for name in PER_LAYER if name.startswith("kv."))
    assert soak["node.ready_s"] < 0.05 * soak["wall_s"]
    for metrics in (soak, kv):
        assert metrics["storage.checkpoints"] == 0 and metrics["node.recoveries"] == 0
    assert kv["kv.ops_per_batch"] >= 1 and kv["kv.preload_s"] > 0 and kv["history.partition_s"] > 0
    assert crash["storage.checkpoints"] > 0 and crash["node.recoveries"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(suite.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.END_TO_END[name] for name in run.GATED
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, unit in PER_LAYER.items() if name not in REPORT_ONLY
    }


def test_determinism_gate_rejects_repeats_that_differ():
    scenario = replace(suite.SIM_WORKLOADS["register-soak"], default_ops=100)
    bench_run = run.Run(suite, "register-soak", 0, 0.0, False)
    bench_run.repeats = [suite.run_sim(scenario, 0), suite.run_sim(scenario, 1)]
    assert not bench_run.check()
    assert "deterministic counters differ" in bench_run.errors[0]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_run_sim_matches_the_scenario_runner(workload):
    # run_sim keeps its own copy of run_scenario's phase loop (so it can
    # time set-up apart); this fails as soon as the two drift apart.
    scenario = replace(suite.SIM_WORKLOADS[workload], default_ops=TINY[workload])
    ours = suite.run_sim(scenario, 3)
    theirs = run_scenario(suite.seeded(scenario, 3), seed=3)
    assert (ours.completed, ours.aborted, ours.unissued) == (
        theirs.completed, theirs.aborted, theirs.unissued
    )
    assert ours.verdict_ok == theirs.verdict
    assert ours.checked_ops == sum(check.operations for check in theirs.checks)
    assert ours.deterministic["recovery_times"] == tuple(
        duration for pid in sorted(theirs.recovery_times) for duration in theirs.recovery_times[pid]
    )
    for counter in ("kernel_events", "messages_sent", "messages_dropped",
                    "stores_completed", "crashes", "recoveries", "final_clock"):
        assert ours.deterministic[counter] == getattr(theirs, counter), counter


def test_loss_bursts_are_seeded_from_the_workload_seed():
    scenario = suite.SIM_WORKLOADS["crash-recovery"]
    seeds = {
        fault.seed
        for seed in (1, 2)
        for phase in suite.seeded(scenario, seed).phases
        for fault in phase.faults
        if isinstance(fault, suite.LossBurst)
    }
    assert len(seeds) == 2 * len(scenario.phases)


def test_percentile_is_an_observed_sample():
    values = [0.4, 0.1, 0.3, 0.2]
    assert suite.percentile(values, 50) == 0.2
    assert suite.percentile(values, 99) == 0.4
    assert suite.percentile(values, 1) == 0.1
