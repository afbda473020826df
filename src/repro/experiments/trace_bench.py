"""Trace-overhead A/B: the ``repro trace-bench`` harness.

The flight recorder (:mod:`repro.obs.ring`) is *always on* by default,
so its cost has to be provably negligible.  This harness runs the same
soak scenario at three instrumentation levels and writes the measured
wall-clock costs to ``BENCH_trace.json``:

* **trace-off** -- event counting only: no ring, no capture.  The
  floor the others are compared against.
* **ring-on** -- the default production configuration: the bounded
  binary ring records every trace point, nothing else.  The contract
  is that this stays within a few percent of trace-off.
* **full-trace** -- ``capture_trace=True``: every event's coordinates
  and detail values are kept, to be rendered as
  :class:`~repro.sim.tracing.TraceEvent` objects on read (the
  debugging configuration; expected to cost real time at soak scale).

Methodology -- the numbers are only as good as their isolation:

* **one subprocess per run.**  A fresh interpreter per sample means no
  cross-run heap or GC contamination: a prior full-trace run leaves
  millions of objects' worth of allocator state behind, which taxes
  whatever runs next in the same process and once mis-measured the
  ring at +27% when adjacent isolated runs showed parity.
* **paired rounds.**  Each round runs all three modes back to back and
  the overhead is the *median of per-round ratios* against that
  round's trace-off sample -- shared-machine drift (thermal, noisy
  neighbours; >20% between identical runs minutes apart has been
  observed) cancels within a round instead of biasing one mode.
* **run portion only.**  Ratios use wall minus verification: the
  checker's cost is identical across modes and would only dilute them.

The harness also re-derives the determinism contract: the three runs'
fingerprints -- transcript field aside, which only the full-trace run
has -- must be identical, i.e. observation does not perturb behaviour.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.bench import SCHEMA
from repro.obs.summary import WallClockStats, percentile
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.soak import quick_ops_for

TRACE_FILE = "BENCH_trace.json"

#: The scenario the A/B runs (the library's register soak).
BENCH_SCENARIO = "soak-100k"

#: Timed repetitions per mode (first-run warmup is *not* discarded --
#: the best-of-N comparison already sheds cold-start noise).
DEFAULT_REPEATS = 3
QUICK_REPEATS = 2

#: The instrumentation levels compared, as ``run_scenario`` overrides.
MODES = (
    ("trace-off", {"capture_trace": False, "flight_recorder": False}),
    ("ring-on", {"capture_trace": False, "flight_recorder": True}),
    ("full-trace", {"capture_trace": True, "flight_recorder": True}),
)

#: The acceptance bar for the always-on configuration, percent.
RING_BUDGET_PCT = 5.0


def _comparable_fingerprint(result) -> Dict[str, Any]:
    """The fingerprint minus the one field that tracks capture mode."""
    fingerprint = result.fingerprint()
    fingerprint.pop("transcript", None)
    return fingerprint


def _child_main(argv: List[str]) -> None:
    """One isolated sample: run the scenario, print a JSON summary.

    Executed as ``python -m repro.experiments.trace_bench '<params>'``
    by :func:`_sample` -- a fresh interpreter per run is the isolation
    the module docstring calls for.
    """
    params = json.loads(argv[0])
    result = run_scenario(
        get_scenario(params["scenario"]),
        seed=params["seed"],
        ops=params["ops"],
        **params["overrides"],
    )
    ring = result.flight_recorder
    print(json.dumps({
        "wall_s": result.wall_s,
        "run_s": result.wall_s - result.check_wall_s,
        "completed": result.completed,
        "ops": result.ops,
        "verdict": result.verdict,
        "flight_recorded": None if ring is None else ring.total,
        "transcript_events": (
            None
            if result.transcript is None
            else len(result.transcript.splitlines())
        ),
        "fingerprint": _comparable_fingerprint(result),
    }))


def _sample(
    scenario: str,
    ops: Optional[int],
    seed: Optional[int],
    overrides: Dict[str, Any],
) -> Dict[str, Any]:
    """Run one sample in a subprocess; return the child's summary."""
    params = json.dumps({
        "scenario": scenario, "ops": ops, "seed": seed,
        "overrides": overrides,
    })
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.trace_bench", params],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
    )
    if completed.returncode != 0:
        raise RuntimeError(
            "trace-bench sample failed:\n" + completed.stderr[-2000:]
        )
    return json.loads(completed.stdout.splitlines()[-1])


def run_trace_bench(
    quick: bool = False,
    ops: Optional[int] = None,
    repeats: Optional[int] = None,
    seed: Optional[int] = None,
    scenario: str = BENCH_SCENARIO,
) -> Dict[str, Any]:
    """Measure the three instrumentation levels; return the payload."""
    spec = get_scenario(scenario)
    if ops is None and quick:
        ops = quick_ops_for(spec)
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    rounds: List[Dict[str, Dict[str, Any]]] = []
    for _ in range(repeats):
        rounds.append({
            name: _sample(spec.name, ops, seed, overrides)
            for name, overrides in MODES
        })
    modes: Dict[str, Dict[str, Any]] = {}
    for name, _ in MODES:
        last = rounds[-1][name]
        modes[name] = {
            "wall": WallClockStats.from_samples(
                [series[name]["wall_s"] for series in rounds]
            ).as_dict(),
            "run": WallClockStats.from_samples(
                [series[name]["run_s"] for series in rounds]
            ).as_dict(),
            "completed": last["completed"],
            "verdict": last["verdict"],
            "flight_recorded": last["flight_recorded"],
            "transcript_events": last["transcript_events"],
        }
    # Paired per-round ratios against that round's trace-off sample
    # (median of ratios; see the methodology note in the docstring).
    overhead = {
        name: percentile(
            [
                (series[name]["run_s"] / series["trace-off"]["run_s"] - 1.0)
                * 100.0
                for series in rounds
            ],
            50,
        )
        for name, _ in MODES
        if name != "trace-off"
    }
    reference = rounds[-1]["trace-off"]["fingerprint"]
    return {
        "schema": SCHEMA,
        "suite": "trace",
        "quick": quick,
        "python": platform.python_version(),
        "scenario": scenario,
        "ops": rounds[-1]["trace-off"]["ops"],
        "repeats": repeats,
        "modes": modes,
        "overhead_pct": overhead,
        "ring_budget_pct": RING_BUDGET_PCT,
        "fingerprints_identical": all(
            series[name]["fingerprint"] == reference
            for series in rounds
            for name, _ in MODES
        ),
    }


def write_trace_file(report: Dict[str, Any], output_dir: str = ".") -> str:
    """Write ``BENCH_trace.json``; return its path."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / TRACE_FILE
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return str(path)


def format_trace_bench(report: Dict[str, Any]) -> str:
    """Render the A/B as the table the CLI prints."""
    header = (
        f"{'mode':<12} {'run best':>9} {'run p50':>9} {'total p50':>10}  "
        f"{'overhead':>8}  {'recorded':>9}  verdict"
    )
    lines = [
        f"scenario {report['scenario']}, {report['ops']:,} ops, "
        f"{report['repeats']} paired rounds (one subprocess per run; "
        "overhead = median of per-round ratios)",
        "",
        header,
        "-" * len(header),
    ]
    for name, _ in MODES:
        mode = report["modes"][name]
        overhead = report["overhead_pct"].get(name)
        overhead_text = "baseline" if overhead is None else f"{overhead:+.1f}%"
        recorded = mode["flight_recorded"]
        recorded_text = "-" if recorded is None else f"{recorded:,}"
        lines.append(
            f"{name:<12} {mode['run']['best_s']:>8.2f}s "
            f"{mode['run']['p50_s']:>8.2f}s {mode['wall']['p50_s']:>9.2f}s  "
            f"{overhead_text:>8}  {recorded_text:>9}  "
            f"{'PASS' if mode['verdict'] else 'FAIL'}"
        )
    ring = report["overhead_pct"]["ring-on"]
    lines.append("")
    lines.append(
        f"always-on ring overhead {ring:+.1f}% "
        f"(budget {report['ring_budget_pct']:.0f}%); fingerprints "
        + (
            "identical across modes"
            if report["fingerprints_identical"]
            else "DIVERGED across modes"
        )
    )
    return "\n".join(lines)


if __name__ == "__main__":  # the subprocess entry used by _sample
    _child_main(sys.argv[1:])
