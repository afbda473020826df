"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload register-soak --seed 1 --seconds 30 --trace 0

The workload repeats -- a fresh cluster each time, the same seed --
until ``--seconds`` have passed (at least twice).  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced repeats and reports the per-layer metrics of the
traced ones.  Every repeat must pass its checks, and on the simulated
workloads every deterministic counter must match across repeats; if
not, the run is reported as incorrect, its operations count as failed,
and the command exits with code 1.  It exits with code 2 when the
program under ``src/`` cannot be imported.

The report goes to standard output, one metric per line with its unit;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record -- run metadata, every
metric, the per-layer table and the traced run's kept spans -- is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from speed import REFERENCE_S, calibrate
from tracer import KEEP_SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: A run repeats a workload at least this often (determinism needs two).
MIN_REPEATS = 2
#: ``live-udp`` splits a run into this many timed repeats.
LIVE_REPEATS = 3

#: End-to-end metric -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "ref_ops_per_s": "ops/s",
    "ops_per_s": "ops/s",
    "machine_slowness": "ratio",
    "failed_op_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "vwrite_p50_us": "virtual-us",
    "vwrite_p99_us": "virtual-us",
    "vread_p50_us": "virtual-us",
    "vread_p99_us": "virtual-us",
    "vrecovery_p50_ms": "virtual-ms",
    "vrecovery_max_ms": "virtual-ms",
    "live_write_p50_ms": "ms",
    "live_write_p99_ms": "ms",
    "live_read_p50_ms": "ms",
    "live_read_p99_ms": "ms",
    "live_recover_ms": "ms",
}
#: The end-to-end metrics every workload has and BENCHMARK.json gates.
GATED = ("setup_s", "ref_ops_per_s", "peak_rss_mb")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """Repeats one workload and turns the repeats into metrics."""

    def __init__(self, suite, name: str, seed: int, seconds: float, trace: bool):
        self.suite = suite
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.live = name == suite.LIVE_UDP.name
        self.repeats: List[Any] = []
        self.traced: List[Any] = []  # (repeat, tracer) pairs
        self.errors: List[str] = []
        #: Sample count behind each percentile metric.
        self.samples: Dict[str, int] = {}
        #: The latest :func:`speed.calibrate` time.
        self.calibration_s = 0.0

    def params(self) -> Dict[str, Any]:
        if self.live:
            return dict(vars(self.suite.LIVE_UDP), repeats=LIVE_REPEATS)
        scenario = self.suite.seeded(self.suite.SIM_WORKLOADS[self.name], self.seed)
        return {
            "scenario": scenario.description,
            "protocol": scenario.default_protocol,
            "processes": scenario.num_processes,
            "ops_per_repeat": scenario.default_ops,
            "phases": [
                {"name": p.name, "read_fraction": p.read_fraction, "clients": p.clients,
                 "num_keys": p.num_keys, "zipf_s": p.zipf_s,
                 "faults": [repr(f) for f in p.faults]}
                for p in scenario.phases
            ],
            **scenario.backend_options(),
        }

    def once(self, traced: bool):
        tracer = None
        if traced:
            tracer = Tracer(keep_spans=0 if self.traced else KEEP_SPANS)
        if self.live:
            repeat = self.suite.run_live(
                self.suite.LIVE_UDP, self.seed, self.seconds / LIVE_REPEATS,
                OUT / f"live-{os.getpid()}", tracer=tracer,
            )
        else:
            scenario = self.suite.SIM_WORKLOADS[self.name]
            repeat = self.suite.run_sim(scenario, self.seed, tracer=tracer)
        after = self.calibrate()
        repeat.slowness = (self.calibration_s + after) / (2 * REFERENCE_S)
        self.calibration_s = after
        if tracer is None:
            self.repeats.append(repeat)
        else:
            self.traced.append((repeat, tracer))

    @staticmethod
    def calibrate() -> float:
        """Time :func:`speed.calibrate` on a clean heap.

        The last repeat's cluster is garbage by now; collecting it first
        keeps its clean-up out of the calibration (and out of the next
        repeat's peak memory).
        """
        gc.collect()
        return calibrate()

    def execute(self) -> None:
        deadline = time.perf_counter() + self.seconds
        wanted = LIVE_REPEATS if self.live else MIN_REPEATS
        traced_next = False
        self.calibration_s = self.calibrate()
        while True:
            self.once(traced_next)
            if self.trace:
                traced_next = not traced_next
            done = len(self.repeats) + len(self.traced)
            if self.live:
                if done >= wanted and (not self.trace or self.traced):
                    break
            elif time.perf_counter() >= deadline and done >= wanted and (
                not self.trace or (self.traced and self.repeats)
            ):
                break

    # -- verdicts ------------------------------------------------------------

    def all_repeats(self) -> List[Any]:
        return self.repeats + [repeat for repeat, _ in self.traced]

    def check(self) -> bool:
        repeats = self.all_repeats()
        for index, repeat in enumerate(repeats):
            if not repeat.verdict_ok:
                self.errors.append(f"repeat {index}: verdict FAIL: {repeat.verdict_reason}")
        if not self.live:
            first = repeats[0].deterministic
            for index, repeat in enumerate(repeats[1:], start=1):
                differing = sorted(
                    key for key in first if repeat.deterministic.get(key) != first[key]
                )
                if differing:
                    self.errors.append(
                        f"repeat {index}: deterministic counters differ from repeat 0: "
                        + ", ".join(differing)
                    )
        return not self.errors

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, import_s: float) -> Dict[str, float]:
        suite = self.suite
        repeats = self.repeats
        pct = suite.percentile
        attempted = sum(r.attempted for r in repeats)
        failed_ops = sum(r.aborted + r.unissued + r.timed_out for r in repeats)
        metrics = {
            "setup_s": import_s + median([r.setup_s for r in repeats]),
            "ref_ops_per_s": median([r.completed / r.ops_wall_s * r.slowness for r in repeats]),
            "ops_per_s": median([r.completed / r.ops_wall_s for r in repeats]),
            "machine_slowness": median([r.slowness for r in repeats]),
            "failed_op_ratio": failed_ops / attempted if attempted else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.live:
            writes = [x for r in repeats for x in r.write_latencies]
            reads = [x for r in repeats for x in r.read_latencies]
            metrics.update({
                "live_write_p50_ms": pct(writes, 50) * 1e3,
                "live_write_p99_ms": pct(writes, 99) * 1e3,
                "live_read_p50_ms": pct(reads, 50) * 1e3,
                "live_read_p99_ms": pct(reads, 99) * 1e3,
                "live_recover_ms": median([x for r in repeats for x in r.recoveries]) * 1e3,
            })
            self.samples = {
                "live_write_p50_ms": len(writes), "live_write_p99_ms": len(writes),
                "live_read_p50_ms": len(reads), "live_read_p99_ms": len(reads),
                "live_recover_ms": sum(len(r.recoveries) for r in repeats),
            }
            return metrics
        # Deterministic per seed: every repeat holds the same samples.
        first = repeats[0]
        metrics.update({
            "vwrite_p50_us": pct(first.write_latencies, 50) * 1e6,
            "vwrite_p99_us": pct(first.write_latencies, 99) * 1e6,
            "vread_p50_us": pct(first.read_latencies, 50) * 1e6,
            "vread_p99_us": pct(first.read_latencies, 99) * 1e6,
        })
        self.samples = {
            "vwrite_p50_us": len(first.write_latencies), "vwrite_p99_us": len(first.write_latencies),
            "vread_p50_us": len(first.read_latencies), "vread_p99_us": len(first.read_latencies),
        }
        if first.recoveries:
            metrics["vrecovery_p50_ms"] = pct(first.recoveries, 50) * 1e3
            metrics["vrecovery_max_ms"] = max(first.recoveries) * 1e3
            self.samples["vrecovery_p50_ms"] = self.samples["vrecovery_max_ms"] = len(first.recoveries)
        return metrics

    def per_layer(self) -> Dict[str, float]:
        from layers import layer_metrics

        rows = [layer_metrics(repeat, tracer.totals(), tracer) for repeat, tracer in self.traced]
        metrics = {name: median([row[name] for row in rows]) for name in rows[0]}
        # Wall time per completed operation, traced over untraced (the
        # live repeats run for a fixed time, not a fixed operation count).
        traced = median([(r.setup_s + r.ops_wall_s) / max(1, r.completed) for r, _ in self.traced])
        untraced = median([(r.setup_s + r.ops_wall_s) / max(1, r.completed) for r in self.repeats])
        metrics["trace_overhead"] = traced / untraced if untraced else 0.0
        return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import suite
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - began
    if args.workload not in suite.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(suite.WORKLOAD_NAMES)})", file=sys.stderr)
        return 2

    run = Run(suite, args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    correct = run.check()

    from layers import PER_LAYER, REPORT_ONLY

    repeats = run.all_repeats()
    attempted = sum(r.attempted for r in repeats)
    failed = attempted if not correct else sum(r.failed for r in repeats)
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": [sys.executable, *sys.argv],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "params": run.params(),
        "repeats": len(run.repeats),
        "traced_repeats": len(run.traced),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key in ("command", "cpu_count", "python", "commit", "params"):
        value = " ".join(metadata[key]) if key == "command" else metadata[key]
        print(f"  {key}: {value}")
    print(f"  repeats: {len(run.repeats)} untraced, {len(run.traced)} traced")
    print(f"  verdict: {'PASS' if correct else 'FAIL'}")
    for error in run.errors:
        print(f"    {error}")

    record: Dict[str, Any] = {
        "metadata": metadata,
        "correct": correct,
        "errors": run.errors,
        "repeats": [
            {"traced": traced, "setup_s": r.setup_s, "ops_wall_s": r.ops_wall_s,
             "completed": r.completed, "aborted": r.aborted, "unissued": r.unissued,
             "slowness": r.slowness}
            for traced, r in [(False, r) for r in run.repeats] + [(True, r) for r, _ in run.traced]
        ],
    }
    if args.trace:
        metrics = run.per_layer()
        units = PER_LAYER
        record["per_layer"] = metrics
        reported = {name: metrics[name] for name in PER_LAYER if name not in REPORT_ONLY}
        for name, unit in PER_LAYER.items():
            print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    else:
        metrics = run.end_to_end(import_s)
        units = END_TO_END
        record["end_to_end"] = metrics
        record["samples"] = run.samples
        for name, unit in END_TO_END.items():
            if name in metrics:
                count = run.samples.get(name)
                suffix = f" (n={count})" if count is not None else ""
                print(f"  {name:20s} {metrics[name]:14.6g} {unit}{suffix}")
        print(f"  attempted {attempted}, aborted {sum(r.aborted for r in repeats)}, "
              f"unissued {sum(r.unissued for r in repeats)}, "
              f"never settled {sum(r.timed_out for r in repeats)}")
        reported = {name: metrics[name] for name in GATED}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    if run.traced:
        with open(OUT / f"{stem}-spans.jsonl", "w") as handle:
            for span in run.traced[0][1].spans:
                keys = ("id", "parent", "thread", "name", "layer", "start", "end", "op")
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
