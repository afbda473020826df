"""The benchmark's four workloads, driven through repro's public API.

Every workload is a closed loop: each client has at most one operation
outstanding and issues the next only when the previous one returns.
Inputs come from the benchmark's ``--seed`` alone: operation kinds,
client plans, the zipfian key stream and the loss bursts' drops are
drawn here (or by the ``repro.workloads`` runners and the faults from
seeds derived here), so the same seed replays the same inputs.

The three simulated workloads are :class:`~repro.scenarios.spec.Scenario`
specs run by :func:`run_sim`; ``live-udp`` is run by :func:`run_live`.
One call of either is one *repeat*: set up a fresh cluster, drive the
whole workload, check the history, and return a :class:`Repeat`.
"""

from __future__ import annotations

import math
import queue
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections import Counter
from typing import Dict, List

from repro.api import open_cluster
from repro.history.history import MalformedHistoryError
from repro.scenarios import LossBurst, RollingRestarts, Scenario, SlowDisk, WorkloadPhase
from repro.scenarios.spec import STORE_KV
from repro.workloads import (
    ClientPlan,
    KVWorkloadRunner,
    OperationMix,
    UniqueValues,
    WorkloadRunner,
    ZipfianKeys,
)

#: Virtual-time and kernel-event budgets per phase, as the scenario
#: runner sizes them: generous enough that only a stalled run hits them.
#: ``selftest.py`` checks that :func:`run_sim` and the scenario runner
#: still agree.
TIMEOUT_PER_OP = 0.02
TIMEOUT_FLOOR = 30.0
EVENTS_PER_OP = 2_000
EVENTS_FLOOR = 2_000_000


def _crash_wave(index: int) -> tuple:
    """The faults one ``crash-recovery`` phase arms when it opens.

    A rolling restart of all five processes (at most one down at a
    time, so a majority stays up), a 50% loss burst over the whole
    wave, and a slow disk on one process -- a different one each
    phase.  Times are virtual seconds after the phase opens.  The loss
    burst is what makes retransmission do real work; it is also the
    adversary under which a sub-majority write quorum
    (``broken-submajority``) loses completed writes.  Its drops are
    seeded per run by :func:`seeded`.
    """
    return (
        RollingRestarts(start=2e-3, interval=6e-3, downtime=2.5e-3),
        LossBurst(start=2e-3, end=32e-3, probability=0.5),
        SlowDisk(pid=index % 5, start=4e-3, end=14e-3, extra_latency=2e-4),
    )


REGISTER_SOAK = Scenario(
    name="register-soak",
    description=(
        "soak-100k shape: persistent, 5 processes, one client each, "
        "50% reads, five phases, white-box check after each, no faults"
    ),
    default_ops=3_000,
    phases=tuple(WorkloadPhase(name=f"soak-{i + 1}") for i in range(5)),
)

KV_ZIPF = Scenario(
    name="kv-zipf",
    description=(
        "sharded KV store: 8 shards, 20us batch window, 16 clients, "
        "zipfian s=0.99 over 2048 keys, 85% reads, per-key checks "
        "after each of five phases"
    ),
    store=STORE_KV,
    num_shards=8,
    batch_window=2e-5,
    default_ops=3_500,
    phases=tuple(
        WorkloadPhase(
            name=f"kv-{i + 1}",
            clients=16,
            num_keys=2048,
            zipf_s=0.99,
            read_fraction=0.85,
        )
        for i in range(5)
    ),
)

CRASH_RECOVERY = Scenario(
    name="crash-recovery",
    description=(
        "persistent register with 1.5ms checkpoints and recovery-scan "
        "billing; every phase arms a rolling restart of all 5 "
        "processes, a 50% loss burst and a slow disk"
    ),
    checkpoint_interval=1.5e-3,
    recovery_scan=True,
    default_ops=3_000,
    phases=tuple(
        WorkloadPhase(name=f"wave-{i + 1}", faults=_crash_wave(i))
        for i in range(5)
    ),
)

SIM_WORKLOADS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (REGISTER_SOAK, KV_ZIPF, CRASH_RECOVERY)
}


@dataclass(frozen=True)
class LiveWorkload:
    """The ``live-udp`` closed loop over real sockets and fsync'd files."""

    name: str = "live-udp"
    protocol: str = "persistent"
    num_processes: int = 3
    read_fraction: float = 0.5
    #: The process crashed (while its client is idle) and recovered
    #: once, half way through each repeat.
    crash_pid: int = 2
    #: Wall seconds an operation may take before the repeat fails.
    settle_timeout: float = 30.0


LIVE_UDP = LiveWorkload()

WORKLOAD_NAMES = (*SIM_WORKLOADS, LIVE_UDP.name)


@dataclass
class Repeat:
    """What one repeat of a workload did and measured."""

    setup_s: float
    #: Wall seconds from the first operation issued to the final verdict.
    ops_wall_s: float
    attempted: int
    completed: int
    aborted: int
    unissued: int
    #: Operations that never settled.
    timed_out: int = 0
    #: Whether an aborted operation is a failure.  Only a crash aborts a
    #: simulated operation, which the model allows; the live closed loop
    #: never crashes a process with an operation in flight, so there an
    #: abort is an error (a timeout, a refused invocation).
    aborts_fail: bool = False
    verdict_ok: bool = False
    verdict_reason: str = ""
    #: Operations the checks judged, summed over the checks.
    checked_ops: int = 0
    #: Latencies in seconds: virtual on the simulated workloads (from
    #: the history's invoke/reply times), wall on ``live-udp``.
    write_latencies: List[float] = field(default_factory=list)
    read_latencies: List[float] = field(default_factory=list)
    #: Crash-to-recovered durations, seconds (virtual or wall).
    recoveries: List[float] = field(default_factory=list)
    #: Exact counters that must repeat for a seed (simulated only).
    deterministic: Dict[str, object] = field(default_factory=dict)
    #: Cluster gauges sampled after the run (per-layer counts).
    gauges: Dict[str, float] = field(default_factory=dict)
    #: Error types of the live operations that aborted.
    errors: List[str] = field(default_factory=list)
    #: How slowly the machine ran around the repeat, relative to the
    #: reference box (the runner sets it from :func:`speed.calibrate`).
    slowness: float = 1.0

    @property
    def issued(self) -> int:
        return self.completed + self.aborted

    @property
    def failed(self) -> int:
        """Operations that failed the benchmark, not the model.

        An operation aborted because the workload crashed its process
        is a legal outcome in the crash-recovery model (the checkers
        judge it), so it is not a failure.  Operations never issued or
        never settled are; a failed verdict fails the whole repeat.
        """
        if not self.verdict_ok:
            return self.attempted
        return self.unissued + self.timed_out + (self.aborted if self.aborts_fail else 0)


def phase_seed(seed: int, index: int) -> int:
    """A stable per-phase seed derived from the workload seed."""
    return seed * 1_000_003 + 7919 * (index + 1)


def seeded(scenario: Scenario, seed: int) -> Scenario:
    """``scenario`` with every loss burst's drops seeded from ``seed``.

    The burst's seed is offset from the phase seed so its drops do not
    replay the draws of the phase's client plans.
    """
    phases = tuple(
        replace(
            phase,
            faults=tuple(
                replace(fault, seed=phase_seed(seed, index) + 1)
                if isinstance(fault, LossBurst)
                else fault
                for fault in phase.faults
            ),
        )
        for index, phase in enumerate(scenario.phases)
    )
    return replace(scenario, phases=phases)


def _split(total: int, parts: int) -> List[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _budget(phase_ops: int) -> dict:
    return dict(
        timeout=max(TIMEOUT_FLOOR, phase_ops * TIMEOUT_PER_OP),
        max_events=max(EVENTS_FLOOR, phase_ops * EVENTS_PER_OP),
    )


def _keys(phase: WorkloadPhase, seed: int) -> ZipfianKeys:
    return ZipfianKeys(num_keys=phase.num_keys, s=phase.zipf_s, seed=seed)


def run_sim(scenario: Scenario, seed: int, tracer=None) -> Repeat:
    """One repeat of a simulated workload; deterministic per seed.

    The phase loop follows :func:`repro.scenarios.run_scenario` (arm
    the phase's faults, run its closed loop, check the history so far)
    but keeps the cluster in hand, so set-up is timed apart from the
    operations and latencies come straight from the history.  The
    scenario's ``default_ops`` and ``default_protocol`` are the budget
    and the protocol.  With a ``tracer``, everything from building the
    cluster to the last verdict runs inside its root span.
    """
    scenario = seeded(scenario, seed)
    ops = scenario.default_ops
    protocol = scenario.default_protocol
    sharded = scenario.store == STORE_KV
    options = scenario.backend_options()
    if not sharded:
        # Lets the positive control name a deliberately broken variant;
        # production protocols resolve exactly as without it.
        options["include_broken"] = True

    with tracer.root() if tracer is not None else nullcontext():
        started = time.perf_counter()
        cluster = open_cluster(
            backend=scenario.backend,
            protocol=protocol,
            num_processes=scenario.num_processes,
            seed=seed,
            capture_trace=False,
            **options,
        )
        cluster.start()
        if sharded:
            # Every phase draws from the same key universe; provision it
            # once, before the measured window opens.
            universe = sorted({key for phase in scenario.phases for key in _keys(phase, 0).keys})
            cluster.preload(universe, timeout=TIMEOUT_FLOOR)
        first_op = time.perf_counter()

        values = UniqueValues()
        pids = list(range(scenario.num_processes))
        completed = aborted = unissued = checked = 0
        verdicts = []
        for index, (phase, phase_ops) in enumerate(
            zip(scenario.phases, scenario.split_ops(ops))
        ):
            derived = phase_seed(seed, index)
            for fault in phase.faults:
                fault.arm(cluster)
            if sharded:
                clients = phase.clients or 16
                report = KVWorkloadRunner(
                    cluster,
                    num_clients=clients,
                    operations_per_client=_split(phase_ops, clients),
                    read_fraction=phase.read_fraction,
                    keys=_keys(phase, derived),
                    seed=derived,
                    pids=pids,
                    values=values,
                ).run(preload=False, **_budget(phase_ops))
            else:
                rng = random.Random(derived)
                mix = OperationMix(read_fraction=phase.read_fraction)
                clients = min(phase.clients or len(pids), len(pids))
                plans = [
                    ClientPlan(pid=pids[i], kinds=mix.plan(count, rng))
                    for i, count in enumerate(_split(phase_ops, clients))
                    if count
                ]
                report = WorkloadRunner(cluster, plans, values=values).run(
                    **_budget(phase_ops)
                )
            completed += report.completed
            aborted += report.aborted
            unissued += report.unissued
            verdict = cluster.check(criterion="atomic", method=scenario.check_method)
            checked += verdict.operations
            verdicts.append((phase.name, verdict))
        finished = time.perf_counter()

    failures = [f"check after {name}: {v.reason}" for name, v in verdicts if not v.ok]
    if unissued:
        # A stalled run leaves work unissued; the checks would accept
        # the truncated history, so this fails the repeat on its own.
        failures.append(f"{unissued} operations never issued")
    repeat = Repeat(
        setup_s=first_op - started,
        ops_wall_s=finished - first_op,
        attempted=ops,
        completed=completed,
        aborted=aborted,
        unissued=unissued,
        verdict_ok=not failures,
        verdict_reason="; ".join(failures),
        checked_ops=checked,
    )
    for record in cluster.history.completed_operations():
        latencies = (
            repeat.write_latencies if record.kind == "write" else repeat.read_latencies
        )
        latencies.append(record.latency)
    repeat.recoveries = [
        duration for node in cluster.sim.nodes for duration in node.recovery_times
    ]
    stats = cluster.stats()
    repeat.gauges = dict(cluster.metrics().scalars)
    repeat.gauges["storage.checkpoints"] = sum(
        node.checkpoints_committed for node in cluster.sim.nodes
    )
    repeat.deterministic = {
        "kernel_events": stats.kernel_events,
        "messages_sent": stats.messages_sent,
        "messages_dropped": stats.messages_dropped,
        "stores_completed": stats.stores_completed,
        "crashes": stats.crashes,
        "recoveries": stats.recoveries,
        "final_clock": stats.clock,
        "completed": completed,
        "aborted": aborted,
        "unissued": unissued,
        "write_latencies": tuple(repeat.write_latencies),
        "read_latencies": tuple(repeat.read_latencies),
        "recovery_times": tuple(repeat.recoveries),
    }
    cluster.close()
    return repeat


def run_live(
    workload: LiveWorkload,
    seed: int,
    duration: float,
    storage_root: Path,
    tracer=None,
) -> Repeat:
    """One repeat of ``live-udp``: a closed loop for ``duration`` wall seconds.

    The main thread drives the clients; the cluster's event-loop
    thread runs the nodes.  Half way through, the ``crash_pid``
    process is crashed while its client is idle and recovered, timing
    ``Cluster.recover``.  The nodes' files live under ``storage_root``,
    which is removed afterwards.
    """
    storage_root.mkdir(parents=True, exist_ok=True)
    try:
        with tracer.root() if tracer is not None else nullcontext():
            started = time.perf_counter()
            cluster = open_cluster(
                backend="live",
                protocol=workload.protocol,
                num_processes=workload.num_processes,
                storage_root=storage_root,
            )
            try:
                cluster.start()
                first_op = time.perf_counter()
                repeat = _live_loop(cluster, workload, seed, duration, first_op)
                try:
                    verdict = cluster.check(criterion="atomic")
                    ok, reason, checked = verdict.ok, verdict.reason, verdict.operations
                except MalformedHistoryError as exc:
                    ok, reason, checked = False, f"{type(exc).__name__}: {exc}", 0
                repeat.ops_wall_s = time.perf_counter() - first_op
            finally:
                cluster.close()
    finally:
        shutil.rmtree(storage_root, ignore_errors=True)
    repeat.setup_s = first_op - started
    problems = [] if ok else [f"history check: {reason}"]
    problems += [
        f"{count} operations failed with {error}"
        for error, count in sorted(Counter(repeat.errors).items())
    ]
    if repeat.timed_out:
        problems.append(f"{repeat.timed_out} operations never settled")
    if not repeat.recoveries:
        problems.append("the crash/recover step never ran")
    repeat.verdict_ok = not problems
    repeat.verdict_reason = "; ".join(problems)
    repeat.checked_ops = checked
    return repeat


def _live_loop(cluster, workload, seed, duration, first_op) -> Repeat:
    pids = range(workload.num_processes)
    sessions = {pid: cluster.session(pid) for pid in pids}
    # One generator per client, so a client's kinds do not depend on
    # how the others' operations interleave in wall time.
    rngs = {pid: random.Random(phase_seed(seed, pid)) for pid in pids}
    values = UniqueValues()
    settled: "queue.Queue[int]" = queue.Queue()
    handles = []

    def issue(pid: int) -> None:
        session = sessions[pid]
        if rngs[pid].random() < workload.read_fraction:
            handle = session.read()
        else:
            handle = session.write(values(pid))
        handles.append(handle)
        # Runs on the event-loop thread; the queue hands the pid back.
        handle.add_callback(lambda _handle, pid=pid: settled.put(pid))

    recoveries: List[float] = []
    crash_at = first_op + duration / 2
    deadline = first_op + duration
    outstanding = 0
    for pid in pids:
        issue(pid)
        outstanding += 1
    while outstanding:
        try:
            pid = settled.get(timeout=workload.settle_timeout)
        except queue.Empty:
            break
        outstanding -= 1
        now = time.perf_counter()
        if now >= deadline:
            continue
        if not recoveries and pid == workload.crash_pid and now >= crash_at:
            cluster.crash(pid)
            began = time.perf_counter()
            cluster.recover(pid, wait=True, timeout=workload.settle_timeout)
            recoveries.append(time.perf_counter() - began)
        issue(pid)
        outstanding += 1

    repeat = Repeat(
        setup_s=0.0,
        ops_wall_s=0.0,
        attempted=len(handles),
        completed=sum(1 for h in handles if h.done),
        aborted=sum(1 for h in handles if h.aborted),
        unissued=0,
        timed_out=sum(1 for h in handles if not h.settled),
        aborts_fail=True,
        recoveries=recoveries,
    )
    repeat.errors = [type(h.error).__name__ for h in handles if h.aborted]
    for handle in handles:
        if handle.done:
            target = (
                repeat.write_latencies if handle.kind == "write" else repeat.read_latencies
            )
            target.append(handle.latency)
    return repeat


def percentile(values: List[float], q: float) -> float:
    """Exact nearest-rank percentile: an observed sample, never an estimate."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
