"""Per-layer metrics of one traced repeat.

Counts come from the tracer's call counts at the layer boundaries and
from the cluster's own gauges; times from the tracer's folded spans.
Every metric is reported on every workload, as zero where the workload
bypasses the layer -- which is how the trace shows that the workloads
separate the layers (``kv.*`` is zero on ``register-soak``,
``runtime.*`` is non-zero only on ``live-udp``).
"""

from __future__ import annotations

from typing import Any, Dict

from suite import percentile
from tracer import LAYERS

_CAUSAL = (
    "CausalDepthTracker.observe",
    "CausalDepthTracker.record_store",
    "CausalDepthTracker.outgoing_depth",
    "CausalDepthTracker.depth_of",
    "CausalDepthTracker.reset",
)
_CHECKERS = ("check_tagged_history", "check_history", "check_regularity", "check_safety")
_HANDLERS = ("protocol.on_message", "protocol.on_store_complete", "protocol.on_timer")

#: Per-layer metric -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "kernel.events_per_op": "events/op",
    "network.msgs_per_op": "msgs/op",
    "network.bytes_per_op": "B/op",
    "network.delivered_ratio": "ratio",
    "node.ready_calls_per_op": "calls/op",
    "node.ready_s": "s",
    "node.recoveries": "count",
    "protocol.handler_calls_per_op": "calls/op",
    "protocol.timer_fires_per_op": "calls/op",
    "protocol.size_calls_per_op": "calls/op",
    "storage.stores_per_op": "stores/op",
    "storage.bytes_logged_per_op": "B/op",
    "storage.checkpoints": "count",
    "storage.compactions": "count",
    "storage.footprint_bytes": "B",
    "history.appends_per_op": "calls/op",
    "history.causal_observe_per_op": "calls/op",
    "history.causal_s": "s",
    "history.check_s": "s",
    "history.check_ops_per_s": "ops/s",
    "history.partition_s": "s",
    "kv.ops_per_batch": "ops/batch",
    "kv.queue_wait_p50_vus": "virtual-us",
    "kv.queue_wait_p99_vus": "virtual-us",
    "kv.preload_s": "s",
    "obs.ring_records_per_op": "records/op",
    "runtime.datagrams_per_op": "msgs/op",
    "runtime.fsyncs_per_op": "calls/op",
    "runtime.store_p50_ms": "ms",
    "runtime.store_p99_ms": "ms",
    "runtime.retransmits_per_op": "calls/op",
    "runtime.recover_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "unattributed_s": "s",
    "other_threads_s": "s",
    "wall_s": "s",
    "trace_overhead": "ratio",
}

#: Per-layer metrics that do not move on any workload BENCHMARK.json
#: lists, so they are printed but the result line and BENCHMARK.json
#: leave them out: the runtime layer and the runtime's own threads,
#: which only ``live-udp`` runs, and the median KV queue wait, which
#: the 20 µs batch window fixes.  Every other metric moves on at least
#: one listed workload.
REPORT_ONLY = (
    "kv.queue_wait_p50_vus",
    *(name for name in PER_LAYER if name.startswith("runtime.")),
    "other_threads_s",
)


def layer_metrics(repeat, totals: Dict[str, Any], tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat, except ``trace_overhead``."""
    calls = totals["calls"]
    inclusive = totals["inclusive_s"]
    gauges = repeat.gauges
    ops = max(1, repeat.issued)
    wall = totals["wall_s"]

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def gauge(name: str) -> float:
        return float(gauges.get(name, 0.0))

    waits = [
        op.invoked_at - op.submitted_at
        for op in tracer.kv_ops
        if op.invoked_at is not None and op.submitted_at is not None
    ]
    stores = totals["durations"].get("FileStableStorage.store", [])
    sent = gauge("net.messages_sent")
    metrics = {
        "kernel.events_per_op": gauge("kernel.events") / ops,
        "network.msgs_per_op": count("SimNetwork.send") / ops,
        "network.bytes_per_op": gauge("net.bytes_sent") / ops,
        "network.delivered_ratio": gauge("net.messages_delivered") / sent if sent else 0.0,
        "node.ready_calls_per_op": count("SimNode.ready") / ops,
        "node.ready_s": inclusive.get("SimNode.ready", 0.0),
        "node.recoveries": gauge("node.recoveries"),
        "protocol.handler_calls_per_op": count(*_HANDLERS) / ops,
        "protocol.timer_fires_per_op": count("protocol.on_timer") / ops,
        "protocol.size_calls_per_op": count("protocol.size") / ops,
        "storage.stores_per_op": count("SimStableStorage.store") / ops,
        "storage.bytes_logged_per_op": gauge("storage.bytes_logged") / ops,
        "storage.checkpoints": gauge("storage.checkpoints"),
        "storage.compactions": count("SimStableStorage.compact"),
        "storage.footprint_bytes": gauge("storage.footprint_bytes"),
        "history.appends_per_op": count("History.append") / ops,
        "history.causal_observe_per_op": count("CausalDepthTracker.observe") / ops,
        "history.causal_s": sum(totals["self_by_name"].get(name, 0.0) for name in _CAUSAL),
        "history.check_s": sum(inclusive.get(name, 0.0) for name in _CHECKERS),
        "history.partition_s": inclusive.get("partition_history", 0.0),
        "kv.ops_per_batch": tracer.batch_frames / tracer.batches if tracer.batches else 0.0,
        "kv.queue_wait_p50_vus": percentile(waits, 50) * 1e6 if waits else 0.0,
        "kv.queue_wait_p99_vus": percentile(waits, 99) * 1e6 if waits else 0.0,
        "kv.preload_s": inclusive.get("KVCluster.preload", 0.0),
        "obs.ring_records_per_op": gauge("trace.flight_recorded") / ops,
        "runtime.datagrams_per_op": count("UdpTransport.send") / ops,
        "runtime.fsyncs_per_op": count("os.fsync") / ops,
        "runtime.store_p50_ms": percentile(stores, 50) * 1e3 if stores else 0.0,
        "runtime.store_p99_ms": percentile(stores, 99) * 1e3 if stores else 0.0,
        # Retransmissions are the protocol timers that fire on the
        # runtime's own threads (simulated timers fire on the workload's).
        "runtime.retransmits_per_op": totals["other_thread_calls"].get("protocol.on_timer", 0) / ops,
        "runtime.recover_s": inclusive.get("RuntimeNode.recover", 0.0),
        "gc.collections": tracer.gc_collections,
        "gc.pause_s": tracer.gc_pause_s,
        "unattributed_s": totals["unattributed_s"],
        "other_threads_s": totals["other_threads_s"],
        "wall_s": wall,
    }
    check_s = metrics["history.check_s"]
    metrics["history.check_ops_per_s"] = repeat.checked_ops / check_s if check_s else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = totals["self_s"][layer]
        metrics[f"{layer}.self_share"] = totals["self_s"][layer] / wall if wall else 0.0
    return metrics

