"""Layer-attributed tracing for the benchmark's traced run.

The tracer wraps the public entry points of each repro layer from the
outside -- nothing under ``src/`` changes -- and records, per call, a
span: name, start, end, parent span and (where the call carries one)
the :class:`~repro.common.ids.OperationId`.  Spans are folded online
into per-layer *self time* (a span's duration minus the time its child
spans cover) and call counts; the first :data:`KEEP_SPANS` spans are
also kept whole and written out when the run ends.

Layers are repro's module groups (:data:`MODULE_LAYERS`).  Callbacks a
layer hands to another -- kernel events, delivery handlers, store
completions, handle callbacks -- are wrapped where they are registered
and attributed to the module that defined them, so the kernel's own
time excludes the handlers it dispatches.  The node layer's handlers
are private; they are reached this way, through the public
``SimNetwork.attach``, ``SimStableStorage.store`` and
``Kernel.schedule`` they are registered with.

Every thread keeps its own span stack.  On the thread that runs the
workload, the layers' self times plus ``unattributed_s`` (the root
span's own time: benchmark code and unwrapped calls) add up to the
traced wall time exactly.  Spans on other threads -- the live
runtime's event loop and fsync executor -- are reported as
``other_threads_s`` on top.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept whole (first come) and written out at the end.
KEEP_SPANS = 100_000

#: Module prefix -> layer; the first matching prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.kernel", "kernel"),
    ("repro.sim.network", "network"),
    ("repro.net", "network"),
    ("repro.sim.node", "node"),
    ("repro.sim.storage", "storage"),
    ("repro.storage", "storage"),
    ("repro.sim.tracing", "obs"),
    ("repro.obs", "obs"),
    ("repro.sim.failures", "workloads"),
    ("repro.scenarios", "workloads"),
    ("repro.workloads", "workloads"),
    ("repro.protocol", "protocol"),
    ("repro.history", "history"),
    ("repro.kv", "kv"),
    ("repro.api", "api"),
    ("repro.cluster", "api"),
    ("repro.runtime", "runtime"),
)

LAYERS = (
    "kernel",
    "network",
    "node",
    "protocol",
    "storage",
    "history",
    "kv",
    "api",
    "workloads",
    "obs",
    "runtime",
)

UNATTRIBUTED = "unattributed"
ROOT = "perfbench.repeat"
_TRACED = "__perfbench_traced__"


def _op_arg(index: int) -> Callable:
    return lambda args, kwargs: args[index] if len(args) > index else None


def _op_attr(index: int) -> Callable:
    return lambda args, kwargs: getattr(args[index], "op", None) if len(args) > index else None


def _op_kwarg(args, kwargs):
    return kwargs.get("op")


# (module, class or None, attributes, layer, options).  Options:
# ``callback``: position (counting ``self``) or keyword of a callback
# argument to wrap; ``op``: how to read the operation id off the call;
# ``durations``: keep every duration (for percentiles); ``hook``: a
# Tracer method that wraps the call to observe its arguments or result.
# Spans are named ``Class.attr`` (or the function's name).
_TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str, Dict[str, Any]], ...] = (
    ("repro.sim.kernel", "Kernel", ("run_until", "run"), "kernel", {}),
    ("repro.sim.kernel", "Kernel", ("schedule", "schedule_cancellable"), "kernel", {"callback": 2}),
    ("repro.sim.network", "SimNetwork", ("send",), "network",
     {"op": _op_attr(3), "hook": "_counting_batches"}),
    ("repro.sim.network", "SimNetwork", ("broadcast",), "network", {"op": _op_attr(2)}),
    ("repro.sim.network", "SimNetwork", ("partition", "heal_all", "block", "unblock"), "network", {}),
    ("repro.sim.network", "SimNetwork", ("attach",), "network", {"callback": 2}),
    ("repro.sim.network", "SimNetwork", ("add_filter",), "network", {"callback": 1}),
    ("repro.sim.node", "SimNode", (
        "invoke_read", "invoke_write", "crash", "recover", "boot",
        "begin_checkpoint", "provision_register", "register_ready",
        "register_busy", "ready",
    ), "node", {}),
    ("repro.sim.node", "SimOperation", ("add_callback",), "node", {"callback": 1}),
    ("repro.sim.storage", "SimStableStorage", ("store",), "storage",
     {"callback": "on_durable", "op": _op_kwarg}),
    ("repro.sim.storage", "SimStableStorage", (
        "crash", "retrieve", "delete", "compact", "record_size",
        "recovery_scan_latency", "set_slow", "clear_slow",
    ), "storage", {}),
    ("repro.storage.checkpoint", None, (
        "build_snapshot_record", "load_snapshot", "snapshot_store_size",
        "capturable_keys", "snapshot_seq",
    ), "storage", {}),
    ("repro.history.history", "History", ("append",), "history", {"op": _op_attr(1)}),
    ("repro.history.history", "History", (
        "operations", "completed_operations", "pending_operations",
        "assert_well_formed",
    ), "history", {}),
    ("repro.history.recorder", "HistoryRecorder", (
        "record_invoke", "record_reply", "record_tag", "record_causal_logs",
        "record_register",
    ), "history", {"op": _op_arg(1)}),
    ("repro.history.recorder", "HistoryRecorder", ("record_crash", "record_recovery"), "history", {}),
    ("repro.history.causal_logs", "CausalDepthTracker", (
        "observe", "record_store", "outgoing_depth", "depth_of",
    ), "history", {"op": _op_arg(1)}),
    ("repro.history.causal_logs", "CausalDepthTracker", ("reset",), "history", {}),
    ("repro.history.register_checker", None, ("check_tagged_history",), "history", {}),
    ("repro.history.checker", None, ("check_history",), "history", {}),
    ("repro.history.regular_checker", None, ("check_regularity", "check_safety"), "history", {}),
    ("repro.history.partition", None, ("partition_history",), "history", {}),
    ("repro.kv.store", "KVCluster", ("read", "write"), "kv", {"hook": "_keeping_result"}),
    ("repro.kv.store", "KVCluster", ("preload", "per_key_histories", "check_atomicity"), "kv", {}),
    ("repro.kv.store", "KVOperation", ("add_callback",), "kv", {"callback": 1}),
    ("repro.api.base", None, ("open_cluster",), "api", {}),
    ("repro.api.base", "Cluster", ("metrics", "wait_all"), "api", {}),
    ("repro.api.sim", "SimBackend", (
        "start", "session", "preload", "ensure_key", "crash", "recover",
        "run", "run_until", "wait", "check", "stats",
    ), "api", {}),
    ("repro.api.kv", "KVBackend", (
        "start", "session", "preload", "ensure_key", "crash", "recover",
        "run", "run_until", "wait", "check", "stats",
    ), "api", {}),
    ("repro.api.live", "LiveBackend", (
        "start", "close", "session", "crash", "recover", "wait", "check", "stats",
    ), "api", {}),
    ("repro.api.sim", "SimBackend", ("defer",), "api", {"callback": 2}),
    ("repro.api.kv", "KVBackend", ("defer",), "api", {"callback": 2}),
    ("repro.api.sim", "SimSession", ("write", "read", "ready"), "api", {}),
    ("repro.api.kv", "KVSession", ("write", "read", "ready"), "api", {}),
    ("repro.api.live", "LiveSession", ("write", "read", "ready"), "api", {}),
    ("repro.api.sim", "SimHandle", ("add_callback",), "api", {"callback": 1}),
    ("repro.api.kv", "KVHandle", ("add_callback",), "api", {"callback": 1}),
    ("repro.api.live", "LiveHandle", ("add_callback",), "api", {"callback": 1}),
    ("repro.cluster", "SimCluster", (
        "start", "write", "read", "run", "run_until", "crash", "recover",
        "ensure_register", "wait_register", "per_register_histories",
        "install_schedule",
    ), "api", {}),
    ("repro.workloads.generators", "WorkloadRunner", ("run",), "workloads", {}),
    ("repro.workloads.generators", "OperationMix", ("plan",), "workloads", {}),
    ("repro.workloads.kv", "KVWorkloadRunner", ("run",), "workloads", {}),
    ("repro.scenarios.faults", "RollingRestarts", ("arm",), "workloads", {}),
    ("repro.scenarios.faults", "LossBurst", ("arm",), "workloads", {}),
    ("repro.scenarios.faults", "SlowDisk", ("arm",), "workloads", {}),
    ("repro.sim.tracing", "Trace", ("tick", "emit"), "obs", {}),
    ("repro.obs.ring", "RingTrace", ("record",), "obs", {}),
    ("repro.obs.metrics", "MetricsRegistry", ("snapshot",), "obs", {}),
    ("repro.obs.metrics", "Histogram", ("observe",), "obs", {}),
    ("repro.runtime.cluster", "LiveCluster", ("start", "close", "submit"), "runtime", {}),
    ("repro.runtime.node", "RuntimeNode", (
        "recover", "crash", "boot", "provision_register", "checkpoint",
    ), "runtime", {}),
    ("repro.runtime.storage", "FileStableStorage", ("store",), "runtime", {"durations": True}),
    ("repro.runtime.storage", "FileStableStorage", ("delete", "reload_from_disk"), "runtime", {}),
    ("repro.runtime.transport", "UdpTransport", ("send", "broadcast"), "runtime", {"op": _op_attr(3)}),
    ("repro.runtime.transport", "UdpTransport", ("start",), "runtime", {"callback": 1}),
)

#: Protocol entry points, wrapped on every class that defines them.
_PROTOCOL_METHODS = (
    "initialize", "recover", "crash", "invoke_read", "invoke_write",
    "on_message", "on_store_complete", "on_timer",
)
#: Message classes whose memoized ``size`` is computed per message.
_SIZED_MESSAGES = ("WriteRequest", "ReadAck", "RegisterFrame", "MuxBatch")


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return UNATTRIBUTED


class _ThreadState:
    """One thread's span stack and accumulators."""

    __slots__ = ("thread", "stack", "self_time", "inclusive", "calls", "durations", "next_id")

    def __init__(self, thread: str):
        self.thread = thread
        #: Frames: [child seconds, span id].
        self.stack: List[list] = []
        self.self_time: Dict[str, float] = {}
        self.inclusive: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.next_id = 0


class Tracer:
    """Wraps repro's layer entry points while a :meth:`root` span is open."""

    def __init__(self, keep_spans: int = KEEP_SPANS):
        self.keep_spans = keep_spans
        #: Kept spans: (id, parent id, thread, name, layer, start, end, op).
        self.spans: List[tuple] = []
        # next() on a count is atomic, so threads share it safely.
        self._seen = itertools.count()
        self._layer_of: Dict[str, str] = {ROOT: UNATTRIBUTED}
        self._keep_durations: set = set()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._main: Optional[_ThreadState] = None
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None
        #: MuxBatch datagrams sent by the simulated network, and their frames.
        self.batches = 0
        self.batch_frames = 0
        #: KV operations submitted (their queue waits are read at the end).
        self.kv_ops: List[Any] = []
        self.wall_s = 0.0

    # -- span machinery ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def span(self, fn: Callable, name: str, layer: str, op_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so that every call records a ``name`` span."""
        return functools.update_wrapper(self._traced(fn, name, layer, op_of), fn)

    def _traced(self, fn: Callable, name: str, layer: str, op_of: Optional[Callable]) -> Callable:
        self._layer_of.setdefault(name, layer)
        clock = time.perf_counter
        tracer = self
        keep = name in self._keep_durations

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span_id = state.next_id
            state.next_id = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time = state.self_time
                self_time[name] = self_time.get(name, 0.0) + duration - frame[0]
                inclusive = state.inclusive
                inclusive[name] = inclusive.get(name, 0.0) + duration
                calls = state.calls
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][0] += duration
                if keep:
                    state.durations.setdefault(name, []).append(duration)
                if next(tracer._seen) < tracer.keep_spans:
                    tracer._keep(state, span_id, parent, name, start, end, op_of, args, kwargs)

        setattr(traced, _TRACED, True)
        return traced

    def _keep(self, state, span_id, parent, name, start, end, op_of, args, kwargs) -> None:
        op = op_of(args, kwargs) if op_of is not None else None
        self.spans.append(
            (span_id, parent, state.thread, name, self._layer_of[name], start, end,
             None if op is None else str(op))
        )

    def callback(self, callback: Callable) -> Callable:
        """A callback handed to another layer, attributed to its own module."""
        fn = getattr(callback, "__func__", callback)
        fn = getattr(fn, "func", fn)  # functools.partial
        if getattr(fn, _TRACED, False):
            return callback
        name = getattr(fn, "__qualname__", type(fn).__name__)
        return self._traced(callback, name, layer_of_module(getattr(fn, "__module__", None)), None)

    @contextmanager
    def root(self) -> Iterator[None]:
        """Install the wrappers and open the root span around one repeat."""
        self._install()
        try:
            state = self._state()
            self._main = state
            span_id = state.next_id
            state.next_id += 1
            frame = [0.0, span_id]
            state.stack.append(frame)
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                state.stack.pop()
                self.wall_s += end - start
                state.self_time[ROOT] = state.self_time.get(ROOT, 0.0) + (end - start) - frame[0]
                state.calls[ROOT] = state.calls.get(ROOT, 0) + 1
                if self.keep_spans:
                    self.spans.append(
                        (span_id, None, state.thread, ROOT, UNATTRIBUTED, start, end, None)
                    )
        finally:
            self._uninstall()

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def _install(self) -> None:
        for module_name, class_name, attrs, layer, options in _TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                name = f"{class_name}.{attr}" if class_name else attr
                if options.get("durations"):
                    self._keep_durations.add(name)
                self._wrap(owner, attr, name, layer, options)
        self._wrap_protocols()
        self._patch(os, "fsync", self._counted(os.fsync, "os.fsync", "runtime"))
        gc.callbacks.append(self._on_gc)

    def _uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, owner: Any, attr: str, name: str, layer: str, options: Dict[str, Any]) -> None:
        original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        op_of = options.get("op")
        if isinstance(original, property):
            self._patch(owner, attr, property(self.span(original.fget, name, layer)))
            return
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(self.span(original.func, name, layer))
            wrapped.__set_name__(owner, attr)
            self._patch(owner, attr, wrapped)
            return
        fn = original
        callback = options.get("callback")
        if callback is not None:
            fn = self._with_callback(fn, callback)
        if "hook" in options:
            fn = getattr(self, options["hook"])(fn)
        if isinstance(owner, type):
            self._patch(owner, attr, self.span(fn, name, layer, op_of))
            return
        # A module-level function: rebind every module that imported it.
        traced = self.span(fn, name, layer, op_of)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                self._patch(module, attr, traced)

    def _with_callback(self, fn: Callable, where: Any) -> Callable:
        wrap = self.callback

        def registering(*args, **kwargs):
            if isinstance(where, int):
                if len(args) > where:
                    args = args[:where] + (wrap(args[where]),) + args[where + 1:]
            elif kwargs.get(where) is not None:
                kwargs[where] = wrap(kwargs[where])
            return fn(*args, **kwargs)

        return registering

    def _counting_batches(self, send: Callable) -> Callable:
        from repro.protocol.messages import MuxBatch

        tracer = self

        def counted(network, src, dst, message, depth):
            if message.__class__ is MuxBatch:
                tracer.batches += 1
                tracer.batch_frames += len(message.frames)
            return send(network, src, dst, message, depth)

        return counted

    def _keeping_result(self, submit: Callable) -> Callable:
        ops = self.kv_ops

        def kept(*args, **kwargs):
            op = submit(*args, **kwargs)
            ops.append(op)
            return op

        return kept

    def _counted(self, fn: Callable, name: str, layer: str) -> Callable:
        self._layer_of.setdefault(name, layer)
        tracer = self

        def counted(*args, **kwargs):
            calls = tracer._state().calls
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_protocols(self) -> None:
        from repro.protocol import messages
        from repro.protocol.registry import ALL_PROTOCOLS

        defining = {}
        for cls in ALL_PROTOCOLS.values():
            for klass in cls.__mro__:
                for attr in _PROTOCOL_METHODS:
                    if attr in vars(klass):
                        defining[(klass, attr)] = None
        for klass, attr in defining:
            self._wrap(klass, attr, f"protocol.{attr}", "protocol", {})
        for class_name in _SIZED_MESSAGES:
            self._wrap(getattr(messages, class_name), "size", "protocol.size", "protocol", {})

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- results -----------------------------------------------------------

    def totals(self) -> Dict[str, Any]:
        """Per-layer self time, call counts and inclusive times.

        ``self_s`` holds each layer's self time over every thread.  On
        the workload thread, the layers' share of it plus
        ``unattributed_s`` is exactly ``wall_s``; ``other_threads_s`` is
        the layers' share on every other thread, so
        ``sum(self_s) + unattributed_s == wall_s + other_threads_s``.
        """
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: Dict[str, int] = {}
        other_calls: Dict[str, int] = {}
        inclusive: Dict[str, float] = {}
        self_by_name: Dict[str, float] = {}
        durations: Dict[str, List[float]] = {}
        unattributed = other = 0.0
        for state in self._states:
            main = state is self._main
            for name, seconds in state.self_time.items():
                self_by_name[name] = self_by_name.get(name, 0.0) + seconds
                layer = self._layer_of.get(name, UNATTRIBUTED)
                if layer != UNATTRIBUTED:
                    self_s[layer] += seconds
                    if not main:
                        other += seconds
                elif main:
                    unattributed += seconds
            for name, count in state.calls.items():
                calls[name] = calls.get(name, 0) + count
                if not main:
                    other_calls[name] = other_calls.get(name, 0) + count
            for name, seconds in state.inclusive.items():
                inclusive[name] = inclusive.get(name, 0.0) + seconds
            for name, values in state.durations.items():
                durations.setdefault(name, []).extend(values)
        return {
            "wall_s": self.wall_s,
            "self_s": self_s,
            "unattributed_s": unattributed,
            "other_threads_s": other,
            "calls": calls,
            "other_thread_calls": other_calls,
            "inclusive_s": inclusive,
            "self_by_name": self_by_name,
            "durations": durations,
        }
