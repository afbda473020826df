"""Structured traces of simulation runs.

Every interesting event in a run -- sends, deliveries, drops, stores,
invocations, replies, crashes, recoveries -- is recorded by one call::

    trace.tick(tracing.SEND, now, src, message.op, dst, message, size)

:meth:`Trace.tick` takes the event's coordinates ``(kind, time, pid,
op)`` and up to three positional detail values, which
:data:`DETAIL_FIELDS` names per kind.  What happens next depends on
who is looking:

* always, :meth:`Trace.count` is bumped and the coordinates go into
  the bounded flight recorder (:class:`repro.obs.ring.RingTrace`), so
  counts and the tail of any run are the same whether anyone captures
  or not;
* when the trace captures, the coordinates and detail values are
  appended to plain column lists, and :attr:`Trace.events`,
  :meth:`Trace.filter`, :meth:`Trace.format` and iteration render
  them into :class:`TraceEvent` objects only when read;
* when a listener is subscribed, a :class:`TraceEvent` is built at
  record time and handed to it synchronously, before the simulator
  processes the next event -- which is how the failure injector's
  triggers reproduce the instant-precise adversarial schedules of the
  lower-bound proofs.

With no capture and no listener a tick is a count plus four ring slot
stores: no event object, no detail dict, no per-call tuple.  That is
why the detail values are positional arguments rather than
``*args``/``**kwargs``.  They must be immutable, because capture keeps
them until read: a message is passed whole and its ``kind`` is read at
render time.

The trace feeds the failure injector, the metrics layer (latencies,
message counts, log counts per operation) and debugging (a trace
pretty-prints as a readable run transcript).  Recording never
schedules kernel events or consumes randomness, so seeded runs are
byte-identical with capture and the ring on or off
(``Trace(flight_recorder=False)`` disables the ring).
:data:`NULL_TRACE` is a module-level sink for components run without
any trace at all; it records nothing and refuses listeners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.ring import DEFAULT_CAPACITY, RingTrace

# Event kinds, kept as plain strings for cheap filtering.
SEND = "send"
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
STORE_BEGIN = "store_begin"
STORE_END = "store_end"
INVOKE = "invoke"
REPLY = "reply"
CRASH = "crash"
RECOVER = "recover"
RECOVERY_DONE = "recovery_done"
TIMER = "timer"
CKPT_BEGIN = "ckpt_begin"
CKPT_TENTATIVE = "ckpt_tentative"
CKPT_COMMIT = "ckpt_commit"

# The ring encodes kinds positionally (KIND_IDS below), so new kinds
# must be appended at the end to keep old flight-recorder exports
# decodable.
ALL_KINDS = (
    SEND,
    DELIVER,
    DROP,
    DUPLICATE,
    STORE_BEGIN,
    STORE_END,
    INVOKE,
    REPLY,
    CRASH,
    RECOVER,
    RECOVERY_DONE,
    TIMER,
    CKPT_BEGIN,
    CKPT_TENTATIVE,
    CKPT_COMMIT,
)

#: kind name -> ring code, the binary encoding of the flight recorder.
KIND_IDS = {kind: code for code, kind in enumerate(ALL_KINDS)}

#: kind -> the detail keys of its events, in detail order.  ``"op"``
#: is the event's op coordinate; every other name takes the next of
#: :meth:`Trace.tick`'s positional detail values, and ``"msg"`` is a
#: message rendered as its ``kind``.
DETAIL_FIELDS: Dict[str, Tuple[str, ...]] = {
    SEND: ("dst", "msg", "op", "size"),
    DELIVER: ("src", "msg", "op"),
    DROP: ("dst", "msg", "reason"),
    DUPLICATE: ("dst", "msg"),
    STORE_BEGIN: ("key", "size", "done_at", "op"),
    STORE_END: ("key", "size", "op"),
    INVOKE: ("op", "kind", "register"),
    REPLY: ("op", "kind", "causal_logs"),
    CRASH: (),
    RECOVER: (),
    RECOVERY_DONE: ("register",),
    TIMER: ("token", "register"),
    CKPT_BEGIN: ("seq", "entries"),
    CKPT_TENTATIVE: ("seq",),
    CKPT_COMMIT: ("seq", "entries", "truncated"),
}


@dataclass(frozen=True)
class TraceEvent:
    """One event of a simulation run."""

    time: float
    kind: str
    pid: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"{self.time * 1e6:10.1f}us p{self.pid} {self.kind:<13} {parts}"


Listener = Callable[[TraceEvent], None]


def _render(
    kind: str, time: float, pid: int, op: Any, a: Any, b: Any, c: Any
) -> TraceEvent:
    """The :class:`TraceEvent` of one recorded :meth:`Trace.tick`."""
    values = iter((a, b, c))
    detail: Dict[str, Any] = {}
    for name in DETAIL_FIELDS[kind]:
        if name == "op":
            detail[name] = op
        elif name == "msg":
            detail[name] = next(values).kind
        else:
            detail[name] = next(values)
    return TraceEvent(time=time, kind=kind, pid=pid, detail=detail)


class Trace:
    """Event counts, a flight recorder, optional capture, and listeners.

    Listeners run synchronously at record time, *before* the simulator
    processes the next event -- that is what lets a failure injector
    crash a process "immediately after its first store completes",
    mirroring the instant-precise schedules in the paper's proofs.
    A listener may subscribe to specific event ``kinds``; all-kind
    listeners run first.
    """

    def __init__(
        self,
        capture: bool = True,
        flight_recorder: bool = True,
        ring_capacity: int = DEFAULT_CAPACITY,
    ):
        self._capture = capture
        self._ring: Optional[RingTrace] = (
            RingTrace(capacity=ring_capacity, kinds=ALL_KINDS)
            if flight_recorder
            else None
        )
        #: Captured events, one list per :meth:`tick` argument: kind,
        #: time, pid, op and the three positional detail values.
        self._columns: Tuple[List[Any], ...] = ([], [], [], [], [], [], [])
        #: Listeners for every kind, in subscription order.
        self._all_listeners: List[Listener] = []
        #: kind -> listeners restricted to that kind.
        self._kind_listeners: Dict[str, List[Listener]] = {}
        self._counts: Dict[str, int] = {}
        #: Whether someone captures or listens, i.e. whether a tick
        #: does more than count and feed the ring.
        self._observed = capture

    @property
    def capturing(self) -> bool:
        """Whether recorded events are retained in :attr:`events`."""
        return self._capture

    @property
    def ring(self) -> Optional[RingTrace]:
        """The flight recorder, or ``None`` when disabled."""
        return self._ring

    def tick(
        self,
        kind: str,
        time: float = 0.0,
        pid: int = -1,
        op: Any = None,
        a: Any = None,
        b: Any = None,
        c: Any = None,
    ) -> None:
        """Record one ``kind`` event at ``time`` on process ``pid``.

        ``a``, ``b`` and ``c`` are the event's detail values, in the
        order :data:`DETAIL_FIELDS` names them for ``kind``.  They are
        only looked at when someone captures or listens.
        """
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        ring = self._ring
        if ring is not None:
            # RingTrace.record, inlined: this is the single hottest
            # telemetry line in the simulator (once per kernel event),
            # and skipping the method call keeps the always-on ring
            # within its overhead budget (see BENCH_trace.json).
            index = ring.next_index
            ring.times[index] = time
            ring.codes[index] = KIND_IDS[kind]
            ring.pids[index] = pid
            ring.ops[index] = op
            index += 1
            if index == ring.capacity:
                ring.next_index = 0
                ring.wraps += 1
            else:
                ring.next_index = index
        if self._observed:
            self._observe(kind, time, pid, op, a, b, c)

    #: ``perfbench/tracer.py`` wraps ``Trace.emit`` by name, so the
    #: name stays as an alias; nothing in the package calls it.
    emit = tick

    def _observe(
        self, kind: str, time: float, pid: int, op: Any, a: Any, b: Any, c: Any
    ) -> None:
        if self._capture:
            kinds, times, pids, ops, firsts, seconds, thirds = self._columns
            kinds.append(kind)
            times.append(time)
            pids.append(pid)
            ops.append(op)
            firsts.append(a)
            seconds.append(b)
            thirds.append(c)
        event = None
        if self._all_listeners:
            event = _render(kind, time, pid, op, a, b, c)
            for listener in list(self._all_listeners):
                listener(event)
        kind_listeners = self._kind_listeners.get(kind)
        if kind_listeners:
            if event is None:
                event = _render(kind, time, pid, op, a, b, c)
            for listener in list(kind_listeners):
                listener(event)

    def subscribe(
        self, listener: Listener, kinds: Optional[Sequence[str]] = None
    ) -> Callable[[], None]:
        """Register ``listener``; returns an unsubscribe function.

        With ``kinds=None`` the listener sees every event; with an
        explicit kind list it sees only those kinds.
        """
        if kinds is None:
            self._all_listeners.append(listener)
        else:
            for kind in kinds:
                self._kind_listeners.setdefault(kind, []).append(listener)
        self._observed = True

        def unsubscribe() -> None:
            if kinds is None:
                if listener in self._all_listeners:
                    self._all_listeners.remove(listener)
            else:
                for kind in kinds:
                    listeners = self._kind_listeners.get(kind, [])
                    if listener in listeners:
                        listeners.remove(listener)
                    if not listeners:
                        self._kind_listeners.pop(kind, None)
            self._observed = self._capture or bool(
                self._all_listeners or self._kind_listeners
            )

        return unsubscribe

    # -- queries ---------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All captured events, in recording order."""
        return list(self)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_render, *self._columns)

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` (works even when not capturing)."""
        return self._counts.get(kind, 0)

    def filter(
        self, kind: Optional[str] = None, pid: Optional[int] = None
    ) -> List[TraceEvent]:
        """Captured events matching the given kind and/or process."""
        return [
            event
            for event in self
            if (kind is None or event.kind == kind)
            and (pid is None or event.pid == pid)
        ]

    def format(self, kinds: Optional[List[str]] = None) -> str:
        """Human-readable transcript, optionally restricted to ``kinds``."""
        wanted = set(kinds) if kinds is not None else None
        return "\n".join(
            str(event) for event in self if wanted is None or event.kind in wanted
        )


class NullTrace(Trace):
    """A trace that records nothing.

    Components constructed without a trace share the module-level
    :data:`NULL_TRACE` singleton; it cannot capture and refuses
    listeners.  Counts are dropped too: on a process-wide singleton
    they would aggregate unrelated runs, so keeping them would only
    cost dict work on the hot path to produce a meaningless number.
    The flight recorder is off for the same reason.
    """

    def __init__(self):
        super().__init__(capture=False, flight_recorder=False)

    def subscribe(
        self, listener: Listener, kinds: Optional[Sequence[str]] = None
    ) -> Callable[[], None]:
        raise ValueError(
            "NULL_TRACE accepts no listeners; construct a Trace(capture=False) "
            "to observe a run without capturing it"
        )

    def tick(
        self,
        kind: str,
        time: float = 0.0,
        pid: int = -1,
        op: Any = None,
        a: Any = None,
        b: Any = None,
        c: Any = None,
    ) -> None:
        pass


#: Shared sink for components run without any trace.
NULL_TRACE = NullTrace()
