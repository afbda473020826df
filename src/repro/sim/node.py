"""Simulated process: hosts protocol instances and executes effects.

A :class:`SimNode` is the crash-recovery *process* of the model
(Section II).  It owns:

* one or more protocol state machines (volatile -- wiped by a crash);
* a :class:`~repro.sim.storage.SimStableStorage` (durable);
* the timers armed by the protocols (volatile);
* the causal-depth tracker used for the paper's log-complexity metric.

Multi-register hosting.  The paper's algorithms emulate one register;
a node therefore boots with a single anonymous *register slot* and
behaves exactly like the original single-register process.  The
key-value layer (:mod:`repro.kv`) provisions additional named slots
with :meth:`SimNode.provision_register`: each slot runs its own
protocol instance over a key-prefixed view of the node's stable
storage, client operations address a slot by register id (at most one
operation in flight *per slot* -- each virtual register is a sequential
process of the model), and wire traffic of named slots is namespaced in
:class:`~repro.protocol.messages.RegisterFrame` entries of
:class:`~repro.protocol.messages.MuxBatch` datagrams.  Frames to the
same destination emitted within the node's ``batch_window`` of virtual
time coalesce into a single datagram, which is how the KV layer turns
several same-shard operations into one quorum round-trip.

Crash semantics.  ``crash()`` bumps the node's *incarnation* counter;
every callback scheduled on behalf of the previous incarnation (timers,
store completions, egress flushes, message deliveries already queued)
checks the incarnation and becomes a no-op.  Every slot's volatile
state is wiped in place and pending client operations abort (their
invocations stay pending in the recorded history).  ``recover()`` runs
every slot's recovery procedure (or first boot, for slots provisioned
while the node was down); client operations are rejected until the
slot signals :class:`~repro.protocol.base.RecoveryComplete`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.common.errors import (
    NotRecoveredError,
    ProcessCrashed,
    ProtocolError,
)
from repro.common.ids import OperationId, ProcessId, make_operation_id
from repro.history.causal_logs import CausalDepthTracker
from repro.history.recorder import HistoryRecorder
from repro.protocol.messages import Message, MuxBatch, RegisterFrame
from repro.protocol.base import (
    Broadcast,
    CancelTimer,
    Checkpoint,
    Effect,
    RecoveryComplete,
    RegisterProtocol,
    Reply,
    Send,
    SetTimer,
    StableView,
    Store,
)
from repro.sim import tracing
from repro.storage import checkpoint as ckpt
from repro.sim.kernel import EventHandle, Kernel
from repro.sim.network import Envelope, SimNetwork
from repro.sim.storage import SimStableStorage
from repro.sim.tracing import NULL_TRACE, Trace

ProtocolFactory = Callable[[ProcessId, int, StableView], RegisterProtocol]

# Node lifecycle states.
UP = "up"
CRASHED = "crashed"
RECOVERING = "recovering"

#: Register id of the anonymous single-register slot every node boots
#: with (the classic deployment of the paper's algorithms).
DEFAULT_REGISTER: Optional[str] = None


class SimOperation:
    """Client-side handle of one invoked operation."""

    __slots__ = (
        "op",
        "pid",
        "kind",
        "value",
        "register",
        "done",
        "aborted",
        "result",
        "invoked_at",
        "completed_at",
        "causal_logs",
        "_callbacks",
    )

    def __init__(
        self,
        op: OperationId,
        pid: ProcessId,
        kind: str,
        value: Any,
        register: Optional[str] = None,
    ):
        self.op = op
        self.pid = pid
        self.kind = kind
        self.value = value
        self.register = register
        self.done = False
        self.aborted = False
        self.result: Any = None
        self.invoked_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.causal_logs: Optional[int] = None
        self._callbacks: List[Callable[["SimOperation"], None]] = []

    def add_callback(self, callback: Callable[["SimOperation"], None]) -> None:
        """Run ``callback(handle)`` when the operation settles.

        Fires immediately if the handle already settled.
        """
        if self.settled:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _settle(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    @property
    def settled(self) -> bool:
        """Whether the operation finished or aborted."""
        return self.done or self.aborted

    @property
    def latency(self) -> Optional[float]:
        if self.invoked_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.invoked_at

    def __repr__(self) -> str:
        state = "done" if self.done else ("aborted" if self.aborted else "pending")
        return f"SimOperation({self.op}, {self.kind}, {state})"


class _RegisterSlot:
    """One hosted register instance: protocol plus per-slot bookkeeping."""

    __slots__ = ("register", "prefix", "protocol", "current", "ready", "booted")

    def __init__(self, register: Optional[str], prefix: str, protocol: RegisterProtocol):
        self.register = register
        #: Stable-storage key prefix of this slot ("" for the default).
        self.prefix = prefix
        self.protocol = protocol
        #: Client operation in flight on this slot, if any.
        self.current: Optional[SimOperation] = None
        #: Whether the slot finished initialize/recover.
        self.ready = False
        #: Whether initialize() ever ran (slots provisioned while the
        #: node was crashed boot for the first time during recovery).
        self.booted = False


class SimNode:
    """One simulated crash-recovery process."""

    def __init__(
        self,
        pid: ProcessId,
        kernel: Kernel,
        network: SimNetwork,
        storage: SimStableStorage,
        protocol_factory: ProtocolFactory,
        recorder: HistoryRecorder,
        num_processes: int,
        trace: Optional[Trace] = None,
        batch_window: float = 0.0,
        checkpoint_interval: Optional[float] = None,
        recovery_scan: bool = False,
    ):
        if batch_window < 0:
            raise ProtocolError("batch_window must be >= 0")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ProtocolError("checkpoint_interval must be > 0")
        self.pid = pid
        self._kernel = kernel
        self._network = network
        self._storage = storage
        self._factory = protocol_factory
        self._recorder = recorder
        self._trace = NULL_TRACE if trace is None else trace
        self._num_processes = num_processes
        self.batch_window = batch_window
        #: Virtual seconds between periodic checkpoints (None = never).
        self.checkpoint_interval = checkpoint_interval
        #: Whether recovery bills a scan of the whole log before the
        #: protocols run (see SimStableStorage.recovery_scan_latency).
        self.recovery_scan = recovery_scan

        self.state = UP
        self.incarnation = 0
        self.crash_count = 0
        self._booted = False
        #: Wall (virtual) duration of each completed crash-recovery.
        self.recovery_times: List[float] = []
        #: Optional observer called with each recovery duration.
        self.on_recovery_time: Optional[Callable[[float], None]] = None
        self._recover_began: Optional[float] = None
        self._scanning = False

        # Last committed checkpoint: snapshot records (shared with the
        # StableView, updated in place), their billed sizes, and the
        # checkpoint sequence number.
        self._snapshot: Dict[str, Tuple[Any, ...]] = {}
        self._snapshot_sizes: Dict[str, int] = {}
        self._ckpt_seq = 0
        self._ckpt_in_progress = False
        self.checkpoints_committed = 0

        self._stable_view = StableView(storage.records, self._snapshot)
        self._slots: Dict[Optional[str], _RegisterSlot] = {}
        #: Hosted slots whose ``ready`` flag is False, so that
        #: :attr:`ready` costs O(1) however many registers the node hosts.
        self._not_ready = 0
        self._add_slot(DEFAULT_REGISTER)
        self._depths = CausalDepthTracker()
        self._timers: Dict[Tuple[Optional[str], Hashable], EventHandle] = {}
        # Egress coalescing of named-slot frames, per destination.
        self._pending_frames: Dict[ProcessId, List[RegisterFrame]] = {}
        self._flush_scheduled: Set[ProcessId] = set()

        network.attach(pid, self._on_envelope)

    def _add_slot(self, register: Optional[str]) -> _RegisterSlot:
        if register is None:
            prefix, stable = "", self._stable_view
        else:
            prefix = f"{register}/"
            stable = self._stable_view.scoped(prefix)
        protocol = self._factory(self.pid, self._num_processes, stable)
        protocol.register = register
        slot = _RegisterSlot(register, prefix, protocol)
        self._slots[register] = slot
        self._not_ready += 1
        return slot

    # -- register hosting --------------------------------------------------

    @property
    def protocol(self) -> RegisterProtocol:
        """The default (anonymous) register's protocol instance."""
        return self._slots[DEFAULT_REGISTER].protocol

    @property
    def registers(self) -> List[Optional[str]]:
        """Ids of all hosted register slots (``None`` is the default)."""
        return list(self._slots)

    def has_register(self, register: Optional[str]) -> bool:
        return register in self._slots

    def register_ready(self, register: Optional[str]) -> bool:
        """Whether ``register`` exists, is initialized, and is idle-capable."""
        slot = self._slots.get(register)
        return slot is not None and slot.ready and self.state != CRASHED

    def register_protocol(self, register: Optional[str]) -> RegisterProtocol:
        return self._slot(register).protocol

    def register_busy(self, register: Optional[str]) -> bool:
        """Whether ``register`` has a client operation in flight."""
        slot = self._slot(register)
        if slot.current is not None and not slot.current.settled:
            return True
        return bool(getattr(slot.protocol, "busy", False))

    def provision_register(self, register: str) -> None:
        """Host a new named register instance on this node.

        On an up-and-running node the slot initializes immediately (its
        first records must become durable before it accepts
        operations); on a crashed node the slot is created dormant and
        boots when the node recovers.  Provisioning is idempotent.
        """
        if register is None:
            raise ProtocolError("the default register always exists")
        if register in self._slots:
            return
        slot = self._add_slot(register)
        if self._booted and self.state != CRASHED:
            self._boot_slot(slot)

    def _slot(self, register: Optional[str]) -> _RegisterSlot:
        slot = self._slots.get(register)
        if slot is None:
            raise ProtocolError(
                f"process {self.pid} hosts no register {register!r}"
            )
        return slot

    # -- lifecycle ---------------------------------------------------------

    def boot(self) -> None:
        """Run every slot's ``Initialize`` procedure."""
        self._booted = True
        for slot in list(self._slots.values()):
            self._boot_slot(slot)
        self._arm_checkpoint_timer()

    def _boot_slot(self, slot: _RegisterSlot) -> None:
        slot.booted = True
        effects = slot.protocol.initialize()
        self._execute(effects, depth=0, op=None, slot=slot)

    def crash(self) -> None:
        """Crash the process: volatile state and timers are lost."""
        if self.state == CRASHED:
            raise ProcessCrashed(f"process {self.pid} is already crashed")
        self.state = CRASHED
        self.incarnation += 1
        self.crash_count += 1
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._pending_frames.clear()
        self._flush_scheduled.clear()
        self._ckpt_in_progress = False
        self._scanning = False
        self._recover_began = None
        self._storage.crash()
        self._depths.reset()
        for slot in self._slots.values():
            slot.protocol.crash()
            slot.ready = False
            if slot.current is not None and not slot.current.settled:
                slot.current.aborted = True
                slot.current._settle()
            slot.current = None
        self._not_ready = len(self._slots)
        self._recorder.record_crash(self.pid)
        self._trace.tick(tracing.CRASH, self._kernel.now, self.pid)

    def recover(self) -> None:
        """Restart the process and run every slot's recovery procedure.

        With :attr:`recovery_scan` on, the process first pays for
        reading its whole log back from the device (linear in the
        un-compacted log -- the cost checkpoints exist to bound) and
        only then runs the protocols' recovery procedures; messages
        arriving during the scan are dropped, as for a crashed process.
        """
        if self.state != CRASHED:
            raise ProtocolError(f"process {self.pid} is not crashed")
        self.state = RECOVERING
        self._recover_began = self._kernel.now
        self._recorder.record_recovery(self.pid)
        self._trace.tick(tracing.RECOVER, self._kernel.now, self.pid)
        if self.recovery_scan:
            self._scanning = True
            self._kernel.schedule(
                self._storage.recovery_scan_latency(),
                self._finish_recover,
                self.incarnation,
            )
            return
        self._finish_recover(self.incarnation)

    def _finish_recover(self, incarnation: int) -> None:
        if incarnation != self.incarnation or self.state != RECOVERING:
            return  # crashed again while the scan was in progress
        self._scanning = False
        self._load_snapshot()
        for slot in list(self._slots.values()):
            if not slot.booted:
                # Provisioned while the node was down: first boot now.
                self._boot_slot(slot)
                continue
            effects = slot.protocol.recover()
            self._execute(effects, depth=0, op=None, slot=slot)
        self._arm_checkpoint_timer()

    def _load_snapshot(self) -> None:
        """Rebuild the in-memory snapshot from the durable permanent record.

        A stray tentative record (crash between the two checkpoint
        phases) is ignored: the truncations it would have justified
        never happened, so the previous snapshot plus the intact log
        suffix is still complete.
        """
        seq, records, sizes = ckpt.load_snapshot(
            self._storage.retrieve(ckpt.PERMANENT_KEY)
        )
        self._ckpt_seq = seq
        self._snapshot.clear()
        self._snapshot.update(records)
        self._snapshot_sizes = dict(sizes)

    # -- checkpointing -----------------------------------------------------

    def _arm_checkpoint_timer(self) -> None:
        if self.checkpoint_interval is None:
            return
        self._kernel.schedule(
            self.checkpoint_interval, self._checkpoint_tick, self.incarnation
        )

    def _checkpoint_tick(self, incarnation: int) -> None:
        if incarnation != self.incarnation or self.state == CRASHED:
            return  # a crash killed this timer chain; recovery re-arms
        if self.state == UP and not self._ckpt_in_progress:
            self.begin_checkpoint()
        self._arm_checkpoint_timer()

    def begin_checkpoint(self) -> bool:
        """Start a two-phase checkpoint; returns whether one began.

        Captures the records of every *idle* register slot (no client
        operation in flight, recovery complete): idle means the slot's
        last write completed, i.e. its value reached a majority, so
        recovery may skip the replay round for a record that survives
        only in the snapshot.  Busy slots keep their live log entries
        and recover the normal way.  The captured records are merged
        over the previous snapshot so the permanent record alone is
        always a complete restore point.

        No-op while crashed/recovering, while another checkpoint is in
        progress, or when no new records are capturable.
        """
        if self.state != UP or self._ckpt_in_progress:
            return False
        idle = [
            slot.prefix
            for slot in self._slots.values()
            if slot.ready
            and (slot.current is None or slot.current.settled)
            and not getattr(slot.protocol, "busy", False)
        ]
        live = self._storage.records
        keys = ckpt.capturable_keys(live.keys(), idle)
        # Only re-snapshot keys whose live record moved past the
        # snapshot; unchanged state needs no new checkpoint.
        fresh = {
            key: live[key]
            for key in keys
            if self._snapshot.get(key) != live[key]
        }
        if not fresh:
            return False
        captured = dict(self._snapshot)
        captured.update(fresh)
        sizes = dict(self._snapshot_sizes)
        for key in fresh:
            sizes[key] = self._storage.record_size(key)
        seq = self._ckpt_seq + 1
        record = ckpt.build_snapshot_record(seq, captured, sizes)
        size = ckpt.snapshot_store_size(sizes.values())
        self._ckpt_in_progress = True
        self._trace.tick(
            tracing.CKPT_BEGIN, self._kernel.now, self.pid, None, seq, len(captured)
        )
        incarnation = self.incarnation
        self._storage.store(
            ckpt.TENTATIVE_KEY,
            record,
            size,
            on_durable=lambda: self._on_ckpt_tentative(
                incarnation, seq, record, size, fresh, captured, sizes
            ),
        )
        return True

    def _on_ckpt_tentative(
        self,
        incarnation: int,
        seq: int,
        record: Tuple[Any, ...],
        size: int,
        fresh: Dict[str, Tuple[Any, ...]],
        captured: Dict[str, Tuple[Any, ...]],
        sizes: Dict[str, int],
    ) -> None:
        if incarnation != self.incarnation or self.state != UP:
            return
        self._trace.tick(tracing.CKPT_TENTATIVE, self._kernel.now, self.pid, None, seq)
        # A trace trigger (TornStore) may have crashed us during the
        # tick above -- exactly between the two phases; the permanent
        # store must then never be issued.
        if incarnation != self.incarnation or self.state != UP:
            return
        self._storage.store(
            ckpt.PERMANENT_KEY,
            record,
            size,
            on_durable=lambda: self._on_ckpt_commit(
                incarnation, seq, fresh, captured, sizes
            ),
        )

    def _on_ckpt_commit(
        self,
        incarnation: int,
        seq: int,
        fresh: Dict[str, Tuple[Any, ...]],
        captured: Dict[str, Tuple[Any, ...]],
        sizes: Dict[str, int],
    ) -> None:
        if incarnation != self.incarnation or self.state != UP:
            return
        self._ckpt_seq = seq
        self._snapshot.clear()
        self._snapshot.update(captured)
        self._snapshot_sizes = sizes
        # Truncate the log entries the snapshot supersedes -- but only
        # where the live record is still the captured one; a store that
        # landed after capture re-creates the key and must survive so
        # recovery replays it the normal way.
        storage = self._storage
        live = storage.records
        truncated = 0
        for key, captured_record in fresh.items():
            if live.get(key) == captured_record:
                storage.delete(key)
                truncated += 1
        storage.delete(ckpt.TENTATIVE_KEY)
        storage.compact()
        self._ckpt_in_progress = False
        self.checkpoints_committed += 1
        self._trace.tick(
            tracing.CKPT_COMMIT,
            self._kernel.now,
            self.pid,
            None,
            seq,
            len(captured),
            truncated,
        )

    @property
    def ready(self) -> bool:
        """Whether every hosted slot finished initializing/recovering."""
        return self._not_ready == 0 and self.state != CRASHED

    @property
    def crashed(self) -> bool:
        return self.state == CRASHED

    @property
    def storage(self) -> SimStableStorage:
        """The process's stable storage (durable across crashes)."""
        return self._storage

    # -- client operations -----------------------------------------------------

    def invoke_read(self, register: Optional[str] = None) -> SimOperation:
        """Invoke a read; returns a handle that settles as the run advances."""
        return self._invoke("read", None, register)

    def invoke_write(
        self, value: Any, register: Optional[str] = None
    ) -> SimOperation:
        """Invoke a write of ``value``."""
        return self._invoke("write", value, register)

    def _invoke(
        self, kind: str, value: Any, register: Optional[str]
    ) -> SimOperation:
        if self.state == CRASHED:
            raise ProcessCrashed(f"process {self.pid} is crashed")
        slot = self._slot(register)
        if not slot.ready:
            raise NotRecoveredError(
                f"process {self.pid} register {register!r} has not finished "
                f"initializing/recovering"
            )
        if slot.current is not None and not slot.current.settled:
            raise ProtocolError(
                f"process {self.pid} already has an operation in flight "
                f"on register {register!r}"
            )
        op = make_operation_id(self.pid)
        handle = SimOperation(op, self.pid, kind, value, register=register)
        handle.invoked_at = self._kernel.now
        slot.current = handle
        self._recorder.record_invoke(op, self.pid, kind, value)
        if register is not None:
            self._recorder.record_register(op, register)
        self._trace.tick(tracing.INVOKE, self._kernel.now, self.pid, op, kind, register)
        self._depths.observe(op, 0)
        if kind == "read":
            effects = slot.protocol.invoke_read(op)
        else:
            effects = slot.protocol.invoke_write(op, value)
        self._execute(effects, depth=0, op=op, slot=slot)
        return handle

    # -- event entry points ---------------------------------------------------

    def _on_envelope(self, envelope: Envelope) -> None:
        if self.state == CRASHED or self._scanning:
            # A crashed process receives nothing; one still scanning
            # its log back is not listening yet either.
            return
        message = envelope.message
        if message.__class__ is MuxBatch:
            for frame in message.frames:
                slot = self._slots.get(frame.register)
                if slot is None:
                    # A frame for a register this node does not host
                    # yet (provisioning raced a delivery); drop it --
                    # fair-lossy channels allow it, the sender
                    # retransmits.
                    continue
                inner = frame.message
                context = self._depths.observe(inner.op, frame.depth)
                effects = slot.protocol.on_message(envelope.src, inner)
                self._execute(effects, depth=context, op=inner.op, slot=slot)
            return
        slot = self._slots[DEFAULT_REGISTER]
        context = self._depths.observe(message.op, envelope.depth)
        effects = slot.protocol.on_message(envelope.src, message)
        self._execute(effects, depth=context, op=message.op, slot=slot)

    def _on_store_durable(
        self,
        token: Hashable,
        issue_depth: int,
        op: Optional[OperationId],
        incarnation: int,
        register: Optional[str],
    ) -> None:
        if incarnation != self.incarnation or self.state == CRASHED:
            return
        slot = self._slots.get(register)
        if slot is None:
            return
        depth = self._depths.record_store(op, issue_depth)
        effects = slot.protocol.on_store_complete(token)
        self._execute(effects, depth=depth, op=op, slot=slot)

    def _on_timer(
        self,
        token: Hashable,
        depth: int,
        op: Optional[OperationId],
        incarnation: int,
        register: Optional[str],
    ) -> None:
        if incarnation != self.incarnation or self.state == CRASHED:
            return
        slot = self._slots.get(register)
        if slot is None:
            return
        self._timers.pop((register, token), None)
        self._trace.tick(tracing.TIMER, self._kernel.now, self.pid, op, token, register)
        effects = slot.protocol.on_timer(token)
        self._execute(effects, depth=depth, op=op, slot=slot)

    # -- effect execution ----------------------------------------------------------

    def _execute(
        self,
        effects: List[Effect],
        depth: int,
        op: Optional[OperationId],
        slot: _RegisterSlot,
    ) -> None:
        # Effects are a closed set of final classes (the sans-io
        # contract of protocol/base.py), so dispatch on class identity:
        # an isinstance ladder costs several calls per effect on the
        # engine's hottest path.
        for effect in effects:
            cls = effect.__class__
            if cls is Send:
                out_depth = self._outgoing_depth(effect.message, depth, op)
                self._dispatch(slot, effect.dst, effect.message, out_depth)
            elif cls is Broadcast:
                out_depth = self._outgoing_depth(effect.message, depth, op)
                if slot.register is None:
                    self._network.broadcast(self.pid, effect.message, out_depth)
                else:
                    for dst in range(self._num_processes):
                        self._dispatch(slot, dst, effect.message, out_depth)
            elif cls is Store:
                self._storage.store(
                    slot.prefix + effect.key,
                    effect.record,
                    effect.size,
                    on_durable=self._make_store_callback(
                        effect.token, depth, op, self.incarnation, slot.register
                    ),
                    op=op,
                )
            elif cls is Reply:
                self._complete_operation(effect, depth, slot)
            elif cls is SetTimer:
                self._set_timer(effect, depth, op, slot)
            elif cls is CancelTimer:
                handle = self._timers.pop((slot.register, effect.token), None)
                if handle is not None:
                    handle.cancel()
            elif cls is RecoveryComplete:
                if not slot.ready:
                    slot.ready = True
                    self._not_ready -= 1
                if self.state != UP and self._not_ready == 0:
                    self.state = UP
                    if self._recover_began is not None:
                        duration = self._kernel.now - self._recover_began
                        self._recover_began = None
                        self.recovery_times.append(duration)
                        if self.on_recovery_time is not None:
                            self.on_recovery_time(duration)
                self._trace.tick(
                    tracing.RECOVERY_DONE,
                    self._kernel.now,
                    self.pid,
                    None,
                    slot.register,
                )
            elif cls is Checkpoint:
                self.begin_checkpoint()
            else:
                raise ProtocolError(f"unknown effect {type(effect).__name__}")

    # -- egress multiplexing ---------------------------------------------------

    def _dispatch(
        self,
        slot: _RegisterSlot,
        dst: ProcessId,
        message: Message,
        depth: int,
    ) -> None:
        """Send directly (default slot) or through the frame batcher."""
        if slot.register is None:
            self._network.send(self.pid, dst, message, depth)
            return
        frame = RegisterFrame(register=slot.register, depth=depth, message=message)
        if self.batch_window == 0.0:
            # No window, no coalescing: one datagram per frame, the
            # honest unbatched baseline the benchmarks sweep against.
            self._network.send(
                self.pid, dst, MuxBatch(op=None, round_no=0, frames=(frame,)), 0
            )
            return
        self._pending_frames.setdefault(dst, []).append(frame)
        if dst not in self._flush_scheduled:
            self._flush_scheduled.add(dst)
            self._kernel.schedule(
                self.batch_window, self._flush_frames, dst, self.incarnation
            )

    def _flush_frames(self, dst: ProcessId, incarnation: int) -> None:
        self._flush_scheduled.discard(dst)
        frames = self._pending_frames.pop(dst, None)
        if incarnation != self.incarnation or self.state == CRASHED:
            return  # frames queued by a dead incarnation die with it
        if not frames:
            return
        batch = MuxBatch(op=None, round_no=0, frames=tuple(frames))
        self._network.send(self.pid, dst, batch, depth=0)

    def _outgoing_depth(
        self,
        message: "Message",
        handler_depth: int,
        handler_op: Optional[OperationId],
    ) -> int:
        """Causal-log depth to stamp on an outgoing message.

        The handler's depth context belongs to ``handler_op``; a message
        for a *different* operation (e.g. a parked acknowledgment
        released by another operation's store completion) must not
        inherit it -- the paper's metric attributes a log to the
        operation that performs it, not to operations that merely wait
        behind it on the device.

        Local log history is folded in for *acknowledgments* only: an
        ack certifies a log this process performed for the operation
        and must carry its depth (even when resent after the original
        was lost).  A retransmitted request, by contrast, carries the
        depth its round was started at -- the algorithm does not
        require any further log before it, so incidental process-order
        (e.g. the writer's own ``written`` log completing before a
        retransmission) must not inflate the operation's measured cost.
        """
        message_op = message.op
        inherited = handler_depth if message_op == handler_op else 0
        if not message.is_ack:
            return inherited
        return self._depths.outgoing_depth(message_op, inherited)

    def _make_store_callback(
        self,
        token: Hashable,
        depth: int,
        op: Optional[OperationId],
        incarnation: int,
        register: Optional[str],
    ) -> Callable[[], None]:
        def callback() -> None:
            self._on_store_durable(token, depth, op, incarnation, register)

        return callback

    def _set_timer(
        self,
        effect: SetTimer,
        depth: int,
        op: Optional[OperationId],
        slot: _RegisterSlot,
    ) -> None:
        key = (slot.register, effect.token)
        existing = self._timers.pop(key, None)
        if existing is not None:
            existing.cancel()
        handle = self._kernel.schedule_cancellable(
            effect.delay,
            self._on_timer,
            effect.token,
            depth,
            op,
            self.incarnation,
            slot.register,
        )
        self._timers[key] = handle

    def _complete_operation(
        self, effect: Reply, depth: int, slot: _RegisterSlot
    ) -> None:
        handle = slot.current
        if handle is None or handle.op != effect.op:
            # A reply for an operation that was aborted by a crash of
            # this process cannot happen (incarnation guards), so this
            # is a protocol bug worth failing loudly on.
            raise ProtocolError(
                f"process {self.pid} replied to unknown operation {effect.op}"
            )
        causal = max(depth, self._depths.depth_of(effect.op))
        handle.done = True
        handle.result = effect.result
        handle.completed_at = self._kernel.now
        handle.causal_logs = causal
        slot.current = None
        self._recorder.record_reply(effect.op, self.pid, handle.kind, effect.result)
        self._recorder.record_causal_logs(effect.op, causal)
        if effect.tag is not None:
            self._recorder.record_tag(effect.op, effect.tag)
        self._trace.tick(
            tracing.REPLY, self._kernel.now, self.pid, effect.op, handle.kind, causal
        )
        handle._settle()
