"""Asyncio host for a process's protocol instances.

Mirrors :class:`repro.sim.node.SimNode` -- effect execution, causal-log
accounting, crash/recovery semantics, multi-register hosting -- on real
time and real I/O:

* :class:`~repro.protocol.base.Store` effects run the file write (with
  ``fsync``) in a thread-pool executor, completing the protocol event
  when durable;
* :class:`~repro.protocol.base.SetTimer` uses ``loop.call_later``;
* crash emulation mutes the transport, cancels timers, voids in-flight
  stores via an incarnation counter, and wipes the protocols' volatile
  state -- everything a real ``kill -9`` would do to the algorithm,
  inside one OS process so tests stay hermetic.

Like the simulated node, a runtime node boots with one anonymous
register slot and can host additional named register instances
(:meth:`RuntimeNode.provision_register`) for the key-value layer.
Named-slot traffic crosses the UDP transport wrapped in single-frame
:class:`~repro.protocol.messages.MuxBatch` datagrams; the simulator's
time-window egress coalescing has no equivalent here yet (real-time
batching needs flow-control decisions the runtime does not make).
"""

from __future__ import annotations

import asyncio
import pickle
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.common.errors import (
    NotRecoveredError,
    ProcessCrashed,
    ProtocolError,
)
from repro.common.ids import OperationId, ProcessId, make_operation_id
from repro.history.causal_logs import CausalDepthTracker
from repro.history.recorder import HistoryRecorder
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
from repro.protocol.messages import Message, MuxBatch, RegisterFrame
from repro.runtime.storage import FileStableStorage
from repro.runtime.transport import UdpTransport
from repro.storage import checkpoint as ckpt


class RuntimeOperation:
    """Client handle: an :class:`asyncio.Future` plus metadata."""

    def __init__(self, op: OperationId, kind: str, value: Any,
                 register: Optional[str] = None):
        self.op = op
        self.kind = kind
        self.value = value
        self.register = register
        self.future: asyncio.Future = asyncio.get_event_loop().create_future()
        self.causal_logs: Optional[int] = None


class _RuntimeSlot:
    """One hosted register instance of a runtime node."""

    __slots__ = ("register", "prefix", "protocol", "current", "ready", "booted")

    def __init__(self, register: Optional[str], prefix: str,
                 protocol: RegisterProtocol):
        self.register = register
        self.prefix = prefix
        self.protocol = protocol
        self.current: Optional[RuntimeOperation] = None
        self.ready = False
        self.booted = False


class RuntimeNode:
    """One live process of the emulation."""

    def __init__(
        self,
        pid: ProcessId,
        num_processes: int,
        protocol_factory,
        storage_root: Path,
        recorder: HistoryRecorder,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.pid = pid
        self.num_processes = num_processes
        self.transport = UdpTransport(pid, host=host, port=port)
        self.storage = FileStableStorage(Path(storage_root) / f"node-{pid}")
        self._factory = protocol_factory
        self._recorder = recorder
        self._snapshot: Dict[str, Tuple[Any, ...]] = {}
        self._snapshot_sizes: Dict[str, int] = {}
        self._ckpt_seq = 0
        self.checkpoints_committed = 0
        self._load_snapshot()
        self._slots: Dict[Optional[str], _RuntimeSlot] = {}
        #: Hosted slots whose ``ready`` flag is False (O(1) :attr:`ready`).
        self._not_ready = 0
        self._add_slot(None)
        self._depths = CausalDepthTracker()
        self._timers: Dict[Tuple[Optional[str], Hashable], asyncio.TimerHandle] = {}
        #: storage key -> its last issued store task; each store of a key
        #: waits for the previous one, so stores land in issue order.
        self._store_tails: Dict[str, asyncio.Task] = {}
        self.crashed = False
        self.incarnation = 0
        self.recoveries = 0
        self._booted = False

    def _add_slot(self, register: Optional[str]) -> _RuntimeSlot:
        prefix = "" if register is None else f"{register}/"
        stable = StableView(self.storage.records, self._snapshot)
        if register is not None:
            stable = stable.scoped(prefix)
        protocol = self._factory(self.pid, self.num_processes, stable)
        protocol.register = register
        slot = _RuntimeSlot(register, prefix, protocol)
        self._slots[register] = slot
        self._not_ready += 1
        return slot

    # -- register hosting --------------------------------------------------

    @property
    def protocol(self) -> RegisterProtocol:
        """The default (anonymous) register's protocol instance."""
        return self._slots[None].protocol

    @property
    def ready(self) -> bool:
        return self._not_ready == 0 and not self.crashed

    def has_register(self, register: Optional[str]) -> bool:
        return register in self._slots

    def register_ready(self, register: Optional[str]) -> bool:
        slot = self._slots.get(register)
        return slot is not None and slot.ready and not self.crashed

    def provision_register(self, register: str) -> None:
        """Host a new named register instance (idempotent).

        Boots immediately on a live node; dormant until recovery on a
        crashed one.
        """
        if register in self._slots:
            return
        slot = self._add_slot(register)
        if self._booted and not self.crashed:
            self._boot_slot(slot)

    def registers(self) -> List[Optional[str]]:
        """Register ids hosted here (``None`` is the anonymous slot)."""
        return list(self._slots)

    def _slot(self, register: Optional[str]) -> _RuntimeSlot:
        slot = self._slots.get(register)
        if slot is None:
            raise ProtocolError(f"node {self.pid} hosts no register {register!r}")
        return slot

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the transport.  Peers are installed by the cluster."""
        await self.transport.start(self._on_message)

    def boot(self) -> None:
        """Run every slot's Initialize procedure."""
        self._booted = True
        for slot in list(self._slots.values()):
            self._boot_slot(slot)

    def _boot_slot(self, slot: _RuntimeSlot) -> None:
        slot.booted = True
        self._execute(slot.protocol.initialize(), depth=0, op=None, slot=slot)

    def crash(self) -> None:
        """Emulate a crash of this process."""
        if self.crashed:
            raise ProcessCrashed(f"node {self.pid} already crashed")
        self.crashed = True
        self.incarnation += 1
        self.transport.muted = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._depths.reset()
        for slot in self._slots.values():
            slot.protocol.crash()
            slot.ready = False
            if slot.current is not None and not slot.current.future.done():
                slot.current.future.cancel()
            slot.current = None
        self._not_ready = len(self._slots)
        self._recorder.record_crash(self.pid)

    def recover(self) -> None:
        """Restart: reload durable state and run every recovery procedure."""
        if not self.crashed:
            raise ProtocolError(f"node {self.pid} is not crashed")
        self.crashed = False
        self.recoveries += 1
        self.transport.muted = False
        self.storage.reload_from_disk()
        self._load_snapshot()
        self._recorder.record_recovery(self.pid)
        base = StableView(self.storage.records, self._snapshot)
        for slot in list(self._slots.values()):
            if slot.register is None:
                slot.protocol.stable = base
            else:
                slot.protocol.stable = base.scoped(slot.prefix)
            if not slot.booted:
                self._boot_slot(slot)
                continue
            self._execute(slot.protocol.recover(), depth=0, op=None, slot=slot)

    def _load_snapshot(self) -> None:
        """Rebuild the in-memory snapshot from the durable permanent record.

        As in the simulator, a stray tentative record (crash between
        the two checkpoint phases) is ignored: its truncations never
        happened, so the previous permanent snapshot plus the intact
        log suffix is still a complete restore point.
        """
        seq, records, sizes = ckpt.load_snapshot(
            self.storage.retrieve(ckpt.PERMANENT_KEY)
        )
        self._ckpt_seq = seq
        self._snapshot.clear()
        self._snapshot.update(records)
        self._snapshot_sizes = dict(sizes)

    def checkpoint(self) -> bool:
        """Run one two-phase checkpoint now; returns whether one committed.

        The runtime twin of ``SimNode.begin_checkpoint``, collapsed to
        a single synchronous call because :class:`FileStableStorage`
        stores are synchronous: tentative store, permanent store,
        truncate the captured records, drop the tentative.  Captures
        only *idle* slots (no operation in flight, recovery complete),
        whose last write reached a majority.  Blocks the event loop for
        two fsyncs -- callers drive it from tests or maintenance hooks,
        not the datapath.
        """
        if self.crashed:
            return False
        idle = [
            slot.prefix
            for slot in self._slots.values()
            if slot.ready
            and (slot.current is None or slot.current.future.done())
            and not getattr(slot.protocol, "busy", False)
        ]
        live = self.storage.records
        keys = ckpt.capturable_keys(live.keys(), idle)
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
            sizes[key] = len(pickle.dumps((key, fresh[key])))
        seq = self._ckpt_seq + 1
        record = ckpt.build_snapshot_record(seq, captured, sizes)
        size = ckpt.snapshot_store_size(sizes.values())
        self.storage.store(ckpt.TENTATIVE_KEY, record, size)
        self.storage.store(ckpt.PERMANENT_KEY, record, size)
        self._ckpt_seq = seq
        self._snapshot.clear()
        self._snapshot.update(captured)
        self._snapshot_sizes = sizes
        for key, captured_record in fresh.items():
            if live.get(key) == captured_record:
                self.storage.delete(key)
        self.storage.delete(ckpt.TENTATIVE_KEY)
        self.checkpoints_committed += 1
        return True

    async def wait_ready(self, timeout: float = 5.0) -> None:
        deadline = asyncio.get_event_loop().time() + timeout
        while not self.ready:
            if asyncio.get_event_loop().time() > deadline:
                raise ProtocolError(f"node {self.pid} did not become ready")
            await asyncio.sleep(0.005)

    async def wait_register_ready(
        self, register: str, timeout: float = 5.0
    ) -> None:
        deadline = asyncio.get_event_loop().time() + timeout
        while not self.register_ready(register):
            if asyncio.get_event_loop().time() > deadline:
                raise ProtocolError(
                    f"node {self.pid} register {register!r} did not become ready"
                )
            await asyncio.sleep(0.005)

    def close(self) -> None:
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self.transport.close()

    # -- client operations -----------------------------------------------------

    async def write(
        self, value: Any, timeout: float = 10.0, register: Optional[str] = None
    ) -> RuntimeOperation:
        return await self._invoke("write", value, timeout, register)

    async def read(
        self, timeout: float = 10.0, register: Optional[str] = None
    ) -> RuntimeOperation:
        return await self._invoke("read", None, timeout, register)

    async def _invoke(
        self, kind: str, value: Any, timeout: float, register: Optional[str]
    ) -> RuntimeOperation:
        if self.crashed:
            raise ProcessCrashed(f"node {self.pid} is crashed")
        slot = self._slot(register)
        if not slot.ready:
            raise NotRecoveredError(
                f"node {self.pid} register {register!r} is not ready"
            )
        if slot.current is not None and not slot.current.future.done():
            raise ProtocolError(
                f"node {self.pid} has an operation in flight on "
                f"register {register!r}"
            )
        op = make_operation_id(self.pid)
        handle = RuntimeOperation(op, kind, value, register=register)
        slot.current = handle
        self._recorder.record_invoke(op, self.pid, kind, value)
        if register is not None:
            self._recorder.record_register(op, register)
        self._depths.observe(op, 0)
        if kind == "write":
            effects = slot.protocol.invoke_write(op, value)
        else:
            effects = slot.protocol.invoke_read(op)
        self._execute(effects, depth=0, op=op, slot=slot)
        await asyncio.wait_for(handle.future, timeout=timeout)
        return handle

    # -- event entry points ---------------------------------------------------

    def _on_message(self, src: ProcessId, depth: int, message: Message) -> None:
        if self.crashed:
            return
        if isinstance(message, MuxBatch):
            for frame in message.frames:
                slot = self._slots.get(frame.register)
                if slot is None:
                    continue  # provisioning raced a delivery; sender retries
                inner = frame.message
                context = self._depths.observe(inner.op, frame.depth)
                effects = slot.protocol.on_message(src, inner)
                self._execute(effects, depth=context, op=inner.op, slot=slot)
            return
        slot = self._slots[None]
        context = self._depths.observe(message.op, depth)
        effects = slot.protocol.on_message(src, message)
        self._execute(effects, depth=context, op=message.op, slot=slot)

    def _on_store_durable(
        self,
        token: Hashable,
        issue_depth: int,
        op: Optional[OperationId],
        incarnation: int,
        register: Optional[str],
    ) -> None:
        if incarnation != self.incarnation or self.crashed:
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
        if incarnation != self.incarnation or self.crashed:
            return
        slot = self._slots.get(register)
        if slot is None:
            return
        self._timers.pop((register, token), None)
        effects = slot.protocol.on_timer(token)
        self._execute(effects, depth=depth, op=op, slot=slot)

    # -- effect execution ----------------------------------------------------------

    def _execute(
        self,
        effects: List[Effect],
        depth: int,
        op: Optional[OperationId],
        slot: _RuntimeSlot,
    ) -> None:
        loop = asyncio.get_event_loop()
        for effect in effects:
            if isinstance(effect, Send):
                out_depth = self._outgoing_depth(effect.message, depth, op)
                self.transport.send(
                    effect.dst, out_depth, self._wrap(slot, effect.message, out_depth)
                )
            elif isinstance(effect, Broadcast):
                out_depth = self._outgoing_depth(effect.message, depth, op)
                self.transport.broadcast(
                    out_depth, self._wrap(slot, effect.message, out_depth)
                )
            elif isinstance(effect, Store):
                self._spawn_store(effect, depth, op, slot)
            elif isinstance(effect, Reply):
                self._complete(effect, depth, slot)
            elif isinstance(effect, SetTimer):
                key = (slot.register, effect.token)
                existing = self._timers.pop(key, None)
                if existing is not None:
                    existing.cancel()
                self._timers[key] = loop.call_later(
                    effect.delay,
                    self._on_timer,
                    effect.token,
                    depth,
                    op,
                    self.incarnation,
                    slot.register,
                )
            elif isinstance(effect, CancelTimer):
                handle = self._timers.pop((slot.register, effect.token), None)
                if handle is not None:
                    handle.cancel()
            elif isinstance(effect, RecoveryComplete):
                if not slot.ready:
                    slot.ready = True
                    self._not_ready -= 1
            elif isinstance(effect, Checkpoint):
                self.checkpoint()
            else:
                raise ProtocolError(f"unknown effect {type(effect).__name__}")

    @staticmethod
    def _wrap(slot: _RuntimeSlot, message: Message, depth: int) -> Message:
        """Namespace a named slot's message; default slot sends raw."""
        if slot.register is None:
            return message
        frame = RegisterFrame(register=slot.register, depth=depth, message=message)
        return MuxBatch(op=None, round_no=0, frames=(frame,))

    def _outgoing_depth(
        self, message: Message, handler_depth: int, handler_op: Optional[OperationId]
    ) -> int:
        inherited = handler_depth if message.op == handler_op else 0
        if not message.is_ack:
            return inherited
        return self._depths.outgoing_depth(message.op, inherited)

    def _spawn_store(
        self,
        effect: Store,
        depth: int,
        op: Optional[OperationId],
        slot: _RuntimeSlot,
    ) -> None:
        loop = asyncio.get_event_loop()
        incarnation = self.incarnation
        key = slot.prefix + effect.key
        register = slot.register
        previous = self._store_tails.get(key)

        async def run() -> None:
            # The protocol re-stores a key with rising tags: an older
            # record landing after a newer one would lose an acked write.
            if previous is not None:
                await asyncio.wait([previous])
            await loop.run_in_executor(
                None, self.storage.store, key, effect.record, effect.size
            )
            self._on_store_durable(effect.token, depth, op, incarnation, register)

        def forget(task: asyncio.Task) -> None:
            if self._store_tails.get(key) is task:
                del self._store_tails[key]

        task = loop.create_task(run())
        self._store_tails[key] = task
        task.add_done_callback(forget)

    def _complete(self, effect: Reply, depth: int, slot: _RuntimeSlot) -> None:
        handle = slot.current
        if handle is None or handle.op != effect.op:
            raise ProtocolError(f"node {self.pid} replied to unknown op {effect.op}")
        causal = max(depth, self._depths.depth_of(effect.op))
        handle.causal_logs = causal
        self._recorder.record_reply(effect.op, self.pid, handle.kind, effect.result)
        self._recorder.record_causal_logs(effect.op, causal)
        if effect.tag is not None:
            self._recorder.record_tag(effect.op, effect.tag)
        slot.current = None
        if not handle.future.done():
            handle.future.set_result(effect.result)
