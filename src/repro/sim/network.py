"""Simulated fair-lossy message-passing network.

Implements the channel assumptions of Section II: messages may be
dropped, duplicated, delayed arbitrarily and reordered, but a message
retransmitted forever to a correct process is eventually received
(fair-lossiness), and no message is received that was not sent.  The
delivery delay of a message follows the linear size model of
:class:`repro.net.delay.DelayModel`, calibrated to the paper's LAN.

Deliveries are *envelopes*: alongside the protocol message they carry
the causal-log depth used by :mod:`repro.history.causal_logs` -- the
engine-level accounting of the paper's cost metric.

Partitions are modelled as directed blocked links: while blocked, every
transmission on the link is dropped (fair-lossiness is preserved
because partitions are required to eventually heal in any run that
needs termination, matching the "eventually a majority is permanently
up" assumption).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.config import NetworkConfig
from repro.common.ids import ProcessId
from repro.net.delay import DelayModel
from repro.protocol.messages import Message
from repro.sim import tracing
from repro.sim.kernel import Kernel
from repro.sim.tracing import NULL_TRACE, Trace

#: One-way delay for a process's message to its own listener (loopback
#: does not cross the wire; the paper's implementation runs the
#: listener as a second thread on the same workstation).
LOOPBACK_DELAY = 5e-6


class Envelope:
    """A protocol message in flight, with engine-level metadata.

    A plain slotted class rather than a dataclass: one envelope is
    allocated per delivery, and slot assignment is measurably cheaper
    than a frozen dataclass's ``object.__setattr__`` per field.
    Immutable by convention.
    """

    __slots__ = ("src", "dst", "message", "depth")

    def __init__(self, src: ProcessId, dst: ProcessId, message: Message, depth: int):
        self.src = src
        self.dst = dst
        self.message = message
        #: Causal-log depth context of the sending handler (see
        #: :mod:`repro.history.causal_logs`).
        self.depth = depth

    def __repr__(self) -> str:
        return (
            f"Envelope(src={self.src}, dst={self.dst}, "
            f"message={self.message!r}, depth={self.depth})"
        )


DeliveryHandler = Callable[[Envelope], None]

#: A message filter: return ``True`` to drop the transmission.
MessageFilter = Callable[[ProcessId, ProcessId, Message], bool]


class SimNetwork:
    """Connects the simulated processes with fair-lossy channels."""

    def __init__(
        self,
        kernel: Kernel,
        num_processes: int,
        config: NetworkConfig,
        trace: Optional[Trace] = None,
    ):
        self._kernel = kernel
        self._num_processes = num_processes
        self._delay_model = DelayModel(config)
        self._trace = NULL_TRACE if trace is None else trace
        self._handlers: Dict[ProcessId, DeliveryHandler] = {}
        # Link -> number of outstanding blocks.  Refcounted so that
        # overlapping partition windows compose: a link stays blocked
        # until every block placed on it is released.
        self._blocked_links: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._filters: List[MessageFilter] = []
        # Per-link accumulated delay penalties (slow links), applied on
        # top of the sampled delay.  Additive for the same reason the
        # blocks are refcounted; consulted only when non-empty so the
        # common configuration pays one falsy check.
        self._link_penalties: Dict[Tuple[ProcessId, ProcessId], float] = {}
        # Sender-side egress queues: transmissions serialize through the
        # sender's NIC, each occupying it for ``send_overhead``.
        self._egress_free_at: Dict[ProcessId, float] = {}
        # Config constants hoisted out of the per-send path.  The loss
        # and duplication probabilities come from the delay model, the
        # single owner of channel-fault semantics: send() inlines its
        # should_drop/should_duplicate decisions (same guard, same rng
        # consumption) to save two method calls per transmission.
        self._send_overhead = config.send_overhead
        self._drop_probability = self._delay_model.drop_probability
        self._duplicate_probability = self._delay_model.duplicate_probability
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    @property
    def num_processes(self) -> int:
        return self._num_processes

    @property
    def delay_model(self) -> DelayModel:
        return self._delay_model

    def attach(self, pid: ProcessId, handler: DeliveryHandler) -> None:
        """Register the delivery handler of process ``pid``."""
        if not 0 <= pid < self._num_processes:
            raise ValueError(f"pid {pid} out of range")
        self._handlers[pid] = handler

    # -- partitions ----------------------------------------------------------

    def block(self, src: ProcessId, dst: ProcessId) -> None:
        """Drop all future transmissions from ``src`` to ``dst``.

        Blocks stack: a link blocked twice (overlapping partition
        windows) needs two :meth:`unblock` calls -- or one
        :meth:`heal_all` -- before traffic flows again.
        """
        link = (src, dst)
        self._blocked_links[link] = self._blocked_links.get(link, 0) + 1

    def unblock(self, src: ProcessId, dst: ProcessId) -> None:
        """Release one block on the link.  No-op if none remain."""
        link = (src, dst)
        count = self._blocked_links.get(link, 0)
        if count <= 1:
            self._blocked_links.pop(link, None)
        else:
            self._blocked_links[link] = count - 1

    def partition(self, group_a: Set[ProcessId], group_b: Set[ProcessId]) -> None:
        """Block every link between ``group_a`` and ``group_b`` (both ways)."""
        for a in group_a:
            for b in group_b:
                self.block(a, b)
                self.block(b, a)

    def heal_all(self) -> None:
        """Remove every blocked link."""
        self._blocked_links.clear()

    def is_blocked(self, src: ProcessId, dst: ProcessId) -> bool:
        return (src, dst) in self._blocked_links

    # -- slow links --------------------------------------------------------

    def slow_link(self, src: ProcessId, dst: ProcessId, extra_delay: float) -> None:
        """Add ``extra_delay`` to every future ``src -> dst`` delivery.

        Models a congested or degraded link: messages still arrive (and
        still pay the sampled base delay), just later.  Penalties from
        repeated calls accumulate, so overlapping slow-link windows
        compose; release with :meth:`unslow_link` or
        :meth:`reset_link_speeds`.  Deterministic -- the penalty
        consumes no randomness.
        """
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if extra_delay > 0.0:
            link = (src, dst)
            self._link_penalties[link] = (
                self._link_penalties.get(link, 0.0) + extra_delay
            )

    def unslow_link(self, src: ProcessId, dst: ProcessId, extra_delay: float) -> None:
        """Remove ``extra_delay`` of penalty from the link (floor 0).

        Residues below a picosecond are snapped to zero: symmetric
        add/remove pairs of *different* magnitudes otherwise leave
        float dust that would keep the penalty table (and its hot-path
        check) alive forever.  Real penalties are microseconds and up.
        """
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        link = (src, dst)
        remaining = self._link_penalties.get(link, 0.0) - extra_delay
        if remaining > 1e-12:
            self._link_penalties[link] = remaining
        else:
            self._link_penalties.pop(link, None)

    def reset_link_speeds(self) -> None:
        """Remove every slow-link penalty."""
        self._link_penalties.clear()

    def link_penalty(self, src: ProcessId, dst: ProcessId) -> float:
        """The current extra delay of the ``src -> dst`` link."""
        return self._link_penalties.get((src, dst), 0.0)

    # -- message filters ---------------------------------------------------

    def add_filter(self, message_filter: MessageFilter) -> Callable[[], None]:
        """Install a drop filter; returns a removal function.

        Filters see ``(src, dst, message)`` for every transmission and
        drop it by returning ``True``.  They express adversarial
        schedules finer than link blocks -- e.g. "hold back this write's
        second round while everything else flows", which the scripted
        runs of Figures 1-3 rely on.
        """
        self._filters.append(message_filter)

        def remove() -> None:
            if message_filter in self._filters:
                self._filters.remove(message_filter)

        return remove

    def _filtered(self, src: ProcessId, dst: ProcessId, message: Message) -> bool:
        return any(f(src, dst, message) for f in self._filters)

    # -- transmission ------------------------------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, message: Message, depth: int) -> None:
        """Transmit one message (may be dropped, duplicated, delayed)."""
        if not 0 <= dst < self._num_processes:
            raise ValueError(f"destination {dst} out of range")
        size = message.size
        self.messages_sent += 1
        self.bytes_sent += size
        trace = self._trace
        trace.tick(tracing.SEND, self._kernel.now, src, message.op, dst, message, size)
        if self._blocked_links and (src, dst) in self._blocked_links:
            self._drop(src, dst, message, reason="partition")
            return
        if self._filters and self._filtered(src, dst, message):
            self._drop(src, dst, message, reason="filter")
            return
        rng = self._kernel.rng
        if (
            src != dst
            and self._drop_probability > 0.0
            and rng.random() < self._drop_probability
        ):
            self._drop(src, dst, message, reason="loss")
            return
        self._schedule_delivery(src, dst, message, depth)
        if (
            src != dst
            and self._duplicate_probability > 0.0
            and rng.random() < self._duplicate_probability
        ):
            trace.tick(
                tracing.DUPLICATE, self._kernel.now, src, message.op, dst, message
            )
            self._schedule_delivery(src, dst, message, depth)

    def broadcast(self, src: ProcessId, message: Message, depth: int) -> None:
        """Send ``message`` to every process, including ``src`` itself."""
        for dst in range(self._num_processes):
            self.send(src, dst, message, depth)

    def _schedule_delivery(
        self, src: ProcessId, dst: ProcessId, message: Message, depth: int
    ) -> None:
        queue_delay = self._egress_queue_delay(src)
        if src == dst:
            delay = LOOPBACK_DELAY
        else:
            delay = self._delay_model.sample_total(message.size, self._kernel.rng)
        if self._link_penalties:
            delay += self._link_penalties.get((src, dst), 0.0)
        envelope = Envelope(src, dst, message, depth)
        self._kernel.schedule(queue_delay + delay, self._deliver, envelope)

    def _egress_queue_delay(self, src: ProcessId) -> float:
        """Serialize transmissions through the sender's NIC."""
        overhead = self._send_overhead
        if overhead == 0.0:
            return 0.0
        now = self._kernel.now
        free_at = self._egress_free_at.get(src, now)
        if free_at < now:
            free_at = now
        self._egress_free_at[src] = free_at + overhead
        return (free_at + overhead) - now

    def _deliver(self, envelope: Envelope) -> None:
        handler = self._handlers.get(envelope.dst)
        if handler is None:
            return
        self.messages_delivered += 1
        message = envelope.message
        self._trace.tick(
            tracing.DELIVER,
            self._kernel.now,
            envelope.dst,
            message.op,
            envelope.src,
            message,
        )
        handler(envelope)

    def _drop(
        self, src: ProcessId, dst: ProcessId, message: Message, reason: str
    ) -> None:
        self.messages_dropped += 1
        self._trace.tick(
            tracing.DROP, self._kernel.now, src, message.op, dst, message, reason
        )
