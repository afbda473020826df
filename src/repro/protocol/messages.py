"""Wire messages of the emulation algorithms.

The message vocabulary follows Figures 4 and 5 of the paper:

========== ============================ =====================================
paper name class                        meaning
========== ============================ =====================================
``SN``     :class:`SnQuery`             ask for the highest known tag
``SN ack`` :class:`SnAck`               reply with the local tag
``W``      :class:`WriteRequest`        adopt value+tag if tag is higher
``W ack``  :class:`WriteAck`            value+tag durable (or already newer)
``R``      :class:`ReadQuery`           ask for the local value+tag
``R ack``  :class:`ReadAck`             reply with local value+tag
========== ============================ =====================================

Every request carries the invoking operation's id and a round number so
that late or duplicated acks from a previous round (the fair-lossy
channel may duplicate and reorder) are not miscounted toward the
current round's quorum.  Acks echo both.

Messages also declare their billable payload size so the network can
charge size-dependent delays (Figure 6 bottom).  ``HEADER_SIZE`` covers
opcode, op id, round and tag fields.

Register multiplexing
---------------------

The base algorithms emulate exactly one register, so their messages
carry no object identity.  The key-value layer
(:mod:`repro.kv`) multiplexes many *register instances* over the same
set of processes by namespacing the wire traffic:

* a :class:`RegisterFrame` pairs one protocol message with the id of
  the register instance it belongs to (plus the causal-log depth
  context that single-register envelopes carry at the engine level);
* a :class:`MuxBatch` is the only multiplexed message that actually
  crosses the wire: one datagram carrying one or more frames.  Frames
  addressed to the same destination within a node's batch window share
  the datagram, which is what turns several same-shard operations into
  a single quorum round-trip.

Hosts demultiplex an incoming :class:`MuxBatch` frame by frame,
routing each inner message to the protocol instance registered under
the frame's register id.  Protocol state machines never see the
wrappers -- multiplexing stays an engine concern, exactly like the
causal-log accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, ClassVar, Optional, Tuple

from repro.common.ids import OperationId
from repro.common.timestamps import Tag
from repro.common.values import payload_size

#: Fixed per-message framing overhead, in bytes.
HEADER_SIZE = 32

#: Per-frame overhead of register multiplexing (length prefix of the
#: register id plus the frame's depth field), in bytes.
FRAME_OVERHEAD = 8


@dataclass(frozen=True)
class Message:
    """Base class of all wire messages."""

    op: Optional[OperationId]
    round_no: int

    #: Billable size in bytes (header plus any value payload).  The
    #: network reads it several times per transmission (billing, the
    #: delay model, trace details), so value-carrying subclasses
    #: memoize their computed size with ``functools.cached_property``
    #: (messages are immutable, the size never changes); header-only
    #: messages share this class-level constant.
    size: ClassVar[int] = HEADER_SIZE

    @property
    def kind(self) -> str:
        """Short wire-format name, for traces."""
        return type(self).__name__

    #: Whether this message acknowledges state the sender holds (as
    #: opposed to requesting work).  Causal-log accounting folds a
    #: process's own logs only into acknowledgments: an ack certifies
    #: durability and therefore causally follows the local log it
    #: certifies, while a (re)transmitted request carries the depth at
    #: which its round began.  Class-level, not a wire field.
    is_ack: ClassVar[bool] = False


@dataclass(frozen=True)
class SnQuery(Message):
    """``SN``: request the highest tag known to the receiver."""


@dataclass(frozen=True)
class SnAck(Message):
    """``SN ack``: the receiver's current tag."""

    tag: Tag
    is_ack: ClassVar[bool] = True


@dataclass(frozen=True)
class WriteRequest(Message):
    """``W``: adopt ``value`` with ``tag`` if ``tag`` is lexicographically higher.

    Sent by writers in their second round, by readers in their
    write-back round, and by recovering processes replaying their
    interrupted write (Figure 4's ``Recover``).
    """

    tag: Tag
    value: Any

    @cached_property
    def size(self) -> int:
        return HEADER_SIZE + payload_size(self.value)


@dataclass(frozen=True)
class WriteAck(Message):
    """``W ack``: the sender has the value durable (or something newer)."""

    tag: Tag
    is_ack: ClassVar[bool] = True


@dataclass(frozen=True)
class ReadQuery(Message):
    """``R``: request the receiver's current value and tag."""


@dataclass(frozen=True)
class ReadAck(Message):
    """``R ack``: the receiver's current value and tag.

    ``durable_tag`` additionally reports the highest tag whose stable-
    storage log has completed at the responder.  The base algorithms
    ignore it; the fast-read optimization
    (:class:`repro.protocol.fast_read.FastReadPersistentProtocol`)
    skips the read's write-back round when a majority unanimously
    reports the same durable tag.
    """

    tag: Tag
    value: Any
    durable_tag: Optional[Tag] = None
    is_ack: ClassVar[bool] = True

    @cached_property
    def size(self) -> int:
        return HEADER_SIZE + payload_size(self.value)


@dataclass(frozen=True)
class RegisterFrame:
    """One register instance's message inside a :class:`MuxBatch`.

    ``register`` names the virtual register instance (the KV layer uses
    the key itself); ``depth`` is the causal-log depth context the
    single-register engine would have carried in the delivery envelope
    (see :mod:`repro.history.causal_logs`).  Frames are not messages:
    they only travel inside a batch.
    """

    register: str
    depth: int
    message: Message

    @property
    def size(self) -> int:
        """Billable bytes: register tag plus the full inner message.

        The inner header (op id, round, tag fields) is a real per-frame
        cost; only the datagram framing is shared across the batch.
        Not memoized: the enclosing :class:`MuxBatch` sums its frames
        inline, once, so this is off the hot path.
        """
        return FRAME_OVERHEAD + len(self.register) + self.message.size


@dataclass(frozen=True)
class MuxBatch(Message):
    """One datagram multiplexing frames of several register instances.

    ``op``/``round_no`` are meaningless at the batch level (each frame
    carries its own); hosts construct batches with ``op=None`` and
    ``round_no=0``.  Batching is transparent to the protocols: the
    receiving host dispatches each frame's inner message to the
    protocol instance registered under the frame's register id.
    """

    frames: Tuple[RegisterFrame, ...] = ()

    @cached_property
    def size(self) -> int:
        # One pass over the frames; same sum as HEADER_SIZE plus every
        # RegisterFrame.size, without a property call per frame.
        total = HEADER_SIZE
        for frame in self.frames:
            total += FRAME_OVERHEAD + len(frame.register) + frame.message.size
        return total
