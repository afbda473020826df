"""Partitioning multi-register histories into per-register histories.

The formal histories of Section III-A talk about one register object,
and both atomicity checkers (:mod:`repro.history.checker`,
:mod:`repro.history.register_checker`) assume it.  A key-value run
multiplexes many register instances over the same processes, so its
recorded history interleaves operations on different registers -- and a
process may even have several operations open at once, one per
register, which makes the combined history ill-formed *as a
single-register history* while every per-register projection is
perfectly well-formed.

:func:`partition_history` restores the checkers' world view: it
projects the combined history onto each register, keeping

* that register's invocation and reply events, and
* **every** crash and recovery event -- a process crash is a crash of
  all the virtual registers it hosts, so failure events belong to every
  projection (and the projections stay well-formed: a local history may
  start with a crash).

Each projection can then be checked independently; per-register
atomicity of every projection is exactly the consistency a sharded
store promises (there is no cross-key ordering guarantee, as in any
per-key linearizable KV store).

Suffix folding.  A run is checked again after every phase, over the
same growing history.  :func:`partition_history` returns a
:class:`Projections` mapping that remembers how far it has scanned;
handing it back as ``previous`` folds only the events appended since
into the same projections.  A from-scratch call is a fold from index
0, so both paths produce identical per-register event sequences.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.common.ids import OperationId
from repro.history.events import Crash, HistoryEvent, Invoke, Recover, Reply
from repro.history.history import History

RegisterOf = Callable[[OperationId], Optional[str]]


class Projections(Dict[Optional[str], History]):
    """Per-register projections plus the position they were folded to.

    A plain ``register -> History`` mapping to read.  The projections
    are *live*: a later :func:`partition_history` call that is handed
    this object back appends to them in place (the append-only
    :class:`~repro.history.history.History` contract keeps their
    incremental views valid), so treat them as read-only views.
    """

    def __init__(self, source: History):
        super().__init__()
        #: The history these projections were folded from.
        self.source = source
        #: Number of ``source`` events folded so far.
        self.scanned = 0
        #: Every crash/recovery event folded so far, in order -- the
        #: prefix a projection created from now on starts with.
        self.failures: List[HistoryEvent] = []


def partition_history(
    history: History,
    register_of: RegisterOf,
    registers: Optional[Iterable[Optional[str]]] = None,
    previous: Optional[Projections] = None,
) -> Projections:
    """Split ``history`` into one history per register instance.

    ``register_of`` maps an operation id to the register it targeted
    (the KV layer's :meth:`~repro.history.recorder.HistoryRecorder.register_of`);
    operations mapping to ``None`` form the projection of the classic
    anonymous register.  ``registers`` optionally forces keys into the
    result even when no event mentions them (useful to assert that an
    untouched register has an empty-but-for-failures history).

    ``previous`` is the result of an earlier call on the same history:
    only the events appended since are folded into it, and it is
    returned.  Without it the fold starts from an empty result.
    """
    if previous is None:
        partitions = Projections(history)
    elif previous.source is not history:
        raise ValueError("previous projections were folded from another history")
    else:
        partitions = previous
    # A projection created now -- forced, or at a register's first
    # invocation below -- starts with every failure event seen so far
    # (failures are shared by all registers), which preserves
    # per-projection event order.
    failures = partitions.failures
    if registers is not None:
        for register in registers:
            if register not in partitions:
                partitions[register] = History(failures)

    # Single pass over the unscanned suffix.
    events = history.events_since(partitions.scanned)
    for event in events:
        if isinstance(event, (Crash, Recover)):
            failures.append(event)
            for partition in partitions.values():
                partition.append(event)
        elif isinstance(event, (Invoke, Reply)):
            register = register_of(event.op)
            partition = partitions.get(register)
            if partition is None:
                partition = History(failures)
                partitions[register] = partition
            partition.append(event)
    partitions.scanned += len(events)
    return partitions
