"""Machine-speed calibration for the gated throughput metric.

The reference box is shared, and its interpreter speed switches between
regimes as other tenants load the cores: a workload's throughput moves
by up to 1.5x between one minute and the next, and no run length or
within-run statistic averages that away.  So the benchmark times
:func:`calibrate` -- fixed pure-Python work that shares no code with
repro -- after every repeat, and scales the repeat's throughput by how
slow the machine ran around it (``ref_ops_per_s``).  The raw
``ops_per_s`` is reported next to it.
"""

from __future__ import annotations

import heapq
import time

#: Calibration time, seconds, that ``ref_ops_per_s`` is scaled to: the
#: median on the reference box (2-vCPU shared VM, Python 3.11).
REFERENCE_S = 0.06

#: Events the calibration's discrete-event loop processes.
STEPS = 12_000
#: Links in the calibration's scattered ring.
OBJECTS = 50_000

#: Stride that scatters the calibration ring's links (prime, so the
#: links form a permutation of any ring size it does not divide).
_STRIDE = 7919


class _Peer:
    __slots__ = ("seen", "peers")

    def __init__(self, peers):
        self.seen = {}
        self.peers = peers

    def on_message(self, src, round_no, tag):
        if self.seen.get(src, -1) >= tag:
            return ()
        self.seen[src] = tag
        return [(peer, round_no + 1, tag + 1) for peer in self.peers if peer != src]


class _Link:
    __slots__ = ("value", "next")

    def __init__(self, value):
        self.value = value
        self.next = None


def calibrate() -> float:
    """Wall seconds a fixed mix of interpreter work takes right now.

    Two parts, because the workloads depend on both and the machine's
    load slows them by different amounts: a small discrete-event loop
    (a heap of timed events, tuples, dict lookups, method calls), and
    building then chasing :data:`OBJECTS` small objects linked in a
    scattered order -- a few megabytes, past the core's own cache,
    allocated and freed like a repeat's history.
    """
    started = time.perf_counter()
    peers = [_Peer(tuple(range(5))) for _ in range(5)]
    queue = [(0.0, 0, 0, 1, 0, 0)]
    seq = 1
    for _ in range(STEPS):
        now, _, src, dst, round_no, tag = heapq.heappop(queue)
        for target, next_round, next_tag in peers[dst].on_message(src, round_no, tag):
            heapq.heappush(queue, (now + 1e-4 * (1 + seq % 7), seq, dst, target, next_round, next_tag))
            seq += 1
        if len(queue) < 4:
            heapq.heappush(queue, (now + 5e-4, seq, dst, (dst + 2) % 5, 0, tag + 1))
            seq += 1
    ring = [_Link(index) for index in range(OBJECTS)]
    for index, link in enumerate(ring):
        link.next = ring[(index * _STRIDE + 1) % OBJECTS]
    link, total = ring[0], 0
    for _ in range(OBJECTS):
        link = link.next
        total += link.value
    return time.perf_counter() - started
