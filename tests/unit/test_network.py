"""Unit tests for the simulated fair-lossy network."""

import pytest

from repro.common.config import NetworkConfig
from repro.common.ids import make_operation_id
from repro.protocol.messages import ReadQuery, SnQuery, WriteRequest
from repro.common.timestamps import Tag
from repro.sim import tracing
from repro.sim.kernel import Kernel
from repro.sim.network import LOOPBACK_DELAY, SimNetwork
from repro.sim.tracing import Trace


def make_network(n=3, **config_kwargs):
    kernel = Kernel(seed=0)
    trace = Trace()
    network = SimNetwork(kernel, n, NetworkConfig(**config_kwargs), trace)
    inboxes = {pid: [] for pid in range(n)}
    for pid in range(n):
        network.attach(pid, inboxes[pid].append)
    return kernel, network, inboxes, trace


def query(pid=0):
    return SnQuery(op=make_operation_id(pid), round_no=1)


class TestDelivery:
    def test_message_arrives_after_configured_delay(self):
        kernel, network, inboxes, _ = make_network(send_overhead=0.0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1
        assert kernel.now == pytest.approx(
            NetworkConfig().base_delay + query().size / NetworkConfig().bandwidth
        )

    def test_loopback_is_fast(self):
        kernel, network, inboxes, _ = make_network(send_overhead=0.0)
        network.send(1, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1
        assert kernel.now == pytest.approx(LOOPBACK_DELAY)

    def test_broadcast_reaches_everyone_including_sender(self):
        kernel, network, inboxes, _ = make_network(n=5)
        network.broadcast(2, query(), depth=0)
        kernel.run()
        assert all(len(inboxes[pid]) == 1 for pid in range(5))

    def test_envelope_carries_metadata(self):
        kernel, network, inboxes, _ = make_network()
        network.send(0, 1, query(), depth=3)
        kernel.run()
        envelope = inboxes[1][0]
        assert envelope.src == 0
        assert envelope.dst == 1
        assert envelope.depth == 3

    def test_out_of_range_destination_rejected(self):
        _, network, _, _ = make_network(n=3)
        with pytest.raises(ValueError):
            network.send(0, 7, query(), depth=0)

    def test_larger_messages_take_longer(self):
        kernel, network, inboxes, _ = make_network(send_overhead=0.0)
        small = WriteRequest(
            op=make_operation_id(0), round_no=1, tag=Tag(1, 0), value=b"x"
        )
        big = WriteRequest(
            op=make_operation_id(0), round_no=1, tag=Tag(1, 0), value=b"x" * 32768
        )
        network.send(0, 1, big, depth=0)
        network.send(0, 2, small, depth=0)
        kernel.run()
        # The small message to p2 overtakes the big one to p1.
        assert inboxes[2] and inboxes[1]

    def test_sender_egress_serializes_transmissions(self):
        kernel, network, inboxes, _ = make_network(n=2, send_overhead=1e-5)
        arrival_times = []
        def record_arrival(env):
            arrival_times.append(kernel.now)

        network._handlers[1] = record_arrival
        network.send(0, 1, query(), depth=0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert arrival_times[1] - arrival_times[0] == pytest.approx(1e-5)


class TestPartitions:
    def test_blocked_link_drops_messages(self):
        kernel, network, inboxes, trace = make_network()
        network.block(0, 1)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert inboxes[1] == []
        assert trace.count(tracing.DROP) == 1

    def test_blocking_is_directional(self):
        kernel, network, inboxes, _ = make_network()
        network.block(0, 1)
        network.send(1, 0, query(), depth=0)
        kernel.run()
        assert len(inboxes[0]) == 1

    def test_unblock_restores_delivery(self):
        kernel, network, inboxes, _ = make_network()
        network.block(0, 1)
        network.unblock(0, 1)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1

    def test_partition_blocks_both_directions(self):
        kernel, network, inboxes, _ = make_network(n=4)
        network.partition({0, 1}, {2, 3})
        network.send(0, 2, query(), depth=0)
        network.send(3, 1, query(), depth=0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert inboxes[2] == []
        assert inboxes[1] != []  # same side still connected

    def test_heal_all(self):
        kernel, network, inboxes, _ = make_network(n=4)
        network.partition({0, 1}, {2, 3})
        network.heal_all()
        network.send(0, 2, query(), depth=0)
        kernel.run()
        assert len(inboxes[2]) == 1


class TestFilters:
    def test_filter_drops_matching_messages(self):
        kernel, network, inboxes, _ = make_network()
        network.add_filter(lambda src, dst, msg: isinstance(msg, ReadQuery))
        network.send(0, 1, ReadQuery(op=make_operation_id(0), round_no=1), depth=0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1
        assert isinstance(inboxes[1][0].message, SnQuery)

    def test_filter_removal(self):
        kernel, network, inboxes, _ = make_network()
        remove = network.add_filter(lambda src, dst, msg: True)
        remove()
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1

    def test_filter_removal_is_idempotent(self):
        _, network, _, _ = make_network()
        remove = network.add_filter(lambda src, dst, msg: True)
        remove()
        remove()


class TestLossAndDuplication:
    def test_lossy_link_drops_roughly_at_rate(self):
        kernel, network, inboxes, _ = make_network(drop_probability=0.5)
        for _ in range(400):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        delivered = len(inboxes[1])
        assert 120 < delivered < 280

    def test_loopback_is_never_dropped(self):
        kernel, network, inboxes, _ = make_network(drop_probability=0.9)
        for _ in range(50):
            network.send(0, 0, query(), depth=0)
        kernel.run()
        assert len(inboxes[0]) == 50

    def test_duplication_delivers_extra_copies(self):
        kernel, network, inboxes, _ = make_network(duplicate_probability=0.5)
        for _ in range(200):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) > 220

    def test_retransmission_eventually_delivers(self):
        # Fair-lossiness: with loss probability < 1, enough retries get
        # at least one message through.
        kernel, network, inboxes, _ = make_network(drop_probability=0.8)
        for _ in range(100):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) >= 1

    def test_statistics_counters(self):
        kernel, network, inboxes, _ = make_network(drop_probability=0.5)
        for _ in range(100):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert network.messages_sent == 100
        assert network.messages_delivered == len(inboxes[1])
        assert network.messages_dropped == 100 - len(inboxes[1])
        assert network.bytes_sent == 100 * query().size


class TestTracingFastPath:
    """No TraceEvent is built unless someone listens or reads a capture."""

    def _counting_network(self, monkeypatch, trace):
        constructed = []
        real = tracing.TraceEvent

        def counting(*args, **kwargs):
            event = real(*args, **kwargs)
            constructed.append(event.kind)
            return event

        monkeypatch.setattr(tracing, "TraceEvent", counting)
        kernel = Kernel(seed=0)
        network = SimNetwork(kernel, 3, NetworkConfig(), trace)
        for pid in range(3):
            network.attach(pid, lambda envelope: None)
        return kernel, network, constructed

    def test_quiet_trace_builds_no_events(self, monkeypatch):
        trace = Trace(capture=False)
        kernel, network, constructed = self._counting_network(monkeypatch, trace)
        for _ in range(10):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert constructed == []
        # ... but the counts survive for the metrics layer.
        assert trace.count(tracing.SEND) == 10
        assert trace.count(tracing.DELIVER) == 10

    def test_default_trace_is_quiet(self, monkeypatch):
        kernel = Kernel(seed=0)
        network = SimNetwork(kernel, 2, NetworkConfig())  # no trace argument
        network.attach(0, lambda envelope: None)
        network.attach(1, lambda envelope: None)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert network.messages_delivered == 1

    def test_kind_listener_reactivates_only_its_kind(self, monkeypatch):
        trace = Trace(capture=False)
        kernel, network, constructed = self._counting_network(monkeypatch, trace)
        seen = []
        trace.subscribe(seen.append, kinds=[tracing.SEND])
        for _ in range(5):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert constructed == [tracing.SEND] * 5
        assert len(seen) == 5

    def test_capture_builds_every_event(self, monkeypatch):
        trace = Trace(capture=True)
        kernel, network, constructed = self._counting_network(monkeypatch, trace)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        # Capture keeps the raw values; events are rendered on read.
        assert constructed == []
        assert [event.kind for event in trace.events] == [
            tracing.SEND, tracing.DELIVER,
        ]
        assert constructed == [tracing.SEND, tracing.DELIVER]
