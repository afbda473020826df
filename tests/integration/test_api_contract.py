"""Integration: the Session contract against the live backend.

The acceptance bar of the façade: the *same* program that
``tests/unit/test_public_api.py`` runs against the simulated backends
must run unmodified over real UDP sockets and fsync'd files -- plus
the live backend's declared incapabilities must actually raise.
"""

import time

import pytest

from repro.api import CRASH_INJECTION, VIRTUAL_TIME, open_cluster
from repro.common.errors import CapabilityError

from tests.unit.test_public_api import session_program


def test_live_runs_the_same_session_program():
    verdict = session_program(
        open_cluster(backend="live", protocol="persistent")
    )
    assert verdict.consistency == "persistent"


def test_live_nonblocking_recover_records_failures():
    with open_cluster(backend="live", num_processes=3) as c:
        # Recovering a node that never crashed fails inside the loop
        # thread; the error must be harvested, not silently dropped.
        c.recover(0, wait=False)
        deadline = time.monotonic() + 5.0
        while not c.recovery_errors and time.monotonic() < deadline:
            time.sleep(0.01)
        assert c.recovery_errors and c.recovery_errors[0][0] == 0

        c.crash(1)
        c.recover(1, wait=False)
        session = c.session(1)
        deadline = time.monotonic() + 5.0
        while not session.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session.ready
        assert len(c.recovery_errors) == 1  # the healthy recovery added none


def _exercise(cluster):
    """A small cross-backend program: traffic, one crash, one recovery.

    The observability surface is read after the cluster has closed: the
    live backend's loop thread keeps recording late acks until then, so
    a ``metrics()`` read and a later recorder read could disagree.
    """
    with cluster as c:
        c.session(0).write_sync("a")
        c.crash(0)
        c.recover(0)
        c.session(1).write_sync("b")
    return cluster.stats(), cluster.metrics(), cluster.flight_recorder


@pytest.mark.parametrize("backend", ["sim", "kv", "live"])
def test_stats_and_metrics_parity(backend):
    """Every backend populates the same observability surface.

    ``ClusterStats`` fields must be *filled in*, not defaulted (the
    live backend used to report zero drops/crashes/recoveries), and
    the shared metric names must exist in every registry so dashboards
    can be written once.
    """
    seed = None if backend == "live" else 11
    stats, metrics, recorder = _exercise(
        open_cluster(backend=backend, num_processes=3, seed=seed)
    )
    assert stats.messages_sent > 0
    assert stats.stores_completed > 0
    assert stats.crashes == 1
    assert stats.recoveries == 1
    assert stats.messages_dropped >= 0
    for name in (
        "kernel.clock",
        "net.messages_sent",
        "net.messages_delivered",
        "net.messages_dropped",
        "storage.stores_completed",
        "node.crashes",
        "node.recoveries",
        "trace.flight_recorded",
    ):
        assert name in metrics.scalars, name
    assert metrics.scalars["net.messages_sent"] == stats.messages_sent
    assert metrics.scalars["node.crashes"] == 1
    assert metrics.scalars["node.recoveries"] == 1
    # The write fed the uniform per-op latency histogram...
    write_latency = metrics.histograms["op.write.latency"]
    assert write_latency.total >= 2
    assert write_latency.minimum > 0.0
    # ...and the flight recorder retained the run's tail.
    assert recorder is not None
    assert recorder.total > 0
    assert metrics.scalars["trace.flight_recorded"] == recorder.total
    kinds = {event.kind for event in recorder.events()}
    assert "send" in kinds and "deliver" in kinds


def test_live_declares_no_virtual_time():
    with open_cluster(backend="live", num_processes=3) as c:
        assert CRASH_INJECTION in c.capabilities
        assert VIRTUAL_TIME not in c.capabilities
        with pytest.raises(CapabilityError):
            c.run(0.1)
        with pytest.raises(CapabilityError):
            c.run_until(lambda: True)
        with pytest.raises(CapabilityError):
            c.now
        with pytest.raises(CapabilityError):
            c.partition([0], [1, 2])
