"""Integration: the asyncio/UDP runtime on localhost.

These tests exercise real sockets, real files and real fsync, so they
are slower than the simulator tests but prove the protocol code runs
outside the simulator.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.history.checker import (
    check_persistent_atomicity,
    check_transient_atomicity,
)
from repro.protocol.base import Store
from repro.runtime import LiveCluster
from repro.runtime.storage import FileStableStorage


class TestFileStableStorage:
    def test_round_trip(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("written", ((3, 1, 0), "value"), size=10)
        assert storage.retrieve("written") == ((3, 1, 0), "value")

    def test_survives_reload(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("written", ((3, 1, 0), b"bytes"), size=10)
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("written") == ((3, 1, 0), b"bytes")

    def test_latest_record_wins_across_reload(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("old",), size=1)
        storage.store("k", ("new",), size=1)
        storage.reload_from_disk()
        assert storage.retrieve("k") == ("new",)

    def test_keys_are_sanitized_to_filenames(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("weird/key name", ("v",), size=1)
        assert storage.retrieve("weird/key name") == ("v",)

    def test_statistics(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("a", (1,), size=100)
        assert storage.stores_completed == 1
        assert storage.bytes_logged == 100

    def test_concurrent_stores_of_one_key_agree_with_disk(self, tmp_path):
        # Overlapping executor stores of one key used to share a temp
        # file, so one rename failed with StorageError.
        storage = FileStableStorage(tmp_path / "n0")
        errors = []

        def writer(thread):
            try:
                for index in range(25):
                    storage.store("k", (thread, index), size=1)
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert storage.stores_completed == 200
        in_memory = storage.records["k"]
        storage.reload_from_disk()
        assert storage.retrieve("k") == in_memory
        assert not list((tmp_path / "n0").glob("*.tmp"))

    def test_leftover_tmp_files_are_removed_on_load(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("v",), size=1)
        # A crash between write and rename leaves a partial .tmp file.
        (tmp_path / "n0" / "torn.12345678.tmp").write_bytes(b"partial")
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("k") == ("v",)
        assert not list((tmp_path / "n0").glob("*.tmp"))

    def test_corrupt_record_is_quarantined_not_fatal(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("good", ("kept",), size=1)
        storage.store("bad", ("mangled",), size=1)
        bad_path = storage._path("bad")
        bad_path.write_bytes(b"\x00garbage not pickle")
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("good") == ("kept",)
        assert fresh.retrieve("bad") is None
        assert fresh.records_quarantined == 1
        quarantined = list((tmp_path / "n0").glob("*.corrupt"))
        assert len(quarantined) == 1
        # Quarantined files no longer match the record glob: the next
        # reload does not re-quarantine.
        again = FileStableStorage(tmp_path / "n0")
        assert again.records_quarantined == 0

    def test_delete_is_durable(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("v",), size=1)
        storage.delete("k")
        assert storage.retrieve("k") is None
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("k") is None
        storage.delete("missing")  # no-op, no raise


@pytest.fixture(scope="module")
def live_cluster():
    cluster = LiveCluster(protocol="persistent", num_processes=3, op_timeout=15.0)
    cluster.start()
    yield cluster
    cluster.close()


class TestLiveStoreOrder:
    def test_overlapping_stores_of_one_key_land_in_issue_order(self, tmp_path):
        # The protocol re-stores a key with rising tags; the last store
        # issued must be the record left on disk, and acks must follow
        # issue order.  Earlier stores are made slower here, so an
        # unordered executor would land the oldest record last.
        count = 8
        with LiveCluster(
            protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            node = cluster.nodes[0]
            store = node.storage.store

            def slow_store(key, record, size):
                if key == "probe":
                    time.sleep((count - record[0]) * 0.01)
                store(key, record, size)

            node.storage.store = slow_store
            durable = []
            node._on_store_durable = lambda token, *rest: durable.append(token)

            async def run():
                effects = [
                    Store(key="probe", record=(index,), size=1, token=index)
                    for index in range(count)
                ]
                node._execute(effects, depth=0, op=None, slot=node._slots[None])
                while len(durable) < count:
                    await asyncio.sleep(0.01)

            cluster._call(run())
            assert durable == list(range(count))
            assert node.storage.retrieve("probe") == (count - 1,)
            on_disk = FileStableStorage(tmp_path / "node-0")
            assert on_disk.retrieve("probe") == (count - 1,)


class TestLiveCluster:
    def test_write_then_read(self, live_cluster):
        live_cluster.write(0, "over-udp")
        assert live_cluster.read(1) == "over-udp"

    def test_several_writers(self, live_cluster):
        live_cluster.write(1, "from-1")
        live_cluster.write(2, "from-2")
        assert live_cluster.read(0) == "from-2"

    def test_crash_recovery_through_the_filesystem(self, live_cluster):
        live_cluster.write(0, "durable-on-disk")
        live_cluster.crash_node(1)
        live_cluster.recover_node(1)
        assert live_cluster.read(1) == "durable-on-disk"

    def test_crashed_node_rejects_operations(self, live_cluster):
        live_cluster.crash_node(2)
        try:
            with pytest.raises(Exception):
                live_cluster.read(2)
        finally:
            live_cluster.recover_node(2)

    def test_history_is_atomic(self, live_cluster):
        live_cluster.write(0, "final-check")
        live_cluster.read(1)
        history = live_cluster.recorder.history
        assert check_persistent_atomicity(history).ok


class TestLiveTransient:
    def test_transient_cluster_round_trip(self, tmp_path):
        with LiveCluster(
            protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.write(0, "t1")
            cluster.crash_node(0)
            cluster.recover_node(0)
            cluster.write(0, "t2")
            assert cluster.read(1) == "t2"
            assert check_transient_atomicity(cluster.recorder.history).ok

    def test_recovery_counter_persisted_to_disk(self, tmp_path):
        with LiveCluster(
            protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.crash_node(1)
            cluster.recover_node(1)
            cluster.crash_node(1)
            cluster.recover_node(1)
            record = cluster.nodes[1].storage.retrieve("recovered")
            assert record == (2,)


class TestLiveCheckpoint:
    def test_checkpoint_truncates_and_recovery_restores(self, tmp_path):
        from repro.storage import checkpoint as ckpt

        with LiveCluster(
            protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.write(0, "snapshot-me")
            node = cluster.nodes[1]
            assert node.checkpoint() is True
            storage = node.storage
            # Truncated into the snapshot, durable on disk, no stray
            # tentative record left behind.
            assert storage.retrieve("written") is None
            assert storage.retrieve(ckpt.PERMANENT_KEY) is not None
            assert storage.retrieve(ckpt.TENTATIVE_KEY) is None
            assert node.checkpoints_committed == 1
            # Unchanged state: a second call is a no-op.
            assert node.checkpoint() is False
            cluster.crash_node(1)
            cluster.recover_node(1)
            assert cluster.read(1) == "snapshot-me"
            assert check_persistent_atomicity(cluster.recorder.history).ok


class TestLiveCausalLogs:
    def test_write_log_counts_match_the_paper_over_real_io(self, tmp_path):
        with LiveCluster(
            protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            async def run():
                handle = await cluster.nodes[0].write("x")
                return handle.causal_logs

            assert cluster._call(run()) == 2

    def test_transient_write_costs_one_log_over_real_io(self, tmp_path):
        with LiveCluster(
            protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            async def run():
                handle = await cluster.nodes[0].write("x")
                return handle.causal_logs

            assert cluster._call(run()) == 1
