"""The KV hot path's cost does not grow with the key count or run length.

* Per-key checks reuse a key's verdict while its projection is
  unchanged, yet a crash (which grows every projection) re-checks every
  key, and a deliberately broken protocol is still caught on a later
  phase's check.
* Issuing operations never walks a node's hosted register slots.
"""

from repro.api import open_cluster
from repro.protocol import registry
from repro.protocol.broken import BROKEN_PROTOCOLS
from repro.protocol.messages import MuxBatch, WriteRequest
from repro.workloads.kv import KVWorkloadRunner, ZipfianKeys


def _kv(protocol="persistent", **options):
    cluster = open_cluster(
        backend="kv", protocol=protocol, num_processes=3, seed=5,
        num_shards=2, **options,
    )
    return cluster.start()


def _write(cluster, key, value, pid):
    return cluster.wait(cluster.session(pid).write(value, key=key))


def _read(cluster, key, pid):
    return cluster.wait(cluster.session(pid).read(key=key)).result


class TestVerdictReuse:
    def test_unchanged_keys_keep_their_verdict_and_touched_ones_recheck(self):
        cluster = _kv()
        for key in ("a", "b", "c"):
            _write(cluster, key, f"{key}0", pid=0)
        first = cluster.check()
        assert first.ok and set(first.per_key) == {"a", "b", "c"}
        again = cluster.check()
        assert all(again.per_key[k] is first.per_key[k] for k in "abc")
        _read(cluster, "b", pid=1)
        third = cluster.check()
        assert third.per_key["a"] is first.per_key["a"]
        assert third.per_key["b"] is not first.per_key["b"]
        assert third.per_key["b"].operations == 2
        # A different method is a different question: no reuse.
        forced = cluster.check(method="whitebox")
        assert all(forced.per_key[k] is not third.per_key[k] for k in "abc")

    def test_a_crash_rechecks_every_key(self):
        cluster = _kv()
        for key in ("a", "b", "c"):
            _write(cluster, key, f"{key}0", pid=0)
        before = cluster.check()
        cluster.crash(2)
        after = cluster.check()
        assert after.ok
        assert all(after.per_key[k] is not before.per_key[k] for k in "abc")

    def test_broken_protocol_is_caught_on_a_later_phase(self, monkeypatch):
        """Positive control: a forgotten write surfaces after clean phases."""
        monkeypatch.setitem(
            registry.PROTOCOLS, "broken-submajority",
            BROKEN_PROTOCOLS["broken-submajority"],
        )
        cluster = _kv(protocol="broken-submajority")
        for key in ("a", "k"):
            _write(cluster, key, "v0", pid=1)
        assert cluster.check().ok
        # The sub-majority writer returns on its own ack; keep the
        # write's second round away from every other replica, then
        # lose the only copy.
        remove = cluster.sim.network.add_filter(
            lambda src, dst, msg: (
                src == 0 and dst != 0 and isinstance(msg, MuxBatch)
                and any(
                    frame.register == "k" and isinstance(frame.message, WriteRequest)
                    for frame in msg.frames
                )
            )
        )
        assert _write(cluster, "k", "v1", pid=0).done
        remove()
        cluster.crash(0)
        assert _read(cluster, "k", pid=1) == "v0"
        verdict = cluster.check()
        assert not verdict.ok
        assert not verdict.per_key["k"].ok
        assert verdict.per_key["a"].ok


class _CountingSlots(dict):
    """A slot table that counts every walk over its entries."""

    walks = 0

    def __iter__(self):
        _CountingSlots.walks += 1
        return super().__iter__()

    def keys(self):
        _CountingSlots.walks += 1
        return super().keys()

    def values(self):
        _CountingSlots.walks += 1
        return super().values()

    def items(self):
        _CountingSlots.walks += 1
        return super().items()


def test_kv_op_window_never_walks_the_slot_table():
    cluster = open_cluster(
        backend="kv", protocol="persistent", num_processes=5, seed=1,
        num_shards=8, batch_window=2e-5, capture_trace=False,
    ).start()
    for node in cluster.sim.nodes:
        node._slots = _CountingSlots(node._slots)
    _CountingSlots.walks = 0
    keys = ZipfianKeys(num_keys=2048, s=0.99, seed=0)
    cluster.preload(keys.keys, timeout=30.0)
    report = KVWorkloadRunner(
        cluster, num_clients=16, operations_per_client=[13] * 8 + [12] * 8,
        read_fraction=0.85, keys=keys, seed=1,
    ).run(preload=False)
    assert report.completed == 200
    assert _CountingSlots.walks == 0
