"""Unit tests of the shard maps and history partitioning."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.ids import OperationId
from repro.history.events import Crash, Invoke, Recover, Reply
from repro.history.history import History
from repro.history.partition import partition_history
from repro.kv.sharding import ConsistentHashShardMap, HashShardMap


class TestHashShardMap:
    def test_stable_across_instances(self):
        a, b = HashShardMap(8), HashShardMap(8)
        for i in range(100):
            key = f"key-{i}"
            assert a.shard_of(key) == b.shard_of(key)

    def test_in_range(self):
        m = HashShardMap(5)
        assert all(0 <= m.shard_of(f"k{i}") < 5 for i in range(1000))

    def test_single_shard(self):
        m = HashShardMap(1)
        assert all(m.shard_of(f"k{i}") == 0 for i in range(50))

    def test_balanced(self):
        m = HashShardMap(8)
        counts = Counter(m.shard_of(f"user:{i}") for i in range(8000))
        assert len(counts) == 8
        assert min(counts.values()) > 500

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            HashShardMap(0)


class TestConsistentHashShardMap:
    def test_stable_and_in_range(self):
        a, b = ConsistentHashShardMap(8), ConsistentHashShardMap(8)
        for i in range(200):
            key = f"key-{i}"
            assert a.shard_of(key) == b.shard_of(key)
            assert 0 <= a.shard_of(key) < 8

    def test_every_shard_owns_keys(self):
        m = ConsistentHashShardMap(8)
        counts = Counter(m.shard_of(f"k{i}") for i in range(5000))
        assert len(counts) == 8

    def test_resizing_moves_few_keys(self):
        """The point of consistent hashing: growing 8 -> 9 shards remaps
        roughly 1/9 of the keyspace, not almost all of it."""
        small, large = ConsistentHashShardMap(8), ConsistentHashShardMap(9)
        keys = [f"key-{i}" for i in range(4000)]
        moved = sum(1 for k in keys if small.shard_of(k) != large.shard_of(k))
        assert moved / len(keys) < 0.35  # modular hashing moves ~8/9

        modular_small, modular_large = HashShardMap(8), HashShardMap(9)
        modular_moved = sum(
            1 for k in keys if modular_small.shard_of(k) != modular_large.shard_of(k)
        )
        assert moved < modular_moved

    def test_rejects_bad_replicas(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashShardMap(4, replicas=0)


def _op(pid, seq):
    return OperationId(pid=pid, seq=seq)


class TestPartitionHistory:
    def test_splits_by_register_and_replicates_failures(self):
        a, b = _op(0, 1), _op(1, 2)
        history = History(
            [
                Invoke(time=0.0, pid=0, op=a, kind="write", value="x"),
                Crash(time=1.0, pid=2),
                Invoke(time=2.0, pid=1, op=b, kind="read"),
                Recover(time=3.0, pid=2),
                Reply(time=4.0, pid=0, op=a, kind="write"),
                Reply(time=5.0, pid=1, op=b, kind="read", result="x"),
            ]
        )
        registers = {a: "alpha", b: "beta"}
        parts = partition_history(history, registers.get)
        assert set(parts) == {"alpha", "beta"}
        assert len(parts["alpha"]) == 4  # invoke, crash, recover, reply
        assert len(parts["beta"]) == 4
        for part in parts.values():
            part.assert_well_formed()

    def test_forced_registers_get_failure_only_histories(self):
        history = History([Crash(time=0.0, pid=0), Recover(time=1.0, pid=0)])
        parts = partition_history(history, lambda op: None, registers=["quiet"])
        assert len(parts["quiet"]) == 2
        parts["quiet"].assert_well_formed()

    def test_interleaved_per_process_ops_become_well_formed(self):
        """A process with two registers open at once is ill-formed as a
        single history but well-formed per register."""
        a, b = _op(0, 1), _op(0, 2)
        history = History(
            [
                Invoke(time=0.0, pid=0, op=a, kind="write", value="x"),
                Invoke(time=1.0, pid=0, op=b, kind="write", value="y"),
                Reply(time=2.0, pid=0, op=b, kind="write"),
                Reply(time=3.0, pid=0, op=a, kind="write"),
            ]
        )
        assert not history.is_well_formed()
        registers = {a: "alpha", b: "beta"}
        parts = partition_history(history, registers.get)
        for part in parts.values():
            part.assert_well_formed()


def _fold_in_steps(events, cuts, register_of, registers):
    """Partition ``events`` as they are appended, folding at each cut."""
    history = History()
    projections = None
    fed = 0
    for cut in sorted(cuts) + [len(events)]:
        for event in events[fed:cut]:
            history.append(event)
        fed = max(fed, cut)
        projections = partition_history(
            history, register_of, registers=registers, previous=projections
        )
    return history, projections


def _as_events(projections):
    return {key: list(history) for key, history in projections.items()}


class TestSuffixFoldedPartition:
    def test_fold_equals_from_scratch_with_key_first_seen_after_crash(self):
        a, b, c = _op(0, 1), _op(1, 1), _op(1, 2)
        events = [
            Invoke(time=0.0, pid=0, op=a, kind="write", value="x"),
            Crash(time=1.0, pid=2),
            # Folded from here on: "beta" first appears after a crash
            # that an earlier fold already consumed.
            Invoke(time=2.0, pid=1, op=b, kind="read"),
            Recover(time=3.0, pid=2),
            Reply(time=4.0, pid=0, op=a, kind="write"),
            Reply(time=5.0, pid=1, op=b, kind="read", result="x"),
            Crash(time=6.0, pid=0),
            Invoke(time=7.0, pid=1, op=c, kind="write", value="y"),
        ]
        registers = {a: "alpha", b: "beta", c: "gamma"}
        history, folded = _fold_in_steps(events, [2, 5], registers.get, ["quiet"])
        scratch = partition_history(history, registers.get, registers=["quiet"])
        assert _as_events(folded) == _as_events(scratch)
        assert [type(e) for e in folded["beta"]] == [Crash, Invoke, Recover, Reply, Crash]
        # Forced before any event, "quiet" still carries every failure.
        assert [type(e) for e in folded["quiet"]] == [Crash, Recover, Crash]
        assert [type(e) for e in folded["gamma"]] == [Crash, Recover, Crash, Invoke]

    def test_key_forced_after_a_crash_is_seeded_with_every_failure(self):
        history = History([Crash(time=0.0, pid=0)])
        projections = partition_history(history, lambda op: None)
        history.append(Recover(time=1.0, pid=0))
        projections = partition_history(
            history, lambda op: None, registers=["late"], previous=projections
        )
        assert [type(e) for e in projections["late"]] == [Crash, Recover]

    def test_fold_returns_the_same_live_projections(self):
        a = _op(0, 1)
        history = History([Invoke(time=0.0, pid=0, op=a, kind="write", value="x")])
        first = partition_history(history, lambda op: "k")
        projection = first["k"]
        history.append(Reply(time=1.0, pid=0, op=a, kind="write"))
        second = partition_history(history, lambda op: "k", previous=first)
        assert second is first and second["k"] is projection
        assert len(projection) == 2

    def test_previous_from_another_history_is_rejected(self):
        projections = partition_history(History(), lambda op: None)
        with pytest.raises(ValueError):
            partition_history(History(), lambda op: None, previous=projections)

    @settings(max_examples=150, deadline=None)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["invoke", "reply", "crash", "recover"]),
                st.integers(0, 2),
                st.sampled_from([None, "a", "b", "c"]),
            ),
            max_size=30,
        ),
        cuts=st.lists(st.integers(0, 30), max_size=4),
        forced=st.lists(st.sampled_from(["a", "d"]), max_size=2),
    )
    def test_any_fold_schedule_equals_from_scratch(self, script, cuts, forced):
        register_of = {}
        events = []
        for index, (kind, pid, register) in enumerate(script):
            if kind == "crash":
                events.append(Crash(time=float(index), pid=pid))
            elif kind == "recover":
                events.append(Recover(time=float(index), pid=pid))
            else:
                op = _op(pid, index)
                register_of[op] = register
                cls = Invoke if kind == "invoke" else Reply
                events.append(cls(time=float(index), pid=pid, op=op, kind="read"))
        history, folded = _fold_in_steps(events, cuts, register_of.get, forced)
        scratch = partition_history(history, register_of.get, registers=forced)
        assert _as_events(folded) == _as_events(scratch)
