"""The ``"kv"`` backend: the sharded key-value store behind the façade.

Adapts :class:`~repro.kv.store.KVCluster`.  Adds ``sharding`` to the
simulator's capabilities: operations address keys, keys map to shard
pipelines, and verification is per key.  Two vocabulary bridges make
keyed and keyless Session programs portable:

* an operation without a ``key`` targets :data:`DEFAULT_KEY`, so the
  anonymous-register programs of the other backends run unmodified;
* a session without a pinned ``pid`` lets the store route operations
  round-robin over the replicas (the other backends require a pid).

The adapter adds no kernel events and no randomness over the
low-level store, so seeded runs are byte-identical through either
surface.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.base import Cluster, Session
from repro.api.types import (
    CRASH_INJECTION,
    STORAGE_FAULTS,
    SHARDING,
    TRACE,
    VIRTUAL_TIME,
    ClusterStats,
    OpHandle,
    Verdict,
)
from repro.api.sim import (
    check_one_register,
    register_sim_metrics,
    sim_stats,
    sim_transcript,
)
from repro.common.errors import OperationAborted
from repro.history.history import History
from repro.kv.store import KVOperation, projection_check_method

#: Key an operation without an explicit ``key`` addresses -- the KV
#: backend's stand-in for the anonymous register of the other backends.
DEFAULT_KEY = "default"


class KVHandle(OpHandle):
    """Façade handle around a :class:`~repro.kv.store.KVOperation`.

    ``latency`` is submission-to-completion, queueing and batching
    delay included -- the client-side truth a service would measure.
    """

    __slots__ = ("raw", "kind", "key", "pid")

    def __init__(self, raw: KVOperation):
        self.raw = raw
        self.kind = raw.kind
        self.key = raw.key
        self.pid = raw.pid

    @property
    def settled(self) -> bool:
        return self.raw.settled

    @property
    def done(self) -> bool:
        return self.raw.done

    @property
    def aborted(self) -> bool:
        return self.raw.aborted

    @property
    def result(self) -> Any:
        return self.raw.result

    @property
    def latency(self) -> Optional[float]:
        return self.raw.latency

    @property
    def shard(self) -> int:
        """The shard pipeline the operation was routed to (kv only)."""
        return self.raw.shard

    def add_callback(self, callback: Callable[[OpHandle], None]) -> None:
        self.raw.add_callback(lambda _raw: callback(self))


class KVSession(Session):
    """A session over the store; ``pid=None`` lets the store route."""

    @property
    def ready(self) -> bool:
        # Shard pipelines queue client-side and retry across crashes,
        # so a session can always accept the next operation.
        return True

    def write(self, value: Any, key: Optional[str] = None) -> KVHandle:
        # Only None maps to the default key: an empty string must reach
        # the store's own validation, not silently alias "default".
        target = DEFAULT_KEY if key is None else key
        return self._observed(
            KVHandle(self.cluster.kv.write(target, value, pid=self.pid))
        )

    def read(self, key: Optional[str] = None) -> KVHandle:
        target = DEFAULT_KEY if key is None else key
        return self._observed(
            KVHandle(self.cluster.kv.read(target, pid=self.pid))
        )


class KVBackend(Cluster):
    """Façade adapter over :class:`~repro.kv.store.KVCluster`."""

    backend = "kv"
    capabilities = frozenset(
        {VIRTUAL_TIME, SHARDING, CRASH_INJECTION, TRACE, STORAGE_FAULTS}
    )

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        seed: Optional[int] = None,
        existing: Optional[Any] = None,
        **options: Any,
    ):
        from repro.kv.store import KVCluster

        #: key -> ((projection length, criterion, method), verdict) of
        #: the last check, for :meth:`check` to reuse (``None``: the
        #: key had no operations to check).
        self._key_verdicts: Dict[
            str, Tuple[Tuple[int, str, str], Optional[Verdict]]
        ] = {}
        if existing is not None:
            self.kv = existing
        else:
            self.kv = KVCluster(
                protocol=protocol,
                num_processes=num_processes,
                seed=seed,
                **options,
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "KVBackend":
        self.kv.start()
        return self

    # -- identity ----------------------------------------------------------

    @property
    def protocol(self) -> str:
        return self.kv.protocol_name

    @property
    def num_processes(self) -> int:
        return self.kv.config.num_processes

    @property
    def seed(self) -> Optional[int]:
        return self.kv.config.seed

    @property
    def num_shards(self) -> int:
        return self.kv.num_shards

    @property
    def sim(self):
        """The underlying :class:`~repro.cluster.SimCluster`."""
        return self.kv.sim

    @property
    def config(self):
        return self.kv.config

    @property
    def kernel(self):
        return self.kv.kernel

    @property
    def recorder(self):
        return self.kv.recorder

    def session(self, pid: Optional[int] = None) -> KVSession:
        if pid is not None:
            self.kv.sim.node(pid)  # validates the range
        return KVSession(self, pid)

    # -- keys --------------------------------------------------------------

    def keys(self) -> List[str]:
        return self.kv.sim.registers

    def ensure_key(self, key: str, timeout: float = 10.0) -> None:
        self.kv.preload([key], timeout=timeout)

    def preload(self, keys: Sequence[str], timeout: float = 10.0) -> None:
        self.kv.preload(keys, timeout=timeout)

    # -- fault verbs -------------------------------------------------------

    def crash(self, pid: int) -> None:
        self.kv.crash(pid)

    def recover(self, pid: int, wait: bool = True, timeout: float = 5.0) -> None:
        self.kv.recover(pid, wait=wait, timeout=timeout)

    def partition(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        self.kv.sim.network.partition(set(group_a), set(group_b))

    def heal(self) -> None:
        self.kv.sim.network.heal_all()

    def corrupt_record(self, pid: int, key: str) -> bool:
        return self.kv.sim.node(pid).storage.corrupt(key)

    def lose_stores(self, pid: int, count: int = 1) -> None:
        self.kv.sim.node(pid).storage.lose_next_stores(count)

    def slow_storage(self, pid: int, extra_latency: float) -> None:
        storage = self.kv.sim.node(pid).storage
        if extra_latency <= 0.0:
            storage.clear_slow()
        else:
            storage.set_slow(extra_latency)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kv.now

    def run(self, duration: Optional[float] = None, max_events: int = 1_000_000) -> None:
        self.kv.run(duration, max_events=max_events)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> bool:
        return self.kv.run_until(
            predicate, timeout=timeout, poll_every=poll_every,
            max_events=max_events,
        )

    def defer(self, delay: float, fn: Callable, *args: Any) -> None:
        self.kv.kernel.schedule(delay, fn, *args)

    def wait(
        self, handle: OpHandle, timeout: float = 5.0, expect_done: bool = False
    ) -> OpHandle:
        self.kv.wait(handle.raw, timeout=timeout)
        if expect_done and handle.aborted:
            raise OperationAborted(
                f"{handle.kind} of {handle.key!r} aborted by a crash"
            )
        return handle

    # -- verification ------------------------------------------------------

    @property
    def history(self) -> History:
        return self.kv.history

    def check(self, criterion: str = "atomic", method: str = "auto") -> Verdict:
        """Per-key verification: every touched key's projection, merged.

        ``method="auto"`` (and the explicit ``"per-key"``) apply the
        store's own policy
        (:func:`~repro.kv.store.projection_check_method`): exhaustive
        black-box search on small projections, the white-box tag
        checker beyond; ``"blackbox"`` / ``"whitebox"`` force one
        checker for every key.

        A key's verdict is reused from the previous check when its
        projection has not grown and ``criterion``/``method`` are the
        same: the projections are append-only, and the tags the
        white-box checker reads are recorded with the replies.  A
        crash or recovery grows every projection, so it re-checks
        every key.
        """
        resolved = self._resolve_criterion(criterion)
        method = self._validate_method(method)
        per_key: Dict[str, Verdict] = {}
        reused = self._key_verdicts
        for key, history in sorted(self.kv.per_key_histories().items()):
            stamp = (len(history), criterion, method)
            previous = reused.get(key)
            if previous is None or previous[0] != stamp:
                verdict = None
                operations = history.operations()
                if operations:
                    key_method = method
                    if method in ("auto", "per-key"):
                        key_method = projection_check_method(len(operations))
                    verdict = check_one_register(
                        self, history, self.kv.recorder, criterion, key_method
                    )
                previous = reused[key] = (stamp, verdict)
            if previous[1] is not None:
                per_key[key] = previous[1]
        failures = {
            key: child.reason for key, child in per_key.items() if not child.ok
        }
        return Verdict(
            ok=not failures,
            criterion=criterion,
            consistency=resolved,
            method="per-key",
            operations=len(self.kv.history.completed_operations()),
            reason="; ".join(
                f"{key}: {reason}" for key, reason in sorted(failures.items())
            ),
            per_key=per_key,
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> ClusterStats:
        stats = sim_stats(self.kv.sim)
        stats.extra["kv_completed"] = self.kv.completed_operations
        stats.extra["kv_aborted"] = self.kv.aborted_operations
        return stats

    def _register_metrics(self, registry) -> None:
        register_sim_metrics(registry, self.kv.sim)
        kv = self.kv
        registry.gauge("kv.shards", fn=lambda: kv.num_shards)
        registry.gauge("kv.completed", fn=lambda: kv.completed_operations)
        registry.gauge("kv.aborted", fn=lambda: kv.aborted_operations)

    @property
    def flight_recorder(self):
        return self.kv.flight_recorder

    def transcript(self) -> Optional[List[str]]:
        return sim_transcript(self.kv.sim)
