"""Property: ``SimNode.ready`` (an O(1) counter) agrees with the slot scan.

The node keeps a count of hosted slots that have not finished
initializing/recovering instead of scanning every slot on each read of
:attr:`~repro.sim.node.SimNode.ready`.  Whatever mix of provisioning
(while up or while crashed), crashes, recoveries and duplicate
``RecoveryComplete`` signals happens, the counter must give the answer
the scan would.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster
from repro.protocol.base import RecoveryComplete

NUM_PROCESSES = 3

steps = st.lists(
    st.one_of(
        st.tuples(st.just("provision"), st.integers(0, 5)),
        st.tuples(st.just("crash"), st.integers(0, NUM_PROCESSES - 1)),
        st.tuples(st.just("recover"), st.integers(0, NUM_PROCESSES - 1)),
        st.tuples(st.just("duplicate"), st.integers(0, NUM_PROCESSES - 1), st.integers(0, 5)),
        st.tuples(st.just("run"), st.sampled_from([0.0, 1e-4, 2e-3])),
    ),
    max_size=25,
)


def _scan(node) -> bool:
    return not node.crashed and all(slot.ready for slot in node._slots.values())


@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_ready_counter_matches_slot_scan(steps):
    cluster = SimCluster(protocol="persistent", num_processes=NUM_PROCESSES, seed=3)
    cluster.start()
    for step in steps:
        kind = step[0]
        node = cluster.node(step[1]) if kind in ("crash", "recover", "duplicate") else None
        if kind == "provision":
            # Up nodes boot the new slot now; crashed ones leave it
            # dormant until they recover.
            cluster.ensure_register(f"k{step[1]}")
        elif kind == "crash" and not node.crashed:
            cluster.crash(step[1])
        elif kind == "recover" and node.crashed:
            cluster.recover(step[1])
        elif kind == "duplicate" and not node.crashed:
            # A second RecoveryComplete for an already-ready slot must
            # not count it twice.
            ready = [slot for slot in node._slots.values() if slot.ready]
            if ready:
                slot = ready[step[2] % len(ready)]
                node._execute([RecoveryComplete()], depth=0, op=None, slot=slot)
        elif kind == "run":
            cluster.run(step[1])
        for each in cluster.nodes:
            assert each.ready == _scan(each)
    # Once everyone is back, every slot finishes and the count drains.
    for each in cluster.nodes:
        if each.crashed:
            cluster.recover(each.pid)
    cluster.run(0.05)
    for each in cluster.nodes:
        assert each.ready and _scan(each)
