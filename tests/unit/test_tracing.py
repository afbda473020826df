"""Unit tests for the trace event log."""

import pytest

from repro.protocol.messages import SnQuery
from repro.sim import tracing
from repro.sim.tracing import NULL_TRACE, Trace, TraceEvent


@pytest.fixture
def constructions(monkeypatch):
    """Count every TraceEvent the tracing module builds."""
    built = []

    def counting(*args, **kwargs):
        event = TraceEvent(*args, **kwargs)
        built.append(event)
        return event

    monkeypatch.setattr(tracing, "TraceEvent", counting)
    return built


class TestTrace:
    def test_emit_appends_in_order(self):
        trace = Trace()
        trace.tick(tracing.CRASH, 1.0, 0)
        trace.tick(tracing.CRASH, 1.0, 1)
        assert [e.pid for e in trace.events] == [0, 1]
        assert len(trace) == 2

    def test_counts_by_kind_even_without_capture(self):
        trace = Trace(capture=False)
        trace.tick(tracing.SEND)
        trace.tick(tracing.SEND)
        trace.tick(tracing.CRASH)
        assert trace.count(tracing.SEND) == 2
        assert trace.count(tracing.CRASH) == 1
        assert trace.events == []

    def test_filter_by_kind_and_pid(self):
        trace = Trace()
        trace.tick(tracing.RECOVER, 1.0, 0)
        trace.tick(tracing.RECOVER, 1.0, 1)
        trace.tick(tracing.CRASH, 1.0, 1)
        assert len(trace.filter(kind=tracing.RECOVER)) == 2
        assert len(trace.filter(pid=1)) == 2
        assert len(trace.filter(kind=tracing.RECOVER, pid=1)) == 1

    def test_listeners_run_synchronously(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.tick(tracing.CRASH, 2.0, 3)
        assert seen == [TraceEvent(time=2.0, kind=tracing.CRASH, pid=3)]

    def test_unsubscribe_stops_delivery(self):
        trace = Trace()
        seen = []
        unsubscribe = trace.subscribe(seen.append)
        trace.tick(tracing.CRASH)
        unsubscribe()
        trace.tick(tracing.CRASH)
        assert len(seen) == 1

    def test_unsubscribe_is_idempotent(self):
        trace = Trace()
        unsubscribe = trace.subscribe(lambda e: None)
        unsubscribe()
        unsubscribe()

    def test_listener_may_emit_followup_events(self):
        # The failure injector reacts to events by crashing nodes, which
        # records a crash event from within the listener callback.
        trace = Trace()

        def listener(e):
            if e.kind == tracing.RECOVER:
                trace.tick(tracing.CRASH, e.time, e.pid)

        trace.subscribe(listener)
        trace.tick(tracing.RECOVER, 1.0, 2)
        assert trace.count(tracing.CRASH) == 1
        assert [e.kind for e in trace] == [tracing.RECOVER, tracing.CRASH]

    def test_listener_may_unsubscribe_during_delivery(self):
        trace = Trace(capture=False)
        seen = []

        def once(e):
            seen.append(("once", e.kind))
            unsubscribe()

        unsubscribe = trace.subscribe(once)
        trace.subscribe(lambda e: seen.append(("always", e.kind)))
        trace.tick(tracing.CRASH)
        trace.tick(tracing.RECOVER)
        assert seen == [
            ("once", tracing.CRASH),
            ("always", tracing.CRASH),
            ("always", tracing.RECOVER),
        ]

    def test_format_renders_requested_kinds(self):
        trace = Trace()
        trace.tick(tracing.RECOVER, 1.0, 3)
        trace.tick(tracing.CRASH, 1.0, 4)
        text = trace.format(kinds=[tracing.CRASH])
        assert "p4" in text
        assert "p3" not in text

    def test_detail_fields_cover_every_kind(self):
        assert sorted(tracing.DETAIL_FIELDS) == sorted(tracing.ALL_KINDS)

    def test_event_str_contains_details(self):
        text = str(TraceEvent(time=1.0, kind=tracing.DELIVER, pid=2, detail={"msg": "W"}))
        assert "deliver" in text
        assert "msg=W" in text


class TestPerKindSubscription:
    def test_kind_listener_sees_only_its_kinds(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append, kinds=[tracing.CRASH, tracing.RECOVER])
        trace.tick(tracing.CRASH)
        trace.tick(tracing.RECOVERY_DONE, 0.0, 0, None, "r")
        trace.tick(tracing.RECOVER)
        assert [e.kind for e in seen] == [tracing.CRASH, tracing.RECOVER]

    def test_kind_listener_unsubscribe(self):
        trace = Trace()
        seen = []
        unsubscribe = trace.subscribe(seen.append, kinds=[tracing.CRASH])
        trace.tick(tracing.CRASH)
        unsubscribe()
        trace.tick(tracing.CRASH)
        assert len(seen) == 1

    def test_all_kind_listeners_run_before_kind_listeners(self):
        trace = Trace()
        order = []
        trace.subscribe(lambda e: order.append("kind"), kinds=[tracing.CRASH])
        trace.subscribe(lambda e: order.append("all"))
        trace.tick(tracing.CRASH)
        assert order == ["all", "kind"]


class TestFastPath:
    def test_capturing_trace_wants_everything(self):
        trace = Trace(capture=True)
        for kind in (tracing.CRASH, tracing.RECOVER):
            trace.tick(kind)
        assert [e.kind for e in trace] == [tracing.CRASH, tracing.RECOVER]

    def test_quiet_trace_wants_nothing(self, constructions):
        # No capture, no listener: no TraceEvent is ever built.
        trace = Trace(capture=False)
        message = SnQuery(op="p0#1", round_no=1)
        trace.tick(tracing.SEND, 1.0, 0, message.op, 1, message, 32)
        trace.tick(tracing.CRASH, 1.0, 0)
        assert trace.events == []
        assert constructions == []
        assert trace.count(tracing.SEND) == 1

    def test_kind_subscription_wants_only_that_kind(self, constructions):
        trace = Trace(capture=False)
        unsubscribe = trace.subscribe(lambda e: None, kinds=[tracing.CRASH])
        trace.tick(tracing.RECOVER)
        assert constructions == []
        trace.tick(tracing.CRASH)
        assert len(constructions) == 1
        unsubscribe()
        trace.tick(tracing.CRASH)
        assert len(constructions) == 1

    def test_all_kind_subscription_deactivates_the_fast_path(self, constructions):
        trace = Trace(capture=False)
        unsubscribe = trace.subscribe(lambda e: None)
        trace.tick(tracing.CRASH)
        trace.tick(tracing.RECOVER)
        assert len(constructions) == 2
        unsubscribe()
        trace.tick(tracing.CRASH)
        assert len(constructions) == 2

    def test_tick_counts_without_an_event(self):
        trace = Trace(capture=False)
        trace.tick(tracing.SEND)
        trace.tick(tracing.SEND)
        assert trace.count(tracing.SEND) == 2
        assert trace.events == []

    def test_null_trace_wants_nothing_and_refuses_listeners(self, constructions):
        NULL_TRACE.tick(tracing.CRASH, 1.0, 0)
        assert constructions == []
        assert NULL_TRACE.count(tracing.CRASH) == 0
        assert not NULL_TRACE.capturing
        with pytest.raises(ValueError):
            NULL_TRACE.subscribe(lambda e: None)
