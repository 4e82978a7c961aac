"""Unit tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.simulator import (
    COMPACT_MIN_STALE,
    EventHandle,
    SimulationError,
    Simulator,
    Timer,
)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abcde":
            sim.schedule(1.0, log.append, name)
        sim.run()
        assert log == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]

    def test_run_until_horizon_stops_and_advances_now(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_event_at_exact_horizon_runs(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "edge")
        sim.run(until=5.0)
        assert log == ["edge"]

    def test_max_events_budget(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(float(i + 1), log.append, i)
        processed = sim.run(max_events=4)
        assert processed == 4
        assert log == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_pending_flag(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending


class TestCompactionDuringRun:
    def test_mass_cancel_from_a_callback_keeps_order_and_count(self):
        sim = Simulator()
        handles = []
        fired = []  # (tag, events_processed as read inside the callback)

        def record(tag):
            fired.append((tag, sim.events_processed))

        def schedule(at):
            handles.append(sim.schedule_at(at, record, len(handles)))

        victims = range(COMPACT_MIN_STALE * 3)
        for index in victims:
            schedule(5.0 + 0.01 * index)
        # survivors interleave with the victims in time and tie among themselves
        for at in (2.0, 2.0, 5.005, 5.5, 5.5, 6.0, 9.0):
            schedule(at)

        def mass_cancel():
            record("cancel")
            heap = sim._heap
            for index in victims:
                handles[index].cancel()
            # compaction ran, on the very list the run loop is draining
            assert sim._heap is heap
            assert len(sim._heap) < len(victims)
            for at in (5.5, 7.0, 3.0):
                schedule(at)

        sim.schedule_at(3.0, mass_cancel)
        sim.run()

        survivors = [h for index, h in enumerate(handles) if index not in victims]
        expected = [handles.index(h) for h in sorted(survivors, key=lambda h: (h.time, h.seq))]
        assert [tag for tag, _ in fired if tag != "cancel"] == expected
        # each callback saw the count of events completed before it
        assert [count for _, count in fired] == list(range(len(fired)))
        assert sim.events_processed == len(fired)
        assert sim.pending_events == 0


class TestHandleFreeEvents:
    """``call_at`` entries share the ``(time, seq)`` order with handles."""

    def test_equal_time_entries_fire_in_seq_order(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, log.append, "handle-1")
        assert sim.call_at(1.0, log.append, "free-2") is None
        sim.schedule(1.0, log.append, "handle-3")
        sim.call_at(1.0, log.append, "free-4")
        sim.schedule_at(0.5, log.append, "handle-early")
        sim.call_at(2.0, log.append, "free-late")
        sim.run()
        assert log == ["handle-early", "handle-1", "free-2", "handle-3", "free-4", "free-late"]
        assert sim.events_processed == 6

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_compaction_keeps_every_handle_free_entry(self):
        sim = Simulator()
        fired = []
        handles = []
        for index in range(COMPACT_MIN_STALE * 2):
            sim.call_at(1.0 + 0.001 * index, fired.append, ("free", index))
            handles.append(sim.schedule_at(1.0 + 0.001 * index, fired.append, ("handle", index)))
        for handle in handles:
            handle.cancel()
        sim._compact()
        assert len(sim._heap) == COMPACT_MIN_STALE * 2
        sim.run()
        assert fired == [("free", index) for index in range(COMPACT_MIN_STALE * 2)]

    def test_pending_events_counts_both_kinds(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        keep = sim.schedule(3.0, lambda: None)
        sim.schedule(4.0, lambda: None).cancel()
        assert sim.pending_events == 3
        sim.run(until=1.5)
        assert sim.pending_events == 2
        keep.cancel()
        assert sim.pending_events == 1


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = Simulator(seed=42).rng.random()
        b = Simulator(seed=42).rng.random()
        c = Simulator(seed=43).rng.random()
        assert a == b
        assert a != c

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    def test_arbitrary_delays_run_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(delays)
        assert len(fired) == len(delays)


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: log.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert log == [2.0]
        assert not timer.armed

    def test_restart_replaces_previous(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: log.append(sim.now))
        timer.start(2.0)
        timer.start(5.0)
        sim.run()
        assert log == [5.0]

    def test_stop_disarms(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: log.append("fired"))
        timer.start(1.0)
        timer.stop()
        sim.run()
        assert log == []

    def test_expiry_reports_absolute_time(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(3.0)
        assert timer.expiry == 3.0
        timer.stop()
        assert timer.expiry is None

    def test_rearm_from_callback(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: None)

        def tick():
            log.append(sim.now)
            if len(log) < 3:
                timer.start(1.0)

        timer._callback = tick
        timer.start(1.0)
        sim.run()
        assert log == [1.0, 2.0, 3.0]
