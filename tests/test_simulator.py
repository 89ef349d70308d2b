"""Simulator tests: event engine, traces and model validators."""

from fractions import Fraction

import pytest

from repro.simulator.engine import SimulationError, Simulator
from repro.simulator.trace import Interval, ModelViolation, Trace


class TestEngine:
    def test_events_in_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3, lambda: log.append("c"))
        sim.schedule(1, lambda: log.append("a"))
        sim.schedule(2, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_tie_break_is_fifo(self):
        sim = Simulator()
        log = []
        sim.schedule(1, lambda: log.append("first"))
        sim.schedule(1, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_horizon_exclusive(self):
        sim = Simulator()
        log = []
        sim.schedule(5, lambda: log.append("late"))
        end = sim.run(until=5)
        assert log == [] and end == 5

    def test_resume_after_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(5, lambda: log.append("x"))
        sim.run(until=3)
        sim.run()
        assert log == ["x"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(2, lambda: log.append(sim.now))

        sim.schedule(1, first)
        sim.run()
        assert log == [1, 3]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        log = []
        entry = sim.schedule(1, lambda: log.append("no"))
        sim.cancel(entry)
        sim.run()
        assert log == []

    def test_exact_fraction_times(self):
        sim = Simulator()
        times = []
        sim.schedule(Fraction(1, 3), lambda: times.append(sim.now))
        sim.schedule(Fraction(2, 3), lambda: times.append(sim.now))
        sim.run()
        assert times == [Fraction(1, 3), Fraction(2, 3)]

    def test_event_budget(self):
        sim = Simulator()

        def loop():
            sim.schedule(1, loop)

        sim.schedule(1, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=10)


class TestTrace:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval("A", "send", Fraction(2), Fraction(1))

    def test_units(self):
        t = Trace()
        t.record("A", "send", 0, 2, peer="B", units=2)
        t.record("A", "send", 3, 4, peer="B", units=1)
        assert t.units("A", "send") == 3

    def test_one_port_ok(self):
        t = Trace()
        t.record("A", "send", 0, 1, peer="B")
        t.record("A", "send", 1, 2, peer="C")  # touching is fine
        t.record("A", "recv", 0, 2, peer="D")  # overlap with send is fine
        t.validate("one-port")

    def test_one_port_overlapping_sends(self):
        t = Trace()
        t.record("A", "send", 0, 2, peer="B")
        t.record("A", "send", 1, 3, peer="C")
        with pytest.raises(ModelViolation):
            t.validate("one-port")

    def test_one_port_overlapping_recvs(self):
        t = Trace()
        t.record("A", "recv", 0, 2, peer="B")
        t.record("A", "recv", 1, 3, peer="C")
        with pytest.raises(ModelViolation):
            t.validate("one-port")

    def test_send_or_receive_rejects_overlap(self):
        t = Trace()
        t.record("A", "send", 0, 2, peer="B")
        t.record("A", "recv", 1, 3, peer="C")
        t.validate("one-port")  # fine under full overlap
        with pytest.raises(ModelViolation):
            t.validate("send-or-receive")

    def test_multiport_allows_k(self):
        t = Trace()
        t.record("A", "send", 0, 2, peer="B")
        t.record("A", "send", 0, 2, peer="C")
        with pytest.raises(ModelViolation):
            t.validate("one-port")
        t.validate("multiport", ports=2)
        with pytest.raises(ModelViolation):
            t.validate("multiport", ports=1)

    def test_unknown_model(self):
        t = Trace()
        with pytest.raises(ValueError):
            t.validate("quantum")

    def test_compute_never_overlaps_itself(self):
        t = Trace()
        t.record("A", "compute", 0, 2)
        t.record("A", "compute", 1, 3)
        with pytest.raises(ModelViolation):
            t.validate("one-port")

    def test_zero_length_intervals_ignored(self):
        t = Trace()
        t.record("A", "send", 1, 1, peer="B")
        t.record("A", "send", 1, 2, peer="C")
        t.validate("one-port")

    def test_matched_transfers(self):
        t = Trace()
        t.record("A", "send", 0, 1, peer="B", units=1)
        t.record("B", "recv", 0, 1, peer="A", units=1)
        t.check_matched_transfers()

    def test_unmatched_transfers_detected(self):
        t = Trace()
        t.record("A", "send", 0, 1, peer="B", units=1)
        with pytest.raises(ModelViolation):
            t.check_matched_transfers()
