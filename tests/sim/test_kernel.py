"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import Event, Interrupt, SimulationError, Simulator


class TestEvents:
    def test_succeed_carries_value(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_fail_carries_exception(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("boom"))
        assert ev.triggered and not ev.ok
        with pytest.raises(ValueError):
            _ = ev.value

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_callback_after_trigger_still_runs(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(7)
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]


class TestTimeAdvance:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        done = []

        def proc():
            yield sim.timeout(2.5)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done == [2.5]

    def test_zero_delay_allowed(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0)
            return sim.now

        p = sim.spawn(proc())
        sim.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.spawn(proc(3, "c"))
        sim.spawn(proc(1, "a"))
        sim.spawn(proc(2, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_by_schedule_order(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.timeout(1)
            order.append(tag)

        sim.spawn(proc("first"))
        sim.spawn(proc("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_run_until_stops_clock(self):
        sim = Simulator()

        def proc():
            while True:
                yield sim.timeout(1)

        sim.spawn(proc())
        sim.run(until=5.5)
        assert sim.now == 5.5

    def test_run_until_advances_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=10)
        assert sim.now == 10

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.timeout(4)
        assert sim.peek() == pytest.approx(4)


class TestProcesses:
    def test_return_value_via_stopiteration(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.value == "done"

    def test_join_another_process(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(2)
            return 99

        def waiter(target):
            value = yield target
            return value + 1

        w = sim.spawn(worker())
        j = sim.spawn(waiter(w))
        sim.run()
        assert j.value == 100

    def test_exception_propagates_to_joiner(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("inner")

        def waiter(target):
            try:
                yield target
            except RuntimeError:
                return "caught"

        b = sim.spawn(bad())
        w = sim.spawn(waiter(b))
        sim.run()
        assert w.value == "caught"

    def test_failed_process_recorded(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("x")

        sim.spawn(bad())
        sim.run()
        assert len(sim.failed_processes) == 1

    def test_interrupt_wakes_sleeper(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as exc:
                return ("interrupted", exc.cause, sim.now)

        def killer(target):
            yield sim.timeout(5)
            target.interrupt("stop")

        s = sim.spawn(sleeper())
        sim.spawn(killer(s))
        sim.run()
        assert s.value == ("interrupted", "stop", 5.0)

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)
            return "ok"

        p = sim.spawn(quick())
        sim.run()
        p.interrupt("late")
        assert p.value == "ok"

    def test_unhandled_interrupt_terminates_quietly(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100)

        s = sim.spawn(sleeper())

        def killer():
            yield sim.timeout(1)
            s.interrupt("bye")

        sim.spawn(killer())
        sim.run(until=10)
        assert s.triggered
        assert not sim.failed_processes

    def test_nested_yield_from(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        p = sim.spawn(outer())
        sim.run()
        assert p.value == 20
        assert sim.now == 2.0


class TestCombinators:
    def test_all_of_gathers_values(self):
        sim = Simulator()

        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        def main():
            procs = [sim.spawn(worker(d, d * 10)) for d in (3, 1, 2)]
            values = yield sim.all_of(procs)
            return values

        p = sim.spawn(main())
        sim.run()
        assert p.value == [30, 10, 20]
        assert sim.now == 3.0

    def test_all_of_empty(self):
        sim = Simulator()

        def main():
            values = yield sim.all_of([])
            return values

        p = sim.spawn(main())
        sim.run()
        assert p.value == []

    def test_any_of_returns_first(self):
        sim = Simulator()

        def main():
            value = yield sim.any_of([
                sim.timeout(5, value="slow"),
                sim.timeout(1, value="fast"),
            ])
            return value

        p = sim.spawn(main())
        sim.run()
        assert p.value == "fast"

    def test_all_of_fails_fast(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise ValueError("nope")

        def main():
            try:
                yield sim.all_of([sim.spawn(bad()), sim.timeout(100)])
            except ValueError:
                return sim.now

        p = sim.spawn(main())
        sim.run(until=200)
        assert p.value == 1.0
