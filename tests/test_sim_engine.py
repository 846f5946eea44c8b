"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Simulator, Interrupt
from repro.sim.engine import AnyOf


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 5.0
    assert sim.now == 5.0


def test_numeric_yield_is_timeout_sugar():
    sim = Simulator()

    def proc():
        yield 2.5
        yield 2.5
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.call_at(delay, lambda d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_equal_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.call_at(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_call_at_rejects_past():
    sim = Simulator()
    sim.call_at(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_process_waits_on_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(4.0)
        return "done"

    def boss():
        result = yield sim.process(worker())
        return (result, sim.now)

    p = sim.process(boss())
    sim.run()
    assert p.value == ("done", 4.0)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter():
        value = yield ev
        seen.append((value, sim.now))

    def trigger():
        yield sim.timeout(3.0)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert seen == [(42, 3.0)]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_failure_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        t1, t2 = sim.timeout(2.0, "fast"), sim.timeout(5.0, "slow")
        yield sim.any_of([t1, t2])
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 2.0


def test_any_of_empty_fires_immediately():
    sim = Simulator()
    cond = AnyOf(sim, [])
    assert cond.triggered and cond.value == {}


def test_interrupt_raises_in_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    def interrupter(target):
        yield sim.timeout(3.0)
        target.interrupt("wake up")

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run()
    assert log == [(3.0, "wake up")]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.call_at(10.0, lambda: fired.append(True))
    sim.run(until=5.0)
    assert not fired
    assert sim.now == 5.0
    sim.run()
    assert fired


def test_max_events_guard():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    with pytest.raises(RuntimeError):
        sim.run(max_events=50)


def test_yield_garbage_raises_type_error():
    sim = Simulator()

    def bad():
        yield "not an event"

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_nondecreasing_dispatch_order_under_load():
    sim = Simulator()
    stamps = []

    def proc(delay):
        yield sim.timeout(delay)
        stamps.append(sim.now)

    import random

    rng = random.Random(3)
    for _ in range(200):
        sim.process(proc(rng.uniform(0, 100)))
    sim.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == 200


def test_process_exception_fails_its_event():
    """A crashing process fails its event; waiters see the exception."""
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise ValueError("kaboom")

    caught = []

    def waiter():
        try:
            yield sim.process(crasher())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    sim.run()
    assert caught == ["kaboom"]


def test_unobserved_process_failure_is_silent():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("nobody listening")

    p = sim.process(crasher())
    sim.run()   # must not raise
    assert p.triggered and not p.ok


def test_any_of_fails_on_failed_member():
    sim = Simulator()
    good = sim.timeout(10.0)
    bad = sim.event()
    caught = []

    def waiter():
        try:
            yield sim.any_of([good, bad])
        except ValueError:
            caught.append(sim.now)

    sim.process(waiter())
    sim.call_at(2.0, lambda: bad.fail(ValueError("x")))
    sim.run()
    assert caught == [2.0]


def test_peek_and_step():
    sim = Simulator()
    sim.call_at(3.0, lambda: None)
    sim.call_at(7.0, lambda: None)
    assert sim.peek() == 3.0
    sim.step()
    assert sim.now == 3.0
    assert sim.peek() == 7.0


def test_events_dispatched_counter():
    sim = Simulator()
    for t in (1.0, 2.0):
        sim.call_at(t, lambda: None)
    sim.run()
    assert sim.events_dispatched == 2
