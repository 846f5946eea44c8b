"""Unit tests for Store (backpressure FIFO)."""

import pytest

from repro.sim import Simulator, Store


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_producer():
    sim = Simulator()
    store = Store(sim, capacity=2)
    put_times = []

    def producer():
        for i in range(4):
            yield store.put(i)
            put_times.append(sim.now)

    def slow_consumer():
        while True:
            yield sim.timeout(10.0)
            yield store.get()

    sim.process(producer())
    sim.process(slow_consumer())
    sim.run(until=100.0)
    # First two puts immediate; third blocked until t=10, fourth until t=20.
    assert put_times == [0.0, 0.0, 10.0, 20.0]


def test_store_get_blocks_until_item():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(7.0)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("x", 7.0)]


def test_store_try_put_try_get():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a")
    assert not store.try_put("b")
    assert store.try_get() == "a"
    assert store.try_get() is None


def test_store_max_occupancy_tracked():
    sim = Simulator()
    store = Store(sim, capacity=10)
    for i in range(7):
        store.try_put(i)
    for _ in range(7):
        store.try_get()
    assert store.max_occupancy == 7
    assert len(store) == 0


def test_store_rejects_nonpositive_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_backpressure_chain_propagates():
    """A slow tail stage throttles the head of a 3-stage pipeline."""
    sim = Simulator()
    a, b = Store(sim, capacity=1), Store(sim, capacity=1)
    head_done = []

    def head():
        for i in range(5):
            yield a.put(i)
        head_done.append(sim.now)

    def middle():
        while True:
            item = yield a.get()
            yield b.put(item)

    def tail():
        while True:
            yield sim.timeout(100.0)
            yield b.get()

    sim.process(head())
    sim.process(middle())
    sim.process(tail())
    sim.run(until=10_000.0)
    # The chain holds 3 items (slot in a, middle's hand, slot in b), so
    # items 0-2 flow in immediately; items 3 and 4 each wait for one
    # tail drain (t=100, t=200).  The head's final put lands at t=200.
    assert head_done == [200.0]
