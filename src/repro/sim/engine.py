"""Event loop, clock, and generator-coroutine processes.

The design follows the classic event-wheel structure of SimPy and SST:
a priority queue of ``(time, priority, sequence)``-ordered events, and
processes expressed as Python generators that ``yield`` the events they
wait on.  Determinism matters more than raw flexibility here, so ties in
time are broken first by an explicit integer priority and then by
schedule order (a monotonically increasing sequence number).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = ["Event", "Timeout", "Process", "Interrupt", "AnyOf", "Simulator"]

#: Default event priority.  Lower fires first among equal-time events.
NORMAL = 0
#: Priority used by :class:`Timeout` created through ``Simulator.timeout``.
URGENT = -1


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three states: *pending* (created, not yet
    triggered), *triggered* (given a value, scheduled to fire), and
    *processed* (callbacks ran).  Processes wait on events by yielding
    them; the simulator resumes the process with the event's value when
    the event fires.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "triggered", "processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok = True
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self._value = value
        self._ok = True
        self.sim._schedule_event(self, 0.0, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc``."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self._value = exc
        self._ok = False
        self.sim._schedule_event(self, 0.0, priority)
        return self


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self.triggered = True
        self._value = value
        sim._schedule_event(self, delay, URGENT)


class AnyOf(Event):
    """Fires as soon as any constituent event fires: with the values of
    the events triggered by then, keyed by position, or with the first
    event's exception if it failed.  An empty list fires at once with
    ``{}``."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._on_fire(ev)
            else:
                ev.callbacks.append(self._on_fire)

    def _on_fire(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed({
                i: e.value for i, e in enumerate(self.events) if e.triggered
            })


class Process(Event):
    """A generator coroutine driven by the simulator.

    The generator yields :class:`Event` objects (or plain numbers, which
    are sugar for :class:`Timeout`).  A process is itself an event that
    fires with the generator's return value, so processes can wait on
    each other.
    """

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick-start on the next event-loop iteration at the current time.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed(None, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name}")
        waited = self._waiting_on
        if waited is not None and self._resume in waited.callbacks:
            waited.callbacks.remove(self._resume)
        self._waiting_on = None
        wake = Event(self.sim)
        wake.callbacks.append(lambda ev: self._step(Interrupt(cause), throw=True))
        wake.succeed(None, priority=URGENT)

    def _resume(self, ev: Event) -> None:
        self._waiting_on = None
        if ev.ok:
            self._step(ev.value, throw=False)
        else:
            self._step(ev.value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                exc = value if isinstance(value, BaseException) else RuntimeError(value)
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except Interrupt:
            if not self.triggered:
                self.succeed(None)
            return
        except Exception as exc:
            # The process died: fail its event so waiters see the
            # exception (unobserved failures are silent by design).
            if not self.triggered:
                self.fail(exc)
            return
        if isinstance(target, (int, float)):
            target = Timeout(self.sim, float(target))
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected Event or delay"
            )
        self._waiting_on = target
        if target.processed:
            # Already fired: resume on the next loop iteration.
            wake = Event(self.sim)
            wake.callbacks.append(self._resume)
            wake._value = target.value
            wake._ok = target.ok
            wake.triggered = True
            self.sim._schedule_event(wake, 0.0, URGENT)
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(5.0)
    ...     return sim.now
    >>> p = sim.process(hello())
    >>> sim.run()
    >>> p.value
    5.0
    """

    def __init__(self):
        self._queue: List = []
        self._seq = 0
        self.now: float = 0.0
        self._n_dispatched = 0
        self._next_request_id = 0

    def next_request_id(self) -> int:
        """Monotone id counter scoped to this simulator.

        Components that tag wire messages (e.g. the RIG units'
        :class:`~repro.core.rig.ReadPR`) draw ids here so a run's ids
        start at 0 and depend only on that run's event order — never on
        other simulations the process ran earlier.
        """
        rid = self._next_request_id
        self._next_request_id += 1
        return rid

    # -- scheduling ---------------------------------------------------

    def _schedule_event(self, event: Event, delay: float, priority: int) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._seq, event))

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        ev = Event(self)
        ev.callbacks.append(lambda _ev: fn())
        ev.triggered = True
        self._schedule_event(ev, time - self.now, NORMAL)
        return ev

    # -- execution ----------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none are queued."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Dispatch the single next event."""
        time, _prio, _seq, event = heapq.heappop(self._queue)
        if time < self.now:
            raise AssertionError("event queue went backwards in time")
        self.now = time
        event.processed = True
        callbacks, event.callbacks = event.callbacks, []
        self._n_dispatched += 1
        for cb in callbacks:
            cb(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` time passes, or
        ``max_events`` have been dispatched (a runaway guard)."""
        dispatched = 0
        while self._queue:
            if until is not None and self.peek() > until:
                self.now = until
                return
            self.step()
            dispatched += 1
            if max_events is not None and dispatched >= max_events:
                raise RuntimeError(f"exceeded max_events={max_events}")

    @property
    def events_dispatched(self) -> int:
        return self._n_dispatched
