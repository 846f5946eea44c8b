"""The blocking store of the DES engine.

:class:`Store` is a bounded FIFO whose ``put`` blocks when full.  Chained stores therefore propagate backpressure upstream,
which is exactly how the paper's lossless InfiniBand-like fabric and the
NIC Tx/Rx hardware queues behave ("applies backpressure when network
queues get full", §7.1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Store"]


class Store:
    """Bounded FIFO channel between processes.

    ``put(item)`` and ``get()`` return events to ``yield`` on.  Puts
    complete in request order once space is available; gets complete in
    request order once an item is available.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._put_waiters: Deque[tuple] = deque()  # (event, item)
        self._get_waiters: Deque[Event] = deque()
        # Peak-occupancy statistic, useful for sizing hardware buffers.
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        self._put_waiters.append((ev, item))
        self._drain()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._get_waiters.append(ev)
        self._drain()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when the store is full."""
        if self.is_full:
            return False
        self.items.append(item)
        self.max_occupancy = max(self.max_occupancy, len(self.items))
        self._drain()
        return True

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None when empty (items may not be None)."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._drain()
        return item

    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._put_waiters and len(self.items) < self.capacity:
                ev, item = self._put_waiters.popleft()
                self.items.append(item)
                self.max_occupancy = max(self.max_occupancy, len(self.items))
                ev.succeed(item)
                progress = True
            while self._get_waiters and self.items:
                ev = self._get_waiters.popleft()
                ev.succeed(self.items.popleft())
                progress = True
