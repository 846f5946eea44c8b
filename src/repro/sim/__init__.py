"""Discrete-event simulation core.

This subpackage is the simulation substrate of the packet-level DES,
:mod:`repro.dessim`, and of the DES forms of the NetSparse hardware
components in :mod:`repro.core`.  It provides:

- :class:`~repro.sim.engine.Simulator` — the event loop and clock.
- :class:`~repro.sim.engine.Process` — generator-coroutine processes.
- :class:`~repro.sim.resources.Store` — a bounded FIFO channel with
  blocking puts/gets (the backpressure primitive used to model lossless,
  credit-flow-controlled RDMA fabrics).

The engine is deliberately small and deterministic: events at equal
timestamps fire in schedule order, which makes simulations reproducible
and testable.
"""

from repro.sim.engine import Event, Interrupt, Process, Simulator, Timeout
from repro.sim.resources import Store

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Store",
    "Timeout",
]
