"""Packet-loss handling for RIG operations (§7 "Network Packet Loss").

The fabric is lossless (backpressure), so losses stem from hardware
failures.  Detection follows the paper: a watchdog timer is armed when
a RIG operation starts and reset when it terminates; on timeout the
operation is *failed* — the host is informed and the host-memory buffer
holding any partial results is discarded.  We add the natural recovery
loop on top: the host reissues the failed command, with the unit's
state (pending table, Idx Filter bits, received buffer) rolled back so
late/stale responses from the failed attempt are recognized and dropped
(see :meth:`repro.core.rig.RigClientUnit.run_rx`).  A failed command
is re-issued immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import telemetry
from repro.core.rig import RigClientUnit
from repro.sim import Simulator

__all__ = ["RigWatchdog", "WatchdogReport", "RigOperationFailed"]


class RigOperationFailed(RuntimeError):
    """A RIG operation exceeded its retry budget."""


@dataclass
class WatchdogReport:
    """Outcome of a watchdog-protected RIG operation."""

    attempts: int
    timeouts: int
    discarded_properties: int
    completed: bool
    elapsed: float
    events: List[str] = field(default_factory=list)


class RigWatchdog:
    """Drive a client RIG Unit's command under a watchdog timer."""

    def __init__(
        self,
        sim: Simulator,
        unit: RigClientUnit,
        timeout: float,
        max_retries: int = 3,
    ):
        if timeout <= 0:
            raise ValueError("watchdog timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        self.sim = sim
        self.unit = unit
        self.timeout = timeout
        self.max_retries = max_retries

    def execute(self, idxs) -> "Process":
        """Returns a process-event whose value is a WatchdogReport."""
        return self.sim.process(self._execute(list(idxs)),
                                name=f"watchdog-rig{self.unit.unit_id}")

    def _execute(self, idxs):
        start = self.sim.now
        report = WatchdogReport(attempts=0, timeouts=0,
                                discarded_properties=0, completed=False,
                                elapsed=0.0)
        for attempt in range(self.max_retries + 1):
            report.attempts += 1
            telemetry.count("faults.watchdog.attempts")
            received_mark = len(self.unit.received_idxs)
            command = self.unit.execute(idxs)
            deadline = self.sim.timeout(self.timeout)
            yield self.sim.any_of([command, deadline])
            if command.processed:
                report.completed = True
                report.elapsed = self.sim.now - start
                report.events.append(f"attempt {attempt}: completed")
                return report
            # Watchdog fired: fail the operation and discard the buffer.
            report.timeouts += 1
            telemetry.count("faults.watchdog.timeouts")
            report.events.append(f"attempt {attempt}: watchdog timeout")
            if command.is_alive:
                command.interrupt("watchdog")
            report.discarded_properties += self._discard(received_mark)
        report.elapsed = self.sim.now - start
        telemetry.count("faults.watchdog.failures")
        raise RigOperationFailed(
            f"RIG operation failed after {report.attempts} attempts "
            f"({report.timeouts} watchdog timeouts)"
        )

    def _discard(self, received_mark: int) -> int:
        """Roll back the failed attempt's partial results (§7.1:
        'the whole buffer ... is discarded')."""
        unit = self.unit
        partial = unit.received_idxs[received_mark:]
        del unit.received_idxs[received_mark:]
        for idx in partial:
            unit.idx_filter.discard(idx)
        unit.pending.clear()
        # Wake anything parked on a pending-table slot.
        wake, unit._slot_free = unit._slot_free, self.sim.event()
        wake.succeed(None)
        return len(partial)
