"""DES instrumentation: PR latency profiles.

The trace model reasons about throughput; the DES can additionally
answer *latency* questions — how long an individual property request
waits end to end.  :class:`LatencyProbe` records per-PR issue/response
timestamps via the RIG units' hooks and reports percentiles.  When a
telemetry registry is active, every completed-PR latency also feeds
the ``dessim.pr.latency`` histogram.  Peak queue depths come from
:attr:`repro.sim.Store.max_occupancy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro import telemetry
from repro.sim import Simulator

__all__ = ["LatencyProbe", "LatencyStats"]


@dataclass
class LatencyStats:
    """Percentile summary of observed PR round-trip latencies."""

    count: int
    p50: float
    p90: float
    p99: float
    mean: float
    max: float

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        arr = np.asarray(samples, dtype=float)
        return LatencyStats(
            count=arr.size,
            p50=float(np.percentile(arr, 50)),
            p90=float(np.percentile(arr, 90)),
            p99=float(np.percentile(arr, 99)),
            mean=float(arr.mean()),
            max=float(arr.max()),
        )


class LatencyProbe:
    """Track per-request round-trip latency across a DES run.

    Wire it between issue and completion: call :meth:`issued` when a PR
    leaves a RIG unit and :meth:`completed` when its response lands
    (keyed by request id).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._issue_times: Dict[int, float] = {}
        self.samples: List[float] = []
        self.unmatched_completions = 0

    def issued(self, request_id: int) -> None:
        self._issue_times[request_id] = self.sim.now

    def completed(self, request_id: int) -> None:
        start = self._issue_times.pop(request_id, None)
        if start is None:
            self.unmatched_completions += 1
            return
        latency = self.sim.now - start
        self.samples.append(latency)
        telemetry.observe("dessim.pr.latency", latency)

    @property
    def outstanding(self) -> int:
        return len(self._issue_times)

    def stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.samples)
