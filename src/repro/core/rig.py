"""RIG Units: Remote Indexed Gather offload engines in the SNIC (§5).

Provides both fidelity levels used by the reproduction:

- :class:`RigClientUnit` / :class:`RigServerUnit` — DES models with the
  structures of Figure 5: pipelined idx processing (one idx per SNIC
  cycle), the shared Idx Filter, the private Pending PR Table (stall
  when full), Tx/Rx hardware queues with backpressure, DMA latencies.
  Used in the small-scale integration simulations and tests.
- :func:`rig_generation_time` — the analytic makespan of dispatching a
  node's batches over its client units (one host core issues RIG
  commands serially; units process batches pipelined), which the
  128-node cluster model uses as the PR-generation rate limit and which
  reproduces the batch-size tradeoff of Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np

from repro.sim import Simulator, Store

__all__ = [
    "ReadPR",
    "ResponsePR",
    "RigClientUnit",
    "RigServerUnit",
    "rig_generation_time",
]


@dataclass
class ReadPR:
    """A read property request on the wire.

    ``request_id`` is drawn from the owning :class:`Simulator`'s
    counter (see :meth:`Simulator.next_request_id`), so ids are
    deterministic per DES run — not dependent on what other
    simulations the process executed before (the old module-global
    ``itertools.count`` leaked state across runs and test orders).
    """

    idx: int
    src_node: int
    src_tid: int
    request_id: int = 0


@dataclass
class ResponsePR:
    """A response carrying one property back to the requester."""

    idx: int
    dst_node: int
    dst_tid: int
    request_id: int
    payload_bytes: int = 0


class RigClientUnit:
    """A RIG Unit in client mode (Figure 5).

    ``execute(idxs)`` returns a process-event that fires when the RIG
    command completes: every non-dropped idx turned into a PR *and* all
    responses arrived (the completion rule of §4).  Responses must be
    fed to :meth:`deliver_response` (normally by wiring ``rx_queue``
    through a network model into it via :meth:`run_rx`).
    """

    def __init__(
        self,
        sim: Simulator,
        unit_id: int,
        node: int,
        tx_queue: Store,
        rx_queue: Store,
        idx_filter: Set[int],
        freq: float = 2.2e9,
        pending_entries: int = 256,
        dma_latency: float = 200e-9,
        enable_filtering: bool = True,
        enable_coalescing: bool = True,
    ):
        self.sim = sim
        self.unit_id = unit_id
        self.node = node
        self.tx_queue = tx_queue
        self.rx_queue = rx_queue
        self.idx_filter = idx_filter       # shared per node (SNIC DRAM)
        self.cycle = 1.0 / freq
        self.pending_entries = pending_entries
        self.dma_latency = dma_latency
        self.enable_filtering = enable_filtering
        self.enable_coalescing = enable_coalescing
        self.pending: Dict[int, ReadPR] = {}   # idx -> outstanding PR
        #: Optional latency instrumentation (repro.dessim.monitoring):
        #: anything with issued(request_id) / completed(request_id).
        self.latency_probe = None
        self._slot_free = sim.event()
        self.stats_issued = 0
        self.stats_filtered = 0
        self.stats_coalesced = 0
        self.stats_responses = 0
        self.stats_stale_responses = 0
        self.received_idxs: List[int] = []
        sim.process(self.run_rx(), name=f"rig{unit_id}-rx")

    def execute(self, idxs):
        """Run one RIG command over ``idxs``; returns the completion event."""
        return self.sim.process(self._execute(list(idxs)),
                                name=f"rig{self.unit_id}-cmd")

    def _execute(self, idxs: List[int]):
        # DMA the idx batch from host memory into the Idx Buffer.
        yield self.sim.timeout(self.dma_latency)
        for idx in idxs:
            yield self.sim.timeout(self.cycle)  # pipelined: 1 idx / cycle
            if self.enable_filtering and idx in self.idx_filter:
                self.stats_filtered += 1
                continue
            if self.enable_coalescing and idx in self.pending:
                self.stats_coalesced += 1
                continue
            while len(self.pending) >= self.pending_entries:
                yield self._slot_free  # structural stall (§5.3)
            pr = ReadPR(idx=idx, src_node=self.node, src_tid=self.unit_id,
                        request_id=self.sim.next_request_id())
            self.pending[idx] = pr
            self.stats_issued += 1
            if self.latency_probe is not None:
                self.latency_probe.issued(pr.request_id)
            yield self.tx_queue.put(pr)
        # Completion: wait until every outstanding PR is answered.
        while self.pending:
            yield self._slot_free

    def run_rx(self):
        while True:
            resp: ResponsePR = yield self.rx_queue.get()
            yield self.sim.timeout(self.dma_latency)  # property DMA to host
            if resp.idx not in self.pending:
                # A response for an aborted (watchdog-failed) RIG op:
                # its host buffer was discarded, so drop it (§7.1).
                self.stats_stale_responses += 1
                continue
            self.stats_responses += 1
            self.received_idxs.append(resp.idx)
            if self.latency_probe is not None:
                self.latency_probe.completed(resp.request_id)
            self.idx_filter.add(resp.idx)
            self.pending.pop(resp.idx, None)
            wake, self._slot_free = self._slot_free, self.sim.event()
            wake.succeed(None)


class RigServerUnit:
    """A RIG Unit in server mode: answers read PRs from its host's memory."""

    def __init__(
        self,
        sim: Simulator,
        unit_id: int,
        node: int,
        rx_queue: Store,
        tx_queue: Store,
        payload_bytes: int,
        freq: float = 2.2e9,
        host_read_latency: float = 400e-9,
    ):
        self.sim = sim
        self.unit_id = unit_id
        self.node = node
        self.rx_queue = rx_queue
        self.tx_queue = tx_queue
        self.payload_bytes = payload_bytes
        self.cycle = 1.0 / freq
        self.host_read_latency = host_read_latency
        self.stats_served = 0
        sim.process(self.run(), name=f"rig-server{unit_id}")

    def run(self):
        while True:
            pr: ReadPR = yield self.rx_queue.get()
            yield self.sim.timeout(self.cycle + self.host_read_latency)
            resp = ResponsePR(
                idx=pr.idx,
                dst_node=pr.src_node,
                dst_tid=pr.src_tid,
                request_id=pr.request_id,
                payload_bytes=self.payload_bytes,
            )
            self.stats_served += 1
            yield self.tx_queue.put(resp)


def rig_generation_time(
    n_idxs,
    n_units: int,
    batch_size: int,
    freq: float = 2.2e9,
    cmd_overhead: float = 1.0e-6,
    policy: str = "least_loaded",
):
    """Makespan of PR generation per node (the Figure 15 tradeoff).

    A single host core issues RIG commands back to back, one every
    ``cmd_overhead`` seconds; each command covers ``batch_size`` idxs
    and runs at one idx per cycle on a client unit chosen by
    ``policy`` — ``least_loaded`` (the host polls completion registers)
    or ``round_robin`` (fire-and-forget, cheaper host logic).

    Small batches pay the serial command overhead; large batches starve
    parallelism (few batches over many units) and leave a long last
    batch — the non-monotonic sensitivity the paper shows.

    ``n_idxs`` is one node's idx count (a float comes back) or an int
    array of per-node counts (an array of per-node makespans comes
    back, from one scan over all nodes).  A count ``<= 0`` takes 0.0.
    """
    counts = np.asarray(n_idxs, dtype=np.int64)
    if not (counts > 0).any():
        return 0.0 if counts.ndim == 0 else np.zeros(counts.shape)
    if n_units < 1 or batch_size < 1:
        raise ValueError("n_units and batch_size must be positive")
    if policy not in ("least_loaded", "round_robin"):
        raise ValueError(f"unknown scheduling policy {policy!r}")
    out = _rig_generation_time_fast(
        np.atleast_1d(counts), n_units, batch_size, freq, cmd_overhead
    )
    return float(out[0]) if counts.ndim == 0 else out


def _rig_generation_time_fast(
    counts: np.ndarray,
    n_units: int,
    batch_size: int,
    freq: float,
    cmd_overhead: float,
) -> np.ndarray:
    """Per-round vectorized makespan scan over (nodes x units),
    bit-identical per node to the per-batch scheduling loop (the
    oracle in ``tests/oracles.py``).

    Batches are all ``batch_size`` idxs except the last, so
    ``least_loaded`` dispatch coincides with round-robin: the units'
    free times rise in assignment order within a round, and whenever
    ``argmin`` faces a tie the competing slots hold *equal* durations,
    leaving the multiset of free times — and its maximum — unchanged
    whichever unit wins.  That makes one schedule serve both policies,
    and it evaluates as a max-plus scan: round ``r`` updates every
    live slot's free time with one elementwise ``max`` and one add —
    the same two float roundings, in the same order, as the reference
    recurrence ``free = max(issue, free) + dur``.  Slots past a node's
    last batch keep their free time.
    """
    counts = np.maximum(counts, 0)
    n_batches = -(-counts // batch_size)
    last = n_batches - 1
    full_dur = np.float64(batch_size) / freq
    last_dur = (counts - batch_size * last).astype(np.float64) / freq
    unit_free = np.zeros((counts.size, n_units))
    for r in range(0, int(n_batches.max()), n_units):
        b = np.arange(r, r + n_units)
        issue = (b.astype(np.float64) + 1.0) * cmd_overhead
        dur = np.where(b == last[:, None], last_dur[:, None], full_dur)
        step = np.maximum(issue, unit_free) + dur
        unit_free = np.where(b < n_batches[:, None], step, unit_free)
    return unit_free.max(axis=1)
