"""PR concatenation: Concatenation Queues with delay-based flush (§6.1.2).

Two implementations with the same semantics:

- :class:`DelayQueueConcatenator` — an exact DES component: one
  MTU-sized Concatenation Queue (CQ) per (type, destination), an
  Expiration-Time Queue scheduling flushes ``delay`` after the first PR
  enters an empty CQ, immediate flush on a full CQ.  Used in the
  packet-level validation simulations.
- :func:`window_concat` — the vectorized trace model: the PR stream is
  chopped into windows of ``window_prs`` consecutive PRs (the number of
  PRs that pass a concatenation point within one delay interval) and
  same-destination PRs within a window share packets.  Used at 128-node
  scale.

The equivalence of the two under steady arrival rates is asserted in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.sim import Simulator

__all__ = [
    "ConcatStats",
    "DelayQueueConcatenator",
    "window_concat",
    "window_concat_dest_bytes",
    "window_concat_totals",
]


@dataclass
class ConcatStats:
    """Aggregate outcome of concatenating one PR stream.

    ``per_dest_*`` map destination node → counts.  The cluster model
    reads the same per-destination bytes as one array from
    :func:`window_concat_dest_bytes`.
    """

    n_prs: int
    n_packets: int
    n_solo_packets: int            # packets carrying exactly one PR
    per_dest_prs: Dict[int, int]
    per_dest_packets: Dict[int, int]
    per_dest_solo: Dict[int, int]

    @property
    def avg_prs_per_packet(self) -> float:
        """Table 7's 'Avg #PR/Pkt'."""
        if self.n_packets == 0:
            return 0.0
        return self.n_prs / self.n_packets

    def wire_bytes_per_dest(
        self,
        pr_payload: int,
        header_upper: int = 50,
        header_concat: int = 14,
        header_concat_solo: int = 10,
        header_pr: int = 18,
    ) -> Dict[int, int]:
        """Total wire bytes toward each destination."""
        out = {}
        shared = header_upper + header_concat
        shared_solo = header_upper + header_concat_solo
        for dest, pkts in self.per_dest_packets.items():
            solo = self.per_dest_solo.get(dest, 0)
            prs = self.per_dest_prs[dest]
            out[dest] = (
                (pkts - solo) * shared
                + solo * shared_solo
                + prs * (header_pr + pr_payload)
            )
        return out


def window_concat(
    dests: np.ndarray,
    max_prs_per_packet: int,
    window_prs: int,
) -> ConcatStats:
    """Vectorized window model of delay-queue concatenation.

    Within each window of ``window_prs`` consecutive PRs, PRs to the
    same destination are packed ``max_prs_per_packet`` to a packet (a
    full CQ flushes immediately; the remainder flushes on expiry).

    ``window_prs <= 1`` (or ``max_prs_per_packet == 1``) degenerates to
    one packet per PR — the no-concatenation baseline.
    """
    dests = np.asarray(dests, dtype=np.int64)
    n = dests.size
    if max_prs_per_packet < 1:
        raise ValueError("max_prs_per_packet must be >= 1")
    if n == 0:
        return ConcatStats(0, 0, 0, {}, {}, {})
    window_prs = max(int(window_prs), 1)
    return _window_concat_fast(dests, max_prs_per_packet, window_prs)


def _group_counts(
    window_id: np.ndarray, dests: np.ndarray, n_windows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PR count, window and destination of every nonempty (window,
    destination) group, in key order.

    A ``bincount`` over the dense key space stands in for a sort-based
    ``np.unique``; a sparse destination space (e.g. raw row ids) falls
    back to the sort.  Both give the same groups in the same order.
    """
    if n_windows == dests.size:
        # One PR per window (no concatenation): every PR is its group.
        return np.ones(dests.size, dtype=np.int64), window_id, dests
    d_span = int(dests.max()) + 1
    keyspace = n_windows * d_span
    key = window_id * d_span + dests
    if keyspace <= max(4 * dests.size, 1 << 16):
        all_counts = np.bincount(key, minlength=keyspace)
        keys = np.flatnonzero(all_counts)
        counts = all_counts[keys]
    else:
        keys, counts = np.unique(key, return_counts=True)
    return counts, keys // d_span, keys % d_span


def _packets_and_solo(
    counts: np.ndarray, max_prs_per_packet: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Packets per group (full CQs plus one partial) and packets that
    carry exactly one PR."""
    full, rem = np.divmod(counts, max_prs_per_packet)
    packets = full + (rem > 0)
    if max_prs_per_packet == 1:
        return packets, counts
    return packets, (rem == 1).astype(np.int64)


def _dest_sums(
    dests: np.ndarray, max_prs_per_packet: int, window_prs: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-destination ``(PRs, packets, solo packets)`` histograms of a
    nonempty stream, indexed by destination id."""
    n = dests.size
    window_id = np.arange(n, dtype=np.int64) // window_prs
    counts, _, group_dest = _group_counts(
        window_id, dests, int(window_id[-1]) + 1
    )
    packets, solo = _packets_and_solo(counts, max_prs_per_packet)
    # Integer-weight histograms are exact (float64 holds counts < 2**53).
    d_span = int(dests.max()) + 1
    return tuple(
        np.bincount(group_dest, w, minlength=d_span).astype(np.int64)
        for w in (counts, packets, solo)
    )


def _wire_bytes(n_packets, n_solo, n_prs, pr_payload, header_upper,
                header_concat, header_concat_solo, header_pr):
    """Wire bytes of ``n_prs`` PRs sent in ``n_packets`` packets, of
    which ``n_solo`` carry one PR (scalars or equal-shape arrays)."""
    return (
        (n_packets - n_solo) * (header_upper + header_concat)
        + n_solo * (header_upper + header_concat_solo)
        + n_prs * (header_pr + pr_payload)
    )


def _window_concat_fast(
    dests: np.ndarray, max_prs_per_packet: int, window_prs: int
) -> ConcatStats:
    """Pure-integer vectorized window model.

    ``bincount`` histograms stand in for a sort-based ``np.unique`` over
    the (window, dest) key and a per-destination boolean-mask loop.
    All quantities are integer counts, so it agrees exactly with that
    loop form (the oracle in ``tests/oracles.py``; golden-tested).
    """
    prs_sum, pkt_sum, solo_sum = _dest_sums(
        dests, max_prs_per_packet, window_prs
    )
    dest_ids = np.flatnonzero(prs_sum)  # every group holds >= 1 PR
    return ConcatStats(
        n_prs=dests.size,
        n_packets=int(pkt_sum.sum()),
        n_solo_packets=int(solo_sum.sum()),
        per_dest_prs={int(d): int(prs_sum[d]) for d in dest_ids},
        per_dest_packets={int(d): int(pkt_sum[d]) for d in dest_ids},
        per_dest_solo={int(d): int(solo_sum[d]) for d in dest_ids},
    )


def window_concat_dest_bytes(
    dests: np.ndarray,
    max_prs_per_packet: int,
    window_prs: int,
    pr_payload: int,
    header_upper: int = 50,
    header_concat: int = 14,
    header_concat_solo: int = 10,
    header_pr: int = 18,
) -> Tuple[np.ndarray, int]:
    """``(wire bytes per destination, n_packets)`` of one stage.

    The byte array is indexed by destination id (``max(dests) + 1``
    long, zero where no PR goes) and equals
    ``window_concat(...).wire_bytes_per_dest(...)`` entry by entry.
    """
    dests = np.asarray(dests, dtype=np.int64)
    if max_prs_per_packet < 1:
        raise ValueError("max_prs_per_packet must be >= 1")
    if dests.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    prs_sum, pkt_sum, solo_sum = _dest_sums(
        dests, max_prs_per_packet, max(int(window_prs), 1)
    )
    nbytes = _wire_bytes(pkt_sum, solo_sum, prs_sum, pr_payload,
                         header_upper, header_concat, header_concat_solo,
                         header_pr)
    return nbytes, int(pkt_sum.sum())


def window_concat_totals(
    dests: np.ndarray,
    max_prs_per_packet: int,
    window_prs: int,
    pr_payload: int,
    header_upper: int = 50,
    header_concat: int = 14,
    header_concat_solo: int = 10,
    header_pr: int = 18,
    lengths=None,
):
    """``(total wire bytes, n_packets)`` of one concatenation stage.

    Equals ``sum(window_concat(...).wire_bytes_per_dest(...).values())``
    and ``.n_packets`` without materializing the per-destination maps:
    the per-destination byte formula is linear in the per-destination
    packet/solo/PR counts, so summing it over destinations only needs
    the stream totals.  All quantities are integer counts, making the
    collapse an exact identity (golden-tested against the full path).

    With ``lengths``, ``dests`` is the concatenation of independent
    streams (segments) of those lengths, each with its own windows —
    e.g. one segment per NIC of a rack — and the result is two int64
    arrays, one entry per segment, each equal to a separate call on
    that segment.  Without it the whole stream is one segment and the
    result is two ints.
    """
    dests = np.asarray(dests, dtype=np.int64)
    if max_prs_per_packet < 1:
        raise ValueError("max_prs_per_packet must be >= 1")
    window_prs = max(int(window_prs), 1)
    seg_len = np.asarray(
        [dests.size] if lengths is None else lengths, dtype=np.int64
    )
    if seg_len.sum() != dests.size:
        raise ValueError("segment lengths must sum to the stream length")
    n_segs = seg_len.size
    n_packets = n_solo = np.zeros(n_segs, dtype=np.int64)
    if dests.size:
        # Window ids restart at each segment start and are numbered
        # consecutively across segments, so no group spans two.
        seg_windows = -(-seg_len // window_prs)
        first_window = np.cumsum(seg_windows) - seg_windows
        seg_start = np.cumsum(seg_len) - seg_len
        pos = np.arange(dests.size, dtype=np.int64)
        window_id = (
            (pos - np.repeat(seg_start, seg_len)) // window_prs
            + np.repeat(first_window, seg_len)
        )
        n_windows = int(seg_windows.sum())
        counts, group_window, _ = _group_counts(window_id, dests, n_windows)
        packets, solo = _packets_and_solo(counts, max_prs_per_packet)
        group_seg = np.repeat(np.arange(n_segs), seg_windows)[group_window]
        n_packets, n_solo = (
            np.bincount(group_seg, w, minlength=n_segs).astype(np.int64)
            for w in (packets, solo)
        )
    total = _wire_bytes(n_packets, n_solo, seg_len, pr_payload,
                        header_upper, header_concat, header_concat_solo,
                        header_pr)
    if lengths is None:
        return int(total[0]), int(n_packets[0])
    return total, n_packets


@dataclass
class _CQ:
    """One Concatenation Queue: PRs waiting for the same destination."""

    prs: List[Any] = field(default_factory=list)
    generation: int = 0           # invalidates stale expiry callbacks


class DelayQueueConcatenator:
    """DES concatenation point (NIC or switch pipe).

    ``push(pr, dest, pr_type)`` enqueues a PR.  The PRs of a CQ are
    emitted as one packet (via ``on_emit(prs, dest, pr_type)``) when the
    CQ reaches ``max_prs_per_packet`` or ``delay`` seconds after the
    first PR entered the empty CQ — whichever comes first.  ``flush()``
    force-drains everything (end of kernel).
    """

    def __init__(
        self,
        sim: Simulator,
        max_prs_per_packet: int,
        delay: float,
        on_emit: Callable[[List[Any], int, str], None],
    ):
        if max_prs_per_packet < 1:
            raise ValueError("max_prs_per_packet must be >= 1")
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        self.sim = sim
        self.max_prs = max_prs_per_packet
        self.delay = delay
        self.on_emit = on_emit
        self.cqs: Dict[Tuple[str, int], _CQ] = {}
        self.stats_packets = 0
        self.stats_prs = 0

    def push(self, pr: Any, dest: int, pr_type: str) -> None:
        cq = self.cqs.setdefault((pr_type, dest), _CQ())
        cq.prs.append(pr)
        if len(cq.prs) == 1 and self.delay > 0 and self.max_prs > 1:
            generation = cq.generation
            self.sim.call_at(
                self.sim.now + self.delay,
                lambda: self._expire(pr_type, dest, generation),
            )
        if len(cq.prs) >= self.max_prs:
            self._emit(pr_type, dest)

    def _expire(self, pr_type: str, dest: int, generation: int) -> None:
        cq = self.cqs.get((pr_type, dest))
        if cq is None or cq.generation != generation or not cq.prs:
            return  # flushed-full in the meantime
        self._emit(pr_type, dest)

    def _emit(self, pr_type: str, dest: int) -> None:
        cq = self.cqs[(pr_type, dest)]
        prs, cq.prs = cq.prs, []
        cq.generation += 1
        self.stats_packets += 1
        self.stats_prs += len(prs)
        self.on_emit(prs, dest, pr_type)

    def flush(self) -> None:
        """Emit every non-empty CQ immediately."""
        for (pr_type, dest), cq in list(self.cqs.items()):
            if cq.prs:
                self._emit(pr_type, dest)

    @property
    def avg_prs_per_packet(self) -> float:
        if self.stats_packets == 0:
            return 0.0
        return self.stats_prs / self.stats_packets


def deconcatenate(packet_prs: List[Any]) -> List[Any]:
    """Break a concatenated packet into its component PRs (§6.1.2:
    'its implementation is straightforward')."""
    return list(packet_prs)
