"""Tests for PR concatenation: window model and DES delay queues."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.concat import (
    DelayQueueConcatenator,
    window_concat,
    window_concat_dest_bytes,
    window_concat_totals,
)
from repro.sim import Simulator


class TestWindowConcat:
    def test_empty(self):
        stats = window_concat(np.array([]), max_prs_per_packet=10, window_prs=8)
        assert stats.n_packets == 0
        assert stats.avg_prs_per_packet == 0.0

    def test_single_dest_packs_fully(self):
        dests = np.zeros(40, dtype=int)
        stats = window_concat(dests, max_prs_per_packet=10, window_prs=40)
        assert stats.n_packets == 4
        assert stats.avg_prs_per_packet == 10.0
        assert stats.n_solo_packets == 0

    def test_window_boundaries_split_packets(self):
        dests = np.zeros(40, dtype=int)
        stats = window_concat(dests, max_prs_per_packet=10, window_prs=5)
        # Each 5-PR window emits one 5-PR packet.
        assert stats.n_packets == 8
        assert stats.avg_prs_per_packet == 5.0

    def test_no_concatenation_degenerate(self):
        dests = np.array([1, 1, 2, 2])
        stats = window_concat(dests, max_prs_per_packet=1, window_prs=100)
        assert stats.n_packets == 4
        assert stats.n_solo_packets == 4

    def test_window_one_is_all_solo(self):
        dests = np.array([3, 3, 3])
        stats = window_concat(dests, max_prs_per_packet=50, window_prs=1)
        assert stats.n_packets == 3
        assert stats.n_solo_packets == 3

    def test_mixed_destinations(self):
        # Window of 6: dests [0,0,0,1,1,2] -> packets: {0:3}, {1:2}, {2:1}.
        dests = np.array([0, 0, 0, 1, 1, 2])
        stats = window_concat(dests, max_prs_per_packet=10, window_prs=6)
        assert stats.n_packets == 3
        assert stats.n_solo_packets == 1
        assert stats.per_dest_prs == {0: 3, 1: 2, 2: 1}
        assert stats.per_dest_packets == {0: 1, 1: 1, 2: 1}

    def test_remainder_of_one_counts_solo(self):
        dests = np.zeros(11, dtype=int)
        stats = window_concat(dests, max_prs_per_packet=10, window_prs=11)
        assert stats.n_packets == 2
        assert stats.n_solo_packets == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            window_concat(np.array([0]), max_prs_per_packet=0, window_prs=5)

    def test_wire_bytes_per_dest(self):
        dests = np.array([0, 0, 1])
        stats = window_concat(dests, max_prs_per_packet=10, window_prs=3)
        bytes_by_dest = stats.wire_bytes_per_dest(pr_payload=64)
        # dest 0: one 2-PR packet: 64 + 2*(18+64) = 228.
        assert bytes_by_dest[0] == 64 + 2 * 82
        # dest 1: solo: 78 + 64.
        assert bytes_by_dest[1] == 78 + 64

    @settings(max_examples=200, deadline=None)
    @given(
        dests=st.lists(st.integers(0, 12), max_size=400),
        maxp=st.integers(1, 40),
        window=st.integers(1, 100),
    )
    def test_property_pr_conservation(self, dests, maxp, window):
        """INVARIANT: concatenation neither loses nor duplicates PRs,
        and no packet exceeds max_prs_per_packet."""
        arr = np.array(dests, dtype=np.int64)
        stats = window_concat(arr, max_prs_per_packet=maxp, window_prs=window)
        assert stats.n_prs == len(dests)
        assert sum(stats.per_dest_prs.values()) == len(dests)
        if len(dests):
            assert stats.n_packets >= -(-len(dests) // maxp)
            assert stats.n_prs <= stats.n_packets * maxp

    @settings(max_examples=100, deadline=None)
    @given(dests=st.lists(st.integers(0, 5), min_size=1, max_size=200))
    def test_property_bigger_window_never_more_packets(self, dests):
        arr = np.array(dests, dtype=np.int64)
        small = window_concat(arr, max_prs_per_packet=20, window_prs=4)
        large = window_concat(arr, max_prs_per_packet=20, window_prs=64)
        assert large.n_packets <= small.n_packets


class TestWindowConcatTotals:
    """window_concat_totals must equal full per-dest accounting exactly
    — it is the batch fastpath behind the cluster model's NIC-concat
    and respond stages, so any drift would break bit-identity."""

    @settings(max_examples=200, deadline=None)
    @given(
        dests=st.lists(st.integers(0, 12), max_size=400),
        maxp=st.integers(1, 40),
        window=st.integers(1, 100),
        payload=st.integers(0, 256),
    )
    def test_property_matches_per_dest_sum(self, dests, maxp, window,
                                           payload):
        arr = np.array(dests, dtype=np.int64)
        stats = window_concat(arr, max_prs_per_packet=maxp,
                              window_prs=window)
        want = sum(stats.wire_bytes_per_dest(pr_payload=payload).values())
        total, n_packets = window_concat_totals(
            arr, max_prs_per_packet=maxp, window_prs=window,
            pr_payload=payload)
        assert total == want
        assert n_packets == stats.n_packets

    def test_custom_headers(self):
        dests = np.array([0, 0, 1, 2, 2, 2])
        stats = window_concat(dests, max_prs_per_packet=2, window_prs=6)
        kwargs = dict(header_upper=40, header_concat=7,
                      header_concat_solo=3, header_pr=11)
        want = sum(stats.wire_bytes_per_dest(pr_payload=9,
                                             **kwargs).values())
        total, n_packets = window_concat_totals(
            dests, max_prs_per_packet=2, window_prs=6, pr_payload=9,
            **kwargs)
        assert total == want
        assert n_packets == stats.n_packets

    def test_empty(self):
        assert window_concat_totals(np.array([], dtype=np.int64),
                                    max_prs_per_packet=5, window_prs=4,
                                    pr_payload=8) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            window_concat_totals(np.array([0]), max_prs_per_packet=0,
                                 window_prs=5, pr_payload=8)


#: Destination ids this far apart leave the (window, destination) key
#: space sparse, so the kernels group with ``np.unique``, not bincount.
SPARSE_STRIDE = 100_003


class TestWindowConcatSegments:
    """The segmented ``window_concat_totals`` is one call over many
    independent streams: each entry must equal a scalar call on its
    own segment."""

    @settings(max_examples=300, deadline=None)
    @given(
        segments=st.lists(st.lists(st.integers(0, 12), max_size=60),
                          max_size=8),
        maxp=st.integers(1, 12),
        window=st.integers(-1, 40),
        payload=st.integers(0, 256),
        sparse=st.booleans(),
    )
    @example(segments=[[], [3, 3], [], [1]], maxp=4, window=8, payload=8,
             sparse=False)
    @example(segments=[[0, 0, 1], [2, 2]], maxp=3, window=1, payload=8,
             sparse=False)
    @example(segments=[[0, 0, 1], [2, 2]], maxp=3, window=0, payload=8,
             sparse=False)
    @example(segments=[[5, 5, 5], [5]], maxp=1, window=16, payload=4,
             sparse=False)
    @example(segments=[[7, 0, 7, 12], [], [12, 12]], maxp=2, window=3,
             payload=0, sparse=True)
    @example(segments=[], maxp=2, window=3, payload=0, sparse=False)
    def test_property_matches_per_segment_calls(self, segments, maxp,
                                                window, payload, sparse):
        if sparse:
            segments = [[d * SPARSE_STRIDE for d in seg] for seg in segments]
        dests = np.array([d for seg in segments for d in seg],
                         dtype=np.int64)
        total, n_packets = window_concat_totals(
            dests, max_prs_per_packet=maxp, window_prs=window,
            pr_payload=payload, lengths=[len(seg) for seg in segments])
        assert total.dtype == n_packets.dtype == np.int64
        got = list(zip(total.tolist(), n_packets.tolist()))
        want = [
            window_concat_totals(np.array(seg, dtype=np.int64),
                                 max_prs_per_packet=maxp, window_prs=window,
                                 pr_payload=payload)
            for seg in segments
        ]
        assert got == want

    def test_lengths_must_cover_the_stream(self):
        with pytest.raises(ValueError):
            window_concat_totals(np.array([0, 1, 2]), max_prs_per_packet=2,
                                 window_prs=4, pr_payload=8, lengths=[1, 1])


class TestWindowConcatDestBytes:
    """Per-destination bytes as an array: the entries of
    ``window_concat(...).wire_bytes_per_dest(...)``, zero elsewhere."""

    @settings(max_examples=200, deadline=None)
    @given(
        dests=st.lists(st.integers(0, 12), max_size=400),
        maxp=st.integers(1, 40),
        window=st.integers(0, 100),
        payload=st.integers(0, 256),
        sparse=st.booleans(),
    )
    def test_property_matches_per_dest_map(self, dests, maxp, window,
                                           payload, sparse):
        arr = np.array(dests, dtype=np.int64) * (SPARSE_STRIDE if sparse
                                                 else 1)
        stats = window_concat(arr, max_prs_per_packet=maxp,
                              window_prs=window)
        want = stats.wire_bytes_per_dest(pr_payload=payload)
        nbytes, n_packets = window_concat_dest_bytes(
            arr, max_prs_per_packet=maxp, window_prs=window,
            pr_payload=payload)
        assert n_packets == stats.n_packets
        assert nbytes.size == (int(arr.max()) + 1 if arr.size else 0)
        got = {int(d): int(nbytes[d]) for d in np.flatnonzero(nbytes)}
        assert got == {d: b for d, b in want.items() if b}


class TestDelayQueueConcatenator:
    def collect(self):
        emitted = []

        def on_emit(prs, dest, pr_type):
            emitted.append((list(prs), dest, pr_type))

        return emitted, on_emit

    def test_full_cq_flushes_immediately(self):
        sim = Simulator()
        emitted, on_emit = self.collect()
        cq = DelayQueueConcatenator(sim, max_prs_per_packet=3, delay=1.0,
                                    on_emit=on_emit)
        for i in range(3):
            cq.push(i, dest=7, pr_type="read")
        assert len(emitted) == 1
        assert emitted[0] == ([0, 1, 2], 7, "read")

    def test_expiry_flushes_partial_cq(self):
        sim = Simulator()
        emitted, on_emit = self.collect()
        cq = DelayQueueConcatenator(sim, max_prs_per_packet=10, delay=2.0,
                                    on_emit=on_emit)

        def pusher():
            cq.push("a", dest=1, pr_type="read")
            yield sim.timeout(1.0)
            cq.push("b", dest=1, pr_type="read")

        sim.process(pusher())
        sim.run()
        # Both PRs ride the packet flushed 2.0 after the first arrived.
        assert len(emitted) == 1
        assert emitted[0][0] == ["a", "b"]
        assert sim.now == pytest.approx(2.0)

    def test_expiry_timer_from_first_pr(self):
        sim = Simulator()
        times = []
        cq = DelayQueueConcatenator(
            sim, max_prs_per_packet=10, delay=5.0,
            on_emit=lambda prs, d, t: times.append(sim.now),
        )

        def pusher():
            yield sim.timeout(3.0)
            cq.push("x", dest=0, pr_type="read")

        sim.process(pusher())
        sim.run()
        assert times == [8.0]

    def test_separate_cqs_per_dest_and_type(self):
        sim = Simulator()
        emitted, on_emit = self.collect()
        cq = DelayQueueConcatenator(sim, max_prs_per_packet=2, delay=100.0,
                                    on_emit=on_emit)
        cq.push(1, dest=0, pr_type="read")
        cq.push(2, dest=1, pr_type="read")
        cq.push(3, dest=0, pr_type="response")
        # No CQ full yet.
        assert emitted == []
        cq.push(4, dest=0, pr_type="read")
        assert emitted == [([1, 4], 0, "read")]

    def test_stale_expiry_after_full_flush_is_ignored(self):
        sim = Simulator()
        emitted, on_emit = self.collect()
        cq = DelayQueueConcatenator(sim, max_prs_per_packet=2, delay=1.0,
                                    on_emit=on_emit)
        cq.push(1, dest=0, pr_type="read")
        cq.push(2, dest=0, pr_type="read")  # full -> immediate flush
        sim.run()
        assert len(emitted) == 1  # the expiry callback must not double-emit

    def test_flush_drains_everything(self):
        sim = Simulator()
        emitted, on_emit = self.collect()
        cq = DelayQueueConcatenator(sim, max_prs_per_packet=10, delay=1e9,
                                    on_emit=on_emit)
        cq.push(1, dest=0, pr_type="read")
        cq.push(2, dest=3, pr_type="response")
        cq.flush()
        assert len(emitted) == 2
        assert cq.stats_prs == 2

    def test_zero_delay_still_works(self):
        sim = Simulator()
        emitted, on_emit = self.collect()
        cq = DelayQueueConcatenator(sim, max_prs_per_packet=4, delay=0.0,
                                    on_emit=on_emit)
        cq.push(1, dest=0, pr_type="read")
        cq.flush()
        assert len(emitted) == 1

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            DelayQueueConcatenator(sim, max_prs_per_packet=0, delay=1.0,
                                   on_emit=lambda *a: None)
        with pytest.raises(ValueError):
            DelayQueueConcatenator(sim, max_prs_per_packet=1, delay=-1.0,
                                   on_emit=lambda *a: None)

    def test_avg_prs_per_packet_stat(self):
        sim = Simulator()
        emitted, on_emit = self.collect()
        cq = DelayQueueConcatenator(sim, max_prs_per_packet=2, delay=1.0,
                                    on_emit=on_emit)
        for i in range(4):
            cq.push(i, dest=0, pr_type="read")
        assert cq.avg_prs_per_packet == 2.0


def test_des_and_window_model_agree_on_steady_stream():
    """Cross-validation: for a uniform-rate stream the DES delay-queue
    concatenator and the vectorized window model produce the same
    packet count (window_prs = delay * arrival rate)."""
    rng = np.random.default_rng(0)
    dests = rng.integers(0, 4, size=600)
    rate = 100.0       # PRs per second
    delay = 0.16       # seconds -> 16-PR windows
    maxp = 8

    sim = Simulator()
    packets = []
    cq = DelayQueueConcatenator(sim, max_prs_per_packet=maxp, delay=delay,
                                on_emit=lambda prs, d, t: packets.append(len(prs)))

    def feeder():
        for d in dests:
            cq.push("pr", dest=int(d), pr_type="read")
            yield sim.timeout(1.0 / rate)

    sim.process(feeder())
    sim.run()
    cq.flush()
    des_packets = len(packets)

    window = window_concat(dests, max_prs_per_packet=maxp,
                           window_prs=int(delay * rate))
    # The models discretize windows differently; require <=20% gap.
    assert des_packets == pytest.approx(window.n_packets, rel=0.2)
    assert sum(packets) == len(dests)
