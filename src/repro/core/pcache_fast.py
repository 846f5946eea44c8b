"""Array-backed Property Cache stream kernel (the hot path of the
128-node cluster model).

:func:`delayed_cache_hits` replays one merged rack PR stream through a
set-associative cache with delayed insertion and returns the exact
hit/miss sequence — bit-for-bit the behaviour of
:class:`repro.core.pcache.PropertyCache` driven by
the per-element delayed-insert front-end (``DelayedInsertCache``, the
test oracle in ``tests/oracles.py``), for every replacement
policy, including the §6.2.1 corner cases (duplicate in-flight misses
both travel; an insert finding its property already present is a
no-op; a hit promotes to MRU under LRU only).

Why it is faster: the reference walks the stream through four Python
objects per element (front-end, cache, stats, deque).  This kernel is
one fused loop over pre-extracted flat arrays — the pending-response
queue is two parallel position/idx arrays with an implicit due time
(``enqueue position + delay``, monotone by construction, so the head
comparison is a single integer test), hit positions are batched into
one vectorized store, and statistics are counted in locals.  Golden
equivalence against that oracle is enforced across seeds,
geometries and delays by ``tests/test_fast_kernels.py``.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from repro.core.pcache import CacheStats, PropertyCache, n_sets_for

__all__ = ["DelayedCacheReplayer", "delayed_cache_hits",
           "property_cache_hits"]

_NEVER = 1 << 62          # sentinel "no pending insert is due"


class DelayedCacheReplayer:
    """Incremental form of :func:`delayed_cache_hits`.

    ``feed(chunk)`` replays one window of the stream and returns its
    hit mask; ``finish()`` drains the pending-insert queue and returns
    the stats.  Feeding a stream window-by-window is bit-identical to
    one whole-stream call — the cache state, the pending queue and the
    global stream positions all carry across windows — so sharded
    traces replay with only one window's idxs resident (the one-shot
    path used to materialize the whole stream as a Python list).
    """

    def __init__(self, n_sets: int, ways: int, delay: int,
                 policy: str = "lru"):
        if policy not in PropertyCache.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from "
                f"{PropertyCache.POLICIES}"
            )
        self.n_sets = int(n_sets)
        self.ways = int(ways)
        self.delay = max(int(delay), 0)
        self.policy = policy
        self._sets = [dict() for _ in range(max(self.n_sets, 0))]
        self._pend_idx: list = []    # missed idxs, in miss order
        self._pend_pos: list = []    # miss positions (due = pos + delay)
        self._head = 0
        self._next_due = _NEVER
        self._base = 0               # global position of the next element
        self._n_hits = 0
        self._n_ins = 0
        self._n_ev = 0
        self._tick = 0
        self._finished = False

    def _apply(self, v: int) -> None:
        s = self._sets[v % self.n_sets]
        if v not in s:
            if len(s) >= self.ways:
                if self.policy == "random":
                    self._tick = (self._tick * 1103515245 + 12345) & 0x7FFFFFFF
                    victim = list(s)[self._tick % len(s)]
                else:
                    victim = next(iter(s))
                del s[victim]
                self._n_ev += 1
            s[v] = True
            self._n_ins += 1

    def feed(self, idxs: np.ndarray) -> np.ndarray:
        """Replay one stream window; returns its boolean hit mask."""
        if self._finished:
            raise RuntimeError("replayer already finished")
        idxs = np.asarray(idxs)
        n = int(idxs.size)
        hits = np.zeros(n, dtype=bool)
        base = self._base
        self._base += n
        if self.n_sets <= 0 or n == 0:
            return hits

        sets = self._sets
        n_sets = self.n_sets
        ways = self.ways
        delay = self.delay
        lru = self.policy == "lru"
        rand = self.policy == "random"
        tick = self._tick
        pend_idx = self._pend_idx
        pend_pos = self._pend_pos
        push_idx = pend_idx.append
        push_pos = pend_pos.append
        head = self._head
        next_due = self._next_due
        n_ins = n_ev = 0
        hit_pos: list = []
        push_hit = hit_pos.append
        stream = idxs.tolist()

        for j, idx in enumerate(stream):
            i = base + j
            while i >= next_due:
                v = pend_idx[head]
                head += 1
                next_due = (
                    pend_pos[head] + delay if head < len(pend_pos) else _NEVER
                )
                s = sets[v % n_sets]
                if v not in s:
                    if len(s) >= ways:
                        if rand:
                            tick = (tick * 1103515245 + 12345) & 0x7FFFFFFF
                            victim = list(s)[tick % len(s)]
                        else:
                            victim = next(iter(s))
                        del s[victim]
                        n_ev += 1
                    s[v] = True
                    n_ins += 1
            s = sets[idx % n_sets]
            if idx in s:
                push_hit(j)
                if lru:
                    del s[idx]
                    s[idx] = True      # move to MRU position
            else:
                push_idx(idx)
                push_pos(i)
                if next_due == _NEVER:
                    next_due = i + delay

        if hit_pos:
            hits[hit_pos] = True
        self._n_hits += len(hit_pos)
        self._n_ins += n_ins
        self._n_ev += n_ev
        self._tick = tick
        self._next_due = next_due
        # Trim the consumed prefix of the pending queue so state stays
        # bounded by the in-flight window, not the whole stream.
        if head > 0:
            del pend_idx[:head]
            del pend_pos[:head]
        self._head = 0
        return hits

    def finish(self) -> CacheStats:
        """Apply all still-pending inserts; returns the final stats."""
        if not self._finished:
            self._finished = True
            if self.n_sets > 0:
                while self._head < len(self._pend_idx):
                    v = self._pend_idx[self._head]
                    self._head += 1
                    self._apply(v)
        return CacheStats(
            lookups=self._base, hits=self._n_hits,
            insertions=self._n_ins, evictions=self._n_ev,
        )


def delayed_cache_hits(
    idxs: Union[np.ndarray, Iterable[np.ndarray]],
    n_sets: int,
    ways: int,
    delay: int,
    policy: str = "lru",
) -> Tuple[np.ndarray, CacheStats]:
    """Exact hit mask + stats for one idx stream.

    Semantics (the executable specification is the test oracle):
    at stream position ``i`` every pending insert whose miss happened
    at position ``<= i - delay`` is applied first (in miss order), then
    ``idxs[i]`` is looked up.  A miss enqueues an insert due ``delay``
    positions later; all still-pending inserts are applied after the
    stream ends.

    ``idxs`` may be one array or an iterable of window arrays (a
    sharded stream); windows are replayed through one
    :class:`DelayedCacheReplayer`, so the result is bit-identical
    either way while only one window is resident at a time.
    """
    replayer = DelayedCacheReplayer(n_sets, ways, delay, policy=policy)
    if isinstance(idxs, np.ndarray):
        hits = replayer.feed(idxs)
        return hits, replayer.finish()
    masks = [replayer.feed(chunk) for chunk in idxs]
    stats = replayer.finish()
    if not masks:
        return np.zeros(0, dtype=bool), stats
    return np.concatenate(masks), stats


def property_cache_hits(
    idxs: np.ndarray,
    capacity_bytes: int,
    ways: int,
    property_bytes: int,
    delay: int,
    n_segments: int = 32,
    segment_bytes: int = 16,
    policy: str = "lru",
) -> Tuple[np.ndarray, CacheStats]:
    """:func:`delayed_cache_hits` with the geometry a
    :class:`PropertyCache` would derive from the same parameters."""
    n_sets = n_sets_for(capacity_bytes, ways, property_bytes,
                        n_segments, segment_bytes)
    return delayed_cache_hits(idxs, n_sets, ways, delay, policy=policy)
