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
no-op; a hit promotes to MRU under LRU only).  It is the only
delayed-insert replay loop in the package: the reuse-distance profile
(:mod:`repro.core.reusedist`) calls it on a stream's contended
subsequence through ``positions=``.

Why it is faster: the reference walks the stream through four Python
objects per element (front-end, cache, stats, deque).  This kernel is
one fused loop over pre-extracted flat arrays — the pending-response
queue is parallel position/idx/set lists with an implicit due time
(``enqueue position + delay``, monotone by construction, so the head
comparison is a single integer test) and the missed idx's cache set
in hand, cache sets are created on first touch, hit positions are
batched into one vectorized store, and statistics are counted in
locals.  Golden equivalence against that
oracle is enforced across seeds, geometries and delays by
``tests/test_fast_kernels.py``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Optional, Tuple

import numpy as np

from repro.core.pcache import CacheStats, PropertyCache

__all__ = ["delayed_cache_hits"]

_NEVER = 1 << 62          # sentinel "no pending insert is due"
_DRAIN = _NEVER - 1       # position of the lookup that flushes the queue


def delayed_cache_hits(
    idxs: np.ndarray,
    n_sets: int,
    ways: int,
    delay: int,
    policy: str = "lru",
    positions: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, CacheStats]:
    """Exact hit mask + stats for one idx stream.

    Semantics (the executable specification is the test oracle):
    at stream position ``i`` every pending insert whose miss happened
    at position ``<= i - delay`` is applied first (in miss order), then
    ``idxs[i]`` is looked up.  A miss enqueues an insert due ``delay``
    positions later; all still-pending inserts are applied after the
    stream ends.

    ``positions`` (strictly increasing, one per element) places
    ``idxs`` at those stream positions instead of ``0..n-1``, so the
    due times of a subsequence replay match the whole stream's.  A
    subsequence holding every occurrence of the values of its cache
    sets therefore gets the whole-stream hit mask at its positions,
    provided the rest of the stream never evicts (the ``random``
    policy's eviction tick is shared by all sets).
    """
    if policy not in PropertyCache.POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; choose from "
            f"{PropertyCache.POLICIES}"
        )
    idxs = np.asarray(idxs)
    n = int(idxs.size)
    hits = np.zeros(n, dtype=bool)
    n_sets = int(n_sets)
    if n_sets <= 0 or n == 0:
        return hits, CacheStats(lookups=n)
    ways = int(ways)
    delay = max(int(delay), 0)

    sets = defaultdict(dict)
    lru = policy == "lru"
    rand = policy == "random"
    tick = 0
    pend_idx: list = []          # missed idxs, in miss order
    pend_pos: list = []          # miss positions (due = pos + delay)
    pend_set: list = []          # the cache set each missed idx maps to
    push_idx = pend_idx.append
    push_pos = pend_pos.append
    push_set = pend_set.append
    head = 0
    next_due = _NEVER
    n_ins = n_ev = 0
    hit_pos: list = []
    push_hit = hit_pos.append
    gpos = range(n) if positions is None else np.asarray(positions).tolist()

    # A final lookup at _DRAIN finds every pending insert due, so the
    # post-stream drain runs through the same insert code; that
    # lookup's own outcome is discarded below.
    for i, idx in zip(itertools.chain(gpos, (_DRAIN,)),
                      itertools.chain(idxs.tolist(), (0,))):
        while i >= next_due:
            v = pend_idx[head]
            s = pend_set[head]
            head += 1
            next_due = (
                pend_pos[head] + delay if head < len(pend_pos) else _NEVER
            )
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
            push_hit(i)
            if lru:
                del s[idx]
                s[idx] = True      # move to MRU position
        else:
            push_idx(idx)
            push_pos(i)
            push_set(s)
            if next_due == _NEVER:
                next_due = i + delay

    if hit_pos and hit_pos[-1] == _DRAIN:
        hit_pos.pop()
    if hit_pos:
        hits[hit_pos if positions is None
             else np.searchsorted(positions, hit_pos)] = True
    return hits, CacheStats(lookups=n, hits=len(hit_pos),
                            insertions=n_ins, evictions=n_ev)
