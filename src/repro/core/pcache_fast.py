"""Array-backed Property Cache stream kernel (the hot path of the
128-node cluster model).

:func:`delayed_cache_hits` replays one merged rack PR stream through a
set-associative cache with delayed insertion and returns the exact
hit/miss sequence — bit-for-bit the behaviour of
:class:`repro.core.pcache.PropertyCache` driven by
the per-element delayed-insert front-end (``DelayedInsertCache``, the
test oracle in ``tests/oracles.py``) under the ``lru`` and ``fifo``
policies, including the §6.2.1 corner cases (duplicate in-flight misses
both travel; an insert finding its property already present is a
no-op; a hit promotes to MRU under LRU only).  It is the only
delayed-insert replay loop in the package: the reuse-distance profile
(:mod:`repro.core.reusedist`) calls it on a stream's contended
subsequence through ``positions=``.

How it replays:

- **One set at a time.**  Under LRU and FIFO a cache set changes only
  through its own lookups and inserts, and its pending inserts keep
  miss order, each due at ``position + delay``.  So the elements are
  ordered by set with a stable sort (a radix sort on the small set-id
  dtype), each set replays alone at its global positions with its own
  pending queue, and the hit positions go back to stream order once at
  the end.  The ``random`` policy advances one eviction tick shared by
  all sets, so it cannot replay this way and is rejected
  (:class:`~repro.core.pcache.PropertyCache` keeps it for the
  replacement-policy ablation).
- **One-touch lines skip the loop.**  A value that occurs once in the
  stream always misses and its line is never read: its insert only
  ages its set.  Such values never enter the Python loop.  A set holds
  its resident one-touch lines as a window ``odue[lo:hi]`` of its
  ascending one-touch due times.  Before each live event (a lookup, or
  a re-read value's insert) the set's one-touch inserts due earlier
  are applied at once: ``k`` of them evict the
  ``occupancy + k - ways`` oldest entries, live and one-touch compared
  by touch time (a live entry's dict value is its last touch), and if
  ``k >= ways`` only one-touch lines are left.  Insertions and
  evictions are counted exactly, the post-stream drain included.

The per-element path is one next-event compare, one dict probe and a
list append; statistics are counted in locals.  Golden equivalence
against the oracle is enforced across seeds, geometries and delays by
``tests/test_fast_kernels.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Tuple

import numpy as np

from repro.core.pcache import CacheStats

__all__ = ["POLICIES", "check_policy", "delayed_cache_hits"]

#: Replacement policies the replay supports.
POLICIES = ("lru", "fifo")

_NEVER = 1 << 62          # sentinel "no live insert is pending"
_DRAIN = _NEVER - 1       # position of each set's closing lookup


def check_policy(policy: str) -> None:
    """Raise ``ValueError`` unless the replay supports ``policy``."""
    if policy not in POLICIES:
        raise ValueError(
            f"policy {policy!r} cannot be replayed; choose from "
            f"{POLICIES}"
        )


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
    sets therefore gets the whole-stream hit mask at its positions.
    """
    check_policy(policy)
    idxs = np.asarray(idxs)
    n = int(idxs.size)
    if positions is not None:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.shape != (n,):
            raise ValueError(
                f"positions has shape {positions.shape}; expected one "
                f"position per element ({n},)"
            )
        if n > 1 and not (positions[1:] > positions[:-1]).all():
            raise ValueError("positions must be strictly increasing")
    ways = int(ways)
    if ways < 1:
        raise ValueError("ways must be >= 1")
    hits = np.zeros(n, dtype=bool)
    n_sets = int(n_sets)
    if n_sets <= 0 or n == 0:
        return hits, CacheStats(lookups=n)
    pos = np.arange(n, dtype=np.int64) if positions is None else positions
    # A delay past the stream's span acts as an infinite one; capping it
    # keeps every due time below _DRAIN.
    delay = min(max(int(delay), 0), int(pos[-1] - pos[0]) + 1)

    # A value occurring once in the stream is a one-touch value.  A
    # dense count is cheaper than a sort when the values span little.
    base = int(idxs.min())
    if int(idxs.max()) - base < 16 * n:
        rel = (idxs - base).astype(np.intp, copy=False)
        once = np.bincount(rel)[rel] == 1
    else:
        _, inverse, counts = np.unique(idxs, return_inverse=True,
                                       return_counts=True)
        once = counts[inverse] == 1
    # Group by set, stream order within each set.
    set_ids = (idxs % n_sets).astype(
        np.uint16 if n_sets <= 1 << 16 else np.int64)
    order = np.argsort(set_ids, kind="stable")
    set_ids = set_ids[order]
    once = once[order]
    live = order[~once]                      # re-read ("live") elements
    odue = (pos[order[once]] + delay).tolist()   # one-touch insert dues
    # Per set, in set order: its one-touch dues odue[lo:top], and its
    # live elements followed by a lookup at _DRAIN.  That lookup finds
    # every pending insert due, so the post-stream drain runs through
    # the same insert code, and then moves the replay to the next set.
    first = np.flatnonzero(
        np.concatenate(([True], set_ids[1:] != set_ids[:-1])))
    ot_lo = np.concatenate(([0], np.cumsum(once)))[first]
    ot_hi = np.append(ot_lo[1:], len(odue))
    live_end = np.append(first[1:], n) - ot_hi
    gpos = np.insert(pos[live], live_end, _DRAIN).tolist()
    gval = np.insert(idxs[live], live_end, 0).tolist()
    sets = zip(ot_lo.tolist(), ot_hi.tolist())
    n_ins = len(odue)        # a one-touch value is never already present
    n_ev = 0
    lru = policy == "lru"
    hit_pos: list = []
    push_hit = hit_pos.append
    pend_pos: list = []      # live miss positions (due = pos + delay)
    pend_val: list = []      # ... and values (each set's drain empties both)
    push_pos = pend_pos.append
    push_val = pend_val.append
    head = 0
    nxt_l = _NEVER           # due time of the head live insert
    lo, top = next(sets)
    hi = lo                  # resident one-touch lines: odue[lo:hi]
    # The next one-touch due, or _DRAIN once none is left, so that each
    # set's closing lookup always takes the event branch below.
    nxt_o = odue[lo] if lo < top else _DRAIN
    nxt = nxt_o              # min(nxt_l, nxt_o)
    cache: dict = {}         # live value -> its last touch
    for i, v in zip(gpos, gval):
        if i >= nxt:
            while True:
                if nxt_o <= i and nxt_o < nxt_l:
                    # The one-touch inserts due before the next live
                    # event, at once.
                    t = nxt_l if nxt_l <= i else i
                    hi2 = bisect_right(odue, t, hi, top)
                    m = len(cache) + hi2 - lo - ways
                    if m > 0:
                        n_ev += m
                        if hi2 - hi >= ways:
                            cache.clear()
                            lo = hi2 - ways
                        else:
                            # Evict the m oldest resident entries.
                            while m:
                                if not cache:
                                    lo += m
                                    break
                                older = bisect_right(
                                    odue, next(iter(cache.values())),
                                    lo, hi) - lo
                                if older >= m:
                                    lo += m
                                    break
                                lo += older
                                del cache[next(iter(cache))]
                                m -= older + 1
                    hi = hi2
                    nxt_o = odue[hi] if hi < top else _DRAIN
                if nxt_l > i:
                    break
                # The head live insert.
                u = pend_val[head]
                head += 1
                if u not in cache:
                    if len(cache) + hi - lo >= ways:
                        n_ev += 1
                        if lo == hi:
                            del cache[next(iter(cache))]
                        elif not cache:
                            lo += 1
                        else:
                            old = next(iter(cache))
                            if odue[lo] <= cache[old]:
                                lo += 1
                            else:
                                del cache[old]
                    cache[u] = nxt_l
                    n_ins += 1
                nxt_l = (pend_pos[head] + delay if head < len(pend_pos)
                         else _NEVER)
            if i == _DRAIN:
                # This set is drained: the next set starts empty.
                lo, top = next(sets, (0, 0))
                hi = lo
                nxt_o = odue[lo] if lo < top else _DRAIN
                nxt = nxt_o
                cache = {}
                continue
            nxt = nxt_l if nxt_l < nxt_o else nxt_o
        if v in cache:
            push_hit(i)
            if lru:
                del cache[v]
                cache[v] = i       # move to MRU position
        else:
            push_pos(i)
            push_val(v)
            if nxt_l == _NEVER:
                nxt_l = i + delay
                if nxt_l < nxt:
                    nxt = nxt_l

    hit_at = np.array(hit_pos, dtype=np.int64)
    if hit_at.size:
        hits[hit_at if positions is None
             else np.searchsorted(positions, hit_at)] = True
    return hits, CacheStats(lookups=n, hits=int(hit_at.size),
                            insertions=n_ins, evictions=n_ev)
