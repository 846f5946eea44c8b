"""Golden equivalence for reuse-distance profile scoring.

:class:`repro.core.reusedist.StreamProfile` must reproduce the
delayed-insert Property Cache replay *bit-for-bit* under every
geometry — its closed form and its contended-subset replay are two
routes to one answer.  These tests pin both against :func:`repro.core.pcache_fast.delayed_cache_hits`
(itself golden-tested against the :class:`PropertyCache` executable
spec in ``tests/test_fast_kernels.py``) and, end to end, against a
:class:`PropertyCache` driven through the
:class:`~tests.oracles.DelayedInsertCache` oracle with the geometry a
real capacity / line-size sweep point derives.
"""

import numpy as np
import pytest

from repro.core.pcache import PropertyCache, n_sets_for
from repro.core.pcache_fast import POLICIES, delayed_cache_hits
from repro.core.reusedist import (
    StreamProfile,
    build_profile,
    profile_stats,
    reset_profile_stats,
)
from tests.oracles import DelayedInsertCache


def make_stream(rng, space, size=600):
    """Uniform + skewed + duplicate-heavy segments in one stream."""
    return np.concatenate([
        rng.integers(0, space, size=size // 2),
        rng.zipf(1.5, size=size // 3) % space,
        np.repeat(rng.integers(0, space, size=4), (size // 6) // 4 or 1),
    ])


class TestScoreGolden:
    """profile.score == delayed_cache_hits, all geometries, all paths."""

    @pytest.mark.parametrize("policy", PropertyCache.POLICIES)
    @pytest.mark.parametrize(
        "n_sets,ways", [(0, 1), (1, 1), (1, 2), (3, 2), (10, 4),
                        (10, 16), (64, 16), (4096, 16)]
    )
    @pytest.mark.parametrize("delay", [0, 1, 7, 150, 10**6])
    def test_matches_pinned_kernel(self, policy, n_sets, ways, delay):
        seed = (n_sets * 7919 + ways * 131 + min(delay, 997)
                + PropertyCache.POLICIES.index(policy))
        rng = np.random.default_rng(seed)
        space = max(4 * max(n_sets, 1) * ways, 8)
        for stream in (
            make_stream(rng, space),
            np.zeros(64, dtype=np.int64),
            rng.integers(0, 4, size=200),        # heavily contended
        ):
            if policy not in POLICIES:
                # ``random`` is beyond the per-set replay: the profile
                # refuses it on every geometry, just as the kernel does.
                with pytest.raises(ValueError):
                    delayed_cache_hits(stream, n_sets, ways, delay,
                                       policy=policy)
                with pytest.raises(ValueError):
                    StreamProfile(stream).score(n_sets, ways, delay,
                                                policy=policy)
                continue
            want = delayed_cache_hits(stream, n_sets, ways, delay,
                                      policy=policy)[0]
            got = StreamProfile(stream).score(n_sets, ways, delay,
                                              policy=policy)
            np.testing.assert_array_equal(got, want)

    def test_one_profile_many_geometries(self):
        """The cluster model's actual usage: score a whole knob grid
        from one profile, never rebuilding, never cross-contaminating."""
        rng = np.random.default_rng(42)
        stream = make_stream(rng, 512)
        prof = build_profile(stream)
        points = [(n_sets, ways, delay, policy)
                  for n_sets in (1, 7, 32, 1024)
                  for ways in (1, 4, 16)
                  for delay in (0, 5, 100)
                  for policy in POLICIES]
        masks = [prof.score(*point) for point in points]
        for (n_sets, ways, delay, policy), got in zip(points, masks):
            want = delayed_cache_hits(stream, n_sets, ways, delay,
                                      policy=policy)[0]
            np.testing.assert_array_equal(got, want)
        # Scoring must not have mutated the profile.
        np.testing.assert_array_equal(prof.idxs, stream)

    def test_empty_stream(self):
        prof = StreamProfile(np.array([], dtype=np.int64))
        assert prof.score(8, 2, 3).size == 0
        assert prof.n_unique() == 0

    def test_zero_sets(self):
        stream = np.arange(10) % 3
        got = StreamProfile(stream).score(0, 4, 1)
        assert not got.any()

    @pytest.mark.parametrize("n_sets", [0, 16])
    def test_unknown_policy_rejected_on_every_route(self, n_sets):
        # 16 sets x 4 ways never evict this stream (the closed form);
        # zero sets answer without any route.  Both must reject an
        # unknown policy exactly as the replay kernel does.
        stream = np.arange(100) % 10
        for policy in ("mru", "bogus"):
            with pytest.raises(ValueError):
                delayed_cache_hits(stream, n_sets, 4, 1, policy=policy)
            with pytest.raises(ValueError):
                StreamProfile(stream).score(n_sets, 4, 1, policy=policy)

    @pytest.mark.parametrize("n_sets,ways,route", [
        (16, 4, "closed_form"),     # 10 values over 16 sets: no eviction
        (1, 4, "hybrid"),           # 10 values in one 4-way set
    ])
    def test_random_policy_rejected_on_both_routes(self, n_sets, ways,
                                                   route):
        # ``random`` shares one eviction tick across sets, which the
        # per-set replay cannot reproduce: both scoring routes refuse it
        # before doing any work, while ``lru`` on the same geometry
        # takes the named route.
        stream = np.arange(100) % 10
        prof = StreamProfile(stream)
        reset_profile_stats()
        with pytest.raises(ValueError):
            prof.score(n_sets, ways, 1, policy="random")
        assert profile_stats()[route] == 0
        prof.score(n_sets, ways, 1, policy="lru")
        assert profile_stats()[route] == 1


class TestScoringPaths:
    """Each of the two scoring routes is really exercised — and agrees
    with the pinned kernel on the stream that forces it."""

    def _delta(self, stream, n_sets, ways, delay):
        reset_profile_stats()
        got = StreamProfile(stream).score(n_sets, ways, delay)
        want = delayed_cache_hits(stream, n_sets, ways, delay)[0]
        np.testing.assert_array_equal(got, want)
        return profile_stats()

    def test_closed_form_eviction_free(self):
        # 8 uniques over 16 sets x 4 ways: no set ever exceeds ways.
        stream = np.tile(np.arange(8), 50)
        stats = self._delta(stream, 16, 4, delay=3)
        assert stats["closed_form"] == 1
        assert stats["hybrid"] == 0

    def test_hybrid_partial_contention(self):
        # Set 0 receives 8 distinct values (> 2 ways); sets 1..63 one
        # value each — a small contended minority.
        hot = np.arange(8) * 64            # all map to set 0 of 64
        cold = np.arange(1, 64)            # one value per other set
        rng = np.random.default_rng(7)
        stream = rng.permutation(np.concatenate([np.tile(hot, 20),
                                                 np.tile(cold, 3)]))
        stats = self._delta(stream, 64, 2, delay=5)
        assert stats["hybrid"] == 1
        assert stats["closed_form"] == 0

    def test_hybrid_when_fully_contended(self):
        # Everything lands in one set and exceeds ways: the contended
        # subsequence is the whole stream, replayed by the same route.
        stream = np.tile(np.arange(40), 10)
        stats = self._delta(stream, 1, 4, delay=2)
        assert stats["hybrid"] == 1
        assert stats["closed_form"] == 0

    def test_counters_accumulate(self):
        reset_profile_stats()
        prof = build_profile(np.arange(100) % 10)
        prof.score(16, 4, 1)
        prof.score(16, 4, 2)
        stats = profile_stats()
        assert stats["profiles_built"] == 1
        assert stats["scores"] == 2
        assert stats["build_seconds"] >= 0.0
        assert stats["score_seconds"] > 0.0


class TestCapacitySweepGolden:
    """End to end against the PropertyCache executable spec with the
    geometry real sweep points derive: capacities x ways x segmented
    line sizes, exactly as the cluster model's cache stage does."""

    @pytest.mark.parametrize("capacity_kb", [1, 32, 1024])
    @pytest.mark.parametrize("ways", [2, 16])
    @pytest.mark.parametrize("property_bytes", [8, 16, 100, 600])
    def test_matches_property_cache(self, capacity_kb, ways,
                                    property_bytes):
        capacity = capacity_kb * 1024
        n_sets = n_sets_for(capacity, ways, property_bytes)
        rng = np.random.default_rng(capacity_kb * 31 + ways * 7
                                    + property_bytes)
        stream = make_stream(rng, max(4 * max(n_sets, 1) * ways, 16))
        delay = 37

        got = StreamProfile(stream).score(n_sets, ways, delay)
        want_fast = delayed_cache_hits(stream, n_sets, ways, delay)[0]
        np.testing.assert_array_equal(got, want_fast)

        pc = PropertyCache(capacity_bytes=capacity, ways=ways)
        pc.configure(property_bytes)
        assert pc.n_sets == n_sets
        want_ref = DelayedInsertCache(pc, delay).process(stream)
        np.testing.assert_array_equal(got, want_ref)


class TestProfileStructure:
    def test_n_unique(self):
        assert StreamProfile(np.array([1, 1, 2, 9])).n_unique() == 3
