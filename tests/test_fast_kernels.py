"""Golden-equivalence suite: fast kernels vs their test oracles.

The fast kernels (`repro.core.pcache_fast`, the vectorized paths in
`repro.core.rig` / `repro.core.concat`) claim *bit-identical* results
to the original per-element Python implementations, kept as oracles in
``tests/oracles.py``.  This suite is the claim's enforcement: sweeps
over seeds, cache geometries (ways / segments / delay), concat windows
and RIG shapes assert exact equality — never approximate.  Whole-model
runs are pinned cold (every memo disabled) against warm (memoized).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    batch_stats,
    build_cluster_topology,
    model,
    simulate_netsparse,
)
from repro.config import NetSparseConfig
from repro.core import reusedist
from repro.core.concat import _window_concat_fast, window_concat
from repro.core.pcache import PropertyCache, n_sets_for
from repro.core.pcache_fast import POLICIES, delayed_cache_hits
from repro.core.rig import rig_generation_time
from repro.partition import (
    TraceCache,
    balanced_by_nnz,
    cached_partition,
    get_trace_cache,
    set_trace_cache,
)
from repro.partition.oned import OneDPartition
from repro.sim import Simulator
from repro.sparse.matrix import COOMatrix
from repro.sparse.suite import load_benchmark
from tests.oracles import (
    DelayedInsertCache,
    _rig_generation_time_reference,
    _window_concat_reference,
)


# ---------------------------------------------------------------------
# delayed-insert Property Cache
# ---------------------------------------------------------------------


def reference_cache_hits(idxs, n_sets, ways, delay, policy="lru"):
    """The executable spec: PropertyCache driven by DelayedInsertCache."""
    # Default geometry: 16-byte properties occupy one 16-byte segment,
    # so capacity = n_sets * ways * 16 configures exactly n_sets sets.
    pc = PropertyCache(
        capacity_bytes=n_sets * ways * 16, ways=ways, policy=policy
    )
    pc.configure(16)
    assert pc.n_sets == n_sets
    hits = DelayedInsertCache(pc, delay).process(np.asarray(idxs))
    return hits, pc.stats


class TestPcacheGolden:
    @pytest.mark.parametrize("policy", PropertyCache.POLICIES)
    @pytest.mark.parametrize(
        "n_sets,ways", [(0, 1), (1, 1), (1, 2), (3, 2), (10, 4), (64, 16)]
    )
    @pytest.mark.parametrize("delay", [0, 1, 7, 150, 10**6])
    def test_hit_sequence_and_stats_match(self, policy, n_sets, ways, delay):
        seed = (
            n_sets * 7919
            + ways * 131
            + min(delay, 997)
            + PropertyCache.POLICIES.index(policy)
        )
        rng = np.random.default_rng(seed)
        space = max(4 * max(n_sets, 1) * ways, 8)
        for stream in (
            rng.integers(0, space, size=500),          # uniform
            rng.zipf(1.5, size=500) % space,           # skewed: real hits
            np.zeros(64, dtype=np.int64),              # pathological dupes
        ):
            if policy not in POLICIES:
                # ``random`` advances one eviction tick shared by every
                # set, so a per-set replay cannot reproduce it: the
                # kernel refuses it on every geometry, zero sets too.
                with pytest.raises(ValueError):
                    delayed_cache_hits(stream, n_sets, ways, delay,
                                       policy=policy)
                continue
            fast_hits, fast_stats = delayed_cache_hits(
                stream, n_sets, ways, delay, policy=policy
            )
            ref_hits, ref_stats = reference_cache_hits(
                stream, n_sets, ways, delay, policy=policy
            )
            np.testing.assert_array_equal(fast_hits, ref_hits)
            assert fast_stats == ref_stats

    def test_empty_stream(self):
        fast_hits, fast_stats = delayed_cache_hits(
            np.array([], dtype=np.int64), 4, 2, 3
        )
        ref_hits, ref_stats = reference_cache_hits(
            np.array([], dtype=np.int64), 4, 2, 3
        )
        assert fast_hits.size == ref_hits.size == 0
        assert fast_stats == ref_stats

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            delayed_cache_hits(np.arange(4), 2, 2, 1, policy="mru")

    @pytest.mark.parametrize("kwargs", [
        {"positions": np.arange(3)},                # too short
        {"positions": np.arange(7)},                # too long
        {"positions": np.arange(6)[::-1].copy()},   # descending
        {"positions": np.array([0, 1, 1, 2, 3, 4])},  # repeated
        {"positions": np.arange(6).reshape(2, 3)},  # not one per element
    ])
    def test_bad_positions_rejected(self, kwargs):
        with pytest.raises(ValueError):
            delayed_cache_hits(np.ones(6, dtype=np.int64), 4, 2, 0,
                               **kwargs)

    @pytest.mark.parametrize("ways", [0, -1])
    def test_nonpositive_ways_rejected(self, ways):
        # As PropertyCache does: a set with no way cannot hold a line,
        # and the replay must say so rather than raise StopIteration
        # (which would silently end an enclosing iteration).
        with pytest.raises(ValueError):
            delayed_cache_hits(np.array([1, 2, 1, 3, 1]), 2, ways, 1)

    def test_bad_positions_rejected_on_empty_stream(self):
        with pytest.raises(ValueError):
            delayed_cache_hits(np.zeros(0, dtype=np.int64), 4, 2, 0,
                               positions=np.arange(2))

    @settings(max_examples=300, deadline=None)
    @given(
        n_unique=st.integers(0, 120),
        repeats=st.lists(st.integers(0, 119), max_size=40),
        n_sets=st.integers(1, 8),
        ways=st.integers(1, 4),
        delay=st.sampled_from([0, 1, 2, 5, 10**6]),
        gaps=st.none() | st.integers(1, 4),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(0, 2**16),
    )
    @example(n_unique=60, repeats=[0, 5, 9], n_sets=2, ways=2, delay=3,
             gaps=None, policy="lru", seed=0)   # bulk inserts k >= ways
    @example(n_unique=8, repeats=[], n_sets=1, ways=4, delay=10**6,
             gaps=2, policy="fifo", seed=1)     # one-touch only, drained
    def test_one_touch_heavy_streams_match_oracle(
        self, n_unique, repeats, n_sets, ways, delay, gaps, policy, seed
    ):
        """Mostly distinct values plus a few repeats — the one-touch
        lines the kernel applies in bulk — against the per-element
        oracle, in hits and every ``CacheStats`` field.

        With ``gaps`` the elements sit at spread-out ``positions``, as
        in the profile's subsequence replay.  The oracle then replays
        the whole stream on one more set: each value keeps its set,
        and every gap holds one filler value alone in the extra set.
        """
        rng = np.random.default_rng(seed)
        stream = np.concatenate([
            rng.permutation(n_unique), np.asarray(repeats, dtype=np.int64)
        ]).astype(np.int64) * 3 + 1
        rng.shuffle(stream)
        if gaps is None:
            hits, stats = delayed_cache_hits(stream, n_sets, ways, delay,
                                             policy=policy)
            ref_hits, ref_stats = reference_cache_hits(
                stream, n_sets, ways, delay, policy=policy
            )
            np.testing.assert_array_equal(hits, ref_hits)
            assert stats == ref_stats
            return
        positions = np.cumsum(rng.integers(1, gaps + 1, size=stream.size))
        hits, stats = delayed_cache_hits(stream, n_sets, ways, delay,
                                         policy=policy, positions=positions)
        length = int(positions[-1]) + 1 if stream.size else 0
        whole = np.full(length, n_sets, dtype=np.int64)     # the filler
        whole[positions] = (stream // n_sets) * (n_sets + 1) + stream % n_sets
        ref_hits, ref_stats = reference_cache_hits(
            whole, n_sets + 1, ways, delay, policy=policy
        )
        np.testing.assert_array_equal(hits, ref_hits[positions])
        # The filler set holds one value: one insertion, no eviction.
        filler = int(length > stream.size)
        assert stats == dataclasses.replace(
            ref_stats, lookups=stream.size, hits=int(ref_hits[positions].sum()),
            insertions=ref_stats.insertions - filler,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        vals=st.lists(st.integers(0, 200), min_size=1, max_size=300),
        n_sets=st.integers(1, 6),
        ways=st.integers(1, 4),
        delay=st.integers(0, 40),
        owned=st.sets(st.integers(0, 5), min_size=1),
        policy=st.sampled_from(POLICIES),
    )
    @example(vals=list(range(40)) * 3, n_sets=2, ways=2, delay=3,
             owned={0}, policy="fifo")         # owned set 0 evicts
    @example(vals=list(range(40)) * 3, n_sets=1, ways=2, delay=3,
             owned={0}, policy="lru")          # the whole stream
    def test_subsequence_at_global_positions(self, vals, n_sets, ways,
                                             delay, owned, policy):
        """A subsequence holding every occurrence of the values of its
        cache sets, replayed at its global positions, gets the
        whole-stream hit mask at those positions."""
        stream = np.array(vals, dtype=np.int64)
        sets = stream % n_sets
        mine = np.isin(sets, sorted(owned))
        # Outside the owned sets, values fold to at most ``ways``
        # distinct per set, so the rest of the stream never evicts.
        stream = np.where(mine, stream,
                          sets + n_sets * ((stream // n_sets) % ways))
        positions = np.flatnonzero(mine)
        whole = delayed_cache_hits(stream, n_sets, ways, delay,
                                   policy=policy)[0]
        sub = delayed_cache_hits(stream[positions], n_sets, ways, delay,
                                 policy=policy, positions=positions)[0]
        np.testing.assert_array_equal(sub, whole[positions])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_touch_insert_is_older_than_a_hit_at_its_due(self, policy):
        # One 2-way set, delay 1: the one-touch 4 is inserted at
        # position 2 just before 1 hits there, so 7's insert at
        # position 4 must evict 4 under LRU (1's hit is newer) and 1
        # under FIFO (1 went in first); position 5 tells them apart.
        stream = np.array([1, 4, 1, 7, 7, 1])
        hits, stats = delayed_cache_hits(stream, 1, 2, 1, policy=policy)
        ref_hits, ref_stats = reference_cache_hits(stream, 1, 2, 1,
                                                   policy=policy)
        np.testing.assert_array_equal(hits, ref_hits)
        assert stats == ref_stats
        assert hits[5] == (policy == "lru")

    def test_duplicate_inflight_misses_both_travel(self):
        # delay=3 keeps both 7s in flight: neither may hit (no MSHR).
        hits, stats = delayed_cache_hits(
            np.array([7, 7, 1, 2]), n_sets=4, ways=4, delay=3
        )
        assert not hits.any()
        ref_hits, _ = reference_cache_hits(
            np.array([7, 7, 1, 2]), n_sets=4, ways=4, delay=3
        )
        np.testing.assert_array_equal(hits, ref_hits)
        # both travel, but the second insert finds 7 present: no-op
        assert stats.insertions == 3

    @pytest.mark.parametrize(
        "property_bytes,n_segments,segment_bytes",
        [
            (16, 32, 16),    # one segment
            (100, 32, 16),   # several segments, power-of-two rounding
            (512, 32, 16),   # exactly the max line
            (513, 32, 16),   # tiled across whole lines
            (4096, 8, 64),   # large property, fat segments
            (1, 1, 16),      # degenerate selector
        ],
    )
    def test_property_cache_hits_uses_configured_geometry(
        self, property_bytes, n_segments, segment_bytes
    ):
        capacity, ways, delay = 1 << 14, 4, 5
        pc = PropertyCache(
            capacity_bytes=capacity,
            ways=ways,
            n_segments=n_segments,
            segment_bytes=segment_bytes,
        )
        pc.configure(property_bytes)
        n_sets = n_sets_for(
            capacity, ways, property_bytes, n_segments, segment_bytes
        )
        assert pc.n_sets == n_sets
        rng = np.random.default_rng(property_bytes)
        idxs = rng.integers(0, 4 * max(n_sets, 1) * ways, size=600)
        fast_hits, fast_stats = delayed_cache_hits(idxs, n_sets, ways, delay)
        ref_hits = DelayedInsertCache(pc, delay).process(idxs)
        np.testing.assert_array_equal(fast_hits, ref_hits)
        assert fast_stats == pc.stats


# ---------------------------------------------------------------------
# window concatenation
# ---------------------------------------------------------------------


class TestConcatGolden:
    @pytest.mark.parametrize("max_prs", [1, 2, 5, 16])
    @pytest.mark.parametrize("window", [1, 2, 7, 64, 10**9])
    def test_sweep(self, max_prs, window):
        rng = np.random.default_rng(max_prs * 1000 + min(window, 999))
        for n_dests, n in ((1, 40), (17, 999), (128, 2048)):
            dests = rng.integers(0, n_dests, size=n)
            fast = _window_concat_fast(dests, max_prs, window)
            ref = _window_concat_reference(dests, max_prs, window)
            assert fast == ref

    def test_sparse_destination_space_falls_back_exactly(self):
        # Raw row-id destinations: keyspace >> 4n forces the np.unique
        # path inside the fast kernel; results must still be identical.
        rng = np.random.default_rng(3)
        dests = rng.choice(
            np.array([3, 999_983, 7_654_321], dtype=np.int64), size=200
        )
        fast = _window_concat_fast(dests, 5, 8)
        ref = _window_concat_reference(dests, 5, 8)
        assert fast == ref

    def test_window_concat_matches_reference(self):
        dests = np.tile(np.arange(4), 25)
        fast = window_concat(dests, 8, 10)
        assert fast == _window_concat_reference(dests, 8, 10)
        assert fast.n_prs == 100

    def test_empty_stream_short_circuits(self):
        stats = window_concat(np.array([], dtype=np.int64), 4, 10)
        assert stats.n_prs == stats.n_packets == 0
        assert stats.per_dest_prs == {}

    def test_degenerate_windows_mean_no_concatenation(self):
        dests = np.array([2, 2, 2, 5, 5])
        for max_prs, window in ((1, 100), (8, 1), (8, 0)):
            stats = window_concat(dests, max_prs, window)
            ref = _window_concat_reference(dests, max_prs, max(window, 1))
            assert stats == ref
            assert stats.n_packets == dests.size


# ---------------------------------------------------------------------
# RIG batch-dispatch makespan
# ---------------------------------------------------------------------


class TestRigGolden:
    @pytest.mark.parametrize("policy", ["least_loaded", "round_robin"])
    def test_random_sweep_is_bit_identical(self, policy):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_idxs = int(rng.integers(1, 5000))
            n_units = int(rng.integers(1, 12))
            batch = int(rng.integers(1, 300))
            freq = float(rng.uniform(1e8, 3e9))
            ovh = float(rng.uniform(1e-8, 1e-5))
            fast = rig_generation_time(
                n_idxs, n_units, batch, freq, ovh, policy=policy
            )
            ref = _rig_generation_time_reference(
                n_idxs, n_units, batch, freq, ovh, policy
            )
            assert fast == ref  # exact float equality, not approx

    def test_zero_and_negative_idxs(self):
        assert rig_generation_time(0, 4, 32) == 0.0
        assert rig_generation_time(-3, 4, 32) == 0.0
        out = rig_generation_time(np.array([0, -3]), 4, 32)
        assert out.dtype == np.float64 and not out.any()

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(st.integers(-5, 3000), min_size=1, max_size=12),
        n_units=st.integers(1, 12),
        batch=st.integers(1, 4000),
        freq=st.floats(1e8, 3e9),
        ovh=st.floats(1e-8, 1e-5),
        policy=st.sampled_from(["least_loaded", "round_robin"]),
    )
    @example(counts=[0, -1, 7], n_units=1, batch=3, freq=2.2e9, ovh=1e-6,
             policy="least_loaded")            # one unit, a remainder
    @example(counts=[5, 4000, 1], n_units=4, batch=4000, freq=2.2e9,
             ovh=1e-6, policy="round_robin")   # batch >= n
    @example(counts=[1025, 2048, 33], n_units=3, batch=32, freq=1e9,
             ovh=3e-7, policy="least_loaded")  # last-batch remainders
    def test_per_node_array_matches_the_loop(self, counts, n_units, batch,
                                             freq, ovh, policy):
        """One masked (nodes x units) scan equals the per-batch loop on
        every node, bit for bit; a count <= 0 takes 0.0."""
        out = rig_generation_time(np.array(counts, dtype=np.int64),
                                  n_units, batch, freq, ovh, policy=policy)
        assert out.dtype == np.float64 and out.shape == (len(counts),)
        for n, got in zip(counts, out.tolist()):
            want = (_rig_generation_time_reference(
                n, n_units, batch, freq, ovh, policy) if n > 0 else 0.0)
            assert got == want
            assert rig_generation_time(n, n_units, batch, freq, ovh,
                                       policy=policy) == want

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            rig_generation_time(10, 0, 32)
        with pytest.raises(ValueError):
            rig_generation_time(10, 4, 0)
        with pytest.raises(ValueError):
            rig_generation_time(10, 4, 32, policy="fastest_first")


# ---------------------------------------------------------------------
# whole cluster model
# ---------------------------------------------------------------------


def _assert_equal(x, y, path):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        np.testing.assert_array_equal(x, y, err_msg=path)
    elif isinstance(x, dict):
        assert set(x) == set(y), path
        for key in x:
            _assert_equal(x[key], y[key], f"{path}[{key!r}]")
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), path
        for i, (xi, yi) in enumerate(zip(x, y)):
            _assert_equal(xi, yi, f"{path}[{i}]")
    else:
        assert x == y, path


def assert_results_equal(a, b):
    """Field-by-field exact equality of two CommResults."""
    assert type(a) is type(b)
    for f in dataclasses.fields(type(a)):
        _assert_equal(getattr(a, f.name), getattr(b, f.name), f.name)


CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


class TestModelGolden:
    """Cold runs (every memo disabled, each stage recomputed) against
    warm runs served by the filter and rack-merge memos, with hit masks
    scored from the reuse-distance profile a merge entry holds."""

    @pytest.mark.parametrize("name", ["queen", "stokes"])
    def test_commresult_bit_identical(self, name, cold_memos, monkeypatch):
        mat = load_benchmark(name, "tiny")
        topo = build_cluster_topology(CFG16)
        sibling, half, eighth = (
            dataclasses.replace(CFG16, pcache_bytes=CFG16.pcache_bytes // d)
            for d in (4, 2, 8)
        )
        points = [(CFG16, None), (CFG16, 1024), (half, None)]
        with cold_memos():
            cold = [simulate_netsparse(mat, 8, cfg, topo, rig_batch=rb)
                    for cfg, rb in points]
        # A sibling geometry fills the stage memos, so the warm points
        # reuse its filter and merge stages.  The first warm point is
        # the merged streams' second distinct geometry and builds their
        # reuse profiles; the last scores a third geometry from them.
        simulate_netsparse(mat, 8, sibling, topo)
        warm = [simulate_netsparse(mat, 8, cfg, topo, rig_batch=rb)
                for cfg, rb in points]
        stats = batch_stats()
        assert stats["masks"]["hits"] > 0
        assert stats["merges"]["hits"] > 0
        built = stats["profile"]["profiles_built"]
        assert built > 0
        for c, w in zip(cold, warm):
            assert_results_equal(c, w)

        # A repeated geometry is answered by the stream's held hit mask:
        # neither the replay kernel nor a profile scores it again.
        calls = {"replay": 0, "score": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model, "delayed_cache_hits",
                            counted("replay", model.delayed_cache_hits))
        monkeypatch.setattr(reusedist.StreamProfile, "score",
                            counted("score", reusedist.StreamProfile.score))
        replay = simulate_netsparse(mat, 8, CFG16, topo)
        assert calls == {"replay": 0, "score": 0}
        assert_results_equal(cold[0], replay)
        # ...while a new geometry on the same streams is scored from
        # the profiles their merge entries hold: none is built again.
        simulate_netsparse(mat, 8, eighth, topo)
        assert calls["score"] > 0
        assert batch_stats()["profile"]["profiles_built"] == built

    def test_held_masks_stay_within_the_merge_budget(self, monkeypatch):
        """Each hit mask and reuse profile a rack stream holds is
        charged to the merge memo, which evicts whole entries to stay
        within its budget however many geometries a sweep scores."""
        model.reset_batch_state()
        mat = load_benchmark("queen", "tiny")
        topo = build_cluster_topology(CFG16)
        simulate_netsparse(mat, 8, CFG16, topo)
        memo = model._MERGES
        streams = sum(
            sum(a.nbytes for a in entry.merged.values())
            for entry, _ in memo.data.values()
        )
        assert memo.bytes > streams       # one mask per stream is held
        monkeypatch.setattr(memo, "budget", streams * 3 // 2)
        misses = memo.misses
        for divisor in range(2, 26):
            cfg = dataclasses.replace(
                CFG16, pcache_bytes=CFG16.pcache_bytes // divisor
            )
            simulate_netsparse(mat, 8, cfg, topo)
            assert memo.bytes <= memo.budget
        assert memo.misses > misses       # whole entries were evicted
        assert any(entry.profile is not None
                   for entry, _ in memo.data.values())
        for entry, nbytes in memo.data.values():
            profile = entry.profile
            assert nbytes == (
                sum(a.nbytes for a in entry.merged.values())
                + sum(m.nbytes for m in entry.masks.values())
                + (profile.nbytes if profile is not None else 0)
            )
        assert memo.bytes == sum(nb for _, nb in memo.data.values())
        model.reset_batch_state()

    def test_profile_only_where_the_geometry_holds_the_stream(
            self, cold_memos):
        """From a stream's second geometry on, a profile is built and
        scored only for a geometry whose sets x ways can hold the
        stream's distinct values; a smaller one goes to the replay
        kernel.  Either way the bits are the cold run's."""
        mat = load_benchmark("queen", "tiny")
        topo = build_cluster_topology(CFG16)
        full, small, mid = (
            dataclasses.replace(CFG16, pcache_bytes=CFG16.pcache_bytes // d)
            for d in (1, 4096, 64)
        )
        with cold_memos():
            cold = [simulate_netsparse(mat, 8, cfg, topo)
                    for cfg in (small, mid)]
        model.reset_batch_state()
        simulate_netsparse(mat, 8, full, topo)
        warm_small = simulate_netsparse(mat, 8, small, topo)
        entries = [entry for entry, _ in model._MERGES.data.values()]
        assert entries and all(entry.distinct is not None
                               for entry in entries)
        n_sets, ways, _ = list(entries[0].masks)[1]
        assert all(n_sets * ways < entry.distinct for entry in entries)
        assert batch_stats()["profile"]["profiles_built"] == 0
        warm_mid = simulate_netsparse(mat, 8, mid, topo)
        n_sets, ways, _ = list(entries[0].masks)[2]
        assert all(n_sets * ways >= entry.distinct for entry in entries)
        assert all(entry.profile is not None for entry in entries)
        assert batch_stats()["profile"]["profiles_built"] == len(entries)
        for entry in entries:
            assert entry.distinct == np.unique(entry.merged["idx"]).size
        assert_results_equal(cold[0], warm_small)
        assert_results_equal(cold[1], warm_mid)
        model.reset_batch_state()


def test_module_state_stays_bounded():
    """No module-level table may grow with repeated calls, each of
    which builds a fresh topology."""
    import gc

    from repro.cluster import model

    def sizes():
        gc.collect()
        return {name: len(obj) for name, obj in vars(model).items()
                if isinstance(obj, (dict, list, set))
                and not name.startswith("__")}

    mat = load_benchmark("queen", "tiny")
    simulate_netsparse(mat, 8, CFG16)
    after_one = sizes()
    for _ in range(5):
        simulate_netsparse(mat, 8, CFG16)
    assert sizes() == after_one


# ---------------------------------------------------------------------
# TraceCache
# ---------------------------------------------------------------------


def random_matrix(seed=0, n=60, nnz=600, name=""):
    rng = np.random.default_rng(seed)
    mat = COOMatrix(
        n_rows=n,
        n_cols=n,
        rows=rng.integers(0, n, size=nnz),
        cols=rng.integers(0, n, size=nnz),
        name=name,
    )
    return mat.canonicalize()


class TestTraceCache:
    def test_structural_keying_ignores_name_and_values(self):
        cache = TraceCache()
        a = random_matrix(seed=1, name="a")
        b = random_matrix(seed=1, name="b").with_random_values(seed=9)
        assert a.structural_digest() == b.structural_digest()
        part_a = cache.get_partition(a, 4)
        part_b = cache.get_partition(b, 4)
        assert part_a is part_b
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_distinct_structures_and_rules_get_distinct_entries(self):
        cache = TraceCache()
        a, b = random_matrix(seed=1), random_matrix(seed=2)
        assert a.structural_digest() != b.structural_digest()
        cache.get_partition(a, 4)
        cache.get_partition(b, 4)
        cache.get_partition(a, 8)            # node count is part of the key
        cache.get_partition(a, 4, kind="nnz")
        assert cache.misses == 4 and cache.hits == 0 and len(cache) == 4

    def test_nnz_kind_matches_balanced_by_nnz(self):
        cache = TraceCache()
        mat = random_matrix(seed=3)
        part = cache.get_partition(mat, 4, kind="nnz")
        direct = balanced_by_nnz(mat, 4)
        np.testing.assert_array_equal(part.row_starts, direct.row_starts)

    def test_explicit_row_starts_keyed_by_digest(self):
        cache = TraceCache()
        mat = random_matrix(seed=4)
        starts = np.array([0, 10, 25, 40, mat.n_rows], dtype=np.int64)
        part = cache.get_partition(mat, 4, row_starts=starts)
        again = cache.get_partition(mat, 4, row_starts=starts.copy())
        assert part is again
        assert cache.hits == 1
        np.testing.assert_array_equal(part.row_starts, starts)
        # ...and distinct from the default "rows" entry
        assert cache.get_partition(mat, 4) is not part

    def test_lru_eviction_is_bounded(self):
        cache = TraceCache(max_entries=2)
        mats = [random_matrix(seed=s) for s in (1, 2, 3)]
        for mat in mats:
            cache.get_partition(mat, 4)
        assert len(cache) == 2 and cache.evictions == 1
        cache.get_partition(mats[0], 4)      # oldest was evicted: rebuild
        assert cache.misses == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceCache().get_partition(random_matrix(), 4, kind="2d")
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)

    def test_cached_partition_uses_swappable_global(self):
        mine = TraceCache()
        previous = set_trace_cache(mine)
        try:
            mat = random_matrix(seed=5)
            part = cached_partition(mat, 4)
            assert get_trace_cache() is mine
            assert mine.misses == 1
            assert cached_partition(mat, 4) is part
            assert mine.hits == 1
            assert isinstance(part, OneDPartition)
        finally:
            set_trace_cache(previous)
        assert get_trace_cache() is previous

    def test_stats_snapshot(self):
        cache = TraceCache(max_entries=3)
        part = cache.get_partition(random_matrix(seed=6), 4)
        snap = cache.stats()
        assert snap == {
            "entries": 1,
            "max_entries": 3,
            "hits": 0,
            "misses": 1,
            "evictions": 0,
            "contended_builds": 0,
            "resident_nnz": part.resident_trace_nnz(),
        }
        assert snap["resident_nnz"] > 0
        assert cache.clear() == 1
        assert len(cache) == 0


# ---------------------------------------------------------------------
# per-Simulator request ids (satellite: module-global counter removed)
# ---------------------------------------------------------------------


class _ProbeRecorder:
    def __init__(self):
        self.issued_ids = []

    def issued(self, request_id):
        self.issued_ids.append(request_id)

    def completed(self, request_id):
        pass


def _run_gather(idxs):
    """One fresh DES gather; returns the request ids it issued."""
    from repro.core.rig import RigClientUnit, RigServerUnit
    from repro.sim import Store

    sim = Simulator()

    def wire():
        a, b = Store(sim), Store(sim)

        def fwd():
            while True:
                item = yield a.get()
                yield sim.timeout(1e-6)
                yield b.put(item)

        sim.process(fwd())
        return a, b

    c2s_in, c2s_out = wire()
    s2c_in, s2c_out = wire()
    client = RigClientUnit(
        sim, unit_id=0, node=0, tx_queue=c2s_in, rx_queue=s2c_out,
        idx_filter=set(),
    )
    probe = _ProbeRecorder()
    client.latency_probe = probe
    RigServerUnit(
        sim, unit_id=1, node=1, rx_queue=c2s_out, tx_queue=s2c_in,
        payload_bytes=64,
    )
    client.execute(idxs)
    sim.run()
    return probe.issued_ids


class TestRequestIdDeterminism:
    def test_counter_is_per_simulator(self):
        sim = Simulator()
        assert [sim.next_request_id() for _ in range(3)] == [0, 1, 2]
        assert Simulator().next_request_id() == 0
        assert sim.next_request_id() == 3

    def test_identical_runs_issue_identical_ids(self):
        first = _run_gather([1, 2, 3, 4])
        # An unrelated simulation in between must not shift the ids —
        # exactly what the old module-global itertools.count() broke.
        _run_gather(list(range(50)))
        second = _run_gather([1, 2, 3, 4])
        assert first == second
        assert first[0] == 0
        assert first == list(range(len(first)))
