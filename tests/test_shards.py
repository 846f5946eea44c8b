"""Shard store + streamed generation determinism (tests for the
out-of-core trace pipeline's storage layer).

The load-bearing invariant: a matrix generated chunk-by-chunk into the
shard store is **bit-identical** — same canonical nonzero stream, same
``structural_digest`` — to the same generator run as one in-memory
chunk, so every partition-trace cache key stays valid across storage
tiers.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.partition import ShardedOneDPartition, build_partition
from repro.sparse import synthetic
from repro.sparse.matrix import COOMatrix
from repro.sparse.shards import (
    ShardWriter,
    ShardedCOOMatrix,
    drop_pages,
    from_coo,
    is_sharded,
    write_sharded,
)
from repro.sparse.suite import BENCHMARKS, load_benchmark

GENERATOR_CASES = [
    (synthetic.web_crawl, dict(n=3000, mean_degree=10.0, locality=0.7,
                               block_size=128, escape_frac=0.08, seed=3)),
    (synthetic.road_network, dict(n=12000, mean_degree=2.2,
                                  long_range_frac=0.25, seed=5)),
    (synthetic.banded_fem, dict(n=2000, mean_degree=18.0, band=40, seed=7)),
    (synthetic.coupled_flow, dict(n=2700, mean_degree=12.0, band=24,
                                  n_fields=3, coupling_frac=0.3, seed=9)),
]

#: ``structural_digest()`` of each ``GENERATOR_CASES`` matrix, measured
#: on the generators before they were folded onto their streamers.
CASE_DIGESTS = {
    "web_crawl": "8b04b6fad43442c603678fb2bfc05df3",
    "road_network": "41cba6112ed1c10368c5abd5ba5d37c3",
    "banded_fem": "709be0a3467bfd4fed8e3c3f622217ca",
    "coupled_flow": "5c3a497c971c35ddd63faa829fb22d37",
}
_CASE_IDS = [g.__name__ for g, _ in GENERATOR_CASES]


def _stream(gen, chunk_nnz, **kw):
    """Chunks of the streamer behind the family materializer ``gen``."""
    streamer = getattr(synthetic, gen.__name__ + "_chunks")
    return streamer(chunk_nnz=chunk_nnz, **kw)


@pytest.fixture()
def shard_env(tmp_path, monkeypatch):
    """Isolated shard root, tiny sets written by the streamed writer,
    and a cleared suite memo for every test."""
    from repro.sparse import suite

    monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path / "shards"))
    monkeypatch.setenv("REPRO_SHARDED_SCALES", "tiny")
    suite._memo.clear()
    yield tmp_path
    suite._memo.clear()


def _one_shot(name):
    """The whole matrix generated in memory, bypassing the store (the
    reference the chunked writer must match)."""
    return BENCHMARKS[name].generate(scale="tiny", seed=7)


class TestStreamedGeneration:
    @pytest.mark.parametrize("gen,kw", GENERATOR_CASES, ids=_CASE_IDS)
    def test_chunks_bit_identical_to_one_shot(self, gen, kw):
        ref = gen(**kw)
        assert ref.structural_digest() == CASE_DIGESTS[gen.__name__]
        chunks = list(_stream(gen, 4096, **kw))
        assert len(chunks) > 1          # actually exercised chunking
        rows = np.concatenate([r for r, c in chunks])
        cols = np.concatenate([c for r, c in chunks])
        np.testing.assert_array_equal(rows, ref.rows)
        np.testing.assert_array_equal(cols, ref.cols)
        built = COOMatrix(kw["n"], kw["n"], rows, cols, None, "t")
        assert built.structural_digest() == ref.structural_digest()

    @pytest.mark.parametrize("gen,kw", GENERATOR_CASES, ids=_CASE_IDS)
    def test_chunk_size_invariance(self, gen, kw):
        """Disk-scratch draws (many chunks) and in-memory draws (one
        chunk covering the matrix) give the same pinned matrix."""
        n_chunks = []
        for chunk_nnz in (1000, 4096, synthetic.ONE_CHUNK):
            chunks = list(_stream(gen, chunk_nnz, **kw))
            n_chunks.append(len(chunks))
            rows = np.concatenate([r for r, _ in chunks])
            cols = np.concatenate([c for _, c in chunks])
            m = COOMatrix(kw["n"], kw["n"], rows, cols, None, "t")
            assert m.structural_digest() == CASE_DIGESTS[gen.__name__]
        assert n_chunks[0] > n_chunks[1] > n_chunks[2] == 1

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_stream_matches_generate(self, name):
        spec = BENCHMARKS[name]
        ref = spec.generate(scale="tiny", seed=7)
        chunks = list(spec.stream(scale="tiny", seed=7, chunk_nnz=1 << 15))
        rows = np.concatenate([r for r, _ in chunks])
        cols = np.concatenate([c for _, c in chunks])
        built = COOMatrix(ref.n_rows, ref.n_cols, rows, cols, None, name)
        assert built.structural_digest() == ref.structural_digest()


class TestShardStore:
    def _write(self, tmp_path, gen, kw, chunk_nnz=4096):
        ref = gen(**kw)
        sm = write_sharded(
            str(tmp_path / "m"), kw["n"], kw["n"],
            _stream(gen, chunk_nnz, **kw), name="t",
        )
        return ref, sm

    def test_roundtrip_and_manifest(self, tmp_path):
        gen, kw = GENERATOR_CASES[1]
        ref, sm = self._write(tmp_path, gen, kw)
        assert is_sharded(sm) and not is_sharded(ref)
        assert sm.nnz == ref.nnz
        assert sm.shape == (ref.n_rows, ref.n_cols)
        assert sm.n_shards > 1
        assert sm.structural_digest() == ref.structural_digest()
        manifest = json.load(open(os.path.join(sm.path, "manifest.json")))
        assert manifest["schema"] == "repro.shards/v3"
        assert manifest["nnz"] == ref.nnz
        assert "digest" not in manifest     # computed only when asked
        back = sm.to_coo()
        np.testing.assert_array_equal(back.rows, ref.rows)
        np.testing.assert_array_equal(back.cols, ref.cols)

    def test_reopen_existing_store(self, tmp_path):
        gen, kw = GENERATOR_CASES[2]
        ref, sm = self._write(tmp_path, gen, kw)
        again = ShardedCOOMatrix(sm.path)
        assert again.structural_digest() == ref.structural_digest()
        assert again.nnz == ref.nnz

    def test_from_coo_roundtrip(self, tmp_path):
        gen, kw = GENERATOR_CASES[3]
        ref = gen(**kw)
        sm = from_coo(ref, str(tmp_path / "m"), shard_nnz=4096)
        assert sm.n_shards > 1
        assert sm.structural_digest() == ref.structural_digest()

    def test_window_reads(self, tmp_path):
        gen, kw = GENERATOR_CASES[0]
        ref, sm = self._write(tmp_path, gen, kw)
        # cols_slice windows equal the materialized stream, across
        # shard boundaries.
        rng = np.random.default_rng(0)
        for _ in range(8):
            a, b = sorted(rng.integers(0, ref.nnz + 1, size=2).tolist())
            np.testing.assert_array_equal(sm.cols_slice(a, b), ref.cols[a:b])
        # nnz_before_row equals searchsorted on the dense rows.
        for row in [0, 1, kw["n"] // 3, kw["n"] - 1, kw["n"]]:
            assert sm.nnz_before_row(row) == int(
                np.searchsorted(ref.rows, row, side="left")
            )
        np.testing.assert_array_equal(
            sm.row_degrees(), np.bincount(ref.rows, minlength=ref.n_rows)
        )

    def test_column_reads_map_no_page(self, tmp_path, monkeypatch):
        # Column windows and the distinct-column pass read the files
        # into their own buffers; a mapped page would count in the
        # resident set by however much the page cache let one fault map.
        gen, kw = GENERATOR_CASES[1]
        ref = gen(**kw)
        sm = from_coo(ref, str(tmp_path / "m"), shard_nnz=4096)
        assert sm.n_shards > 2

        def no_memmap(self, i):
            raise AssertionError("column shard memory-mapped")

        monkeypatch.setattr(ShardedCOOMatrix, "shard_cols", no_memmap)
        edges = sm.shard_offsets.tolist()
        for a, b in [(0, ref.nnz), (edges[1] - 3, edges[2] + 5),
                     (edges[1], edges[2]), (7, 7), (ref.nnz - 1, ref.nnz)]:
            np.testing.assert_array_equal(sm.cols_slice(a, b), ref.cols[a:b])
        assert sm.unique_col_count() == ref.unique_col_count()

    def test_drop_pages_tolerates_plain_arrays(self):
        drop_pages(np.arange(10))    # no memmap under it: a no-op

    def test_drop_pages_keeps_unsynced_writes(self, tmp_path):
        # A writable map drops its pages unsynced; a read-only reopen
        # still sees every byte (the generator's scratch draws).
        path = str(tmp_path / "scratch.npy")
        out = np.lib.format.open_memmap(path, mode="w+", dtype=np.int64,
                                        shape=(1 << 16,))
        out[:] = np.arange(1 << 16)
        drop_pages(out)
        del out
        np.testing.assert_array_equal(np.load(path, mmap_mode="r"),
                                      np.arange(1 << 16))

    def test_v1_set_is_refused(self, tmp_path):
        gen, kw = GENERATOR_CASES[2]
        _, sm = self._write(tmp_path, gen, kw)
        manifest_path = os.path.join(sm.path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["schema"] = "repro.shards/v1"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="repro.shards/v1"):
            ShardedCOOMatrix(sm.path)
        with pytest.raises(ValueError, match="repro.shards/v1"):
            write_sharded(sm.path, kw["n"], kw["n"], [], name="t")

    def test_row_pointer_covers_empty_rows(self, tmp_path):
        # Empty rows lead the matrix, fall between shards and end it.
        rows = np.array([2, 2, 3, 6, 6, 6, 7, 9])
        cols = np.array([0, 5, 1, 2, 3, 9, 4, 8])
        ref = COOMatrix(12, 12, rows, cols)
        sm = from_coo(ref, str(tmp_path / "m"), shard_nnz=2)
        assert sm.n_shards == 3
        files = sorted(f for f in os.listdir(sm.path) if f.endswith(".npy"))
        assert files == [f"shard-0000{i}.{k}.npy"
                         for i in range(3) for k in ("cols", "indptr")]
        assert {np.load(os.path.join(sm.path, f)).dtype for f in files} \
            == {np.dtype(np.int32)}
        for view in (sm.to_coo(), from_coo(ref, str(tmp_path / "one")).to_coo()):
            np.testing.assert_array_equal(view.rows, rows)
            np.testing.assert_array_equal(view.cols, cols)
            assert view.cols.dtype == np.int32
        np.testing.assert_array_equal(sm.row_degrees(), ref.row_degrees())
        for row in range(13):
            assert sm.nnz_before_row(row) == int(np.searchsorted(rows, row))
        assert sm.structural_digest() == ref.structural_digest()

    @pytest.mark.parametrize("chunks", [
        [([1, 0], [0, 0])],                     # rows not sorted
        [([0, 1, 0], [0, 0, 1])],               # a row split in one chunk
        [([0, 1], [0, 0]), ([1, 2], [1, 0])],   # a row across two chunks
        [([0, 5], [0, 0])],                     # row past n_rows
        [([0, 1], [0, 4])],                     # col past n_cols
    ], ids=["unsorted", "split-row", "straddle", "row-range", "col-range"])
    def test_writer_refuses_a_bad_chunk(self, tmp_path, chunks):
        writer = ShardWriter(str(tmp_path / "m"), 4, 4)
        with pytest.raises(ValueError):
            for rows, cols in chunks:
                writer.append(np.array(rows), np.array(cols))

    def test_writer_refuses_a_finished_set(self, tmp_path):
        # Its path keys the TraceCache, so a set is never rewritten.
        gen, kw = GENERATOR_CASES[2]
        _, sm = self._write(tmp_path, gen, kw)
        with pytest.raises(FileExistsError, match="already holds"):
            ShardWriter(sm.path, kw["n"], kw["n"])


class TestShardedPartition:
    @pytest.mark.parametrize("kind", ["rows", "nnz"])
    def test_traces_match_dense(self, shard_env, kind):
        mat = _one_shot("stokes")
        smat = load_benchmark("stokes", "tiny")
        dense = build_partition(mat, 16, kind=kind)
        sharded = build_partition(smat, 16, kind=kind)
        assert isinstance(sharded, ShardedOneDPartition)
        np.testing.assert_array_equal(dense.row_starts, sharded.row_starts)
        np.testing.assert_array_equal(dense.node_nnz(), sharded.node_nnz())
        for dt, st in zip(dense.node_traces(), sharded.node_traces()):
            np.testing.assert_array_equal(dt.idxs, st.idxs)
            np.testing.assert_array_equal(dt.owner, st.owner)
            assert dt.owner.dtype == st.owner.dtype
            np.testing.assert_array_equal(dt.remote, st.remote)
            np.testing.assert_array_equal(dt.remote_idxs, st.remote_idxs)
            np.testing.assert_array_equal(dt.remote_pos, st.remote_pos)
            np.testing.assert_array_equal(dt.remote_unique, st.remote_unique)
            assert dt.unique_remote_count() == st.unique_remote_count()
            assert (dt.unique_count()
                    == st.unique_count()
                    == np.unique(dt.idxs).size)

    def test_release_bounds_residency(self, shard_env):
        smat = load_benchmark("queen", "tiny")
        part = ShardedOneDPartition(smat, 8)
        assert part.resident_trace_nnz() == 0
        traces = part.node_traces()
        _ = traces[0].remote_idxs
        assert part.resident_trace_nnz() > 0
        for tr in traces:
            tr.release()
        assert part.resident_trace_nnz() == 0
        # Windows re-materialize transparently after release.
        np.testing.assert_array_equal(
            traces[0].idxs, smat.cols_slice(0, traces[0].n_nonzeros)
        )

    def test_validation(self, shard_env):
        smat = load_benchmark("queen", "tiny")
        with pytest.raises(ValueError):
            ShardedOneDPartition(smat, 0)
        with pytest.raises(ValueError):
            ShardedOneDPartition(smat, smat.n_rows + 1)
        with pytest.raises(ValueError):
            ShardedOneDPartition(smat, 4, row_starts=np.array([0, 1, 2]))


class TestShardedDistinctCounts:
    """Distinct-column counts on sharded matrices and windowed traces."""

    def test_empty_window_counts_zero(self, tmp_path):
        rows = np.array([0, 0, 1, 2, 3])
        cols = np.array([4, 6, 6, 1, 7])
        mat = COOMatrix(8, 8, rows, cols).canonicalize()
        smat = from_coo(mat, str(tmp_path / "gappy"), shard_nnz=2)
        counts = [tr.unique_count()
                  for tr in ShardedOneDPartition(smat, 4).node_traces()]
        assert counts == [2, 2, 0, 0]

    def test_count_survives_release(self, shard_env):
        smat = load_benchmark("queen", "tiny")
        part = ShardedOneDPartition(smat, 8)
        tr = part.node_traces()[0]
        expected = int(np.unique(tr.idxs).size)     # window now resident
        assert tr.unique_count() == expected
        tr.release()
        assert part.resident_trace_nnz() == 0
        assert tr.unique_count() == expected
        assert part.resident_trace_nnz() == 0        # not re-read

    def test_matrix_count_cached_on_instance(self, shard_env, monkeypatch):
        mat = _one_shot("arabic")
        smat = load_benchmark("arabic", "tiny")
        assert smat.unique_col_count() == np.unique(mat.cols).size
        monkeypatch.setattr(smat, "iter_chunks", None)   # no shard reads
        assert smat.unique_col_count() == np.unique(mat.cols).size

    def test_end_to_end_keeps_windows_unpinned(self, tmp_path):
        """End-to-end on a sharded matrix reads each node window
        transiently: the bounded-resident contract (and the trace
        cache's resident budget, which counts resident nnz) holds."""
        from repro.cluster.endtoend import (
            end_to_end_time,
            per_node_compute_times,
        )
        from repro.partition import (
            TraceCache,
            cached_partition,
            set_trace_cache,
        )

        mat = load_benchmark("arabic", "tiny")
        smat = from_coo(mat, str(tmp_path / "arabic"), shard_nnz=20000)
        dense_times = per_node_compute_times(mat, 16, 16)
        # A private cache, so the sharded copy's partition is built here.
        prev = set_trace_cache(TraceCache())
        try:
            part = cached_partition(smat, 16)
            assert isinstance(part, ShardedOneDPartition)
            before = part.resident_trace_nnz()
            times = per_node_compute_times(smat, 16, 16)
            assert part.resident_trace_nnz() == before
            comm = SimpleNamespace(n_nodes=16, total_time=1.0)
            end_to_end_time(smat, 16, comm)
            assert part.resident_trace_nnz() == before
        finally:
            set_trace_cache(prev)
        np.testing.assert_array_equal(times, dense_times)


class TestSuiteShardedLoading:
    def test_digest_matches_dense_twin(self, shard_env):
        dense = _one_shot("arabic")
        sharded = load_benchmark("arabic", "tiny")
        assert is_sharded(sharded)
        assert sharded.structural_digest() == dense.structural_digest()
        assert sharded.nnz == dense.nnz

    def test_memoized_and_reused_from_disk(self, shard_env):
        from repro.sparse import suite

        a = load_benchmark("queen", "tiny")
        b = load_benchmark("queen", "tiny")
        assert a is b                       # memo hit
        suite._memo.clear()
        c = load_benchmark("queen", "tiny")
        assert c is not a                   # reloaded ...
        assert c.path == a.path             # ... from the same store
        assert c.structural_digest() == a.structural_digest()

    def test_sharded_scales_env(self, shard_env, monkeypatch):
        from repro.sparse.suite import sharded_scales

        assert {"large", "paper"} <= sharded_scales()
        monkeypatch.setenv("REPRO_SHARDED_SCALES", "tiny,small")
        assert {"tiny", "small", "large", "paper"} <= sharded_scales()
        mat = load_benchmark("queen", "tiny")   # default now sharded
        assert is_sharded(mat)
