"""The matrix store: every benchmark matrix is generated once per shard
directory and memory-mapped by every later load.

Covers where the store lives, how a set is named, that a second
process generates nothing, and that killed or racing writers never
leave a torn set.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.parallel import get_engine, set_engine
from repro.partition import (
    OneDPartition,
    TraceCache,
    build_partition,
    set_trace_cache,
)
from repro.sparse import shards, suite, synthetic
from repro.sparse.matrix import COOMatrix
from repro.sparse.shards import (
    ShardedCOOMatrix,
    as_coo,
    shard_root,
    write_sharded,
)
from repro.sparse.suite import (
    BENCHMARKS,
    MATRIX_NAMES,
    _set_name,
    load_benchmark,
    stored_set,
)
from tests.test_sparse_synthetic import TINY_DIGESTS

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture()
def store(tmp_path, monkeypatch):
    """An empty shard root and a cleared suite memo."""
    root = tmp_path / "shards"
    monkeypatch.setenv("REPRO_SHARD_DIR", str(root))
    monkeypatch.delenv("REPRO_SHARDED_SCALES", raising=False)
    suite._memo.clear()
    yield root
    suite._memo.clear()


def _env(root, **extra) -> dict:
    """A child environment storing matrices under ``root``."""
    env = dict(os.environ, PYTHONPATH=_SRC, REPRO_SHARD_DIR=str(root))
    env.pop("REPRO_SHARDED_SCALES", None)
    env.update(extra)
    return env


def _run(script: str, root, **extra) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter against shard root ``root``."""
    return subprocess.run([sys.executable, "-c", script],
                          env=_env(root, **extra), capture_output=True,
                          text=True, timeout=120)


@pytest.fixture()
def generations(monkeypatch):
    """Names passed to ``BenchmarkSpec.stream``, in call order."""
    calls = []
    stream = suite.BenchmarkSpec.stream

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return stream(self, *args, **kwargs)

    monkeypatch.setattr(suite.BenchmarkSpec, "stream", counting)
    return calls


@pytest.fixture()
def digests(monkeypatch):
    """Names of the matrices whose structural digest was asked for."""
    calls = []
    for cls in (COOMatrix, ShardedCOOMatrix):
        def counting(self, real=cls.structural_digest):
            calls.append(self.name)
            return real(self)

        monkeypatch.setattr(cls, "structural_digest", counting)
    return calls


#: Loads the five tiny matrices, counting generations.
_LOAD_FIVE = """
import json
import numpy as np
from repro.sparse import suite

calls = []
stream = suite.BenchmarkSpec.stream
def counting(self, *a, **kw):
    calls.append(self.name)
    return stream(self, *a, **kw)
suite.BenchmarkSpec.stream = counting

out = {}
for name in suite.MATRIX_NAMES:
    mat = suite.load_benchmark(name, "tiny")
    out[name] = {
        "digest": mat.structural_digest(),
        "memmap": [isinstance(a.base, np.memmap) for a in (mat.indptr, mat.cols)],
        "writeable": [bool(a.flags.writeable) for a in (mat.indptr, mat.cols)],
    }
print(json.dumps({"generated": calls, "mats": out}))
"""


def _entries(root):
    return sorted(os.listdir(root))


class TestShardRoot:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path / "a"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert shard_root() == str(tmp_path / "a")

    def test_xdg_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SHARD_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert shard_root() == str(tmp_path / "xdg" / "repro" / "shards")

    def test_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SHARD_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert shard_root() == str(
            tmp_path / "home" / ".cache" / "repro" / "shards")


class TestStoredSets:
    @pytest.mark.parametrize("name", MATRIX_NAMES)
    def test_dense_scale_is_one_shard_with_in_memory_digest(self, store,
                                                            name):
        s = stored_set(name, "tiny")
        assert s.n_shards == 1
        with open(os.path.join(s.path, "manifest.json")) as fh:
            manifest = json.load(fh)
        ref = BENCHMARKS[name].generate(scale="tiny", seed=7)
        assert "digest" not in manifest      # computed only when asked
        assert s.structural_digest() == ref.structural_digest() \
            == TINY_DIGESTS[name]
        mat = s.to_coo()
        np.testing.assert_array_equal(mat.rows, ref.rows)
        np.testing.assert_array_equal(mat.cols, ref.cols)

    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["one-shot", "streamed"])
    def test_manifest_digest_matches_memory(self, store, monkeypatch,
                                            streamed):
        if streamed:
            monkeypatch.setenv("REPRO_SHARDED_SCALES", "tiny")
        for name in MATRIX_NAMES:
            s = stored_set(name, "tiny")
            view = s.to_coo()
            fresh = COOMatrix(s.n_rows, s.n_cols, view.rows, view.cols)
            assert s.structural_digest() == fresh.structural_digest() \
                == TINY_DIGESTS[name]

    def test_one_shard_to_coo_is_a_view(self, store):
        s = stored_set("queen", "tiny")
        mat = s.to_coo()
        for arr, kind in ((mat.indptr, "indptr"), (mat.cols, "cols")):
            assert isinstance(arr.base, np.memmap)
            assert arr.base.filename == os.path.join(
                s.path, f"shard-00000.{kind}.npy")
            assert not arr.flags.writeable
        # The view names its set, so nothing is hashed until asked.
        assert mat.path == s.path
        assert mat._structural_digest is None
        assert mat.structural_digest() == TINY_DIGESTS["queen"]

    def test_both_readers_open_one_set(self, store):
        dense = load_benchmark("uk", "tiny")
        sharded = stored_set("uk", "tiny")
        assert len(_entries(store)) == 1
        assert dense.cols.base.filename.startswith(sharded.path)
        assert dense.structural_digest() == sharded.structural_digest()

    def test_v1_set_is_refused_not_read(self, store, tmp_path):
        # A set the int64 v1 store wrote, planted under today's name.
        path = os.path.join(store, _set_name(BENCHMARKS["queen"], "tiny", 7))
        os.makedirs(path)
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump({"schema": "repro.shards/v1", "name": "queen",
                       "n_rows": 1, "n_cols": 1, "nnz": 0, "shards": [],
                       "digest": TINY_DIGESTS["queen"]}, fh)
        for load in (stored_set, load_benchmark):
            with pytest.raises(ValueError, match="repro.shards/v1"):
                load("queen", "tiny")
        # A set the int64 v2 store wrote, opened by its path.
        v2 = tmp_path / "v2"
        v2.mkdir()
        with open(v2 / "manifest.json", "w") as fh:
            json.dump({"schema": "repro.shards/v2", "name": "queen",
                       "n_rows": 4, "n_cols": 4, "nnz": 2,
                       "shards": [{"nnz": 2, "row_min": 0, "row_max": 3}]},
                      fh)
        np.save(v2 / "shard-00000.rows.npy", np.array([0, 3]))
        np.save(v2 / "shard-00000.cols.npy", np.array([1, 2]))
        with pytest.raises(ValueError, match="'repro.shards/v2' is not "
                           "'repro.shards/v3'; delete the set to regenerate"):
            ShardedCOOMatrix(str(v2))

    def test_schema_version_names_the_set(self, store, monkeypatch):
        # A set written in another format is never looked up by name.
        name = _set_name(BENCHMARKS["queen"], "tiny", 7)
        monkeypatch.setattr(shards, "_SCHEMA", "repro.shards/v1")
        assert _set_name(BENCHMARKS["queen"], "tiny", 7) != name

    def test_generator_identity_names_the_set(self, store, monkeypatch,
                                              generations):
        first = stored_set("queen", "tiny")
        assert stored_set("queen", "tiny").path == first.path
        assert generations == ["queen"]
        spec = BENCHMARKS["queen"]
        monkeypatch.setitem(BENCHMARKS, "queen", dataclasses.replace(
            spec, gen_kwargs=dict(spec.gen_kwargs, band=80)))
        second = stored_set("queen", "tiny")
        assert generations == ["queen", "queen"]    # old set not served
        assert second.path != first.path
        assert second.structural_digest() != first.structural_digest()
        assert len(_entries(store)) == 2


def _npy_data_bytes(path) -> int:
    """Bytes of a ``.npy`` file past its magic and header."""
    fh, _ = shards._open_npy_data(path)
    with fh:
        return os.path.getsize(path) - fh.tell()


class TestFourBytesPerNonzero:
    """A set stores int32 columns and an int32 row pointer per shard,
    and a one-shard set's view reads the trace path from them."""

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_set_takes_four_bytes_per_nonzero_and_row(self, store, scale):
        for name in MATRIX_NAMES:
            s = stored_set(name, scale)
            files = [os.path.join(s.path, f) for f in os.listdir(s.path)
                     if f.endswith(".npy")]
            assert len(files) == 2 * s.n_shards
            headers = sum(os.path.getsize(f) - _npy_data_bytes(f)
                          for f in files)
            # One pointer entry per row, plus each shard's leading 0.
            bound = 4 * s.nnz + 4 * (s.n_rows + s.n_shards) + headers
            assert sum(os.path.getsize(f) for f in files) == bound, name

    def test_view_traces_are_int32_views_of_the_column_map(self, store):
        view = stored_set("queen", "tiny").to_coo()
        col_map = view.cols.base
        assert isinstance(col_map, np.memmap)
        assert view.cols.dtype == view.indptr.dtype == np.int32
        traces = OneDPartition(view, 16).node_traces()
        for tr in traces:
            assert tr.idxs.dtype == np.int32
            assert not tr.idxs.flags.writeable
            assert np.shares_memory(tr.idxs, col_map)
        ref = BENCHMARKS["queen"].generate(scale="tiny", seed=7)
        for tr, want in zip(traces, OneDPartition(ref, 16).node_traces()):
            np.testing.assert_array_equal(tr.idxs, want.idxs)

    @pytest.mark.parametrize("name", ["arabic", "europe"])
    def test_trace_path_never_expands_rows(self, store, monkeypatch, name):
        view = stored_set(name, "tiny").to_coo()
        ref = BENCHMARKS[name].generate(scale="tiny", seed=7)
        dense = {kind: build_partition(ref, 16, kind=kind)
                 for kind in ("rows", "nnz")}

        def no_rows(self):
            raise AssertionError("rows expanded")

        monkeypatch.setattr(COOMatrix, "_expand_rows", no_rows)
        np.testing.assert_array_equal(view.row_degrees(), ref.row_degrees())
        assert view.row_degrees().dtype == np.int64
        for kind, want in dense.items():
            part = build_partition(view, 16, kind=kind)
            np.testing.assert_array_equal(part.row_starts, want.row_starts)
            np.testing.assert_array_equal(part.node_nnz(), want.node_nnz())
            assert part.node_nnz().dtype == want.node_nnz().dtype
            for got, exp in zip(part.node_traces(), want.node_traces()):
                np.testing.assert_array_equal(got.idxs, exp.idxs)
        assert "rows" not in vars(view)
        with pytest.raises(AssertionError, match="rows expanded"):
            view.rows

    def test_as_coo_expands_rows_once_and_keeps_the_set(self, store):
        view = load_benchmark("stokes", "tiny")
        full = as_coo(view)
        assert full is not view and full.path == view.path
        assert vars(full)["rows"].dtype == np.int64
        assert as_coo(full) is full
        ref = BENCHMARKS["stokes"].generate(scale="tiny", seed=7)
        np.testing.assert_array_equal(full.rows, ref.rows)


class TestNothingHashed:
    """Writing and reading a set hashes no nonzero: the ``TraceCache``
    keys a stored matrix by its set directory."""

    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["one-shot", "streamed"])
    def test_cold_load_computes_no_digest(self, store, monkeypatch,
                                          generations, digests, streamed):
        if streamed:
            # Many shards, drawn through the disk-backed scratch.
            monkeypatch.setenv("REPRO_SHARDED_SCALES", "tiny")
            monkeypatch.setattr(synthetic, "DEFAULT_CHUNK_NNZ", 20000)
        for name in MATRIX_NAMES:
            assert (stored_set(name, "tiny").n_shards > 1) == streamed
            load_benchmark(name, "tiny")
        assert sorted(generations) == sorted(MATRIX_NAMES)
        assert digests == []

    def test_cold_run_computes_no_digest(self, store, tmp_path, digests,
                                         capsys):
        previous = set_engine(None)
        prev_cache = set_trace_cache(TraceCache())
        try:
            assert main(["run", "fig13", "--scale", "tiny", "--no-cache",
                         "--cache-dir", str(tmp_path / "cache")]) == 0
        finally:
            get_engine().close()
            set_engine(previous)
            set_trace_cache(prev_cache)
        assert "executed=" in capsys.readouterr().out
        assert len(_entries(store)) == len(MATRIX_NAMES)
        assert digests == []

    @pytest.mark.parametrize("first", ["sharded", "dense"])
    def test_both_readers_hit_one_trace_cache_entry(self, store, first):
        readers = {"sharded": stored_set("uk", "tiny"),
                   "dense": load_benchmark("uk", "tiny")}
        cache = TraceCache()
        built = cache.get_partition(readers[first], 8)
        for mat in readers.values():
            assert cache.get_partition(mat, 8) is built
        assert (len(cache), cache.misses, cache.hits) == (1, 1, 2)


class TestOneGenerationPerStore:
    def test_second_process_maps_what_the_first_wrote(self, tmp_path):
        root = tmp_path / "shards"
        first = _run(_LOAD_FIVE, root)
        assert first.returncode == 0, first.stderr
        second = _run(_LOAD_FIVE, root)
        assert second.returncode == 0, second.stderr
        a = json.loads(first.stdout)
        b = json.loads(second.stdout)
        assert sorted(a["generated"]) == sorted(MATRIX_NAMES)
        assert b["generated"] == []
        for name in MATRIX_NAMES:
            for out in (a, b):
                mat = out["mats"][name]
                assert mat["digest"] == TINY_DIGESTS[name]
                assert mat["memmap"] == [True, True]
                assert mat["writeable"] == [False, False]
        assert len(_entries(root)) == len(MATRIX_NAMES)


#: Loads one tiny matrix, SIGKILLing itself after the first shard.
_KILLED_WRITER = """
import os, signal
from repro.sparse import shards, suite
append = shards.ShardWriter.append
def append_then_die(self, rows, cols):
    append(self, rows, cols)
    os.kill(os.getpid(), signal.SIGKILL)
shards.ShardWriter.append = append_then_die
suite.load_benchmark("arabic", "tiny")
"""


class TestTornAndRacingWrites:
    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["one-shard", "streamed"])
    def test_killed_writer_leaves_no_set(self, store, monkeypatch,
                                         tmp_path, streamed):
        # The streamed writer's scratch draws go to the child's TMPDIR;
        # they must leave no entry there even though it never exits.
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        env = {"REPRO_SHARDED_SCALES": "tiny",
               "REPRO_CHUNK_NNZ": "20000"} if streamed else {}
        proc = _run(_KILLED_WRITER, store, TMPDIR=str(tmp), **env)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        path = os.path.join(store, _set_name(BENCHMARKS["arabic"], "tiny", 7))
        assert not os.path.exists(os.path.join(path, "manifest.json"))
        assert not os.path.exists(path)
        torn, = [e for e in _entries(store) if ".tmp-" in e]
        assert torn.startswith(
            f"{os.path.basename(path)}.tmp-{socket.gethostname()}-")
        assert _entries(tmp) == []                 # no generator scratch

        if streamed:
            monkeypatch.setenv("REPRO_SHARDED_SCALES", "tiny")
        mat = stored_set("arabic", "tiny").to_coo()
        # The next writer of the set removed the killed one's temp dir.
        assert _entries(store) == [os.path.basename(path)]
        ref = BENCHMARKS["arabic"].generate(scale="tiny", seed=7)
        assert mat.structural_digest() == TINY_DIGESTS["arabic"]
        np.testing.assert_array_equal(mat.rows, ref.rows)
        np.testing.assert_array_equal(mat.cols, ref.cols)

    def test_writer_removes_only_dead_writers_temp_dirs(self, tmp_path):
        done = subprocess.Popen([sys.executable, "-c", "pass"])
        done.wait()
        host = socket.gethostname()
        root = tmp_path / "root"
        dead = root / f"m.tmp-{host}-{done.pid}-x1"
        live = root / f"m.tmp-{host}-{os.getpid()}-x2"
        elsewhere = root / f"m.tmp-{host}x-{done.pid}-x3"
        other_set = root / f"m2.tmp-{host}-{done.pid}-x4"
        for d in (dead, live, elsewhere, other_set):
            (d / "sub").mkdir(parents=True)
        ref = BENCHMARKS["queen"].generate(scale="tiny", seed=7)
        write_sharded(str(root / "m"), ref.n_rows, ref.n_cols,
                      [(ref.rows, ref.cols)])
        assert _entries(root) == sorted(
            ["m", live.name, elsewhere.name, other_set.name])

    def test_lost_race_keeps_the_winners_set(self, tmp_path):
        ref = BENCHMARKS["europe"].generate(scale="tiny", seed=7)
        path = str(tmp_path / "m")

        def chunks():
            # Another writer renames its complete copy into place
            # while this one is still streaming.
            write_sharded(path, ref.n_rows, ref.n_cols,
                          [(ref.rows, ref.cols)], name="winner")
            yield ref.rows, ref.cols

        got = write_sharded(path, ref.n_rows, ref.n_cols, chunks(),
                            name="loser")
        assert got.name == "winner"
        assert os.listdir(tmp_path) == ["m"]
        assert got.structural_digest() == ref.structural_digest()

    def test_racing_processes_leave_one_set(self, tmp_path):
        root = tmp_path / "shards"
        procs = [subprocess.Popen([sys.executable, "-c", _LOAD_FIVE],
                                  env=_env(root), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=120) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
            mats = json.loads(out)["mats"]
            assert {n: m["digest"] for n, m in mats.items()} == TINY_DIGESTS
        names = _entries(root)
        assert len(names) == len(MATRIX_NAMES)
        assert not [n for n in names if ".tmp-" in n]
        for n in names:
            assert ShardedCOOMatrix(os.path.join(root, n)).n_shards == 1
