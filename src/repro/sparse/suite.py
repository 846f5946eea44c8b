"""Benchmark registry: the paper's five matrices at configurable scale.

Table 6 of the paper lists arabic-2005 (23M rows / 640M nnz),
europe_osm (51M / 108M), queen_4147 (4M / 317M), stokes (11M / 350M)
and uk-2002 (19M / 298M).  We generate structure-matched synthetics
(see :mod:`repro.sparse.synthetic`) scaled down so the 128-node cluster
model runs in seconds; the relative row counts and nonzeros-per-row of
the originals are preserved.

Scales
------
``tiny``    ~100k nnz total per matrix — unit tests.
``small``   ~1–2M nnz — default for the experiment harness.
``medium``  ~4–8M nnz — closer structural statistics, minutes per run.
``large``   ~10–20M nnz per matrix — sharded by default; the CI-budget
            paper-shaped sweep (Table 7 / Fig. 11 scale behavior).
``paper``   the original Table-6 row counts — sharded by default; only
            generation and trace extraction are expected to fit, and
            only out-of-core.

Every matrix is stored once per shard directory
(:func:`repro.sparse.shards.shard_root`) by :func:`stored_set`: the
first load streams its family's generator into the store, every later
load memory-maps it.  Matrices at sharded scales are written in many
chunk-sized shards and come back as
:class:`~repro.sparse.shards.ShardedCOOMatrix` — same
``structural_digest`` as the whole matrix, bounded resident set.  The
other scales are written as one chunk, one shard, and come back as a
:class:`COOMatrix` over the read-only memmaps.  The store is the one
place matrix data lives: :func:`load_benchmark` memoizes these readers
per process (:class:`MatrixMemo`, hits and misses only), and the page
cache decides which nonzeros stay resident.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Set, Tuple

import numpy as np

from repro import telemetry
from repro.sources import source_digest
from repro.sparse.matrix import COOMatrix
from repro.sparse import synthetic

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "MATRIX_NAMES",
    "MatrixMemo",
    "load_benchmark",
    "sharded_scales",
    "stored_set",
    "suite_cache_stats",
]

#: Canonical matrix order used in every paper table.
MATRIX_NAMES = ("arabic", "europe", "queen", "stokes", "uk")

#: Row counts per scale, chosen to preserve the paper's relative sizes
#: (europe has the most rows, queen the fewest).
_SCALE_ROWS: Dict[str, Dict[str, int]] = {
    "tiny": {
        "arabic": 1 << 13,
        "europe": 1 << 14,
        "queen": 1 << 12,
        "stokes": 1 << 13,
        "uk": 1 << 13,
    },
    "small": {
        "arabic": 1 << 17,
        "europe": 1 << 18,
        "queen": 1 << 15,
        "stokes": 1 << 16,
        "uk": 1 << 17,
    },
    "medium": {
        "arabic": 1 << 19,
        "europe": 1 << 20,
        "queen": 1 << 17,
        "stokes": 1 << 18,
        "uk": 1 << 19,
    },
    "large": {
        "arabic": 1 << 20,
        "europe": 1 << 23,
        "queen": 1 << 18,
        "stokes": 1 << 19,
        "uk": 1 << 20,
    },
    "paper": {
        "arabic": 23_000_000,
        "europe": 51_000_000,
        "queen": 4_000_000,
        "stokes": 11_000_000,
        "uk": 19_000_000,
    },
}

#: Scales whose matrices load sharded (out-of-core) by default.
_SHARDED_SCALES = ("large", "paper")


def sharded_scales() -> Set[str]:
    """Scales whose sets are streamed into many shards and read back
    as :class:`~repro.sparse.shards.ShardedCOOMatrix`.

    ``REPRO_SHARDED_SCALES`` (comma-separated) adds scales — e.g.
    ``REPRO_SHARDED_SCALES=tiny`` forces the chunked writer and the
    out-of-core path in unit tests without paying large-scale
    generation time.
    """
    extra = os.environ.get("REPRO_SHARDED_SCALES", "")
    out = set(_SHARDED_SCALES)
    out.update(s.strip() for s in extra.split(",") if s.strip())
    return out


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark matrix family.

    ``paper_rows_m`` / ``paper_nnz_m`` record the original SuiteSparse
    sizes (in millions) from Table 6; ``default_rig_batch`` is the RIG
    batch size the paper uses for this matrix (§8.2), scaled in the
    cluster model by the matrix scale factor.  ``generator`` is the
    family's streamer in :mod:`repro.sparse.synthetic`.
    """

    name: str
    generator: Callable[..., Iterator[Tuple[np.ndarray, np.ndarray]]]
    gen_kwargs: Dict
    paper_rows_m: float
    paper_nnz_m: float
    default_rig_batch: int
    domain: str

    def rows_for_scale(self, scale: str) -> int:
        try:
            return _SCALE_ROWS[scale][self.name]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {sorted(_SCALE_ROWS)}"
            ) from None

    def generate(self, scale: str = "small", seed: int = 7) -> COOMatrix:
        """The whole matrix in memory: :meth:`stream` as one chunk."""
        return synthetic.materialize(
            self.generator, self.rows_for_scale(scale), self.name,
            seed=seed, **self.gen_kwargs,
        )

    def stream(
        self, scale: str = "small", seed: int = 7,
        chunk_nnz: Optional[int] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Canonical ``(rows, cols)`` chunks of about ``chunk_nnz``
        nonzeros; every chunk size yields the same matrix."""
        return self.generator(self.rows_for_scale(scale), seed=seed,
                              chunk_nnz=chunk_nnz, **self.gen_kwargs)


BENCHMARKS: Dict[str, BenchmarkSpec] = {
    "arabic": BenchmarkSpec(
        name="arabic",
        generator=synthetic.web_crawl_chunks,
        gen_kwargs=dict(mean_degree=26.0, locality=0.72, hub_alpha=1.2,
                        page_alpha=1.3, block_size=512, escape_frac=0.03),
        paper_rows_m=23.0,
        paper_nnz_m=640.0,
        default_rig_batch=32 * 1024,
        domain="web crawl",
    ),
    "europe": BenchmarkSpec(
        name="europe",
        generator=synthetic.road_network_chunks,
        gen_kwargs=dict(mean_degree=2.2, long_range_frac=0.25),
        paper_rows_m=51.0,
        paper_nnz_m=108.0,
        default_rig_batch=8 * 1024,
        domain="road network",
    ),
    "queen": BenchmarkSpec(
        name="queen",
        generator=synthetic.banded_fem_chunks,
        gen_kwargs=dict(mean_degree=56.0, band=160),
        paper_rows_m=4.0,
        paper_nnz_m=317.0,
        default_rig_batch=32 * 1024,
        domain="3D structural FEM",
    ),
    "stokes": BenchmarkSpec(
        name="stokes",
        generator=synthetic.coupled_flow_chunks,
        gen_kwargs=dict(mean_degree=26.0, band=48, coupling_frac=0.3),
        paper_rows_m=11.0,
        paper_nnz_m=350.0,
        default_rig_batch=32 * 1024,
        domain="coupled flow",
    ),
    "uk": BenchmarkSpec(
        name="uk",
        generator=synthetic.web_crawl_chunks,
        gen_kwargs=dict(mean_degree=16.0, locality=0.55, hub_alpha=1.15,
                        page_alpha=1.1, block_size=256, escape_frac=0.10),
        paper_rows_m=19.0,
        paper_nnz_m=298.0,
        default_rig_batch=8 * 1024,
        domain="web crawl",
    ),
}


class MatrixMemo:
    """Per-process memo of loaded benchmark matrices.

    Unbounded on purpose: a dense entry is a :class:`COOMatrix` view
    over its set's read-only memmaps and a sharded entry is only
    metadata, so the page cache, not this memo, decides which
    nonzeros stay in RAM.
    """

    def __init__(self):
        self._entries: Dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def get_or_load(self, key: tuple, loader: Callable[[], object]):
        mat = self._entries.get(key)
        if mat is not None:
            self.hits += 1
            telemetry.count("sparse.suite.cache.hits")
            return mat
        self.misses += 1
        telemetry.count("sparse.suite.cache.misses")
        mat = self._entries[key] = loader()
        return mat

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self._entries.clear()


_memo = MatrixMemo()


def suite_cache_stats() -> Dict[str, int]:
    """Snapshot of the process-wide benchmark memo."""
    return _memo.stats()


#: The sources a stored matrix's bytes depend on: the generators and
#: the canonicalization they stream through.
_GENERATOR_SOURCES = ("sparse/synthetic.py", "sparse/matrix.py")


def _set_name(spec: BenchmarkSpec, scale: str, seed: int) -> str:
    """Directory name of a stored matrix: ``{name}-{scale}-s{seed}-{tag}``.

    ``tag`` hashes what generates the matrix (generator, sorted
    ``gen_kwargs``, row count, and the bytes of
    :data:`_GENERATOR_SOURCES`), so editing a spec, ``_SCALE_ROWS`` or
    the generator code misses the old set instead of serving it.
    """
    ident = repr((spec.generator.__qualname__,
                  sorted(spec.gen_kwargs.items()),
                  spec.rows_for_scale(scale),
                  source_digest(_GENERATOR_SOURCES)))
    tag = hashlib.blake2b(ident.encode(), digest_size=4).hexdigest()
    return f"{spec.name}-{scale}-s{seed}-{tag}"


def stored_set(name: str, scale: str = "small", seed: int = 7):
    """Open a benchmark matrix's stored set, generating it on first use.

    Every scale is stored under :func:`repro.sparse.shards.shard_root`,
    one directory per matrix, so only the first process to ask for a
    matrix generates it; every later one (a second ``netsparse run``,
    an engine worker) memory-maps it.  The family's streamer writes
    every set: scales in :func:`sharded_scales` in chunk-sized shards,
    every other scale as one chunk, one shard.  Returns the
    :class:`~repro.sparse.shards.ShardedCOOMatrix`.
    """
    from repro.sparse import shards

    spec = BENCHMARKS[name]
    path = os.path.join(shards.shard_root(), _set_name(spec, scale, seed))
    if os.path.exists(os.path.join(path, "manifest.json")):
        return shards.ShardedCOOMatrix(path)
    n = spec.rows_for_scale(scale)
    chunk_nnz = None if scale in sharded_scales() else synthetic.ONE_CHUNK
    return shards.write_sharded(path, n, n,
                                spec.stream(scale, seed, chunk_nnz),
                                name=name)


def load_benchmark(name: str, scale: str = "small", seed: int = 7):
    """Load (and memoize) a benchmark matrix.

    Benchmark matrices come from their :func:`stored_set`, read as the
    scale says: scales in :func:`sharded_scales` return the on-disk
    :class:`~repro.sparse.shards.ShardedCOOMatrix`, every other scale a
    :class:`COOMatrix` (a view over the memmaps of its one-shard set).
    Both readers share one ``structural_digest``, read from the set's
    manifest.  A caller that wants the sharded reader at another scale
    calls :func:`stored_set` itself.

    Raises ``KeyError`` with the available names for typos.
    """
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; available: {MATRIX_NAMES}")
    if scale in sharded_scales():
        return _memo.get_or_load((name, scale, seed, "sharded"),
                                 lambda: stored_set(name, scale, seed))
    return _memo.get_or_load((name, scale, seed, "dense"),
                             lambda: stored_set(name, scale, seed).to_coo())


def scale_factor(name: str, matrix: COOMatrix) -> float:
    """This matrix's nnz over the original SuiteSparse matrix's nnz.

    The cluster model uses this to scale size-coupled quantities (RIG
    batch, per-command overhead, Property Cache capacity) so ratios
    survive the downscaling (DESIGN.md §5).
    """
    return matrix.nnz / (BENCHMARKS[name].paper_nnz_m * 1e6)
