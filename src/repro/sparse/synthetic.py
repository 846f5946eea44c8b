"""Structure-matched synthetic generators for the benchmark matrices.

The paper evaluates five SuiteSparse matrices (Table 6).  Those exact
matrices are hundreds of millions of nonzeros and are not available
offline, so this module generates scaled-down matrices that preserve the
*structural properties the paper's analyses depend on*:

====================  =========================================================
Matrix                Structure reproduced
====================  =========================================================
``arabic-2005``       Web crawl: strong host-block locality plus global links
                      concentrated on few hub hosts per page.  Highest column
                      reuse (paper SA redundancy ~1:27), highest SU redundancy
                      (1:1947), low destination spread (2.5 dests / 64 PRs).
``uk-2002``           Web crawl with weaker locality and per-link (rather than
                      per-page) hub-host choice: more destination spread
                      (5.6 / 64), less reuse (SA ~1:4.5).
``europe_osm``        Road network: constant degree ~2, short spatial offsets
                      plus multi-scale offsets from the 2D→1D embedding.
                      Almost no column reuse (SA ~1:0.02).
``queen_4147``        3D structural FEM: narrow banded; remote requests only
                      target adjacent partitions (destination locality 1.00),
                      high within-node reuse.
``stokes``            Coupled flow: per-field band plus a single inter-field
                      coupling stripe — two destinations per window (~1.85)
                      and moderate reuse (~1:3.6).
====================  =========================================================

All generators are deterministic given a seed and fully vectorized.

Streamed generation
-------------------
Each family has one implementation, a streamer
(:func:`web_crawl_chunks` …) that yields canonical ``(rows, cols)``
chunks of about ``chunk_nnz`` nonzeros; the family's plain name
(:func:`web_crawl` …) runs it as one chunk covering the whole matrix
and returns a :class:`COOMatrix`.  Every chunk size yields the same
nonzeros — same seed, same draws, same digest.  The trick: numpy
``Generator`` draws consume the bit stream sequentially per value, so
a full-array draw equals the concatenation of chunked draws.  A family
draws several nnz-length arrays in a fixed order and folds each into
the partial columns as soon as the later draws allow
(``_Scratch.fold``; the row ids are one more operand, addressable by
window).  When one chunk covers the matrix every fold runs at once, in
memory, and frees its draws: the path holds the row ids, the partial
columns and the draws no fold can take yet (two reduced draws at most,
road and flow offsets), so its heap peaks at 32-52 bytes per raw
nonzero, inside a fold or in :func:`canonical_coords`, which builds and
sorts its keys in place.  Otherwise each draw is replayed
chunk-by-chunk into a disk-backed scratch memmap (preserving the exact
consumption order) and the folds run per aligned window, so no O(nnz)
array is ever resident; every scratch map's pages are dropped after
each window, so the maps' pages read so far do not stay in the
resident set.  Chunk boundaries always fall on row boundaries, which
makes per-chunk canonicalization equal to global canonicalization
(duplicates of a ``(row, col)`` key can only live inside one row).
"""

from __future__ import annotations

import os
import sys
import tempfile
from functools import partial
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.sparse.matrix import COOMatrix, canonical_coords
from repro.sparse.shards import drop_pages

__all__ = [
    "web_crawl",
    "road_network",
    "banded_fem",
    "coupled_flow",
    "web_crawl_chunks",
    "road_network_chunks",
    "banded_fem_chunks",
    "coupled_flow_chunks",
    "materialize",
    "power_law_degrees",
    "zipf_sample",
]

#: Default nonzeros per streamed chunk (~32 MB of generated rows+cols
#: at int64; 8 MB once stored as int32 columns).
DEFAULT_CHUNK_NNZ = int(os.environ.get("REPRO_CHUNK_NNZ", str(1 << 21)))

#: ``chunk_nnz`` that covers any matrix in one chunk.
ONE_CHUNK = sys.maxsize


def power_law_degrees(
    rng: np.random.Generator, n: int, mean_degree: float, alpha: float = 2.1,
    max_degree: int = 0,
) -> np.ndarray:
    """Sample ``n`` integer degrees with a Pareto-like tail.

    The tail exponent ``alpha`` controls skew (smaller = heavier tail);
    the result is rescaled so the mean lands close to ``mean_degree``.
    """
    if max_degree <= 0:
        max_degree = max(int(mean_degree * 64), 64)
    raw = rng.pareto(alpha - 1.0, size=n) + 1.0
    # Rescale twice: clipping the tail after the first rescale shifts
    # the mean down, so rescale again against the clipped values.
    for _ in range(2):
        raw *= mean_degree / raw.mean()
        np.minimum(raw, max_degree, out=raw)
    deg = np.round(raw).astype(np.int64)
    deg[deg < 1] = 1
    return deg


def zipf_sample(
    rng: np.random.Generator, n_values: int, size: int, alpha: float
) -> np.ndarray:
    """Draw ``size`` Zipf(alpha)-distributed ranks in ``[0, n_values)``.

    Implemented by inverse-CDF over the exact finite Zipf distribution,
    which avoids the unbounded-support rejection loop of
    ``Generator.zipf`` and is reproducible across numpy versions.
    """
    cdf = _zipf_cdf(n_values, alpha)
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="left").astype(np.int64)


def _zipf_cdf(n_values: int, alpha: float) -> np.ndarray:
    """Exact finite-Zipf CDF (for :func:`zipf_sample` and the per-chunk
    lookups of :func:`web_crawl_chunks`)."""
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    ranks = np.arange(1, n_values + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _signs(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(0, 2, size=size, dtype=np.int64) * 2 - 1


def _web_crawl_local(n, block_size, rows, local_mask, u_cols_local):
    """Partial columns from :func:`web_crawl_chunks`'s first two draws:
    a local link's column, uniform within the row's host block; -1 for
    a hub link, which the later draws resolve.  Computed for every
    nonzero and masked after: whole-array passes beat gathers."""
    cols = rows // block_size
    cols *= block_size
    lens = n - cols
    np.minimum(lens, block_size, out=lens)
    u = u_cols_local * lens
    del lens
    cols += u.astype(np.int64)
    del u
    cols[~local_mask] = -1
    return cols


def _web_crawl_hosts(block_size, hub_block_base, primary_of_block, cdf_hub,
                     rows, cols, u_per_link, use_per_link):
    """Fold the hub-host draws into ``cols``: a hub link's host is its
    source block's primary hub host, or an independently Zipf-drawn one
    where it escapes; its entry becomes ``-1 - host base``.  Returns
    ``(cols, hub)``, ``hub`` the hub links' positions, found once for
    both hub folds."""
    hub = np.flatnonzero(cols < 0)
    chosen = primary_of_block[rows[hub] // block_size]
    escape = np.flatnonzero(use_per_link[hub])
    chosen[escape] = np.searchsorted(
        cdf_hub, u_per_link[hub[escape]], side="left"
    )
    cols[hub] = -1 - hub_block_base[chosen]
    return cols, hub


def _web_crawl_pages(cdf_page, cols_and_hub, u_page):
    """Fold the last draw into ``cols``: a hub link's column is a
    Zipf-popular page of its host."""
    cols, hub = cols_and_hub
    page = np.searchsorted(cdf_page, u_page[hub], side="left")
    page -= 1
    page -= cols[hub]
    cols[hub] = page
    return cols


# ---------------------------------------------------------------------
# streamed generation
# ---------------------------------------------------------------------


class _Scratch:
    """Replay buffer for nnz-length rng draws.

    ``draw(fn)`` returns what one ``fn(total)`` call would, consuming
    the generator's bit stream identically.  When one chunk covers all
    ``total`` values it *is* that call, in memory.  Otherwise the draw
    is filled chunk-by-chunk into a disk-backed memmap and reopened
    read-only, so the combining pass can window into it without an
    O(nnz) resident array; :meth:`windows` drops each map's pages once
    a plan window is read.  Each draw backs onto an unnamed temporary
    file under ``directory`` (default: the system temp dir), so no
    name ever appears there and a killed process leaves nothing
    behind: its space is freed when the last map of it goes, at the
    latest when the context manager exits.
    """

    def __init__(self, total: int, chunk: int,
                 directory: Optional[str] = None):
        self.total = int(total)
        self.chunk = max(int(chunk), 1)
        self.in_memory = self.total <= self.chunk
        self._dir = directory
        self._maps: List[np.ndarray] = []

    def __enter__(self) -> "_Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self._maps.clear()

    def draw(self, fn, dtype=np.float64) -> np.ndarray:
        if self.in_memory:
            return fn(self.total)
        # A map holds its own descriptor, so the file may close here.
        with tempfile.TemporaryFile(dir=self._dir) as f:
            out = np.memmap(f, mode="w+", dtype=dtype, shape=(self.total,))
            off = 0
            while off < self.total:
                m = min(self.chunk, self.total - off)
                out[off:off + m] = fn(m)
                off += m
            drop_pages(out)
            del out
            self._maps.append(np.memmap(f, mode="r", dtype=dtype,
                                        shape=(self.total,)))
        return self._maps[-1]

    def rows(self, degrees: np.ndarray, plan):
        """Each nonzero's row id as a fold operand: the whole array in
        memory, else computed per ``plan`` window."""
        if self.in_memory:
            return _rows_of_window(0, degrees.size, degrees)
        return _PlanRows(degrees, plan)

    def fold(self, fn, *draws):
        """``fn`` over aligned draws: applied now when they are in
        memory (so the operands can be freed), else per window."""
        return fn(*draws) if self.in_memory else _Fold(fn, draws)

    def windows(self, plan):
        """``plan``'s windows in order; once the caller is done with a
        window, every scratch map's pages are dropped, so the resident
        set holds the window being read, not every page read so far."""
        for window in plan:
            yield window
            for scratch_map in self._maps:
                drop_pages(scratch_map)


class _Fold:
    """``fn`` over aligned disk-backed draws, evaluated per slice."""

    def __init__(self, fn, draws):
        self.fn = fn
        self.draws = draws

    def __getitem__(self, window: slice) -> np.ndarray:
        return self.fn(*(d[window] for d in self.draws))


class _PlanRows:
    """Row ids of the nonzeros of each plan window ``[k0:k1]``, made
    when sliced, so no nnz-length row array exists."""

    def __init__(self, degrees: np.ndarray, plan):
        self.degrees = degrees
        self._rows_of = {(k0, k1): (r0, r1) for r0, r1, k0, k1 in plan}

    def __getitem__(self, window: slice) -> np.ndarray:
        r0, r1 = self._rows_of[window.start, window.stop]
        return _rows_of_window(r0, r1, self.degrees)


def _row_chunk_plan(degrees: np.ndarray,
                    chunk_nnz: int) -> List[Tuple[int, int, int, int]]:
    """Row-aligned chunk windows ``(r0, r1, k0, k1)`` of ~chunk_nnz
    nonzeros (a single row larger than the budget gets its own chunk).

    Planned up front, so the row prefix sums are freed before the
    nnz-length draws are made.
    """
    n = degrees.size
    prefix = np.concatenate([[0], np.cumsum(degrees, dtype=np.int64)])
    plan, r0 = [], 0
    while r0 < n:
        target = prefix[r0] + max(int(chunk_nnz), 1)
        r1 = int(np.searchsorted(prefix, target, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n)
        plan.append((r0, r1, int(prefix[r0]), int(prefix[r1])))
        r0 = r1
    return plan


def _rows_of_window(r0: int, r1: int, degrees: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(r0, r1, dtype=np.int64), degrees[r0:r1])


def web_crawl_chunks(
    n: int,
    mean_degree: float = 24.0,
    locality: float = 0.75,
    block_size: int = 512,
    hub_alpha: float = 1.5,
    page_alpha: float = 1.3,
    hub_block_size: int = 32,
    escape_frac: float = 0.05,
    seed: int = 0,
    chunk_nnz: Optional[int] = None,
    scratch_dir: Optional[str] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Synthetic web-crawl adjacency matrix (arabic-2005 / uk-2002 style).

    Each page links mostly within its own host block (``locality``
    fraction, near-diagonal).  The remaining links target *hub hosts*:
    small blocks of popular pages scattered over the id space.  All
    pages of one source host share a primary hub host (pages of a site
    link into the same community), and individual links escape to an
    independently Zipf-drawn host with probability ``escape_frac``.

    Small ``escape_frac`` + steep ``hub_alpha`` (arabic) gives tight
    temporal destination locality and heavy idx reuse; larger escape
    and flatter Zipf (uk) spreads destinations and dilutes reuse.
    """
    chunk_nnz = chunk_nnz or DEFAULT_CHUNK_NNZ
    rng = np.random.default_rng(seed)
    n_hub_blocks = max(n // (hub_block_size * 8), 8)
    degrees = power_law_degrees(rng, n, mean_degree)
    # Degree is host-correlated in real crawls (dense hub sites versus
    # leaf sites), which is what creates per-partition nonzero imbalance
    # under contiguous 1D partitioning (Figure 19 / the sub-linear
    # no-communication 'ideal' scaling of Figure 13).
    n_blocks = (n + block_size - 1) // block_size
    block_boost = rng.lognormal(mean=0.0, sigma=0.8, size=n_blocks)
    degrees = np.maximum(
        (degrees * block_boost[np.arange(n) // block_size]).astype(np.int64), 1
    )
    plan = _row_chunk_plan(degrees, chunk_nnz)
    with _Scratch(int(degrees.sum()), chunk_nnz, scratch_dir) as scratch:
        rows = scratch.rows(degrees, plan)
        cols = scratch.fold(
            partial(_web_crawl_local, n, block_size), rows,
            scratch.draw(lambda m: rng.random(m) < locality, dtype=bool),
            scratch.draw(rng.random),
        )
        hub_block_base = rng.permutation(n - hub_block_size)[:n_hub_blocks]
        primary_of_block = zipf_sample(rng, n_hub_blocks, n_blocks,
                                       hub_alpha)
        # ``(cols, hub positions)`` until the pages fold takes both.
        cols = scratch.fold(
            partial(_web_crawl_hosts, block_size, hub_block_base,
                    primary_of_block, _zipf_cdf(n_hub_blocks, hub_alpha)),
            rows, cols, scratch.draw(rng.random),
            scratch.draw(lambda m: rng.random(m) < escape_frac, dtype=bool),
        )
        cols = scratch.fold(
            partial(_web_crawl_pages, _zipf_cdf(hub_block_size, page_alpha)),
            cols, scratch.draw(rng.random),
        )
        for r0, r1, k0, k1 in scratch.windows(plan):
            yield canonical_coords(n, rows[k0:k1], cols[k0:k1])


def road_network_chunks(
    n: int,
    mean_degree: float = 2.2,
    long_range_frac: float = 0.12,
    min_long: int = 64,
    max_long_frac: float = 1 / 32,
    seed: int = 0,
    chunk_nnz: Optional[int] = None,
    scratch_dir: Optional[str] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Synthetic road network (europe_osm style).

    Nearly constant degree ~2; neighbors are tiny diagonal offsets
    (road segments under a spatial vertex ordering) plus a fraction of
    log-uniform multi-scale offsets standing in for the 2D adjacency a
    1D ordering cannot keep local.  Column reuse is negligible by
    design: every column is referenced by ~2 rows, usually in the same
    partition.
    """
    chunk_nnz = chunk_nnz or DEFAULT_CHUNK_NNZ
    rng = np.random.default_rng(seed)
    degrees = rng.poisson(mean_degree, size=n).astype(np.int64)
    degrees[degrees < 1] = 1
    max_long = max(int(n * max_long_frac), min_long * 2)
    plan = _row_chunk_plan(degrees, chunk_nnz)
    with _Scratch(int(degrees.sum()), chunk_nnz, scratch_dir) as scratch:
        rows = scratch.rows(degrees, plan)
        cols = scratch.fold(
            partial(_road_cols, n), rows,
            scratch.fold(
                np.multiply,
                scratch.draw(lambda m: rng.integers(1, 4, size=m),
                             dtype=np.int64),
                scratch.draw(lambda m: _signs(rng, m), dtype=np.int64),
            ),
            scratch.fold(
                lambda log_mag, sign: np.exp(log_mag).astype(np.int64) * sign,
                scratch.draw(lambda m: rng.uniform(np.log(min_long),
                                                   np.log(max_long), size=m)),
                scratch.draw(lambda m: _signs(rng, m), dtype=np.int64),
            ),
            scratch.draw(lambda m: rng.random(m) < long_range_frac,
                         dtype=bool),
        )
        for r0, r1, k0, k1 in scratch.windows(plan):
            yield canonical_coords(n, rows[k0:k1], cols[k0:k1])


def _road_cols(n, rows, short, long, use_long):
    """Columns of :func:`road_network_chunks`: each row plus its long
    or short offset, clipped into the matrix (made in ``short``)."""
    np.copyto(short, long, where=use_long)
    short += rows
    return np.clip(short, 0, n - 1, out=short)


def banded_fem_chunks(
    n: int,
    mean_degree: float = 48.0,
    band: int = 160,
    seed: int = 0,
    chunk_nnz: Optional[int] = None,
    scratch_dir: Optional[str] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Banded 3D-FEM matrix (queen_4147 style).

    Nonzeros concentrate in a narrow band around the diagonal, so a
    node's remote requests all target immediately adjacent partitions:
    temporal destination locality is essentially perfect (Table 4 gives
    1.00 for queen) and boundary columns are re-requested by every row
    within band reach, giving heavy filter/coalesce gains.

    Its one nnz-length draw is the last, so it streams per chunk with
    no scratch at all.
    """
    chunk_nnz = chunk_nnz or DEFAULT_CHUNK_NNZ
    rng = np.random.default_rng(seed)
    degrees = np.maximum(
        rng.normal(mean_degree, mean_degree / 8, size=n).astype(np.int64), 4
    )
    for r0, r1, k0, k1 in _row_chunk_plan(degrees, chunk_nnz):
        rows = _rows_of_window(r0, r1, degrees)
        cols = rng.integers(-band, band + 1, size=k1 - k0)
        cols += rows
        yield canonical_coords(n, rows, np.clip(cols, 0, n - 1, out=cols))


def coupled_flow_chunks(
    n: int,
    mean_degree: float = 26.0,
    band: int = 48,
    n_fields: int = 3,
    coupling_frac: float = 0.3,
    seed: int = 0,
    chunk_nnz: Optional[int] = None,
    scratch_dir: Optional[str] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Coupled flow matrix (stokes style).

    A Stokes discretization orders the velocity/pressure fields as
    consecutive segments; each row couples within its own segment band
    and to the matching location in the *next* field segment (the
    B / Bᵀ off-diagonal blocks).  That yields a band plus one coupling
    stripe per row: about two remote destinations per request window
    and moderate reuse.
    """
    chunk_nnz = chunk_nnz or DEFAULT_CHUNK_NNZ
    rng = np.random.default_rng(seed)
    if n_fields < 2:
        raise ValueError("need at least two fields for coupling")
    degrees = np.maximum(
        rng.normal(mean_degree, mean_degree / 6, size=n).astype(np.int64), 3
    )
    seg = n // n_fields
    plan = _row_chunk_plan(degrees, chunk_nnz)
    with _Scratch(int(degrees.sum()), chunk_nnz, scratch_dir) as scratch:
        rows = scratch.rows(degrees, plan)
        cols = scratch.fold(
            partial(_coupled_cols, n),
            scratch.fold(
                np.add, rows,
                scratch.draw(lambda m: rng.integers(-band, band + 1, size=m),
                             dtype=np.int64),
            ),
            scratch.fold(
                partial(_coupled_far, n_fields, seg), rows,
                scratch.draw(lambda m: rng.integers(-band, band + 1, size=m),
                             dtype=np.int64),
            ),
            scratch.draw(lambda m: rng.random(m) < coupling_frac, dtype=bool),
        )
        for r0, r1, k0, k1 in scratch.windows(plan):
            yield canonical_coords(n, rows[k0:k1], cols[k0:k1])


def _coupled_cols(n, near, far, use_coupling):
    """Columns of :func:`coupled_flow_chunks`: the coupling-stripe
    column where the link couples, else the in-band one, clipped into
    the matrix (made in ``near``)."""
    np.copyto(near, far, where=use_coupling)
    return np.clip(near, 0, n - 1, out=near)


def _coupled_far(n_fields, seg, rows, jitter):
    """Each row's coupling-stripe column before clipping: the matching
    location in the next field (the last field wraps to 0), jittered."""
    field_of_row = np.minimum(rows // seg, n_fields - 1)
    far = np.where(field_of_row < n_fields - 1, seg, -(n_fields - 1) * seg)
    del field_of_row
    far += jitter
    far += rows
    return far


# ---------------------------------------------------------------------
# whole matrices
# ---------------------------------------------------------------------


def materialize(streamer, n: int, name: str = "", **kwargs) -> COOMatrix:
    """Run ``streamer`` as one chunk covering the whole ``n x n`` matrix."""
    (rows, cols), = streamer(n, chunk_nnz=ONE_CHUNK, **kwargs)
    return COOMatrix(n, n, rows, cols, None, name)


def web_crawl(n: int, name: str = "web", **kwargs) -> COOMatrix:
    """:func:`web_crawl_chunks` as one :class:`COOMatrix`."""
    return materialize(web_crawl_chunks, n, name, **kwargs)


def road_network(n: int, name: str = "road", **kwargs) -> COOMatrix:
    """:func:`road_network_chunks` as one :class:`COOMatrix`."""
    return materialize(road_network_chunks, n, name, **kwargs)


def banded_fem(n: int, name: str = "fem", **kwargs) -> COOMatrix:
    """:func:`banded_fem_chunks` as one :class:`COOMatrix`."""
    return materialize(banded_fem_chunks, n, name, **kwargs)


def coupled_flow(n: int, name: str = "flow", **kwargs) -> COOMatrix:
    """:func:`coupled_flow_chunks` as one :class:`COOMatrix`."""
    return materialize(coupled_flow_chunks, n, name, **kwargs)
