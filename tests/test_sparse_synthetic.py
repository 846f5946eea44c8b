"""Structural tests for the synthetic matrix generators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import OneDPartition
from repro.sparse.matrix import COOMatrix, canonical_coords
from repro.sparse.suite import BENCHMARKS, MATRIX_NAMES, load_benchmark
from repro.sparse import synthetic
from repro.sparse.synthetic import (
    banded_fem,
    coupled_flow,
    power_law_degrees,
    road_network,
    web_crawl,
    zipf_sample,
)


def test_zipf_sample_range_and_skew():
    rng = np.random.default_rng(0)
    s = zipf_sample(rng, 100, 20_000, alpha=1.5)
    assert s.min() >= 0 and s.max() < 100
    counts = np.bincount(s, minlength=100)
    # Rank 0 must dominate rank 50 by a wide margin.
    assert counts[0] > 10 * max(counts[50], 1)


def test_zipf_sample_rejects_empty():
    with pytest.raises(ValueError):
        zipf_sample(np.random.default_rng(0), 0, 5, 1.5)


def test_power_law_degrees_mean_and_tail():
    rng = np.random.default_rng(1)
    deg = power_law_degrees(rng, 50_000, mean_degree=20.0)
    assert deg.min() >= 1
    assert abs(deg.mean() - 20.0) / 20.0 < 0.2
    assert deg.max() > 5 * deg.mean()  # heavy tail exists


@pytest.mark.parametrize("gen", [web_crawl, road_network, banded_fem, coupled_flow])
def test_generators_produce_valid_square_matrices(gen):
    m = gen(n=2048, seed=5)
    assert m.n_rows == m.n_cols == 2048
    assert m.nnz > 0
    assert m.rows.min() >= 0 and m.rows.max() < 2048
    assert m.cols.min() >= 0 and m.cols.max() < 2048
    # canonicalized: sorted, unique
    keys = m.rows * m.n_cols + m.cols
    assert (np.diff(keys) > 0).all()


@pytest.mark.parametrize("gen", [web_crawl, road_network, banded_fem, coupled_flow])
def test_generators_deterministic(gen):
    a = gen(n=1024, seed=9)
    b = gen(n=1024, seed=9)
    np.testing.assert_array_equal(a.rows, b.rows)
    np.testing.assert_array_equal(a.cols, b.cols)
    c = gen(n=1024, seed=10)
    assert c.nnz != a.nnz or not np.array_equal(a.cols[: c.nnz], c.cols[: a.nnz])


def test_banded_fem_is_banded():
    band = 32
    m = banded_fem(n=4096, band=band, seed=2)
    assert m.bandwidth() <= band


def test_road_network_low_degree():
    m = road_network(n=8192, seed=3)
    assert m.nnz / m.n_rows < 4.0


def test_coupled_flow_requires_two_fields():
    with pytest.raises(ValueError):
        coupled_flow(n=1024, n_fields=1)


#: ``structural_digest()`` of each benchmark at ``tiny`` (seed 7).  A
#: generator rewrite that changes the one-shot and the chunked twin
#: alike still fails here.
TINY_DIGESTS = {
    "arabic": "ae63fedec730811d7118865a83f3e41e",
    "europe": "2b3c3777ae005700901aaeb5f3e934af",
    "queen": "5bad9cff39cffa0bba29ece8247ee83a",
    "stokes": "b5d51ed72a147ef9b984463a1ae296a6",
    "uk": "858fb0bca6881cadec4d28babd9c6e90",
}


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_tiny_benchmarks_are_pinned(name):
    mat = BENCHMARKS[name].generate(scale="tiny", seed=7)
    assert mat.structural_digest() == TINY_DIGESTS[name]


#: Heap peak of one-chunk generation, in bytes per raw (pre-dedup)
#: nonzero: at most the largest of ``tiny`` and ``small`` plus ~10%.
#: Holding every nnz-length draw until the columns are combined read
#: 55-97 B per raw nonzero.
GENERATION_BYTES_PER_RAW_NNZ = {
    "arabic": 48,
    "europe": 56,
    "queen": 36,
    "stokes": 46,
    "uk": 46,
}


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_one_chunk_generation_heap_bound(name, scale, monkeypatch):
    raw = []

    def counted(n_cols, rows, cols):
        raw.append(rows.size)
        return canonical_coords(n_cols, rows, cols)

    monkeypatch.setattr(synthetic, "canonical_coords", counted)
    tracemalloc.start()
    try:
        mat = BENCHMARKS[name].generate(scale=scale, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(raw) == 1 and raw[0] >= mat.nnz
    assert peak / raw[0] <= GENERATION_BYTES_PER_RAW_NNZ[name]


def test_streamed_generation_drops_scratch_pages(monkeypatch):
    """Each disk-backed draw's pages are dropped once written and again
    after every plan window, so a streamed run's resident set holds
    the window being read."""
    dropped = []
    monkeypatch.setattr(synthetic, "drop_pages",
                        lambda arr: dropped.append(arr.size))
    chunks = list(synthetic.web_crawl_chunks(4096, mean_degree=6, seed=1,
                                             chunk_nnz=4096))
    total = sum(rows.size for rows, _ in chunks)
    n_draws = 5
    assert len(chunks) > 1
    assert len(dropped) == n_draws * (1 + len(chunks))
    assert all(size >= total for size in dropped)


def _stable_argsort_canonical(n_cols, rows, cols, vals=None):
    """Oracle: stable argsort on the keys, keep each key's first
    occurrence (the values-carrying form of the canonicalizer)."""
    keys = rows * n_cols + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    sel = order[keep]
    return rows[sel], cols[sel], None if vals is None else vals[sel]


_coords = st.integers(1, 40).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols),
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, n_cols - 1)),
                 max_size=120),
    )
)


@settings(max_examples=150, deadline=None)
@given(_coords)
def test_key_sort_canonicalizer_matches_stable_argsort(case):
    n_cols, pairs = case
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    want_rows, want_cols, _ = _stable_argsort_canonical(n_cols, rows, cols)
    got_rows, got_cols = canonical_coords(n_cols, rows, cols)
    np.testing.assert_array_equal(got_rows, want_rows)
    np.testing.assert_array_equal(got_cols, want_cols)
    assert got_rows.dtype == got_cols.dtype == np.int64
    mat = COOMatrix(31, n_cols, rows, cols).canonicalize()
    np.testing.assert_array_equal(mat.rows, want_rows)
    np.testing.assert_array_equal(mat.cols, want_cols)


@settings(max_examples=100, deadline=None)
@given(_coords)
def test_canonicalize_keeps_first_duplicate_value(case):
    n_cols, pairs = case
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    vals = np.arange(rows.size, dtype=np.float64)
    mat = COOMatrix(31, n_cols, rows, cols, vals).canonicalize()
    want = _stable_argsort_canonical(n_cols, rows, cols, vals)
    for got, expect in zip((mat.rows, mat.cols, mat.vals), want):
        np.testing.assert_array_equal(got, expect)


def test_canonicalize_first_duplicate_value_wins():
    mat = COOMatrix(2, 2, rows=np.array([1, 0, 1]), cols=np.array([1, 0, 1]),
                    vals=np.array([5.0, 6.0, 7.0])).canonicalize()
    assert mat.vals.tolist() == [6.0, 5.0]


def test_registry_contains_all_five():
    assert set(BENCHMARKS) == set(MATRIX_NAMES)


def test_load_benchmark_unknown_name():
    with pytest.raises(KeyError):
        load_benchmark("does-not-exist")


def test_load_benchmark_memoizes():
    a = load_benchmark("queen", "tiny")
    b = load_benchmark("queen", "tiny")
    assert a is b


def test_scale_ordering():
    for name in MATRIX_NAMES:
        spec = BENCHMARKS[name]
        assert (
            spec.rows_for_scale("tiny")
            < spec.rows_for_scale("small")
            < spec.rows_for_scale("medium")
        )


def test_unknown_scale_raises():
    with pytest.raises(ValueError):
        BENCHMARKS["queen"].rows_for_scale("galactic")


class TestStructuralOrderings:
    """The paper-critical cross-matrix orderings at 'tiny' scale.

    Table 1 / Table 4 orderings must hold for any scale since they are
    what drives every downstream result (who benefits from filtering,
    caching, concatenation).
    """

    @pytest.fixture(scope="class")
    def stats(self):
        out = {}
        for name in MATRIX_NAMES:
            mat = load_benchmark(name, "tiny")
            part = OneDPartition(mat, 16)
            traces = part.node_traces()
            remote = sum(int(t.remote.sum()) for t in traces)
            useful = sum(t.unique_remote_count() for t in traces)
            uniq = []
            for t in traces:
                d = t.remote_owners
                for s in range(0, d.size - 64, 64):
                    uniq.append(np.unique(d[s : s + 64]).size)
            out[name] = {
                "sa_redundancy": (remote - useful) / max(useful, 1),
                "dest_locality": float(np.mean(uniq)) if uniq else 0.0,
            }
        return out

    def test_arabic_has_most_reuse(self, stats):
        assert stats["arabic"]["sa_redundancy"] > stats["uk"]["sa_redundancy"]
        assert stats["arabic"]["sa_redundancy"] > stats["europe"]["sa_redundancy"]

    def test_europe_has_negligible_reuse(self, stats):
        assert stats["europe"]["sa_redundancy"] < 0.5

    def test_queen_has_best_destination_locality(self, stats):
        others = [
            stats[n]["dest_locality"] for n in MATRIX_NAMES if n != "queen"
        ]
        assert stats["queen"]["dest_locality"] <= min(others)
        assert stats["queen"]["dest_locality"] < 2.0

    def test_webcrawls_spread_more_than_fem(self, stats):
        assert stats["uk"]["dest_locality"] > stats["stokes"]["dest_locality"]
