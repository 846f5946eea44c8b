"""The code is the cache version: source hashes key the result cache
and the matrix store.

An edit to any package source must change every job digest (so a
filled result cache misses), an edit to the generator sources must
rename the stored matrix sets, and an unchanged tree must hash the
same in every process.
"""

import multiprocessing

import pytest

from repro import sources
from repro.config import NetSparseConfig
from repro.parallel import ExecutionEngine, ResultCache, SimJob
from repro.sparse.suite import BENCHMARKS, _set_name


@pytest.fixture(autouse=True)
def fresh_hashes():
    sources.code_salt.cache_clear()
    sources.source_digest.cache_clear()
    yield
    sources.code_salt.cache_clear()
    sources.source_digest.cache_clear()


def edit(monkeypatch, rel):
    """Make ``rel`` read as edited (one byte appended) from now on."""
    read = sources._read
    monkeypatch.setattr(
        sources, "_read",
        lambda path: read(path) + b"#" if path == rel else read(path))
    sources.code_salt.cache_clear()
    sources.source_digest.cache_clear()


def make_job():
    return SimJob(scheme="netsparse", matrix="arabic", k=4,
                  config=NetSparseConfig(), scale_name="tiny")


def test_salt_hashes_every_package_source():
    paths = sorted(p.relative_to(sources.PACKAGE_ROOT).as_posix()
                   for p in sources.PACKAGE_ROOT.rglob("*.py"))
    assert "cluster/model.py" in paths and "sources.py" in paths
    assert sources.code_salt() == sources.source_digest(tuple(paths))
    assert sources.source_digest(tuple(reversed(paths))) == (
        sources.code_salt())                    # order-free


def test_edited_source_changes_the_digest_and_misses(tmp_path,
                                                     monkeypatch):
    cache = ResultCache(tmp_path)
    job = make_job()
    with ExecutionEngine(jobs=1, cache=cache) as eng:
        first = eng.run_job(job)
        assert eng.stats.executed == 1
    before = job.digest()
    assert cache.get(before) is not None

    edit(monkeypatch, "cluster/model.py")
    after = job.digest()
    assert after != before
    assert job.key_dict()["salt"] == sources.code_salt()
    assert cache.get(after) is None
    with ExecutionEngine(jobs=1, cache=cache) as eng:
        again = eng.run_job(job)
        assert eng.stats.cache_hits == 0
        assert eng.stats.executed == 1
    assert again.total_time == first.total_time
    assert cache.get(after).provenance["code_salt"] == sources.code_salt()


def _salt(queue):
    from repro.sources import code_salt

    queue.put(code_salt())


def test_unchanged_tree_hashes_the_same_in_a_spawned_process():
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(target=_salt, args=(queue,))
    proc.start()
    got = queue.get(timeout=60)
    proc.join(timeout=60)
    assert proc.exitcode == 0
    assert got == sources.code_salt()


@pytest.mark.parametrize("rel,renamed", [
    ("sparse/synthetic.py", True),
    ("sparse/matrix.py", True),
    ("cluster/model.py", False),
])
def test_generator_sources_name_the_stored_set(monkeypatch, rel, renamed):
    spec = BENCHMARKS["queen"]
    before = _set_name(spec, "tiny", 7)
    edit(monkeypatch, rel)
    assert (_set_name(spec, "tiny", 7) != before) is renamed
