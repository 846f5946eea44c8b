"""Concurrency hardening tests: cache writers racing ``clear()`` and
engine lifecycle (idempotent/concurrent close, leak-free
reconfiguration)."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import NetSparseConfig
from repro.parallel import (
    ExecutionEngine,
    ResultCache,
    SimJob,
    engine_scope,
    get_engine,
    set_engine,
)


def _job(k=8, matrix="arabic"):
    return SimJob(scheme="netsparse", matrix=matrix, k=k,
                  config=NetSparseConfig(), scale_name="tiny")


# -- ResultCache under concurrency --------------------------------------


def test_cache_put_get_clear_stress(tmp_path):
    """Many writers, readers, and clearers on one cache store: no
    exceptions, no torn reads, no rows left after a final clear."""
    cache = ResultCache(tmp_path)
    digests = [f"{i:02x}" + "ab" * 31 for i in range(16)]
    stop = threading.Event()
    errors = []

    def writer(seed):
        i = seed
        while not stop.is_set():
            d = digests[i % len(digests)]
            try:
                cache.put(d, {"payload": d}, meta={"scheme": "netsparse"},
                          elapsed=0.5)
            except Exception as exc:       # pragma: no cover
                errors.append(("put", exc))
            i += 1

    def reader():
        while not stop.is_set():
            for d in digests:
                try:
                    entry = cache.get(d)
                except Exception as exc:   # pragma: no cover
                    errors.append(("get", exc))
                    continue
                if entry is not None and entry.result != {"payload": d}:
                    errors.append(("torn", d))

    def clearer():
        while not stop.is_set():
            try:
                cache.clear()
            except Exception as exc:       # pragma: no cover
                errors.append(("clear", exc))
            time.sleep(0.002)

    threads = ([threading.Thread(target=writer, args=(i,)) for i in range(4)]
               + [threading.Thread(target=reader) for _ in range(2)]
               + [threading.Thread(target=clearer)])
    for t in threads:
        t.start()
    time.sleep(1.0)
    stop.set()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert errors == []
    cache.clear()
    assert cache.info().n_entries == 0


def test_cache_info_tolerates_disappearing_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("ef" * 32, {"x": 1}, meta={"scheme": "s"}, elapsed=1.0)
    info = cache.info()
    assert info.n_entries == 1
    assert info.sim_seconds == 1.0


# -- engine lifecycle ----------------------------------------------------


def test_close_idempotent_and_concurrent(tmp_path):
    eng = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path))
    eng.run_jobs([_job(8)])                # spin up state
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: eng.close(), range(8)))
    eng.close()                            # and once more, re-entrant
    # Post-close: sync paths still answer.
    assert eng.run_job(_job(8)) is not None


def test_configure_engine_failure_keeps_previous(tmp_path, monkeypatch):
    from repro.parallel import configure_engine

    previous = get_engine()
    real_init = ResultCache.__init__

    def boom(self, root=None):
        raise OSError("synthetic cache failure")

    monkeypatch.setattr(ResultCache, "__init__", boom)
    with pytest.raises(OSError):
        configure_engine(jobs=2, cache_dir=tmp_path)
    monkeypatch.setattr(ResultCache, "__init__", real_init)
    # The old default engine is still installed and still working.
    assert get_engine() is previous
    assert previous.run_job(_job(8)) is not None


def test_set_engine_swap_is_atomic():
    """Hammer set_engine from many threads: every engine handed in is
    handed back out exactly once (no lost or duplicated references)."""
    sentinel = get_engine()
    engines = [ExecutionEngine() for _ in range(32)]
    returned = []
    lock = threading.Lock()

    def swap(e):
        prev = set_engine(e)
        with lock:
            returned.append(prev)

    threads = [threading.Thread(target=swap, args=(e,)) for e in engines]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    final = set_engine(sentinel)           # restore the default
    with lock:
        returned.append(final)
    # Conservation: {sentinel} + engines == set(returned)
    assert set(map(id, returned)) == {id(sentinel)} | set(map(id, engines))
    assert len(returned) == len(engines) + 1


def test_engine_scope_restores_on_exception():
    before = get_engine()
    inner = ExecutionEngine()
    with pytest.raises(ValueError):
        with engine_scope(inner):
            assert get_engine() is inner
            raise ValueError("boom")
    assert get_engine() is before

