"""Shared benchmark configuration.

Each benchmark regenerates one paper table/figure through the
experiment registry, timing a single full run (``rounds=1`` — these are
multi-second cluster simulations, not microseconds) and asserting the
paper's qualitative claims on the output.

Set ``REPRO_BENCH_SCALE=tiny`` for a fast smoke pass or ``medium`` for
closer structural statistics.  At ``tiny`` the matrices are too small
for the paper's quantitative claims, so benchmarks only assert basic
sanity (``PAPER_CLAIMS`` is False); from ``small`` up they assert the
paper's qualitative behavior too.

Every session additionally appends to the repo's perf trajectory: a
machine-readable ``BENCH_<date>.json`` (per-experiment wall time plus
key table metrics) is written at session end — to the repository root
by default, or ``$REPRO_BENCH_OUT`` — so run-over-run regressions
inside the pipeline are diffable, not just eyeballable.
"""

import json
import os
import platform
import resource
import time

import pytest

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

#: Whether the paper's qualitative claims are expected to hold at SCALE.
PAPER_CLAIMS = SCALE != "tiny"

#: One record per `run_once` call, drained into BENCH_<date>.json.
_BENCH_RECORDS = []

#: Named top-level payload blocks (e.g. the store throughput report)
#: registered by benchmarks via `record_block`.
_BENCH_EXTRA = {}


def record_block(name: str, data: dict) -> None:
    """Attach a named block to the session's BENCH_<date>.json payload.

    For benchmark outputs that aren't a single timed experiment — the
    store benchmark's ops/sec report, for example.  Re-registering a
    name overwrites it."""
    _BENCH_EXTRA[str(name)] = data


@pytest.fixture(scope="session")
def scale():
    return SCALE


@pytest.fixture(scope="session", autouse=True)
def _session_shard_dir(tmp_path_factory):
    """Store benchmark matrices in a session tmp dir, not the user's
    home: the first benchmark to load a matrix writes it, later ones
    memory-map it, as later ``netsparse run`` processes do."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SHARD_DIR", str(tmp_path_factory.mktemp("shards")))
        yield


@pytest.fixture(autouse=True)
def _isolate_from_ambient_store(monkeypatch):
    """Benchmarks assert cold-path behavior against their own tmp
    caches; an ambient ``REPRO_STORE_DSN`` (warm from an earlier run)
    would turn those cold misses into store hits and break
    executed-count assertions.  Benches that want a store open one on
    a tmp DSN.  Restored after each test, so the session-end artifact
    upload below still sees the variable."""
    monkeypatch.delenv("REPRO_STORE_DSN", raising=False)


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB.

    ``ru_maxrss`` is KiB on Linux, bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":
        peak //= 1024
    return round(peak / 1024.0, 1)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    t0 = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                rounds=1, iterations=1, warmup_rounds=0)
    elapsed = time.perf_counter() - t0
    record = {
        "test": os.environ.get("PYTEST_CURRENT_TEST", "").split(" ")[0],
        "wall_s": round(elapsed, 4),
        # High-water mark *so far* — monotone across records; the
        # payload-level memory block holds the session-wide peak.
        "peak_rss_mb": peak_rss_mb(),
    }
    exp_id = getattr(result, "exp_id", None)
    if exp_id is None and args and isinstance(args[0], str):
        exp_id = args[0]
    if exp_id is not None:
        record["experiment"] = exp_id
    rows = getattr(result, "rows", None)
    if rows is not None:
        record["n_rows"] = len(rows)
    _BENCH_RECORDS.append(record)
    return result


def pytest_sessionfinish(session, exitstatus):
    """Emit the machine-readable perf trajectory entry."""
    if not _BENCH_RECORDS and not _BENCH_EXTRA:
        return
    out_dir = os.environ.get(
        "REPRO_BENCH_OUT",
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    date = time.strftime("%Y-%m-%d")
    payload = {
        "schema": "repro.bench/v1",
        "date": date,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale": SCALE,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "exitstatus": int(getattr(exitstatus, "value", exitstatus)),
        "total_wall_s": round(sum(r["wall_s"] for r in _BENCH_RECORDS), 3),
        "results": sorted(_BENCH_RECORDS, key=lambda r: r["test"]),
    }
    memory = {"peak_rss_mb": peak_rss_mb()}
    try:
        from repro.partition import get_trace_cache
        from repro.sparse.suite import suite_cache_stats

        memory["suite_cache"] = suite_cache_stats()
        memory["trace_cache"] = get_trace_cache().stats()
    except Exception:
        pass
    payload["memory"] = memory
    payload.update(_BENCH_EXTRA)
    try:
        from repro.parallel import get_engine

        payload["engine"] = get_engine().stats.summary()
    except Exception:
        pass
    path = os.path.join(out_dir, f"BENCH_{date}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\n[bench] wrote {path} ({len(_BENCH_RECORDS)} results)")
