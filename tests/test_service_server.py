"""End-to-end job-server tests over real sockets.

Each test runs a :class:`JobServer` on its own background event-loop
thread (ephemeral port) with a private engine + cache, and talks to it
with the pure-stdlib :class:`ServiceClient` — exactly the deployment
shape, minus the network."""

import threading
import time

import numpy as np
import pytest

import repro.parallel.engine as engine_mod
from repro.parallel import ExecutionEngine, ResultCache, engine_scope
from repro.service import (
    ServiceClient,
    ServiceError,
    serve_in_background,
)

TINY = {"scheme": "netsparse", "matrix": "arabic", "k": 8,
        "scale_name": "tiny"}


@pytest.fixture
def server(tmp_path):
    eng = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path / "cache"))
    bg = serve_in_background(eng, queue_limit=4)
    yield bg
    bg.stop()
    eng.close()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=60)


# -- basic lifecycle -----------------------------------------------------


def test_healthz(client):
    health = client.healthz()
    assert health["ok"] is True
    assert health["protocol"] == 1


def test_submit_and_result_bit_identical(client, tmp_path):
    st = client.submit(TINY)
    assert st.state in ("queued", "running", "done")
    res = client.wait(st.job_id, timeout=60)
    comm = res.comm_result()

    with engine_scope(ExecutionEngine(jobs=1, cache=None)):
        from repro.parallel import simulate

        direct = simulate(TINY["scheme"], TINY["matrix"], k=TINY["k"],
                          scale_name=TINY["scale_name"])
    assert comm.total_time == direct.total_time
    assert np.array_equal(comm.per_node_time, direct.per_node_time)
    assert comm.per_node_time.dtype == direct.per_node_time.dtype
    assert np.array_equal(comm.recv_wire_bytes, direct.recv_wire_bytes)


def test_repeat_submission_served_from_cache(client):
    first = client.submit(TINY)
    client.wait(first.job_id, timeout=60)
    again = client.submit(TINY)
    assert again.state == "done"
    assert again.source == "cache"
    assert again.job_id != first.job_id
    counters = client.stats()["service"]["counters"]
    assert counters.get("service.cache_hits", 0) >= 1


def test_unknown_job_404(client):
    with pytest.raises(ServiceError) as exc:
        client.status("no-such-job")
    assert exc.value.status == 404


def test_bad_request_400(client):
    with pytest.raises(ServiceError) as exc:
        client.submit({"scheme": "netsparse"})   # missing matrix/k
    assert exc.value.status == 400
    assert exc.value.code == "missing_field"


def test_compute_job_refused_400(client):
    """A ``compute`` job's result is not a CommResult, so the service
    refuses it at admission, alone or in a sweep."""
    with pytest.raises(ServiceError) as exc:
        client.submit({**TINY, "scheme": "compute"})
    assert exc.value.status == 400
    assert exc.value.code == "bad_job"
    assert client.jobs() == []
    with pytest.raises(ServiceError) as exc:
        client.submit_sweep({"schemes": ["compute"], "matrices": ["arabic"],
                             "ks": [8], "scale_name": "tiny"})
    assert exc.value.status == 400


def test_result_before_done_409(client, monkeypatch):
    gate = threading.Event()
    real = engine_mod.timed_execute

    def slow(job):
        gate.wait(30)
        return real(job)

    monkeypatch.setattr(engine_mod, "timed_execute", slow)
    st = client.submit(dict(TINY, k=11))
    try:
        with pytest.raises(ServiceError) as exc:
            client.result(st.job_id)
        assert exc.value.status == 409
    finally:
        gate.set()
    client.wait(st.job_id, timeout=60)


# -- coalescing ----------------------------------------------------------


def test_duplicate_inflight_submissions_coalesce(client, monkeypatch):
    gate = threading.Event()
    n_executions = []
    real = engine_mod.timed_execute

    def slow(job):
        n_executions.append(job.digest())
        gate.wait(30)
        return real(job)

    monkeypatch.setattr(engine_mod, "timed_execute", slow)
    req = dict(TINY, k=13)
    first = client.submit(req)
    dupes = [client.submit(req) for _ in range(3)]
    gate.set()
    client.wait(first.job_id, timeout=60)

    assert all(d.job_id == first.job_id for d in dupes)
    assert all(d.coalesced for d in dupes)
    assert len(n_executions) == 1
    counters = client.stats()["service"]["counters"]
    assert counters.get("service.coalesced", 0) == 3


def test_sweep_coalesces_against_inflight(client, monkeypatch):
    gate = threading.Event()
    real = engine_mod.timed_execute

    def slow(job):
        gate.wait(30)
        return real(job)

    monkeypatch.setattr(engine_mod, "timed_execute", slow)
    single = client.submit(dict(TINY, k=8))
    sweep = client.submit_sweep({
        "schemes": ["netsparse"], "matrices": ["arabic"],
        "ks": [8, 16], "scale_name": "tiny",
    })
    gate.set()
    assert sweep["n_jobs"] == 2
    assert sweep["n_coalesced"] == 1
    coalesced = [j for j in sweep["jobs"] if j.coalesced]
    assert len(coalesced) == 1
    assert coalesced[0].job_id == single.job_id
    for j in sweep["jobs"]:
        client.wait(j.job_id, timeout=60)


# -- admission control ---------------------------------------------------


def test_admission_overflow_429(client, monkeypatch):
    gate = threading.Event()
    real = engine_mod.timed_execute

    def slow(job):
        gate.wait(30)
        return real(job)

    monkeypatch.setattr(engine_mod, "timed_execute", slow)
    admitted = [client.submit(dict(TINY, k=20 + i)) for i in range(4)]
    try:
        with pytest.raises(ServiceError) as exc:
            client.submit(dict(TINY, k=99))
        assert exc.value.status == 429
        assert exc.value.code == "queue_full"
        assert exc.value.retry_after is not None
        # Duplicates of admitted jobs still coalesce at full queue.
        dup = client.submit(dict(TINY, k=20))
        assert dup.coalesced
    finally:
        gate.set()
    for st in admitted:
        client.wait(st.job_id, timeout=60)
    counters = client.stats()["service"]["counters"]
    assert counters.get("service.rejected", 0) == 1
    # Queue drained: submissions flow again.
    post = client.submit(dict(TINY, k=99))
    client.wait(post.job_id, timeout=60)


# -- failure and cancellation -------------------------------------------


def test_failed_job_reports_error(client, monkeypatch):
    def boom(job):
        raise RuntimeError("synthetic kernel fault")

    monkeypatch.setattr(engine_mod, "timed_execute", boom)
    st = client.submit(dict(TINY, k=31))
    deadline = time.monotonic() + 30
    while not client.status(st.job_id).terminal:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    final = client.status(st.job_id)
    assert final.state == "failed"
    assert "synthetic kernel fault" in final.error
    with pytest.raises(ServiceError) as exc:
        client.wait(st.job_id, timeout=5)
    assert exc.value.code == "job_failed"


def test_cancel_queued_job(client, monkeypatch):
    gate = threading.Event()
    real = engine_mod.timed_execute

    def slow(job):
        gate.wait(30)
        return real(job)

    monkeypatch.setattr(engine_mod, "timed_execute", slow)
    # Fill both workers, then queue two more; the queued ones are
    # cancellable, the running ones are not.
    running = [client.submit(dict(TINY, k=40 + i)) for i in range(2)]
    queued = [client.submit(dict(TINY, k=50 + i)) for i in range(2)]
    time.sleep(0.2)                      # let the pool pick two up
    cancelled = client.cancel(queued[-1].job_id)
    gate.set()
    assert cancelled.state in ("queued", "cancelled")
    deadline = time.monotonic() + 30
    while not client.status(queued[-1].job_id).terminal:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    assert client.status(queued[-1].job_id).state == "cancelled"
    for st in running + queued[:1]:
        client.wait(st.job_id, timeout=60)
    with pytest.raises(ServiceError) as exc:
        client.cancel(running[0].job_id)   # already terminal
    assert exc.value.status == 409


# -- websocket event streams --------------------------------------------


def test_ws_lifecycle_ordering(client):
    st = client.submit(dict(TINY, k=17))
    client.wait(st.job_id, timeout=60)
    events = list(client.events(st.job_id))

    states = [e["state"] for e in events if e["type"] == "status"]
    assert states == ["queued", "running", "done"]
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) == list(range(len(events)))
    spans = [e["name"] for e in events if e["type"] == "span"]
    assert any(n.startswith("cluster.stage.") for n in spans)
    assert "engine.job" in spans
    # Spans land strictly between running and done.
    kinds = [e["type"] for e in events]
    first_span = kinds.index("span")
    assert kinds[:first_span] == ["status", "status"]
    assert kinds[-1] == "status"


def test_ws_live_follow(client, monkeypatch):
    gate = threading.Event()
    real = engine_mod.timed_execute

    def slow(job):
        gate.wait(30)
        return real(job)

    monkeypatch.setattr(engine_mod, "timed_execute", slow)
    st = client.submit(dict(TINY, k=23))
    got = []

    def follow():
        for ev in client.events(st.job_id):
            got.append(ev)

    t = threading.Thread(target=follow, daemon=True)
    t.start()
    time.sleep(0.3)                       # subscriber attached mid-flight
    gate.set()
    t.join(30)
    assert not t.is_alive()
    states = [e["state"] for e in got if e["type"] == "status"]
    assert states == ["queued", "running", "done"]


def test_ws_cached_submission_replays_terminal_stream(client):
    st = client.submit(dict(TINY, k=8))
    client.wait(st.job_id, timeout=60)
    again = client.submit(dict(TINY, k=8))
    events = list(client.events(again.job_id))
    states = [e["state"] for e in events if e["type"] == "status"]
    assert states == ["queued", "done"]   # no execution, no spans


def test_ws_unknown_job_handshake_rejected(client):
    with pytest.raises(ServiceError) as exc:
        next(iter(client.events("nope")))
    assert exc.value.status == 404


# -- shutdown ------------------------------------------------------------


def test_graceful_drain_finishes_inflight(tmp_path, monkeypatch):
    gate = threading.Event()
    real = engine_mod.timed_execute

    def slow(job):
        gate.wait(30)
        return real(job)

    monkeypatch.setattr(engine_mod, "timed_execute", slow)
    eng = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path / "cache"))
    bg = serve_in_background(eng, queue_limit=8)
    c = ServiceClient(bg.url, timeout=60)
    st = c.submit(dict(TINY, k=19))

    stopper = threading.Thread(target=bg.stop, daemon=True)
    stopper.start()
    time.sleep(0.3)
    # Draining: new submissions refused, existing job still tracked.
    with pytest.raises((ServiceError, OSError)) as exc:
        c.submit(dict(TINY, k=77))
    if isinstance(exc.value, ServiceError):
        assert exc.value.status == 503
    gate.set()
    stopper.join(60)
    assert not stopper.is_alive()
    # The drained job really executed: its result is in the cache.
    from repro.service.protocol import JobRequest

    digest = JobRequest.from_dict(dict(TINY, k=19)).to_sim_job().digest()
    assert eng.cache.get(digest) is not None
    eng.close()
