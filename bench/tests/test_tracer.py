import types

import pytest

from traced_child import Tracer, install, self_times


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 1],
    ]
    out = self_times(spans)
    assert out["root"] == {"self_s": 6.0, "calls": 1, "errors": 0}
    assert out["a"] == {"self_s": 3.0, "calls": 2, "errors": 1}
    assert out["b"] == {"self_s": 1.0, "calls": 1, "errors": 0}
    assert sum(v["self_s"] for v in out.values()) == 10.0


def test_nested_wrapped_calls_and_exceptions():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_t = tracer.wrap("leaf", leaf)

    def mid(x):
        try:
            leaf_t(-x)
        except ValueError:
            pass
        return leaf_t(x) + leaf_t(x)

    root = tracer.wrap("root", tracer.wrap("mid", mid))
    assert root(2) == 4
    with pytest.raises(ValueError):
        leaf_t(-1)

    out = self_times(tracer.spans)
    assert out["leaf"]["calls"] == 4
    assert out["leaf"]["errors"] == 2
    assert (out["mid"]["calls"], out["mid"]["errors"]) == (1, 0)
    # Self times partition each top-level span's duration.
    top = [s for s in tracer.spans if s[3] == -1]
    total = sum(end - start for _, start, end, _, _ in top)
    assert sum(v["self_s"] for v in out.values()) == pytest.approx(total)
    assert all(v["self_s"] >= 0 for v in out.values())
    # Parents always precede their children.
    assert all(parent < i for i, (_, _, _, parent, _)
               in enumerate(tracer.spans))


@pytest.fixture
def installed():
    tracer = Tracer()
    rebound = install(tracer)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(rebound):
            setattr(owner, attr, original)


def test_install_catches_by_name_imports(installed):
    import repro.cluster
    import repro.cluster.model as model
    import repro.core.pcache_fast as pcache_fast
    import repro.core.reusedist as reusedist
    import repro.parallel
    import repro.parallel.jobs as jobs

    wrapped = pcache_fast.delayed_cache_hits
    assert wrapped.__bench_traced__ is not None
    # ``from repro.core.pcache_fast import delayed_cache_hits`` copies.
    assert model.delayed_cache_hits is wrapped
    assert reusedist.delayed_cache_hits is wrapped
    # Package re-exports are rebound as well.
    assert repro.cluster.simulate_netsparse is model.simulate_netsparse
    assert repro.parallel.execute_job is jobs.execute_job
    assert hasattr(jobs.execute_job, "__bench_traced__")

    import numpy as np

    hits, _ = model.delayed_cache_hits(np.array([1, 2, 1, 1]), 4, 2, 1)
    assert hits.tolist() == [False, False, True, True]
    names = [s[0] for s in installed.spans]
    assert names == ["core.delayed_cache_hits"]


def test_install_wraps_methods_and_extra_modules():
    import repro.cluster.model as model
    import repro.core.concat as concat
    from repro.parallel.cache import ResultCache

    extra = types.ModuleType("extra")
    extra.window_concat_totals = concat.window_concat_totals
    rebound = install(Tracer(), wrapped=(
        ("core.window_concat_totals", "repro.core.concat",
         "window_concat_totals"),
        ("parallel.cache_get", "repro.parallel.cache", "ResultCache.get"),
    ), also=[extra])
    try:
        wrapper = concat.window_concat_totals
        assert hasattr(wrapper, "__bench_traced__")
        assert extra.window_concat_totals is wrapper
        assert model.window_concat_totals is wrapper
        assert hasattr(ResultCache.get, "__bench_traced__")
    finally:
        for owner, attr, fn in reversed(rebound):
            setattr(owner, attr, fn)
    assert not hasattr(model.window_concat_totals, "__bench_traced__")
    assert not hasattr(ResultCache.get, "__bench_traced__")

