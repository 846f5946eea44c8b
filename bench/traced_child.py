"""Run one benchmark op with the repo's public layer functions wrapped in spans.

Usage::

    python bench/traced_child.py SPANS_JSON OP_ID -- -m repro.cli run fig12 ...
    python bench/traced_child.py SPANS_JSON OP_ID -- bench/outofcore.py ...

The op after ``--`` is the exact argv (minus the interpreter) of the
untraced child; its stdout is unchanged, so the traced run's digest is
comparable with the untraced one.  The tracer measures from outside the
program: it rebinds module and class attributes, records spans in
memory, and writes them plus the layers' own stats counters to
``SPANS_JSON`` when the op ends.  It never enables ``repro.telemetry``,
because the cluster model skips its whole-simulation memo while
telemetry is on, which would time a different program.

Spans are kept on one stack, so they assume a single thread: the
benchmark runs every op with ``--jobs 1``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: (span name, defining module, attribute path) of every wrapped
#: function.  Span names are ``<layer>.<fn>``, the layer being the
#: ``repro`` subpackage.
WRAPPED = (
    ("experiments.run_experiment", "repro.experiments.runner", "run_experiment"),
    ("parallel.run_jobs", "repro.parallel.engine", "ExecutionEngine.run_jobs"),
    ("parallel.plan_batches", "repro.parallel.batch", "plan_batches"),
    ("parallel.execute_job", "repro.parallel.jobs", "execute_job"),
    ("parallel.cache_get", "repro.parallel.cache", "ResultCache.get"),
    ("parallel.cache_put", "repro.parallel.cache", "ResultCache.put"),
    ("sparse.load_benchmark", "repro.sparse.suite", "load_benchmark"),
    ("partition.get_partition", "repro.partition.tracecache",
     "TraceCache.get_partition"),
    ("partition.node_traces", "repro.partition.oned",
     "OneDPartition.node_traces"),
    ("partition.node_traces", "repro.partition.windowed",
     "ShardedOneDPartition.node_traces"),
    ("cluster.simulate_netsparse", "repro.cluster.model", "simulate_netsparse"),
    ("cluster.end_to_end_time", "repro.cluster.endtoend", "end_to_end_time"),
    ("core.delayed_cache_hits", "repro.core.pcache_fast", "delayed_cache_hits"),
    ("core.build_profile", "repro.core.reusedist", "build_profile"),
    ("core.profile_score", "repro.core.reusedist", "StreamProfile.score"),
    ("core.filter_and_coalesce", "repro.core.filtering", "filter_and_coalesce"),
    ("core.first_occurrence_positions", "repro.core.filtering",
     "first_occurrence_positions"),
    ("core.window_concat", "repro.core.concat", "window_concat"),
    ("core.window_concat_totals", "repro.core.concat", "window_concat_totals"),
    ("core.rig_generation_time", "repro.core.rig", "rig_generation_time"),
    ("baselines.simulate_saopt", "repro.baselines.saopt", "simulate_saopt"),
    ("baselines.simulate_suopt", "repro.baselines.su", "simulate_suopt"),
)

#: Root span of each op kind, and the span covering the child's own
#: start-up from the top of this script (imports, wrapper installation).
ROOT_CLI = "cli.main"
ROOT_OUTOFCORE = "bench.outofcore"
STARTUP = "cli.startup"


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, error]``: ``parent`` is the
    index of the enclosing span in :attr:`spans` (``-1`` at top level)
    and ``error`` is 1 when the call raised.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        """``fn`` wrapped so that every call records a span ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                stack.pop()
                span[2] = clock()

        traced.__bench_traced__ = fn
        return traced


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer, wrapped=WRAPPED, also=()):
    """Wrap every function in ``wrapped`` and rebind every attribute of
    the ``repro.*`` modules and of the modules in ``also`` that *is* the
    original, so callers that imported it by name (``from
    repro.core.concat import window_concat``) reach the wrapper too.
    Returns the ``(owner, attribute, original)`` of every rebinding."""
    rebound = []
    originals = {}
    for name, module, path in wrapped:
        owner, attr = _resolve(importlib.import_module(module), path)
        fn = vars(owner)[attr]
        if hasattr(fn, "__bench_traced__"):
            continue
        wrapper = tracer.wrap(name, fn)
        setattr(owner, attr, wrapper)
        rebound.append((owner, attr, fn))
        if "." not in path:
            originals[id(fn)] = (fn, wrapper)
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for mod in modules + list(also):
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                rebound.append((mod, attr, value))
    return rebound


def self_times(spans):
    """Per span name: ``self_s`` (duration minus the part covered by
    child spans), ``calls`` and ``errors``."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _, error) in enumerate(spans):
        rec = out.setdefault(name, {"self_s": 0.0, "calls": 0, "errors": 0})
        rec["self_s"] += (end - start) - covered[i]
        rec["calls"] += 1
        rec["errors"] += error
    return out


def layer_stats():
    """The layers' own counters, read through their public stats calls."""
    from repro.cluster import batch_stats
    from repro.core import reusedist
    from repro.parallel import get_engine
    from repro.partition import get_trace_cache
    from repro.sparse.suite import suite_cache_stats

    return {
        "engine": get_engine().stats.as_dict(),
        "suite_cache": suite_cache_stats(),
        "trace_cache": get_trace_cache().stats(),
        "profile": reusedist.profile_stats(),
        "batch": batch_stats(),
    }


def _target(argv):
    """(root span name, entry function, its argv) for an op's argv."""
    if argv[:2] == ["-m", "repro.cli"]:
        import repro.cli

        return ROOT_CLI, repro.cli.main, argv[2:]
    if argv and os.path.basename(argv[0]) == "outofcore.py":
        sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
        import outofcore

        return ROOT_OUTOFCORE, outofcore.main, argv[1:]
    raise SystemExit(f"traced_child: unsupported op {argv!r}")


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit(__doc__)
    spans_path, op_id, op_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    root, entry, entry_argv = _target(op_argv)
    install(tracer, also=[sys.modules[entry.__module__]])
    tracer.spans.append([STARTUP, _T_START, time.perf_counter(), -1, 0])
    rc, error = 1, 1
    try:
        rc = tracer.wrap(root, entry)(entry_argv)
        error = 0
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"op": op_id, "error": error, "spans": tracer.spans,
                       "stats": layer_stats() if not error else {}}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
