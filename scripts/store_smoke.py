#!/usr/bin/env python
"""Store smoke: migrations, cross-process reuse, cross-replica dedupe.

Exercises the ``repro.store`` guarantees end to end against a real
SQLite database file, with hard assertions:

1. **Idempotent migrations** — a second ``migrate()`` applies nothing.
2. **Cross-engine reuse** — engine A executes a sweep; engine B (its
   own ``ResultCache`` over the same store) re-runs it with **zero**
   executions and bit-identical results, served from the store.
3. **Cross-replica coalescing** — a service replica (a third engine
   and ``ResultCache``, same store) answers the duplicate sweep
   entirely from the store; the ledger ends with exactly one
   ``executed`` (or ``batched``) row per digest.
4. **Provenance** — every stored row carries code salt, kernel tier,
   git sha, and schema version.

Writes the full ledger history as JSON to ``--out`` for CI to upload.

Usage::

    python scripts/store_smoke.py --out store-history.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

SCHEMES = ("netsparse", "suopt")
MATRICES = ("arabic", "stokes")
KS = (4, 8)


def _sweep_jobs():
    from repro.config import NetSparseConfig
    from repro.parallel import SimJob

    cfg = NetSparseConfig()
    return [SimJob(scheme=s, matrix=m, k=k, config=cfg, scale_name="tiny")
            for s in SCHEMES for m in MATRICES for k in KS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="store-history.json")
    ap.add_argument("--dsn", default=None,
                    help="store DSN (default: sqlite file in a tempdir)")
    args = ap.parse_args(argv)

    from repro.parallel import ExecutionEngine, ResultCache
    from repro.service import ServiceClient, serve_in_background
    from repro.store import open_store

    work = tempfile.mkdtemp(prefix="store-smoke-")
    dsn = args.dsn or f"sqlite:///{work}/store.sqlite3"
    failures = []

    # 1. Idempotent migrations.
    store = open_store(dsn, migrate=False)
    first = store.migrate()
    second = store.migrate()
    if not first:
        failures.append("first migrate() applied nothing")
    if second:
        failures.append(f"second migrate() re-applied {second}: "
                        "migrations are not idempotent")
    print(f"[smoke] migrate: first={first} second={second} "
          f"(schema v{store.schema_version()})")

    jobs = _sweep_jobs()
    digests = [j.digest() for j in jobs]

    # 2. Cross-engine reuse through the store.
    eng_a = ExecutionEngine(jobs=2, cache=ResultCache(store=store))
    eng_a.context["experiment"] = "smoke-a"
    t0 = time.perf_counter()
    res_a = eng_a.run_jobs(jobs)
    print(f"[smoke] engine A executed {eng_a.stats.executed} jobs "
          f"in {time.perf_counter() - t0:.1f}s")
    eng_a.close()

    eng_b = ExecutionEngine(jobs=2, cache=ResultCache(store=store))
    eng_b.context["experiment"] = "smoke-b"
    res_b = eng_b.run_jobs(jobs)
    if eng_b.stats.executed != 0:
        failures.append(f"engine B executed {eng_b.stats.executed} jobs; "
                        "expected 0 (the store should serve all)")
    for ra, rb in zip(res_a, res_b):
        if ra.total_time != rb.total_time or not (
                ra.per_node_time.tobytes() == rb.per_node_time.tobytes()):
            failures.append("store round-trip not bit-identical "
                            f"({ra.scheme}/{ra.matrix_name})")
            break
    print(f"[smoke] engine B: {eng_b.stats.executed} executions, "
          f"{len(res_b)} results bit-checked")
    eng_b.close()

    # 3. Cross-replica coalescing: a fresh service replica must answer
    # the duplicate sweep from the store.
    eng_c = ExecutionEngine(jobs=2, cache=ResultCache(store=store))
    bg = serve_in_background(eng_c)
    try:
        client = ServiceClient(bg.url, timeout=120)
        sweep = client.submit_sweep({
            "schemes": list(SCHEMES), "matrices": list(MATRICES),
            "ks": list(KS), "scale_name": "tiny",
        })
        sources = {}
        for st in sweep["jobs"]:
            res = client.wait(st.job_id, timeout=120)
            status = client.status(st.job_id)
            sources[res.digest] = status.source
        bad = {d: s for d, s in sources.items() if s != "cache"}
        if bad:
            failures.append(f"replica served duplicates from {bad}; "
                            "expected source 'cache' for all")
        if eng_c.stats.executed != 0:
            failures.append(f"replica executed {eng_c.stats.executed} "
                            "duplicate jobs")
        print(f"[smoke] replica served {len(sources)} duplicates, "
              f"sources={sorted(set(sources.values()))}")
    finally:
        bg.stop()
        eng_c.close()

    # Exactly one execution ledger row per digest, ever.  A job that
    # rode in a fused batch group is recorded as 'batched', not
    # 'executed'; both mean the job ran.
    for digest in digests:
        rows = [r for r in store.history(digest=digest)
                if r["source"] in ("executed", "batched")]
        if len(rows) != 1:
            failures.append(f"digest {digest[:12]}: {len(rows)} "
                            "executed/batched ledger rows, expected 1")

    # 4. Provenance on every stored result.
    for digest in digests:
        rec = store.get_result(digest)
        if rec is None:
            failures.append(f"digest {digest[:12]} missing from store")
            continue
        missing = [f for f in ("code_salt", "kernel_tier", "git_sha",
                               "schema_version")
                   if not rec.provenance.get(f)]
        if missing:
            failures.append(f"digest {digest[:12]}: "
                            f"incomplete provenance {missing}")

    history = store.history()
    info = store.describe()
    with open(args.out, "w") as fh:
        json.dump({"info": {k: v for k, v in info.items()
                            if k != "dsn"},
                   "history": history, "failures": failures},
                  fh, indent=2, default=str)
        fh.write("\n")
    print(f"[smoke] wrote {args.out} ({len(history)} ledger rows)")

    if failures:
        for f in failures:
            print(f"[smoke] FAIL: {f}", file=sys.stderr)
        return 1
    by_source = {}
    for row in history:
        by_source[row["source"]] = by_source.get(row["source"], 0) + 1
    print(f"[smoke] OK: {info['results']} results, "
          f"{info['ledger']} ledger rows {by_source}, "
          f"one execution per digest across 2 engines + 1 replica")
    return 0


if __name__ == "__main__":
    sys.exit(main())
