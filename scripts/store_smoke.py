#!/usr/bin/env python
"""Store smoke: migrations and cross-process reuse.

Exercises the ``repro.store`` guarantees end to end against a real
SQLite database file, with hard assertions:

1. **Idempotent migrations** — a second ``migrate()`` applies nothing.
2. **Cross-process reuse** — engine A executes a sweep in this
   process; engine B, in a ``spawn``ed child process with its own
   ``ResultCache`` over the same DSN, re-runs it with **zero**
   executions and bit-identical results, served from the store.  The
   ledger ends with exactly one ``executed`` (or ``batched``) row per
   digest.
3. **Provenance** — every stored row carries code salt, git sha, and
   schema version, and engine B's process derives the same code salt
   (the hash of the package sources) as this one.

Writes the full ledger history as JSON to ``--out`` for CI to upload.

Usage::

    python scripts/store_smoke.py --out store-history.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
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


def _fingerprints(results):
    return [(r.scheme, r.matrix_name, r.total_time,
             r.per_node_time.tobytes()) for r in results]


def _engine_b(dsn, queue):
    """Engine B, run in a child process: its own cache over ``dsn``."""
    from repro.parallel import ExecutionEngine, ResultCache
    from repro.store import open_store

    cache = ResultCache(store=open_store(dsn))
    with ExecutionEngine(jobs=2, cache=cache) as eng:
        eng.context["experiment"] = "smoke-b"
        results = eng.run_jobs(_sweep_jobs())
        queue.put((eng.stats.executed, _fingerprints(results)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="store-history.json")
    ap.add_argument("--dsn", default=None,
                    help="store DSN (default: sqlite file in a tempdir)")
    args = ap.parse_args(argv)

    from repro.parallel import ExecutionEngine, ResultCache
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

    # 2. Cross-process reuse through the store.
    eng_a = ExecutionEngine(jobs=2, cache=ResultCache(store=store))
    eng_a.context["experiment"] = "smoke-a"
    t0 = time.perf_counter()
    res_a = eng_a.run_jobs(jobs)
    print(f"[smoke] engine A executed {eng_a.stats.executed} jobs "
          f"in {time.perf_counter() - t0:.1f}s")
    eng_a.close()

    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    child = ctx.Process(target=_engine_b, args=(dsn, queue))
    child.start()
    executed_b, prints_b = queue.get(timeout=600)
    child.join(timeout=60)
    if child.exitcode != 0:
        failures.append(f"engine B's process exited {child.exitcode}")
    if executed_b != 0:
        failures.append(f"engine B executed {executed_b} jobs; "
                        "expected 0 (the store should serve all)")
    for pa, pb in zip(_fingerprints(res_a), prints_b):
        if pa != pb:
            failures.append(f"store round-trip not bit-identical ({pa[:2]})")
            break
    print(f"[smoke] engine B (pid {child.pid}): {executed_b} executions, "
          f"{len(prints_b)} results bit-checked")

    # Exactly one execution ledger row per digest, ever.  A job that
    # rode in a fused batch group is recorded as 'batched', not
    # 'executed'; both mean the job ran.
    for digest in digests:
        rows = [r for r in store.history(digest=digest)
                if r["source"] in ("executed", "batched")]
        if len(rows) != 1:
            failures.append(f"digest {digest[:12]}: {len(rows)} "
                            "executed/batched ledger rows, expected 1")

    # Engine B's answers are ledgered from the child, not this process.
    b_workers = {r["worker"] for r in store.history(experiment="smoke-b")}
    if {w.rsplit(":", 1)[-1] for w in b_workers} != {str(child.pid)}:
        failures.append(f"engine B's ledger rows came from {b_workers}, "
                        f"not the child (pid {child.pid})")

    # 3. Provenance on every stored result, and one code salt across
    # both processes: the rows engine B answered carry B's salt.
    from repro.sources import code_salt

    salt = code_salt()
    for digest in digests:
        rec = store.get_result(digest)
        if rec is None:
            failures.append(f"digest {digest[:12]} missing from store")
            continue
        missing = [f for f in ("code_salt", "git_sha", "schema_version")
                   if not rec.provenance.get(f)]
        if missing:
            failures.append(f"digest {digest[:12]}: "
                            f"incomplete provenance {missing}")
        elif rec.provenance["code_salt"] != salt:
            failures.append(f"digest {digest[:12]}: stored under code "
                            f"salt {rec.provenance['code_salt'][:12]}, "
                            f"not this process's {salt[:12]}")
    b_salts = {r["code_salt"] for r in store.history(experiment="smoke-b")}
    if b_salts != {salt}:
        failures.append(f"engine B answered under code salt(s) "
                        f"{sorted(s[:12] for s in b_salts)}, not "
                        f"engine A's {salt[:12]}")

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
          f"one execution per digest across 2 engines in 2 processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
