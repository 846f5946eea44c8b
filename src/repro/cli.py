"""Command-line entry point.

Usage::

    netsparse list
    netsparse run table1 [--scale small] [--jobs 4]
    netsparse run all [--scale tiny] [--jobs 4] [--no-cache]
    netsparse report [--scale small] [-o report.md] [--jobs 4]
    netsparse cache info
    netsparse cache clear
    netsparse store info [--dsn sqlite:///...]
    netsparse store migrate
    netsparse store history [--experiment E] [--scheme S] [--since 7d]
    netsparse store gc [--days 30] [--ledger] [--dry-run]
    netsparse version        (also: netsparse --version)

``run`` and ``report`` route every simulation through the execution
engine (:mod:`repro.parallel`): ``--jobs N`` fans independent jobs out
over N worker processes, and results are memoized in a
content-addressed SQLite store (``DIR/store.sqlite3`` with
``--cache-dir DIR``, else ``$REPRO_STORE_DSN``, else
``~/.cache/netsparse/store.sqlite3``) so repeated runs replay instead
of recompute.  Simulations are deterministic, so cached and parallel
runs are bit-identical to serial ones.

``store`` inspects the result store (:mod:`repro.store`):
``info`` prints backend/schema/row counts,
``migrate`` applies pending schema migrations (idempotent — a second
run is a no-op), ``history`` queries the append-only run ledger
(filter by experiment, scheme, matrix, scale, source, ``--since 7d``),
and ``gc`` reclaims old result rows (the ledger is kept unless
``--ledger`` is given).  The DSN comes from ``--dsn``, else it
is the result cache's own store; ``run``/``report`` append a
ledger row per engine answer to it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import repro
from repro.experiments import EXPERIMENTS, list_experiments, run_experiment

__all__ = ["main"]


def _run_with_scale(exp_id: str, scale: str):
    """Pass --scale only to experiments that take it (hardware and
    protocol experiments are scale-free)."""
    import inspect

    fn = EXPERIMENTS.get(exp_id)
    if fn is None:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {list_experiments()}"
        )
    if "scale" in inspect.signature(fn).parameters:
        return run_experiment(exp_id, scale=scale)
    return run_experiment(exp_id)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulation jobs "
             "(default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="keep the simulation result cache in DIR/store.sqlite3 "
             "(default: $REPRO_STORE_DSN or "
             "~/.cache/netsparse/store.sqlite3)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the simulation result cache",
    )


class _VersionAction(argparse.Action):
    """``--version``, reading ``repro.__version__`` only when asked."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"netsparse {repro.__version__}")
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsparse",
        description="NetSparse (MICRO 2025) reproduction harness",
    )
    parser.add_argument("--version", action=_VersionAction, nargs=0,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("version", help="print the installed package version")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. table1, fig12")
    run.add_argument(
        "--scale",
        default="small",
        choices=["tiny", "small", "medium", "large"],
        help="benchmark matrix scale (default: small)",
    )
    _add_engine_flags(run)
    report = sub.add_parser(
        "report", help="run the whole suite and write a markdown report"
    )
    report.add_argument("--scale", default="small",
                        choices=["tiny", "small", "medium", "large"])
    report.add_argument("-o", "--output", default="report.md",
                        help="output markdown path (default: report.md)")
    report.add_argument("--only", nargs="*", default=None,
                        help="restrict to these experiment ids")
    _add_engine_flags(report)
    cache = sub.add_parser(
        "cache", help="inspect or clear the simulation result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    info = cache_sub.add_parser("info", help="entry count, size, held "
                                             "simulation time")
    clear = cache_sub.add_parser("clear", help="delete every cached result")
    for p in (info, clear):
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory holding store.sqlite3 "
                            "(default: $REPRO_STORE_DSN or "
                            "~/.cache/netsparse/store.sqlite3)")
    store = sub.add_parser(
        "store", help="inspect, migrate, query, or garbage-collect the "
                      "shared result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    st_info = store_sub.add_parser(
        "info", help="backend, schema version, result/ledger row counts")
    st_migrate = store_sub.add_parser(
        "migrate", help="apply pending schema migrations (idempotent)")
    st_history = store_sub.add_parser(
        "history", help="query the append-only run ledger")
    st_history.add_argument("--experiment", default=None,
                            help="filter by experiment id (e.g. table8)")
    st_history.add_argument("--scheme", default=None,
                            help="filter by scheme (netsparse, suopt, ...)")
    st_history.add_argument("--matrix", default=None,
                            help="filter by benchmark matrix name")
    st_history.add_argument("--scale", default=None,
                            help="filter by scale name (tiny, small, ...)")
    st_history.add_argument("--source", default=None,
                            help="filter by answer source (executed, "
                                 "batched, cache, memo)")
    st_history.add_argument("--since", default=None, metavar="WHEN",
                            help="only rows at/after WHEN: ISO date "
                                 "(2026-08-01), relative (7d, 12h, 30m), "
                                 "or epoch seconds")
    st_history.add_argument("--limit", type=int, default=50, metavar="N",
                            help="max rows (default 50; 0 = unlimited)")
    st_history.add_argument("--json", action="store_true",
                            help="emit rows as JSON instead of a table")
    st_gc = store_sub.add_parser(
        "gc", help="reclaim result rows older than a cutoff")
    st_gc.add_argument("--days", type=float, default=30.0, metavar="D",
                       help="age cutoff in days (default 30)")
    st_gc.add_argument("--ledger", action="store_true",
                       help="also prune run-ledger rows older than the "
                            "cutoff (kept by default: it is the audit "
                            "trail)")
    st_gc.add_argument("--dry-run", action="store_true",
                       help="report what would be removed, remove nothing")
    for p in (st_info, st_migrate, st_history, st_gc):
        p.add_argument("--dsn", default=None, metavar="DSN",
                       help="store DSN (default: the result cache's "
                            "store), e.g. "
                            "sqlite:////var/lib/netsparse/store.sqlite3")
    return parser


def _print_engine_summary(engine) -> None:
    from repro.partition import get_trace_cache

    print(f"[engine] {engine.stats.summary()}")
    tc = get_trace_cache().stats()
    print(
        f"[trace-cache] entries={tc['entries']}/{tc['max_entries']} "
        f"hits={tc['hits']} misses={tc['misses']} "
        f"evictions={tc['evictions']}"
    )


def _cache_main(args) -> int:
    from repro.parallel import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "info":
        print(cache.info().format())
    else:
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.dsn}")
    return 0


def _parse_since(text):
    """``--since`` spellings -> epoch seconds: ISO date(time), relative
    (``7d``/``12h``/``30m``), or raw epoch seconds."""
    import datetime as dt
    import re

    if text is None:
        return None
    text = text.strip()
    m = re.fullmatch(r"(\d+(?:\.\d+)?)([dhm])", text)
    if m:
        mult = {"d": 86400.0, "h": 3600.0, "m": 60.0}[m.group(2)]
        return time.time() - float(m.group(1)) * mult
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return dt.datetime.fromisoformat(text).timestamp()
    except ValueError:
        raise SystemExit(f"cannot parse --since {text!r}: use an ISO "
                         "date, a relative window (7d, 12h, 30m), or "
                         "epoch seconds")


def _store_main(args) -> int:
    import json as _json

    from repro.parallel import ResultCache
    from repro.store import SCHEMA_VERSION, StoreError, open_store

    try:
        store = open_store(args.dsn or ResultCache().dsn,
                           migrate=args.store_command != "migrate")
    except StoreError as exc:
        print(f"cannot open store: {exc}", file=sys.stderr)
        return 1

    if args.store_command == "migrate":
        applied = store.migrate()
        if applied:
            print(f"applied migration(s): {applied} "
                  f"(schema now v{store.schema_version()})")
        else:
            print(f"up to date (schema v{store.schema_version()} of "
                  f"v{SCHEMA_VERSION}); nothing to apply")
        return 0

    if args.store_command == "info":
        info = store.describe()
        print(f"store        : {info.get('backend')} ({info.get('dsn')})")
        if "size_bytes" in info:
            print(f"size         : {info['size_bytes'] / 1e6:.2f} MB")
        print(f"schema       : v{info.get('schema_version')} "
              f"(latest v{info.get('latest_schema_version')})")
        print(f"results      : {info.get('results', 0)}")
        print(f"ledger rows  : {info.get('ledger', 0)}")
        return 0

    if args.store_command == "history":
        rows = store.history(
            experiment=args.experiment, scheme=args.scheme,
            matrix=args.matrix, scale=args.scale, source=args.source,
            since=_parse_since(args.since),
            limit=args.limit if args.limit > 0 else None,
        )
        if args.json:
            print(_json.dumps(rows, indent=2, sort_keys=True))
            return 0
        if not rows:
            print("no ledger rows match")
            return 0
        for row in rows:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                                  time.localtime(row["ts"]))
            what = (f"{row['scheme'] or '?'}/{row['matrix'] or '?'}"
                    f"/k={row['k'] if row['k'] is not None else '?'}"
                    f"@{row['scale'] or '?'}")
            exp = f"  exp={row['experiment']}" if row["experiment"] else ""
            print(f"{stamp}  {row['source']:<9} {what:<32} "
                  f"{row['elapsed']:>7.2f}s  {row['worker']}"
                  f"{exp}  {row['digest'][:10]}")
        print(f"({len(rows)} row(s))")
        return 0

    # gc
    removed = store.gc(older_than_days=args.days,
                       include_ledger=args.ledger, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    parts = [f"{n} {table} row(s)" for table, n in removed.items()]
    print(f"{verb} {', '.join(parts)} older than {args.days:g} day(s)")
    if not args.ledger:
        print("(run ledger kept; pass --ledger to prune it too)")
    return 0


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`): not an error, but
        # suppress the interpreter's close-time flush complaint too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id in list_experiments():
            print(exp_id)
        return 0

    if args.command == "version":
        print(f"netsparse {repro.__version__}")
        return 0

    if args.command == "cache":
        return _cache_main(args)

    if args.command == "store":
        return _store_main(args)

    from repro.parallel import configure_engine

    engine = configure_engine(jobs=args.jobs, cache_dir=args.cache_dir,
                              use_cache=not args.no_cache)

    if args.command == "report":
        from repro.experiments.report import generate_report

        engine.context["experiment"] = "report"
        text = generate_report(
            scale=args.scale,
            experiments=args.only,
            progress=lambda e, t: print(f"  {e}: {t:.1f}s", flush=True),
        )
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
        _print_engine_summary(engine)
        return 0

    targets = (
        list_experiments() if args.experiment == "all" else [args.experiment]
    )
    for exp_id in targets:
        t0 = time.time()
        engine.context["experiment"] = exp_id
        try:
            table = _run_with_scale(exp_id, args.scale)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(table.format())
        print(f"[{time.time() - t0:.1f}s]")
        print()
    _print_engine_summary(engine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
