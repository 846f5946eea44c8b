"""Benchmark: host time to regenerate the paper's tables.

Usage::

    python bench/run.py [--workload NAME]... [--passes 3] [--seconds S]
                        [--seed 7] [--trace [0|1]] [--smoke] [--out FILE]

Every op is a child process, run one at a time (``--jobs 1``) and
measured from outside: wall time around the child and its
``ru_maxrss`` from ``os.wait4``.  The CLI workloads' ops are literally
``python -m repro.cli run <exp> --scale <s> --cache-dir <d>``.  Every
op's stdout is checked against a committed digest.  Each pass starts
from empty on-disk state; children see none of the caller's
``REPRO_*`` / ``NETSPARSE_*`` variables.

``--seconds S`` runs passes while the next one is expected to end
within ``S`` seconds of measuring (at least one); otherwise
``--passes`` passes run.  ``--trace`` adds one pass of traced children
(``bench/traced_child.py``), interleaved op by op with the first timed
pass, and reports the per-layer metrics instead of the end-to-end ones.
``--smoke`` runs every workload at tiny scale for one pass.

Prints a table per workload and, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``BENCHMARK.json`` metrics (prefixed ``<workload>/`` when more than one
workload ran).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from traced_child import (  # noqa: E402
    ROOT_CLI, ROOT_OUTOFCORE, STARTUP, WRAPPED, self_times,
)

#: Interpreter start-ups timed for a cold workload's ``setup_s``.
STARTUP_SAMPLES = 9
#: Wall-clock limit of one child process, in seconds.
OP_TIMEOUT = 150.0
#: Seed of the paper tables; ``netsparse run`` takes no seed.
TABLE_SEED = 7

_TIMING_LINE = re.compile(r"^\[\d+(\.\d+)?s\]$")
_DROPPED_PREFIXES = ("[engine]", "[trace-cache]")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``netsparse run`` experiments, in order; empty for the
    #: out-of-core grid.
    experiments: tuple = ()
    #: Re-run against a result cache that setup filled.
    warm: bool = False

    def scale(self, smoke: bool) -> str:
        if smoke:
            return "tiny"
        return "small" if self.experiments else "large"


WORKLOADS = {
    w.name: w for w in (
        Workload("paper-cold", ("fig12", "fig13", "fig22")),
        Workload("sweep-cold", ("fig16", "fig17", "fig18", "table8",
                                "autotune")),
        Workload("replay-warm", ("fig12", "fig13", "fig18", "autotune"),
                 warm=True),
        Workload("outofcore-large"),
    )
}


# -- output checks ------------------------------------------------------


def normalize(stdout: str) -> str:
    """Drop the lines that vary between equal runs: the engine and
    trace-cache stats lines and the ``[<n>s]`` timing lines."""
    keep = [line for line in stdout.splitlines()
            if not line.startswith(_DROPPED_PREFIXES)
            and not _TIMING_LINE.match(line)]
    return "\n".join(keep) + "\n"


def digest(stdout: str) -> str:
    return hashlib.sha256(normalize(stdout).encode("utf-8")).hexdigest()


# -- child processes ----------------------------------------------------


@dataclass
class OpResult:
    op: str
    phase: str              # "setup", "pass", or "trace"
    wall_s: float
    rss_mb: float
    rc: int
    timed_out: bool
    digest: Optional[str] = None
    expected: Optional[str] = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)

    def judge(self) -> None:
        if self.timed_out:
            self.error = f"timeout after {self.wall_s:.1f}s"
        elif self.rc != 0:
            self.error = f"exit code {self.rc}"
        elif self.expected is not None and self.digest != self.expected:
            self.error = (f"digest {self.digest[:12]} != expected "
                          f"{self.expected[:12]}")


def run_child(argv: List[str], env: Dict[str, str], log_stem: Path,
              timeout: float = OP_TIMEOUT):
    """Run ``python <argv>`` to completion; returns
    ``(wall_s, rss_mb, rc, timed_out, stdout)``.

    The child is waited for with ``waitid(WNOWAIT)`` first, so the
    timeout's kill can never hit a reaped (and possibly reused) pid,
    then reaped with ``wait4`` for its resource usage.
    """
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)

        def _kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(timeout, _kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with lock:
                state["exited"] = True
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode, state["killed"],
            stdout)


def child_env(xdg: Path, shard_dir: Path, tmp: Path, **extra) -> dict:
    """The caller's environment minus every ``REPRO_*``/``NETSPARSE_*``
    variable, importing the checkout's ``src/`` and writing only under
    the benchmark's work directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "NETSPARSE_"))}
    for path in (xdg, shard_dir, tmp):
        path.mkdir(parents=True, exist_ok=True)
    env.update(PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(xdg),
               REPRO_SHARD_DIR=str(shard_dir), TMPDIR=str(tmp), **extra)
    return env


# -- workloads ----------------------------------------------------------


@dataclass
class Op:
    name: str
    argv: List[str]


@dataclass
class WorkloadRun:
    workload: Workload
    scale: str
    seed: int
    results: List[OpResult] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    passes: List[List[OpResult]] = field(default_factory=list)
    #: The traced pass and the untraced pass run interleaved with it.
    traced: List[OpResult] = field(default_factory=list)
    paired: List[OpResult] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)


class SetupError(RuntimeError):
    pass


class Runner:
    """Runs one workload's setup, passes and traced pass in ``work``."""

    def __init__(self, workload: Workload, scale: str, seed: int,
                 work: Path, expected: dict):
        self.w = workload
        self.scale = scale
        self.seed = seed
        self.work = work
        self.run = WorkloadRun(workload, scale, seed)
        self._counter = 0
        self._first_digest: Dict[str, str] = {}
        self._expected = expected.get(scale, {})
        # Shards (outofcore) and the filled result cache (replay-warm)
        # outlive setup; everything else is fresh per pass.
        self.shard_dir = work / "shards"
        self.fill_cache = work / "fill-cache"

    # -- ops --

    def _fresh(self, label: str) -> Path:
        self._counter += 1
        path = self.work / f"{self._counter:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def _env(self, pass_dir: Path) -> dict:
        if self.w.experiments:
            return child_env(pass_dir / "xdg", pass_dir / "shards",
                             pass_dir / "tmp")
        return child_env(pass_dir / "xdg", self.shard_dir, pass_dir / "tmp",
                         REPRO_SHARDED_SCALES=self.scale)

    def _expect(self, op: str) -> Optional[str]:
        if self.w.experiments or self.seed == TABLE_SEED:
            want = self._expected.get(op)
            if want is not None:
                return want
        return self._first_digest.get(op)

    def _pass_ops(self, pass_dir: Path) -> List[Op]:
        """One pass's ops; a warm workload reads the cache setup filled."""
        cache = str(self.fill_cache if self.w.warm else pass_dir / "cache")
        if self.w.experiments:
            return [Op(exp, ["-m", "repro.cli", "run", exp, "--scale",
                             self.scale, "--cache-dir", cache])
                    for exp in self.w.experiments]
        return [Op("outofcore", [str(BENCH / "outofcore.py"), "--scale",
                                 self.scale, "--seed", str(self.seed),
                                 "--cache-dir", cache])]

    def _run_op(self, op: Op, phase: str, pass_dir: Path,
                traced: bool = False, check: bool = True) -> OpResult:
        argv = op.argv
        spans_path = pass_dir / f"{op.name}.spans.json"
        if traced:
            argv = [str(BENCH / "traced_child.py"), str(spans_path),
                    f"{self.w.name}/{op.name}", "--", *argv]
        wall, rss, rc, timed_out, stdout = run_child(
            argv, self._env(pass_dir), pass_dir / op.name)
        res = OpResult(op=op.name, phase=phase, wall_s=wall, rss_mb=rss,
                       rc=rc, timed_out=timed_out)
        if check:
            res.digest = digest(stdout)
            res.expected = self._expect(op.name)
        res.judge()
        if check and not res.failed:
            self._first_digest.setdefault(op.name, res.digest)
        if traced and spans_path.exists():
            with open(spans_path) as fh:
                self.run.spans.append(json.load(fh))
        self.run.results.append(res)
        return res

    # -- phases --

    def setup(self) -> None:
        if self.w.warm:
            pass_dir = self._fresh("setup")
            walls = [self._run_op(op, "setup", pass_dir).wall_s
                     for op in self._pass_ops(pass_dir)]
            self.run.setup_samples.append(sum(walls))
        elif not self.w.experiments:
            pass_dir = self._fresh("setup")
            op = Op("shards", [str(BENCH / "outofcore.py"), "--setup",
                               "--scale", self.scale,
                               "--seed", str(self.seed)])
            self.run.setup_samples.append(
                self._run_op(op, "setup", pass_dir, check=False).wall_s)
        else:
            for _ in range(STARTUP_SAMPLES):
                pass_dir = self._fresh("startup")
                op = Op("startup", ["-c", "import repro.cli"])
                self.run.setup_samples.append(
                    self._run_op(op, "setup", pass_dir, check=False).wall_s)
        errors = [f"{r.op}: {r.error}" for r in self.run.results if r.failed]
        if errors:
            raise SetupError(f"{self.w.name}: setup failed: "
                             + "; ".join(errors))

    def measure(self, passes: int, seconds: Optional[float]) -> None:
        """Timed passes, counting any already run, until ``passes`` or
        the ``seconds`` budget is reached."""
        walls = [sum(r.wall_s for r in p) for p in self.run.passes]
        while True:
            if seconds is None:
                if len(walls) >= passes:
                    break
            elif walls and sum(walls) + statistics.median(walls) > seconds:
                break
            pass_dir = self._fresh("pass")
            results = [self._run_op(op, "pass", pass_dir)
                       for op in self._pass_ops(pass_dir)]
            self.run.passes.append(results)
            walls.append(sum(r.wall_s for r in results))

    def trace(self) -> None:
        """A traced pass interleaved op by op with an untraced one, the
        order alternating, so host drift hits both alike.  The untraced
        pass also counts as the first timed pass."""
        plain_dir, traced_dir = self._fresh("pass"), self._fresh("trace")
        pairs = zip(self._pass_ops(plain_dir), self._pass_ops(traced_dir))
        for i, (plain, traced) in enumerate(pairs):
            for phase in (("trace", "pass") if i % 2 else ("pass", "trace")):
                if phase == "trace":
                    self.run.traced.append(self._run_op(
                        traced, phase, traced_dir, traced=True))
                else:
                    self.run.paired.append(
                        self._run_op(plain, phase, plain_dir))
        self.run.passes.append(self.run.paired)


# -- metrics ------------------------------------------------------------


def summary(values: List[float]) -> dict:
    """Median, quartiles, IQR and count of ``values``."""
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values), "samples": values}


def end_to_end(run: WorkloadRun) -> Dict[str, dict]:
    passes = run.passes
    out = {
        "regen_s": summary([sum(r.wall_s for r in p) for p in passes]),
        "setup_s": summary(run.setup_samples),
        "peak_rss_mb": summary([max(r.rss_mb for r in p) for p in passes]),
        "failed_frac": summary([sum(r.failed for r in p) / len(p)
                                for p in passes]),
    }
    for name in {r.op for p in passes for r in p}:
        out[f"exp.{name}.wall_s"] = summary(
            [r.wall_s for p in passes for r in p if r.op == name])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: WorkloadRun) -> Dict[str, float]:
    """Per-layer metrics of the traced pass: self time, its share of the
    traced wall, calls and errors for every span name, and the layers'
    own counters summed over the pass's ops.  The overhead is measured
    against the untraced pass run interleaved with it."""
    totals: Dict[str, dict] = {}
    for doc in run.spans:
        for name, rec in self_times(doc["spans"]).items():
            acc = totals.setdefault(name, {"self_s": 0.0, "calls": 0,
                                           "errors": 0})
            for key in acc:
                acc[key] += rec[key]
    wall = sum(r.wall_s for r in run.traced)
    out: Dict[str, float] = {
        "trace.wall_s": wall,
        "trace.overhead_frac": _ratio(
            wall, sum(r.wall_s for r in run.paired)) - 1.0,
        "trace.coverage_frac": _ratio(
            sum(t["self_s"] for t in totals.values()), wall),
        "cli.startup_s": totals.get(STARTUP, {}).get("self_s", 0.0),
    }
    span_names = {name for name, _, _ in WRAPPED} | {ROOT_CLI, ROOT_OUTOFCORE}
    for name in sorted((span_names | set(totals)) - {STARTUP}):
        rec = totals.get(name, {"self_s": 0.0, "calls": 0, "errors": 0})
        out[f"{name}.self_s"] = rec["self_s"]
        out[f"{name}.self_frac"] = _ratio(rec["self_s"], wall)
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.errors"] = rec["errors"]

    stats = [doc.get("stats") or {} for doc in run.spans]

    def total(section: str, key: str) -> float:
        return sum(s.get(section, {}).get(key, 0) for s in stats)

    def hit_ratio(section: str) -> float:
        hits = total(section, "hits")
        return _ratio(hits, hits + total(section, "misses"))

    out["sparse.suite_cache.hit_ratio"] = hit_ratio("suite_cache")
    out["partition.trace_cache.hit_ratio"] = hit_ratio("trace_cache")
    for key in ("evictions", "spills"):
        out[f"partition.trace_cache.{key}"] = total("trace_cache", key)
    out["partition.trace_cache.resident_nnz"] = max(
        [s.get("trace_cache", {}).get("resident_nnz", 0) for s in stats]
        or [0])
    # batch_stats(): one entry per cluster-model memo, plus "profile".
    memos = [{k: v for k, v in s.get("batch", {}).items() if k != "profile"}
             for s in stats]
    out["cluster.memo.bytes"] = max(
        [sum(m["bytes"] for m in ms.values()) for ms in memos] or [0])
    for name in sorted({name for ms in memos for name in ms}):
        hits = sum(ms.get(name, {}).get("hits", 0) for ms in memos)
        misses = sum(ms.get(name, {}).get("misses", 0) for ms in memos)
        out[f"cluster.memo.{name}.hit_ratio"] = _ratio(hits, hits + misses)
    out["core.profile.built"] = total("profile", "profiles_built")
    for key in ("closed_form", "hybrid", "delegated"):
        out[f"core.profile.{key}"] = total("profile", key)
    jobs = total("engine", "jobs")
    executed = total("engine", "executed")
    batched = total("engine", "batched")
    out["parallel.engine.hit_ratio"] = _ratio(
        total("engine", "memo_hits") + total("engine", "cache_hits"), jobs)
    out["parallel.engine.executed"] = executed
    out["parallel.engine.batched"] = batched
    out["parallel.batch.fold_ratio"] = _ratio(batched, executed)
    return out


# -- reporting ----------------------------------------------------------


def provenance(args, passes: Dict[str, int]) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "passes": passes,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def print_workload(name: str, res: dict, units: Dict[str, str]) -> None:
    print(f"== {name} (scale {res['scale']}, seed {res['seed']}, "
          f"{res['end_to_end']['regen_s']['n']} pass(es)) ==")
    print(f"{'metric':<28} {'unit':<6} {'median':>10} {'iqr':>9} {'n':>3}")
    for metric, s in res["end_to_end"].items():
        unit = units.get(metric, "s")
        print(f"{metric:<28} {unit:<6} {s['median']:>10.4f} "
              f"{s['iqr']:>9.4f} {s['n']:>3}")
    for r in res["ops"]:
        if r["failed"]:
            print(f"  FAILED {r['phase']} {r['op']}: {r['error']}")
    layers = res.get("per_layer")
    if layers:
        print(f"-- traced pass: wall {layers['trace.wall_s']:.2f}s, "
              f"overhead {layers['trace.overhead_frac']:+.1%}, "
              f"coverage {layers['trace.coverage_frac']:.1%}, "
              f"start-up {layers['cli.startup_s']:.2f}s")
        rows = sorted((k[:-len(".self_s")] for k in layers
                       if k.endswith(".self_s")),
                      key=lambda n: -layers[f"{n}.self_s"])
        print(f"{'span':<34} {'self_s':>9} {'share':>7} {'calls':>8} "
              f"{'errors':>6}")
        for n in rows:
            if layers[f"{n}.calls"]:
                print(f"{n:<34} {layers[f'{n}.self_s']:>9.3f} "
                      f"{layers[f'{n}.self_frac']:>7.1%} "
                      f"{layers[f'{n}.calls']:>8} "
                      f"{layers[f'{n}.errors']:>6}")
        counters = [k for k in layers if not k.startswith("trace.")
                    and k != "cli.startup_s"
                    and not k.endswith((".self_s", ".self_frac", ".calls",
                                        ".errors"))]
        for k in counters:
            print(f"{k:<42} {layers[k]:>12.4g}")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark the host time to regenerate the paper's "
                    "tables (see bench/README.md).")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--passes", type=int, default=3,
                    help="timed passes per workload when --seconds is not "
                         "given (default 3)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure passes for about this many seconds")
    ap.add_argument("--seed", type=int, default=TABLE_SEED,
                    help="input seed of the out-of-core grid (default 7)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="add a traced pass and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale, one pass, every workload")
    ap.add_argument("--out", default=None, help="write the full result JSON")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    if args.smoke:
        args.passes, args.seconds = 1, None

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    names = args.workload or list(WORKLOADS)

    def _on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _on_term)
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    results = {}
    try:
        for name in names:
            w = WORKLOADS[name]
            runner = Runner(w, w.scale(args.smoke), args.seed,
                            work / name, expected)
            try:
                runner.setup()
            except SetupError as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            if args.trace:
                runner.trace()
            runner.measure(args.passes, args.seconds)
            results[name] = runner.run
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    units["failed_frac"] = "ratio"
    report = {"provenance": provenance(
        args, {n: len(r.passes) for n, r in results.items()}),
        "workloads": {}}
    for name, run in results.items():
        e2e = end_to_end(run)
        res = {
            "scale": run.scale, "seed": run.seed, "end_to_end": e2e,
            "attempted": len(run.results),
            "failed": sum(r.failed for r in run.results),
            "ops": [vars(r) | {"failed": r.failed} for r in run.results],
        }
        if run.traced:
            res["per_layer"] = per_layer(run)
        report["workloads"][name] = res
        print_workload(name, res, units)

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, res in report["workloads"].items():
        prefix = f"{name}/" if len(results) > 1 else ""
        source = res["per_layer"] if args.trace else {
            k: v["median"] for k, v in res["end_to_end"].items()}
        for m in wanted:
            # A per-layer counter a future program no longer has (say, a
            # deleted memo) reads 0: that layer did no such work.
            metrics[prefix + m["name"]] = {
                "value": source.get(m["name"], 0.0), "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in report["workloads"].values())
    failed = sum(r["failed"] for r in report["workloads"].values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
