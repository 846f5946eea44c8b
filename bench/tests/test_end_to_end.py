"""Traced vs untraced digests, and the ``--smoke`` run end to end."""

import json
import subprocess
import sys

from run import BENCH, child_env, digest, run_child


def test_traced_and_untraced_fig14_match(tmp_path):
    argv = ["-m", "repro.cli", "run", "fig14", "--scale", "tiny"]
    digests = {}
    for label in ("plain", "traced"):
        work = tmp_path / label
        work.mkdir()
        env = child_env(work / "xdg", work / "shards", work / "tmp")
        op = argv + ["--cache-dir", str(work / "cache")]
        if label == "traced":
            op = [str(BENCH / "traced_child.py"), str(work / "spans.json"),
                  "fig14", "--", *op]
        _, _, rc, timed_out, stdout = run_child(op, env, work / "fig14",
                                                timeout=120)
        assert rc == 0 and not timed_out
        digests[label] = digest(stdout)
    assert digests["traced"] == digests["plain"]

    doc = json.loads((tmp_path / "traced" / "spans.json").read_text())
    assert doc["op"] == "fig14" and doc["error"] == 0
    names = {span[0] for span in doc["spans"]}
    assert {"cli.startup", "cli.main", "experiments.run_experiment",
            "cluster.simulate_netsparse"} <= names
    assert doc["stats"]["engine"]["jobs"] > 0


def test_traced_smoke_reports_every_per_layer_metric(tmp_path):
    out = tmp_path / "traced.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload",
         "outofcore-large", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in contract["per_layer"]}
    layers = json.loads(out.read_text())["workloads"]["outofcore-large"][
        "per_layer"]
    # Each name is computed, not filled in as a default.
    assert {m["name"] for m in contract["per_layer"]} <= set(layers)
    assert layers["trace.coverage_frac"] > 0.5
    assert layers["cluster.simulate_netsparse.calls"] == 4


def test_smoke_runs_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {"paper-cold", "sweep-cold",
                                        "replay-warm", "outofcore-large"}
    for name, res in report["workloads"].items():
        assert res["scale"] == "tiny"
        assert last["metrics"][f"{name}/regen_s"]["value"] > 0
        assert res["end_to_end"]["setup_s"]["median"] > 0
