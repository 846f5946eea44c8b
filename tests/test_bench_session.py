"""The benchmark session's perf-trajectory artifact."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_session_conftest", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_session_writes_into_a_new_out_dir(tmp_path, monkeypatch):
    out = tmp_path / "not" / "yet"
    monkeypatch.setenv("REPRO_BENCH_OUT", str(out))
    conftest = _bench_conftest()
    conftest._BENCH_RECORDS.append({"test": "t", "wall_s": 0.0})
    conftest.pytest_sessionfinish(None, 0)
    (path,) = out.glob("BENCH_*.json")
    payload = json.loads(path.read_text())
    assert payload["results"] == [{"test": "t", "wall_s": 0.0}]
