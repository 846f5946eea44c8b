"""The import surface: a warm replay loads no simulator.

``import repro.cli`` and a fully cached ``netsparse run`` import only
the registry, engine, result store and the experiment run; the
simulator loads the first time a job executes.  Each check runs in a
fresh interpreter, since this test process has imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a warm replay never runs.
SIMULATOR = (
    "repro.cluster.model",
    "repro.dessim",
    "repro.sparse.synthetic",
    "repro.sparse.shards",
    "repro.core.pcache_fast",
    "repro.partition.oned",
    "repro.baselines.saopt",
    "repro.network.topology",
)

#: Packages whose ``__all__`` names resolve on first access.
LAZY_PACKAGES = ("repro.cluster", "repro.core", "repro.partition",
                 "repro.sparse", "repro.parallel")

_PROBE = """
import json, sys
{body}
print("MODULES " + json.dumps(sorted(m for m in sys.modules
                                     if m.startswith("repro"))))
"""


def _loaded(body, *args):
    """The ``repro`` modules loaded after ``body`` runs in a fresh
    interpreter (``sys.argv[1:]`` is ``args``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    last = out.strip().splitlines()[-1]
    assert last.startswith("MODULES "), out
    return set(json.loads(last[len("MODULES "):]))


_RUN = "from repro.cli import main\nassert main(sys.argv[1:]) == 0"


@pytest.fixture(scope="module")
def cold_and_warm(tmp_path_factory):
    """Modules loaded by a cold tiny fig13, then by a warm one on the
    same result cache."""
    cache = str(tmp_path_factory.mktemp("cache"))
    argv = ("run", "fig13", "--scale", "tiny", "--cache-dir", cache)
    return _loaded(_RUN, *argv), _loaded(_RUN, *argv)


def test_warm_replay_loads_no_simulator(cold_and_warm):
    _, warm = cold_and_warm
    assert warm.isdisjoint(SIMULATOR), sorted(warm & set(SIMULATOR))


def test_cold_run_loads_the_model(cold_and_warm):
    cold, _ = cold_and_warm
    assert "repro.cluster.model" in cold


def test_import_cli_loads_no_simulator():
    loaded = _loaded("import repro.cli")
    assert loaded.isdisjoint(SIMULATOR), sorted(loaded & set(SIMULATOR))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_names_resolve(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None, name
        assert name in dir(pkg)
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")
