"""The prose docs name only code that exists.

Every inline-backticked ``repro.…`` name in the top-level docs and
``docs/*.md`` must resolve to an importable module plus attributes, and
every backticked ``tests/…py``, ``scripts/…py`` or ``examples/…py`` path
must exist.  A deleted or renamed module then fails here instead of
leaving the docs citing it.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCS += sorted((ROOT / "docs").glob("*.md"))

FENCE = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"\brepro(?:\.\w+)+")
PATH = re.compile(r"\b(?:tests|scripts|examples)/[\w/.-]*?\.py\b")


def _references(pattern):
    """``{reference: [doc, ...]}`` for every match inside a backtick span."""
    found = {}
    for doc in DOCS:
        text = FENCE.sub("", doc.read_text())
        for span in SPAN.findall(text):
            for ref in pattern.findall(span):
                found.setdefault(ref, []).append(doc.name)
    return found


def _resolves(name):
    """Import the longest module prefix of ``name``; getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            # Only a missing prefix of ``name`` itself means "not a
            # module"; a module that fails to import is a real error.
            if not (module + ".").startswith(f"{exc.name}."):
                raise
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_the_scanned_docs_exist():
    assert all(doc.is_file() for doc in DOCS)
    assert _references(NAME) and _references(PATH)


def test_repro_names_in_docs_resolve():
    broken = {ref: docs for ref, docs in _references(NAME).items()
              if not _resolves(ref)}
    assert not broken, f"docs name missing code: {broken}"


def test_file_paths_in_docs_exist():
    missing = {ref: docs for ref, docs in _references(PATH).items()
               if not (ROOT / ref).is_file()}
    assert not missing, f"docs name missing files: {missing}"


@pytest.mark.parametrize("name, ok", [
    ("repro.network.topology.Topology.flow_loads", True),
    ("repro.cluster.batch_stats", True),
    ("repro.core.pr", False),
    ("repro.network.topology.Topology.no_such_method", False),
])
def test_resolver(name, ok):
    assert _resolves(name) is ok
