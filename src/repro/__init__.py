"""NetSparse reproduction package."""

import importlib
import sys


def _detect_version() -> str:
    """Installed-package version, so bug reports and cached-result
    provenance can name a build (``netsparse --version``)."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:              # running from a source tree
        return "1.0.0+source"


def __getattr__(name: str):
    # ``__version__`` reads the installed metadata on first access only.
    if name == "__version__":
        globals()[name] = value = _detect_version()
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def lazy_exports(package: str, exports: dict):
    """A package's ``__all__`` and its PEP 562 ``__getattr__`` and
    ``__dir__``.

    ``exports`` maps each submodule to the names the package
    re-exports from it.  A name's submodule is imported the first time
    the name is read, and the value is then kept on the package, so
    ``import repro.cluster`` loads no simulator while ``from
    repro.cluster import simulate_netsparse`` still works.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
