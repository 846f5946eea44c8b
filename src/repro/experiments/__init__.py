"""Experiment harness: one runnable per table/figure of the paper.

Every experiment returns an :class:`~repro.experiments.runner.ExpTable`
(rows + columns + the paper's reference values) and is registered under
its paper id, so::

    from repro.experiments import run_experiment
    print(run_experiment("table1").format())

regenerates Table 1.  The CLI (``python -m repro.cli``) and the
benchmark suite both drive this registry.
"""

from repro.experiments.runner import (
    EXPERIMENTS,
    ExpTable,
    list_experiments,
    run_experiment,
)

# Importing the modules populates the registry.
from repro.experiments import (  # noqa: F401  (registration side effects)
    ablation,
    extensions,
    hardware,
    headline,
    motivation,
    other,
    sensitivity,
)

__all__ = ["EXPERIMENTS", "ExpTable", "list_experiments", "run_experiment"]
