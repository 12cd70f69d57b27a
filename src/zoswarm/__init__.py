"""Simulator for decentralized stochastic optimization with zeroth-order oracles.

Agents on a communication graph minimize an average of local stochastic
objectives while only ever querying function values.  The package provides
the graph and spectral machinery, coordinate gradient estimators, the
synchronous swarm dynamics (with an optional powerball acceleration),
benchmark problems, metrics, and an experiment harness with a CLI.  The
root exports the names the README's library sections use; everything else
is reached through its module.
"""

from .dynamics import HyperParams, run, theorem_schedule
from .estimator import SmoothingSchedule
from .graph import EigenSolveError, Topology, erdos_renyi, laplacian_spectrum
from .metrics import summarize
from .problems import ClassificationProblem, StochasticProblem, make_synthetic_classification

__version__ = "0.1.0"
