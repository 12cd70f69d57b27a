"""Simulator for decentralized stochastic optimization with zeroth-order oracles.

Agents on a communication graph minimize an average of local stochastic
objectives while only ever querying function values.  The package provides
the graph and spectral machinery, coordinate gradient estimators, the
synchronous swarm dynamics (with an optional powerball acceleration),
benchmark problems, metrics, and an experiment harness with a CLI.
"""

from .dynamics import (
    ALGORITHMS,
    DivergenceError,
    HyperParams,
    RunStreams,
    SwarmState,
    Trajectory,
    powerball,
    run,
    step,
    theorem_schedule,
)
from .estimator import (
    CoordinateSample,
    OracleEvaluationError,
    SmoothingSchedule,
    central_estimate,
    forward_estimate,
    sample_coordinates,
)
from .graph import (
    EigenSolveError,
    GraphSamplingError,
    SpectralProfile,
    Topology,
    erdos_renyi,
    is_connected,
    laplacian_spectrum,
)
from .harness import (
    AlgorithmSpec,
    BatteryResult,
    ConfigError,
    ExperimentConfig,
    gamma_sweep,
    load_config,
    parse_config,
    run_battery,
    self_check,
)
from .metrics import IterationRecord, RunSummary, summarize
from .problems import (
    ClassificationDataset,
    ClassificationProblem,
    QuadraticToyProblem,
    StochasticProblem,
    accuracy,
    make_quadratic_toy,
    make_synthetic_classification,
    nlls_evaluate,
    sigmoid,
)

__version__ = "0.1.0"
