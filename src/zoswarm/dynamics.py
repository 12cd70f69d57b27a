"""Synchronous multi-agent update dynamics.

Each round, every agent reads the previous iterate matrix, builds a
zeroth-order coordinate gradient estimate from its own oracle draws, and
moves against both the Laplacian disagreement with its neighbors and the
(optionally powerball-transformed) estimate:

    x_{i,k+1} = x_{i,k} - alpha * sum_j L_ij x_{j,k} - eta * g~_{i,k}

Randomness flows through the two streams of :class:`RunStreams`, spawned
from one master seed, so results depend only on the seed and agent order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimator import (
    SmoothingSchedule,
    central_estimate,
    forward_estimate,
    sample_coordinates,
)
from .graph import SpectralProfile, Topology, is_connected, laplacian_spectrum
from .metrics import IterationRecord, capture_record

__all__ = [
    "HyperParams",
    "SwarmState",
    "RunStreams",
    "Trajectory",
    "DivergenceError",
    "ALGORITHMS",
    "powerball",
    "step",
    "theorem_schedule",
    "run",
]

ALGORITHMS = ("zoom", "zoom_pb", "dsgd")
ESTIMATORS = ("forward", "central")

# Any iterate entry beyond this magnitude aborts the run: a mis-set step
# size with the powerball transform can overflow, and we fail loudly.
DIVERGENCE_LIMIT = 1e12

class DivergenceError(RuntimeError):
    """An agent iterate went non-finite or beyond the divergence guard."""

    def __init__(self, k: int, agent: int):
        super().__init__(f"iterate diverged at iteration {k} on agent {agent}")
        self.k = k
        self.agent = agent


@dataclass(frozen=True)
class HyperParams:
    """The algorithm, step sizes and estimator settings of one run.

    ``algorithm`` is one of :data:`ALGORITHMS` (see :func:`step`).  An unset
    ``gamma`` is 0.7 for ``"zoom_pb"`` and 1.0 otherwise.  ``alpha`` must lie
    inside ``(0, alpha_max)`` of the run's topology; that is enforced by
    :func:`run` where the spectral profile is known.  Values of ``gamma``
    outside ``[1/2, 1]`` are accepted for robustness experiments but
    flagged, since the convergence guarantees do not cover them.
    """

    alpha: float
    eta: float
    T: int
    algorithm: str = "zoom"
    gamma: float | None = None
    n_c: int = 1
    estimator: str = "forward"
    smoothing: SmoothingSchedule = field(default_factory=SmoothingSchedule)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.gamma is None:
            object.__setattr__(self, "gamma", 0.7 if self.algorithm == "zoom_pb" else 1.0)
        for name in ("alpha", "eta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        if self.T < 0:
            raise ValueError("horizon T must be nonnegative")
        if self.n_c < 1:
            raise ValueError("n_c must be at least 1")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if not 0.5 <= self.gamma <= 1.0:
            warnings.warn(
                f"gamma={self.gamma} lies outside [0.5, 1], the range covered by the "
                "convergence guarantees",
                RuntimeWarning,
                stacklevel=3,  # past the dataclass-generated __init__ to its caller
            )


@dataclass(frozen=True)
class SwarmState:
    """Iterate matrix at round ``k``; row ``i`` is agent ``i``'s point."""

    iterates: np.ndarray
    k: int

    @property
    def mean_iterate(self) -> np.ndarray:
        return self.iterates.mean(axis=0)


@dataclass
class RunStreams:
    """A run's data and coordinate streams: ``SeedSequence(master_seed).spawn(2)``.

    ``data`` yields one block of realizations per round through
    ``problem.sample_round``, the same draws as the agents' ``sample`` calls
    in index order; ``coords`` yields one coordinate block per round.
    Neither depends on the agent count.
    """

    data: np.random.Generator
    coords: np.random.Generator

    @classmethod
    def from_seed(cls, master_seed: int) -> "RunStreams":
        data, coords = np.random.SeedSequence(master_seed).spawn(2)
        return cls(data=np.random.default_rng(data), coords=np.random.default_rng(coords))


@dataclass(frozen=True)
class Trajectory:
    """Immutable result of one run: metric records plus the final state."""

    records: tuple[IterationRecord, ...]
    final_state: SwarmState
    params: HyperParams
    seed: int
    final_accuracy: float | None = None


def powerball(v: np.ndarray, gamma: float) -> np.ndarray:
    """Signed power transform ``sgn(v_j) |v_j|^gamma``, elementwise."""
    v = np.asarray(v, dtype=float)
    if gamma == 1.0:
        return v.copy()  # exact identity keeps the gamma=1 reduction bit-identical
    return np.sign(v) * np.abs(v) ** gamma


def step(
    state: SwarmState,
    profile: SpectralProfile,
    params: HyperParams,
    problem,
    streams: RunStreams,
) -> SwarmState:
    """One synchronous round of ``params.algorithm``; every agent reads only round-k data.

    ``"zoom_pb"`` passes the estimates through :func:`powerball`, ``"zoom"``
    uses them as is, and ``"dsgd"`` replaces them with the analytic
    stochastic gradient.  The round draws one coordinate block and one
    ``problem.sample_round`` block of realizations, and the transform runs
    once on the whole steps matrix.  Replaying the coordinate block, then
    the agents' data draws in index order, from a second ``RunStreams``
    reproduces the round.
    """
    iterates = state.iterates
    n, p = iterates.shape
    # The estimator helpers stay module-global lookups so they can be patched.
    evaluate = problem.evaluate
    algorithm = params.algorithm
    zeroth_order = algorithm != "dsgd"
    coords = sample_coordinates(n, p, params.n_c, streams.coords) if zeroth_order else None
    draws = problem.sample_round(streams.data)
    estimate = forward_estimate if params.estimator == "forward" else central_estimate
    delta = params.smoothing.delta(p, n, state.k)
    steps = np.empty_like(iterates)
    for i in range(n):
        row = iterates[i]
        xi = draws[i]
        if zeroth_order:
            steps[i] = estimate(
                lambda z, agent=i, realization=xi: evaluate(agent, z, realization),
                row,
                coords[i],
                delta,
            )
        else:
            steps[i] = problem.stochastic_gradient(i, row, xi)
    if algorithm == "zoom_pb":
        steps = powerball(steps, params.gamma)  # elementwise: the same bits as row by row
    # elementwise the same arithmetic as updating one row at a time
    nxt = iterates - params.alpha * (profile.laplacian @ iterates) - params.eta * steps
    if not np.abs(nxt).max() <= DIVERGENCE_LIMIT:  # also true when nxt holds a NaN
        bad = ~np.isfinite(nxt) | (np.abs(nxt) > DIVERGENCE_LIMIT)
        raise DivergenceError(k=state.k, agent=int(np.argwhere(bad)[0][0]))
    return SwarmState(nxt, state.k + 1)


def theorem_schedule(
    n_agents: int, p: int, T: int, kappa_delta: float = 1.0
) -> tuple[float, SmoothingSchedule]:
    """Gradient step and smoothing decay prescribed by the convergence analysis.

    Returns ``eta = sqrt(n) / sqrt(p T)`` and a decaying schedule that meets
    the smoothing cap with equality.  Warns (without rejecting) when the
    horizon falls below ``n^3 / p``, the premise the prescribed rates assume.
    """
    if min(n_agents, p, T) < 1:
        raise ValueError("n_agents, p and T must all be positive")
    if T < n_agents**3 / p:
        warnings.warn(
            f"horizon T={T} is below n^3/p = {n_agents ** 3 / p:g}; "
            "the prescribed rates assume a longer run",
            RuntimeWarning,
            stacklevel=2,
        )
    eta = math.sqrt(n_agents) / math.sqrt(p * T)
    return eta, SmoothingSchedule(kappa_delta=kappa_delta, mode="theorem_decay")


def run(
    topo: Topology,
    problem,
    params: HyperParams,
    seed: int = 0,
    record_every: int = 10,
) -> Trajectory:
    """Execute ``params.T`` synchronous rounds from the origin and record metrics.

    Fully deterministic given ``seed``: all randomness flows through the
    two :class:`RunStreams` spawned from it.  Records are captured at
    iteration 0, every ``record_every`` rounds, and at the final round.

    Args:
        topo: connected communication graph; disconnected graphs are
            rejected because the dynamics assume connectivity.
        problem: a :class:`~zoswarm.problems.StochasticProblem` with
            ``local_count == topo.n``.
        params: the algorithm and its hyperparameters; ``alpha`` must lie
            in the open interval ``(0, alpha_max)`` of this topology's
            spectrum.
        seed: master seed for the run.
        record_every: metric recording cadence (iterations).

    Returns:
        A :class:`Trajectory` of records plus the final swarm state.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if not is_connected(topo):
        raise ValueError("communication graph must be connected")
    if problem.local_count != topo.n:
        raise ValueError(
            f"problem carries {problem.local_count} agents but the topology has {topo.n}"
        )
    profile = laplacian_spectrum(topo)
    if not 0.0 < params.alpha < profile.alpha_max:
        raise ValueError(
            f"alpha={params.alpha} must lie in (0, {profile.alpha_max:g}) for this topology"
        )
    n, p = topo.n, problem.dimension
    streams = RunStreams.from_seed(seed)

    if params.algorithm == "dsgd":
        calls_per_round = n
    elif params.estimator == "forward":
        calls_per_round = n * (params.n_c + 1)
    else:
        calls_per_round = n * 2 * params.n_c

    started = time.perf_counter()
    state = SwarmState(np.zeros((n, p)), 0)
    records = [capture_record(problem, state.iterates, 0, params.gamma, 0, 0.0)]
    for k in range(params.T):
        state = step(state, profile, params, problem, streams)
        done = k + 1
        if done % record_every == 0 or done == params.T:
            wall_ms = (time.perf_counter() - started) * 1000.0
            records.append(
                capture_record(
                    problem, state.iterates, done, params.gamma, done * calls_per_round, wall_ms
                )
            )
    final_accuracy = problem.test_accuracy(state.mean_iterate)
    return Trajectory(
        records=tuple(records),
        final_state=state,
        params=params,
        seed=seed,
        final_accuracy=final_accuracy,
    )
