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

from ._checks import check_choice, check_integer, check_number
from .estimator import (
    OracleEvaluationError,
    SmoothingSchedule,
    central_estimate,
    forward_estimate,
    sample_coordinates,
)
from .graph import Topology, is_connected, laplacian_product, laplacian_spectrum
from .metrics import IterationRecord, capture_record

__all__ = [
    "HyperParams",
    "SwarmState",
    "RunStreams",
    "Trajectory",
    "DivergenceError",
    "ALGORITHMS",
    "RECORD_EVERY",
    "powerball",
    "step",
    "theorem_schedule",
    "run",
]

ALGORITHMS = ("zoom", "zoom_pb")
ESTIMATORS = ("forward", "central")

# The powerball exponents a run takes, and the part, low to high, that the
# convergence guarantees cover.
GAMMA_RANGE = "(0, inf)"
GAMMA_GUARANTEE = (0.5, 1.0)

# Rounds between metric records when a run does not say.
RECORD_EVERY = 10

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
    outside :data:`GAMMA_GUARANTEE` are accepted for robustness experiments
    but flagged, since the convergence guarantees do not cover them.
    Once checked, ``alpha``, ``eta`` and ``gamma`` are kept as Python floats,
    ``T`` and ``n_c`` as Python ints.
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
        check_choice("algorithm", self.algorithm, ALGORITHMS)
        if self.gamma is None:
            object.__setattr__(self, "gamma", 0.7 if self.algorithm == "zoom_pb" else 1.0)
        for name, interval in (("alpha", "[0, inf)"), ("eta", "[0, inf)"), ("gamma", GAMMA_RANGE)):
            value = getattr(self, name)
            check_number(name, value, interval)
            # as a float, a Fraction cannot turn the iterates into an object array
            object.__setattr__(self, name, float(value))
        for name, least in (("T", 0), ("n_c", 1)):
            value = getattr(self, name)
            check_integer(name, value, least)
            # as an int, an np.int8 cannot wrap the oracle-call count
            object.__setattr__(self, name, int(value))
        check_choice("estimator", self.estimator, ESTIMATORS)
        low, high = GAMMA_GUARANTEE
        if not low <= self.gamma <= high:
            warnings.warn(
                f"gamma={self.gamma} lies outside [{low:g}, {high:g}], the range covered "
                "by the convergence guarantees",
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
    """Signed power transform ``sgn(v_j) |v_j|^gamma``, elementwise.

    Zero entries stay zero without a call to ``pow``, as ``0^gamma = 0``
    for the positive ``gamma`` a run takes: an estimate is zero outside its
    ``n_c`` sampled coordinates.
    """
    v = np.asarray(v, dtype=float)
    if gamma == 1.0:
        return v.copy()  # exact identity keeps the gamma=1 reduction bit-identical
    magnitude = np.abs(v, out=np.empty_like(v))  # an array also for a 0-d v
    # ** on the gathered entries takes the same power path as on the full array
    magnitude[magnitude != 0.0] **= gamma
    return np.multiply(np.sign(v), magnitude, out=magnitude)


def step(
    state: SwarmState,
    topo: Topology,
    params: HyperParams,
    problem,
    streams: RunStreams,
) -> SwarmState:
    """One synchronous round of ``params.algorithm``; every agent reads only round-k data.

    ``"zoom_pb"`` passes the estimates through :func:`powerball` and
    ``"zoom"`` uses them as is.  The round draws one coordinate block and one
    ``problem.sample_round`` block of realizations, and the transform runs
    once on the whole steps matrix.  Replaying the coordinate block, then
    the agents' data draws in index order, from a second ``RunStreams``
    reproduces the round.  A ``sample_round`` block that does not hold one
    realization per agent is a ``ValueError`` naming the round.  An oracle
    value the estimator rejects, or an exception ``evaluate`` raises itself,
    is an :class:`~zoswarm.estimator.OracleEvaluationError` naming the agent
    and the round, chained from the first failure.
    """
    iterates = state.iterates
    n, p = iterates.shape
    # row i of L @ X sums agent i's neighbour table in a fixed order without
    # BLAS: elementwise the same arithmetic as updating one row at a time.  It
    # is taken first, so its gathered blocks never sit beside the round's draws.
    mixed = laplacian_product(topo, iterates)
    # The estimator helpers stay module-global lookups so they can be patched.
    evaluate = problem.evaluate
    coords = sample_coordinates(n, p, params.n_c, streams.coords)
    draws = problem.sample_round(streams.data)
    if len(draws) != n:  # the zip below would leave rows of steps unwritten
        raise ValueError(
            f"sample_round returned {len(draws)} realizations for {n} agents "
            f"at iteration {state.k}"
        )
    estimate = forward_estimate if params.estimator == "forward" else central_estimate
    delta = params.smoothing.delta(p, n, state.k)
    steps = np.empty_like(iterates)
    try:
        for i, (x, realization, sample) in enumerate(zip(iterates, draws, coords)):
            def oracle(z, agent=i, realization=realization):
                try:  # costs nothing until it raises
                    return evaluate(agent, z, realization)
                except Exception as exc:  # the problem's own failure; its type is not kept
                    raise OracleEvaluationError(f"oracle raised {exc!r}") from exc
            steps[i] = estimate(oracle, x, sample, delta)
    except OracleEvaluationError as exc:  # chained from the first failure
        raise OracleEvaluationError(
            f"{exc} at iteration {state.k} on agent {i}",
            coordinate=exc.coordinate,
            agent=i,
            k=state.k,
        ) from exc.__cause__ or exc
    if params.algorithm == "zoom_pb":
        steps = powerball(steps, params.gamma)  # elementwise: the same bits as row by row
    nxt = iterates - params.alpha * mixed - params.eta * steps
    if not np.abs(nxt).max() <= DIVERGENCE_LIMIT:  # also true when nxt holds a NaN
        bad = ~np.isfinite(nxt) | (np.abs(nxt) > DIVERGENCE_LIMIT)
        raise DivergenceError(k=state.k, agent=int(np.argwhere(bad)[0][0]))
    return SwarmState(nxt, state.k + 1)


def theorem_schedule(n_agents: int, p: int, T: int) -> float:
    """Gradient step ``eta = sqrt(n) / sqrt(p T)`` prescribed by the convergence analysis.

    The analysis's smoothing is ``SmoothingSchedule()``, the default of
    :class:`HyperParams`, which meets the smoothing cap with equality.  Warns
    (without rejecting) when the horizon falls below ``n^3 / p``, the premise
    the prescribed rates assume.
    """
    for name, value in (("n_agents", n_agents), ("p", p), ("T", T)):
        check_integer(name, value, 1)
    if T < n_agents**3 / p:
        warnings.warn(
            f"horizon T={T} is below n^3/p = {n_agents ** 3 / p:g}; "
            "the prescribed rates assume a longer run",
            RuntimeWarning,
            stacklevel=2,
        )
    return math.sqrt(n_agents) / math.sqrt(p * T)


def run(
    topo: Topology,
    problem,
    params: HyperParams,
    seed: int = 0,
    record_every: int = RECORD_EVERY,
) -> Trajectory:
    """Execute ``params.T`` synchronous rounds from the origin and record metrics.

    Fully deterministic given ``seed``: all randomness flows through the
    two :class:`RunStreams` spawned from it.  Records are captured at
    iteration 0, every ``record_every`` rounds, and at the final round.

    Args:
        topo: connected communication graph; disconnected graphs are
            rejected because the dynamics assume connectivity.
        problem: a :class:`~zoswarm.problems.StochasticProblem` whose
            ``dimension`` and ``local_count`` are positive integers, with
            ``local_count == topo.n``.
        params: the algorithm and its hyperparameters; ``alpha`` must lie
            in the open interval ``(0, alpha_max)`` of this topology's
            spectrum.
        seed: master seed for the run, an integer of at least 0.
        record_every: metric recording cadence (iterations).

    Returns:
        A :class:`Trajectory` of records, the final state and its test accuracy.
    """
    check_integer("record_every", record_every, 1)
    check_integer("seed", seed, 0)
    if not is_connected(topo):
        raise ValueError("communication graph must be connected")
    for name in ("dimension", "local_count"):
        check_integer(f"problem.{name}", getattr(problem, name), 1)
    if problem.local_count != topo.n:
        raise ValueError(
            f"problem carries {problem.local_count} agents but the topology has {topo.n}"
        )
    # repr keeps every digit, so the interval's end is this topology's alpha_max exactly
    check_number("alpha", params.alpha, f"(0, {laplacian_spectrum(topo).alpha_max!r})")
    n, p = topo.n, problem.dimension
    streams = RunStreams.from_seed(seed)

    calls_per_round = n * (params.n_c + 1 if params.estimator == "forward" else 2 * params.n_c)

    started = time.perf_counter()
    state = SwarmState(np.zeros((n, p)), 0)
    records = [capture_record(problem, state.iterates, 0, params.gamma, 0, 0.0)]
    for k in range(params.T):
        state = step(state, topo, params, problem, streams)
        done = k + 1
        if done % record_every == 0 or done == params.T:
            wall_ms = (time.perf_counter() - started) * 1000.0
            records.append(
                capture_record(
                    problem, state.iterates, done, params.gamma, done * calls_per_round, wall_ms
                )
            )
    final_accuracy = problem.test_accuracy(state.mean_iterate)
    if final_accuracy is not None:
        check_number(f"test_accuracy at iteration {params.T}", final_accuracy, "[0, 1]")
        final_accuracy = float(final_accuracy)
    return Trajectory(tuple(records), state, params, seed, final_accuracy)
