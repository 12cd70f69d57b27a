"""The one integer rule, at every entry point that takes a count, size, index or seed.

Each entry point rejects ``True``, ``2.0``, ``"3"`` and the value just below
its minimum with ``ValueError: <name> must be an integer of at least
<least>, got <value!r>`` before it draws, writes or runs a round, and it
takes a numpy integer at the minimum.
"""

import re

import numpy as np
import pytest

from zoswarm.dynamics import HyperParams, run, theorem_schedule
from zoswarm.estimator import CoordinateSample
from zoswarm.graph import Topology, erdos_renyi, laplacian_spectrum
from zoswarm.problems import (
    ClassificationProblem,
    StochasticProblem,
    make_quadratic_toy,
    make_synthetic_classification,
)

TOPO = erdos_renyi(4, 1.0)
PARAMS = HyperParams(alpha=0.5 * laplacian_spectrum(TOPO).alpha_max, eta=0.01, T=3)


class Untouchable(StochasticProblem):
    """A problem of the given sizes whose every method fails the test if a run calls it."""

    def __init__(self, dimension=3, local_count=4):
        self.dimension, self.local_count = dimension, local_count

    def sample(self, agent, rng):
        raise AssertionError("a draw was made")

    def sample_round(self, rng):
        raise AssertionError("a round was drawn")

    def evaluate(self, agent, x, xi):
        raise AssertionError("the oracle was called")

    def true_global_gradient(self, x):
        raise AssertionError("a record was taken")

    def full_loss(self, x):
        raise AssertionError("a record was taken")


def shards(bound):
    """A two-agent classification problem whose first shard starts at ``bound``."""
    return ClassificationProblem(
        np.zeros((6, 2)),
        np.zeros(6, dtype=np.int64),
        np.zeros((4, 2)),
        np.zeros(4, dtype=np.int64),
        ((bound, 3), (3, 6)),
    )


# entry point -> (the name its error gives, the least value it takes, a call with the value)
ENTRY_POINTS = {
    "HyperParams.T": ("T", 0, lambda v: HyperParams(alpha=0.1, eta=0.1, T=v)),
    "HyperParams.n_c": ("n_c", 1, lambda v: HyperParams(alpha=0.1, eta=0.1, T=3, n_c=v)),
    "run.record_every": (
        "record_every", 1, lambda v: run(TOPO, Untouchable(), PARAMS, record_every=v)
    ),
    "run.seed": ("seed", 0, lambda v: run(TOPO, Untouchable(), PARAMS, seed=v)),
    "run.problem.dimension": (
        "problem.dimension", 1, lambda v: run(TOPO, Untouchable(dimension=v), PARAMS)
    ),
    "run.problem.local_count": (
        "problem.local_count", 1, lambda v: run(TOPO, Untouchable(local_count=v), PARAMS)
    ),
    "theorem_schedule.n_agents": ("n_agents", 1, lambda v: theorem_schedule(v, 3, 5)),
    "theorem_schedule.p": ("p", 1, lambda v: theorem_schedule(1, v, 5)),
    "theorem_schedule.T": ("T", 1, lambda v: theorem_schedule(1, 3, v)),
    "Topology.n": ("n", 1, lambda v: Topology(v, np.zeros((1, 1)))),
    "erdos_renyi.n": ("n", 2, lambda v: erdos_renyi(v, 0.5)),
    "erdos_renyi.seed": ("seed", 0, lambda v: erdos_renyi(3, 0.5, seed=v)),
    "ClassificationProblem.shard_bounds": ("shard_bounds[0][0]", 0, shards),
    "make_synthetic_classification.n_train": (
        "n_train", 1, lambda v: make_synthetic_classification(n_train=v, n_agents=1)
    ),
    "make_synthetic_classification.n_test": (
        "n_test", 1, lambda v: make_synthetic_classification(n_test=v)
    ),
    "make_synthetic_classification.d": ("d", 1, lambda v: make_synthetic_classification(d=v)),
    "make_synthetic_classification.n_agents": (
        "n_agents", 1, lambda v: make_synthetic_classification(n_agents=v)
    ),
    "make_synthetic_classification.seed": (
        "seed", 0, lambda v: make_synthetic_classification(seed=v)
    ),
    "make_quadratic_toy.n_agents": ("n_agents", 1, lambda v: make_quadratic_toy(n_agents=v)),
    "make_quadratic_toy.p": ("p", 1, lambda v: make_quadratic_toy(p=v)),
    "make_quadratic_toy.seed": ("seed", 0, lambda v: make_quadratic_toy(seed=v)),
    "CoordinateSample": ("coordinate index", 0, lambda v: CoordinateSample((5, v))),
}


@pytest.fixture
def no_draws(monkeypatch):
    """Make every seeded numpy generator a test failure for the test's duration."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_integer_is_checked_by_the_one_rule(entry, no_draws):
    name, least, call = ENTRY_POINTS[entry]
    for value in (True, 2.0, "3", least - 1):
        message = f"{name} must be an integer of at least {least}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    # a numpy integer at the minimum passes the rule; the call may then fail
    # on something else, such as the forbidden draw
    try:
        call(np.int64(least))
    except Exception as exc:
        assert not str(exc).startswith(f"{name} must be an integer")
