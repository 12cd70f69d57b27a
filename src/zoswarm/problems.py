"""Stochastic black-box objectives split across agents.

Two problem families live here: the synthetic non-linear least-squares
binary classification benchmark, and a quadratic toy with a known minimizer
used as a test oracle.  Both expose full-batch gradients and losses for the
diagnostics; the algorithms only ever see function values.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StochasticProblem",
    "ClassificationDataset",
    "ClassificationProblem",
    "QuadraticToyProblem",
    "sigmoid",
    "make_synthetic_classification",
    "make_quadratic_toy",
    "accuracy",
]


def sigmoid(t):
    """Overflow-safe logistic function, elementwise.

    ``exp(-|t|)`` never overflows and is ``exp(-t)`` for ``t >= 0`` and
    ``exp(t)`` below, so each branch computes what a masked evaluation of
    ``1 / (1 + exp(-t))`` and ``exp(t) / (1 + exp(t))`` would, bit for bit.
    """
    arr = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


class StochasticProblem(ABC):
    """Black-box objective ``f(x) = (1/n) sum_i E_xi[F_i(x, xi)]``.

    Subclasses set ``dimension`` and ``local_count`` and implement
    ``sample``, ``evaluate``, ``true_local_gradient`` and ``local_loss``.
    ``evaluate`` is the only thing the dynamics query, and it must be
    deterministic given ``(agent, x, xi)`` so that several probes within one
    gradient estimate share the same realization.  The ``true_*`` gradients
    and full-batch losses are simulator privileges used only for diagnostics.
    """

    dimension: int
    local_count: int

    @abstractmethod
    def sample(self, agent: int, rng: np.random.Generator):
        """Draw one realization ``xi`` for this agent from ``rng``."""

    def sample_round(self, rng: np.random.Generator):
        """One round's realizations, indexable by agent: ``sample(i, rng)`` in index order.

        Overrides may draw the whole round in one call, but must return the
        same values and leave ``rng`` in the same state as this default.
        """
        return [self.sample(i, rng) for i in range(self.local_count)]

    @abstractmethod
    def evaluate(self, agent: int, x: np.ndarray, xi) -> float:
        """Single-sample value ``F_agent(x, xi)``.

        The estimators call this once per probe and may pass a buffer they
        reuse for the next probe, so do not keep a reference to ``x``.
        """

    @abstractmethod
    def true_local_gradient(self, agent: int, x: np.ndarray) -> np.ndarray:
        """Full-batch gradient of ``f_agent`` at ``x``."""

    @abstractmethod
    def local_loss(self, agent: int, x: np.ndarray) -> float:
        """Full-batch value of ``f_agent`` at ``x``."""

    def true_global_gradient(self, x: np.ndarray) -> np.ndarray:
        grads = [self.true_local_gradient(i, x) for i in range(self.local_count)]
        return np.mean(grads, axis=0)

    def full_loss(self, x: np.ndarray) -> float:
        return float(np.mean([self.local_loss(i, x) for i in range(self.local_count)]))

    def test_accuracy(self, x: np.ndarray) -> float | None:
        """Held-out accuracy at ``x``, or ``None`` when there is no test set."""
        return None

    def optimal_value(self) -> float | None:
        """``f*`` when known analytically, else ``None``."""
        return None


@dataclass(frozen=True)
class ClassificationDataset:
    """Synthetic binary classification data plus its per-agent partition.

    Labels follow the generating rule ``y = 1`` iff the logistic response at
    the all-ones reference vector is at least one half, which for standard
    normal features is the same as the feature sum being nonnegative.
    ``shard_bounds[i] = (start, stop)`` is agent ``i``'s contiguous block of
    training indices.  The shards partition the training set in order:
    non-empty, each starting where the one before stops, the first at 0 and
    the last stopping at ``n_train``.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    shard_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # the full-batch diagnostics sum each shard from its start to the next
        # shard's, which miscounts silently unless the shards tile the set
        if not self.shard_bounds:
            raise ValueError("a dataset needs at least one shard")
        expected = 0
        for agent, (start, stop) in enumerate(self.shard_bounds):
            if start != expected:
                raise ValueError(
                    f"shard {agent} is ({start}, {stop}) but must start at {expected}: "
                    "shards partition the training set in order"
                )
            if stop <= start:
                raise ValueError(f"shard {agent} is ({start}, {stop}) and holds no sample")
            expected = stop
        if expected != self.n_train:
            raise ValueError(
                f"shard {len(self.shard_bounds) - 1} stops at {expected}, "
                f"not at n_train = {self.n_train}"
            )

    @property
    def d(self) -> int:
        return self.train_features.shape[1]

    @property
    def n_train(self) -> int:
        return self.train_features.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_features.shape[0]

    @property
    def n_agents(self) -> int:
        return len(self.shard_bounds)

    def shard_slice(self, agent: int) -> slice:
        start, stop = self.shard_bounds[agent]
        return slice(start, stop)


def make_synthetic_classification(
    n_train: int = 2000,
    n_test: int = 200,
    d: int = 100,
    n_agents: int = 10,
    seed: int = 0,
) -> ClassificationDataset:
    """Generate the synthetic benchmark dataset.

    Features are i.i.d. standard normal; labels come from thresholding the
    logistic response at the all-ones vector.  Training indices are split
    into ``n_agents`` contiguous shards of equal size, any remainder going
    to the last agent.  Deterministic per seed.
    """
    if min(n_train, n_test, d, n_agents) < 1:
        raise ValueError("all dataset sizes must be positive")
    if n_agents > n_train:
        raise ValueError("cannot shard fewer training samples than agents")
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((n_train, d))
    test = rng.standard_normal((n_test, d))
    reference = np.ones(d)
    train_labels = (sigmoid(train @ reference) >= 0.5).astype(np.int64)
    test_labels = (sigmoid(test @ reference) >= 0.5).astype(np.int64)
    base = n_train // n_agents
    bounds = tuple(
        (i * base, (i + 1) * base if i < n_agents - 1 else n_train) for i in range(n_agents)
    )
    return ClassificationDataset(train, train_labels, test, test_labels, bounds)


def _nlls_gradient_over(features: np.ndarray, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    phi = sigmoid(features @ x)
    coef = -2.0 * (labels - phi) * phi * (1.0 - phi)
    return coef @ features / labels.size


def _nlls_loss_over(features: np.ndarray, labels: np.ndarray, x: np.ndarray) -> float:
    phi = sigmoid(features @ x)
    return float(np.mean((labels - phi) ** 2))


def accuracy(dataset: ClassificationDataset, x: np.ndarray) -> float:
    """Fraction of test samples whose thresholded response matches the label.

    Responses exactly at one half classify as positive, matching the
    generation rule.
    """
    predicted = sigmoid(dataset.test_features @ x) >= 0.5
    return float(np.mean(predicted == (dataset.test_labels == 1)))


class ClassificationProblem(StochasticProblem):
    """Stochastic view of the classification benchmark, batch size 1.

    A realization ``xi`` is a uniformly drawn training index from the
    agent's own shard (with replacement across iterations).
    """

    def __init__(self, dataset: ClassificationDataset):
        self.dataset = dataset
        self.dimension = dataset.d
        self.local_count = dataset.n_agents
        self._features = dataset.train_features
        self._labels = dataset.train_labels.astype(float)
        self._shards = tuple(dataset.shard_slice(i) for i in range(self.local_count))
        self._starts = np.array([sl.start for sl in self._shards])
        self._stops = np.array([sl.stop for sl in self._shards])
        self._sizes = self._stops - self._starts
        # a row's weight in the mean over agents of their shard means
        self._row_weight = np.repeat(1.0 / (self._sizes * self.local_count), self._sizes)
        # (x bytes, responses) of the last full-batch pass: a record asks for the
        # gradient and the loss at the same point.
        self._last_responses: tuple[bytes, np.ndarray] | None = None

    def sample(self, agent: int, rng: np.random.Generator) -> int:
        sl = self._shards[agent]
        return int(rng.integers(sl.start, sl.stop))

    def sample_round(self, rng: np.random.Generator) -> np.ndarray:
        # elementwise bounds draw what per-agent scalar calls draw, in that order
        return rng.integers(self._starts, self._stops)

    def evaluate(self, agent: int, x: np.ndarray, xi: int) -> float:
        # the squared logistic residual (y - phi(a . x))^2 of one sampled pair, with
        # a scalar sigmoid inlined: math.exp beats np.exp on this per-probe hot path
        t = float(self._features[xi].dot(x))
        if t >= 0.0:
            phi = 1.0 / (1.0 + math.exp(-t))
        else:
            e = math.exp(t)
            phi = e / (1.0 + e)
        return (float(self._labels[xi]) - phi) ** 2

    def true_local_gradient(self, agent: int, x: np.ndarray) -> np.ndarray:
        sl = self._shards[agent]
        return _nlls_gradient_over(self._features[sl], self._labels[sl], x)

    def local_loss(self, agent: int, x: np.ndarray) -> float:
        sl = self._shards[agent]
        return _nlls_loss_over(self._features[sl], self._labels[sl], x)

    # The full-batch diagnostics make one pass over the whole training set,
    # which the shards partition in order (ClassificationDataset checks it):
    # one product for the responses, shard sums at the shard starts and one
    # weighted product for the gradient.  They agree with the per-agent
    # base-class versions up to summation order.

    def _responses(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        last = self._last_responses
        if last is not None and last[0] == key:
            return last[1]
        phi = sigmoid(self._features @ x)
        self._last_responses = (key, phi)
        return phi

    def true_global_gradient(self, x: np.ndarray) -> np.ndarray:
        phi = self._responses(x)
        coef = -2.0 * (self._labels - phi) * phi * (1.0 - phi)
        return (coef * self._row_weight) @ self._features

    def full_loss(self, x: np.ndarray) -> float:
        residual_sq = (self._labels - self._responses(x)) ** 2
        return float(np.mean(np.add.reduceat(residual_sq, self._starts) / self._sizes))

    def test_accuracy(self, x: np.ndarray) -> float | None:
        return accuracy(self.dataset, x)


class QuadraticToyProblem(StochasticProblem):
    """Per-agent quadratics ``f_i(x) = 0.5 ||x - c_i||^2`` with a known optimum.

    The stochastic oracle is ``F_i(x, z) = f_i(x) + z . (x - c_i)`` with
    ``z ~ N(0, zeta^2 I)``, so each coordinate of the per-sample gradient
    ``(x - c_i) + z`` deviates from the true one with standard deviation
    exactly ``zeta``.  A plain additive noise term would cancel in finite
    differences and leave the gradients noiseless, which is not what a
    variance knob is for.
    The global minimizer is the centroid of the centers.
    """

    def __init__(self, centers: np.ndarray, zeta: float = 0.0):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2:
            raise ValueError("centers must be an (n_agents, p) matrix")
        if not (math.isfinite(zeta) and zeta >= 0.0):
            raise ValueError(f"noise level zeta must be finite and nonnegative, got {zeta}")
        self.centers = centers
        self.zeta = float(zeta)
        self.local_count, self.dimension = centers.shape

    def sample(self, agent: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dimension) * self.zeta

    def sample_round(self, rng: np.random.Generator) -> np.ndarray:
        # a block fills row by row, drawing what per-agent calls draw
        return rng.standard_normal((self.local_count, self.dimension)) * self.zeta

    def evaluate(self, agent: int, x: np.ndarray, z: np.ndarray) -> float:
        diff = x - self.centers[agent]
        return float((0.5 * diff).dot(diff) + z.dot(diff))

    def true_local_gradient(self, agent: int, x: np.ndarray) -> np.ndarray:
        return x - self.centers[agent]

    def local_loss(self, agent: int, x: np.ndarray) -> float:
        diff = x - self.centers[agent]
        return float(0.5 * diff @ diff)

    # Vectorized over agents; each row product and the mean over agents run
    # in the order of the per-agent base-class versions, bit for bit.

    def true_global_gradient(self, x: np.ndarray) -> np.ndarray:
        return np.mean(x - self.centers, axis=0)

    def full_loss(self, x: np.ndarray) -> float:
        diffs = x - self.centers
        return float(np.mean(np.vecdot(0.5 * diffs, diffs)))

    def centroid(self) -> np.ndarray:
        return self.centers.mean(axis=0)

    def optimal_value(self) -> float:
        c = self.centroid()
        return float(np.mean([0.5 * np.sum((c - ci) ** 2) for ci in self.centers]))


def make_quadratic_toy(
    n_agents: int = 5, p: int = 10, seed: int = 0, zeta: float = 0.0
) -> QuadraticToyProblem:
    """Build a quadratic toy whose centers are seeded standard normals."""
    if p < 1 or n_agents < 1:
        raise ValueError("n_agents and p must be positive")
    centers = np.random.default_rng(seed).standard_normal((n_agents, p))
    return QuadraticToyProblem(centers, zeta=zeta)
