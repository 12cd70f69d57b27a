"""Stochastic black-box objectives split across agents.

Two problem families live here: the synthetic non-linear least-squares
binary classification benchmark, and a quadratic toy with a known minimizer
used as a test oracle.  Both expose full-batch gradients and losses for the
diagnostics; the algorithms only ever see function values.  Their full-batch
methods check the point ``x`` by the array rule as a vector of ``dimension``
entries; a 1-D float64 one, which is what a run passes, is not scanned.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ._checks import check_array, check_integer, check_number, check_point

__all__ = [
    "StochasticProblem",
    "ClassificationProblem",
    "QuadraticToyProblem",
    "sigmoid",
    "make_synthetic_classification",
    "make_quadratic_toy",
]


def sigmoid(t):
    """Overflow-safe logistic function, elementwise.

    ``exp(-|t|)`` never overflows and is ``exp(-t)`` for ``t >= 0`` and
    ``exp(t)`` below, so one division of ``1`` or ``e`` by ``1 + e``
    computes what a masked evaluation of ``1 / (1 + exp(-t))`` and
    ``exp(t) / (1 + exp(t))`` would, bit for bit.
    """
    arr = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


class StochasticProblem(ABC):
    """Black-box objective ``f(x) = (1/n) sum_i E_xi[F_i(x, xi)]``.

    Subclasses set ``dimension`` and ``local_count`` and implement
    ``sample``, ``evaluate``, ``true_global_gradient`` and ``full_loss``.
    ``evaluate`` is the only thing the dynamics query, and it must be
    deterministic given ``(agent, x, xi)`` so that several probes within one
    gradient estimate share the same realization.  The full-batch gradient
    and loss are simulator privileges used only for diagnostics.
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
        """Single-sample value ``F_agent(x, xi)``, a finite number.

        The estimators call this once per probe and may pass a buffer they
        reuse for the next probe, so do not keep a reference to ``x``.
        """

    @abstractmethod
    def true_global_gradient(self, x: np.ndarray) -> np.ndarray:
        """Full-batch gradient of ``f`` at ``x``."""

    @abstractmethod
    def full_loss(self, x: np.ndarray) -> float:
        """Full-batch value of ``f`` at ``x``, a finite number."""

    def test_accuracy(self, x: np.ndarray) -> float | None:
        """Held-out accuracy at ``x``, a number in ``[0, 1]``, or ``None`` without a test set."""
        return None

    def optimal_value(self) -> float | None:
        """``f*`` when known analytically, else ``None``."""
        return None


class ClassificationProblem(StochasticProblem):
    """Synthetic binary classification split across agents, batch size 1.

    Labels follow the generating rule ``y = 1`` iff the logistic response at
    the all-ones reference vector is at least one half, which for standard
    normal features is the same as the feature sum being nonnegative.
    ``shard_bounds[i] = (start, stop)`` is agent ``i``'s contiguous block of
    training indices.  The shards partition the training set in order:
    non-empty, each starting where the one before stops, the first at 0 and
    the last stopping at ``n_train``.  A realization ``xi`` is a uniformly
    drawn training index from the agent's own shard (with replacement
    across iterations).  The features are finite real arrays, the labels 1-D
    arrays of 0s and 1s, one per row.  The problem keeps read-only float64
    copies of the four, so a later write to the caller's arrays changes nothing.
    """

    def __init__(self, train_features, train_labels, test_features, test_labels, shard_bounds):
        arrays = (train_features, train_labels, test_features, test_labels)
        self._keep(*arrays, shard_bounds, copy=True)

    def _keep(self, train_features, train_labels, test_features, test_labels, shard_bounds, copy):
        """Check the data and keep it read-only: copies, or the arrays if nobody else holds them."""
        train_features = check_array("train_features", train_features, ("n_train", "d"))
        n_train, d = train_features.shape
        test_features = check_array("test_features", test_features, ("n_test", d))
        train_labels = check_array("train_labels", train_labels, (n_train,))
        test_labels = check_array("test_labels", test_labels, (len(test_features),))
        for name, labels in (("train_labels", train_labels), ("test_labels", test_labels)):
            outside = labels[(labels != 0.0) & (labels != 1.0)]
            if outside.size:
                raise ValueError(f"{name} must be 0 or 1, got {outside[0].item()!r}")
        shard_bounds = tuple(shard_bounds)
        # the full-batch diagnostics sum each shard from its start to the next
        # shard's, which miscounts silently unless the shards tile the set
        if not shard_bounds:
            raise ValueError("a dataset needs at least one shard")
        expected = 0
        for agent, (start, stop) in enumerate(shard_bounds):
            for side, bound in enumerate((start, stop)):
                check_integer(f"shard_bounds[{agent}][{side}]", bound, 0)
            if start != expected:
                raise ValueError(
                    f"shard {agent} is ({start}, {stop}) but must start at {expected}: "
                    "shards partition the training set in order"
                )
            if stop <= start:
                raise ValueError(f"shard {agent} is ({start}, {stop}) and holds no sample")
            expected = stop
        if expected != n_train:
            raise ValueError(
                f"shard {len(shard_bounds) - 1} stops at {expected}, not at n_train = {n_train}"
            )
        # the full-batch cache and the row memo below assume the data never changes
        arrays = (train_features, train_labels, test_features, test_labels)
        arrays = [array.copy() if copy else array for array in arrays]
        for array in arrays:
            array.flags.writeable = False
        self.train_features, self.train_labels, self.test_features, self.test_labels = arrays
        self.shard_bounds = shard_bounds
        self.dimension = d
        self.local_count = len(shard_bounds)
        # the labels as the two Python floats 0.0 and 1.0, shared by every row:
        # evaluate does float arithmetic, and no float object is made per row
        self._label_values = [1.0 if label else 0.0 for label in train_labels.tolist()]
        # (xi, row view) of the last evaluate: an estimate probes one row n_c + 1
        # or 2 n_c times in a row
        self._row_memo: tuple[int | None, np.ndarray | None] = (None, None)
        self._starts, self._stops = np.array(shard_bounds).T.copy()
        self._sizes = self._stops - self._starts
        # a row's weight in the mean over agents of their shard means
        self._row_weight = np.repeat(1.0 / (self._sizes * self.local_count), self._sizes)
        # (x bytes, responses, residuals) of the last full-batch pass: a record
        # asks for the gradient and the loss at the same point.
        self._last_pass: tuple[bytes, np.ndarray, np.ndarray] | None = None

    def sample(self, agent: int, rng: np.random.Generator) -> int:
        start, stop = self.shard_bounds[agent]
        return int(rng.integers(start, stop))

    def sample_round(self, rng: np.random.Generator) -> list[int]:
        # elementwise bounds draw what per-agent scalar calls draw, in that order;
        # Python ints index the label list and compare with the row memo's key fast
        return rng.integers(self._starts, self._stops).tolist()

    def evaluate(self, agent: int, x: np.ndarray, xi: int) -> float:
        # the squared logistic residual (y - phi(a . x))^2 of one sampled pair, with
        # a scalar sigmoid inlined: math.exp beats np.exp on this per-probe hot path
        key, row = self._row_memo
        if key != xi:
            row = self.train_features[xi]
            self._row_memo = (xi, row)
        t = float(row.dot(x))
        if t >= 0.0:
            phi = 1.0 / (1.0 + math.exp(-t))
        else:
            e = math.exp(t)
            phi = e / (1.0 + e)
        return (self._label_values[xi] - phi) ** 2

    # The full-batch diagnostics are the mean over agents of their shard means,
    # made in one pass over the whole training set, which the shards partition
    # in order: one product for the responses, shard sums at the shard starts
    # and one weighted product for the gradient.

    def _responses(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Responses ``phi`` and residuals ``y - phi`` at ``x``, shared: do not write to them."""
        x = check_point(x, self.dimension)
        key = x.tobytes()
        last = self._last_pass
        if last is not None and last[0] == key:
            return last[1], last[2]
        phi = sigmoid(self.train_features @ x)
        residual = self.train_labels - phi
        self._last_pass = (key, phi, residual)
        return phi, residual

    def true_global_gradient(self, x: np.ndarray) -> np.ndarray:
        phi, residual = self._responses(x)
        # -2 (y - phi) phi (1 - phi), multiplied left to right, then row-weighted
        coef = residual * -2.0
        coef *= phi
        coef *= 1.0 - phi
        coef *= self._row_weight
        return coef @ self.train_features

    def full_loss(self, x: np.ndarray) -> float:
        _, residual = self._responses(x)
        shard_means = np.add.reduceat(residual * residual, self._starts)
        shard_means /= self._sizes
        return float(np.add.reduce(shard_means) / self.local_count)

    def test_accuracy(self, x: np.ndarray) -> float:
        """Fraction of test samples whose thresholded response matches the label.

        Responses exactly at one half classify as positive, matching the
        generation rule.
        """
        predicted = sigmoid(self.test_features @ check_point(x, self.dimension)) >= 0.5
        return float(np.mean(predicted == (self.test_labels == 1)))


def make_synthetic_classification(
    n_train: int = 2000,
    n_test: int = 200,
    d: int = 100,
    n_agents: int = 10,
    seed: int = 0,
) -> ClassificationProblem:
    """Generate the synthetic benchmark problem.

    Features are i.i.d. standard normal; labels come from thresholding the
    logistic response at the all-ones vector.  Training indices are split
    into ``n_agents`` contiguous shards of equal size, any remainder going
    to the last agent.  Deterministic per seed.
    """
    for name, value in (("n_train", n_train), ("n_test", n_test), ("d", d), ("n_agents", n_agents)):
        check_integer(name, value, 1)
    check_integer("seed", seed, 0)
    if n_agents > n_train:
        raise ValueError("cannot shard fewer training samples than agents")
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((n_train, d))
    test = rng.standard_normal((n_test, d))
    reference = np.ones(d)
    train_labels = (sigmoid(train @ reference) >= 0.5).astype(float)
    test_labels = (sigmoid(test @ reference) >= 0.5).astype(float)
    base = n_train // n_agents
    bounds = tuple(
        (i * base, (i + 1) * base if i < n_agents - 1 else n_train) for i in range(n_agents)
    )
    # nobody else holds these arrays, so the problem keeps them without the
    # constructor's copy, which would hold the data twice during set-up
    problem = ClassificationProblem.__new__(ClassificationProblem)
    problem._keep(train, train_labels, test, test_labels, bounds, copy=False)
    return problem


class QuadraticToyProblem(StochasticProblem):
    """Per-agent quadratics ``f_i(x) = 0.5 ||x - c_i||^2`` with a known optimum.

    The stochastic oracle is ``F_i(x, z) = f_i(x) + z . (x - c_i)`` with
    ``z ~ N(0, zeta^2 I)``, so each coordinate of the per-sample gradient
    ``(x - c_i) + z`` deviates from the true one with standard deviation
    exactly ``zeta``.  A plain additive noise term would cancel in finite
    differences and leave the gradients noiseless, which is not what a
    variance knob is for.
    The global minimizer is the centroid of the centers.

    A float64 ``centers`` array is not copied: the oracle and the diagnostics
    read it live.  It must be a finite real ``(n_agents, p)`` array, which is
    checked once, at construction.
    """

    ZETAS = "[0, inf)"  # the noise levels it takes; at 0 the oracle is noiseless

    def __init__(self, centers: np.ndarray, zeta: float = 0.0):
        self.centers = check_array("centers", centers, ("n_agents", "p"))
        check_number("zeta", zeta, self.ZETAS)
        self.zeta = float(zeta)
        self.local_count, self.dimension = self.centers.shape

    def sample(self, agent: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dimension) * self.zeta

    def sample_round(self, rng: np.random.Generator) -> np.ndarray:
        # a block fills row by row, drawing what per-agent calls draw
        return rng.standard_normal((self.local_count, self.dimension)) * self.zeta

    def evaluate(self, agent: int, x: np.ndarray, z: np.ndarray) -> float:
        diff = x - self.centers[agent]
        # 0.5 (d . d) is (0.5 d) . d bit for bit, one pass fewer: halving commutes
        # with every rounding while each d_j^2 is zero or normal and d . d is finite
        return 0.5 * float(diff.dot(diff)) + float(z.dot(diff))

    # Vectorized over agents: the mean over agents of ``x - c_i`` and of
    # ``0.5 ||x - c_i||^2``, each row product and the mean in agent order.

    def true_global_gradient(self, x: np.ndarray) -> np.ndarray:
        return np.mean(check_point(x, self.dimension) - self.centers, axis=0)

    def full_loss(self, x: np.ndarray) -> float:
        diffs = check_point(x, self.dimension) - self.centers
        return float(np.mean(np.vecdot(0.5 * diffs, diffs)))

    def centroid(self) -> np.ndarray:
        return self.centers.mean(axis=0)

    def optimal_value(self) -> float:
        return self.full_loss(self.centroid())


def make_quadratic_toy(
    n_agents: int = 5, p: int = 10, seed: int = 0, zeta: float = 0.0
) -> QuadraticToyProblem:
    """Build a quadratic toy whose centers are seeded standard normals."""
    check_integer("n_agents", n_agents, 1)
    check_integer("p", p, 1)
    check_integer("seed", seed, 0)
    check_number("zeta", zeta, QuadraticToyProblem.ZETAS)  # before the centers are drawn
    centers = np.random.default_rng(seed).standard_normal((n_agents, p))
    return QuadraticToyProblem(centers, zeta=zeta)
