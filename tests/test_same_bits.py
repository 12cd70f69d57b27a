"""The diagnostics and the powerball transform against their plain formulas, bit for bit.

``problems``, ``metrics`` and ``powerball`` compute with in-place operations,
shared passes and masked powers.  Each test here keeps the plain numpy
expression as its reference and requires the same float bits: a record CSV
must not change when the arithmetic is only rearranged into fewer calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zoswarm.dynamics import powerball
from zoswarm.metrics import capture_record, consensus_error, holder_norm_sq
from zoswarm.problems import ClassificationProblem, QuadraticToyProblem, sigmoid

# ---- the plain formulas -------------------------------------------------------


def plain_sigmoid(t):
    arr = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def shard_layout(problem):
    starts = np.array([start for start, _ in problem.shard_bounds])
    sizes = np.array([stop - start for start, stop in problem.shard_bounds])
    return starts, sizes


def plain_classification_loss(problem, x):
    labels = problem.train_labels.astype(float)
    starts, sizes = shard_layout(problem)
    residual_sq = (labels - plain_sigmoid(problem.train_features @ x)) ** 2
    return float(np.mean(np.add.reduceat(residual_sq, starts) / sizes))


def plain_classification_gradient(problem, x):
    labels = problem.train_labels.astype(float)
    _, sizes = shard_layout(problem)
    row_weight = np.repeat(1.0 / (sizes * problem.local_count), sizes)
    phi = plain_sigmoid(problem.train_features @ x)
    coef = -2.0 * (labels - phi) * phi * (1.0 - phi)
    return (coef * row_weight) @ problem.train_features


def plain_toy_loss(problem, x):
    diffs = x - problem.centers
    return float(np.mean(np.vecdot(0.5 * diffs, diffs)))


def plain_toy_gradient(problem, x):
    return np.mean(x - problem.centers, axis=0)


def plain_holder_norm_sq(v, q):
    if q == 2.0:
        return float(v @ v)
    return float(np.sum(np.abs(v) ** q) ** (2.0 / q))


def plain_consensus_error(iterates, mean_iterate):
    return float(((iterates - mean_iterate) ** 2).sum(axis=1).mean())


def plain_powerball(v, gamma):
    return np.sign(v) * np.abs(v) ** gamma


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


# ---- strategies ---------------------------------------------------------------

# finite coordinates with exact zeros and both signs; with standard normal
# features, entries of 50 drive responses far past |t| = 40, where phi saturates
COORDINATES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    st.floats(-1e-3, 1e-3, allow_nan=False, allow_infinity=False),
)


@st.composite
def classification_problems(draw):
    """A small classification problem with arbitrary shard sizes."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stops = np.cumsum(sizes)
    bounds = tuple((int(stop - size), int(stop)) for size, stop in zip(sizes, stops))
    features = rng.standard_normal((int(stops[-1]), d))
    labels = rng.integers(0, 2, int(stops[-1]))
    return ClassificationProblem(features, labels, features[:2], labels[:2], bounds)


@st.composite
def toy_problems(draw):
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    return QuadraticToyProblem(rng.standard_normal((n, p)) * scale)


def points(draw, dimension, count):
    return [
        np.array(draw(st.lists(COORDINATES, min_size=dimension, max_size=dimension)))
        for _ in range(count)
    ]


# ---- the problems' diagnostics -----------------------------------------------


def test_sigmoid_matches_the_two_branch_formula():
    t = np.array([-np.inf, -800.0, -41.0, -1.0, -5e-324, -0.0])
    t = np.concatenate([t, -t[::-1]])
    assert bits(sigmoid(t)) == bits(plain_sigmoid(t))
    assert sigmoid(-41.0) == float(plain_sigmoid(-41.0))
    assert np.isnan(sigmoid(np.nan))


@settings(max_examples=150, deadline=None)
@given(st.data(), classification_problems())
def test_classification_diagnostics_keep_the_plain_bits(data, problem):
    # the loss and the gradient share one response pass per point; ask in both
    # orders, twice at one point, and at a new point after it
    first, second = points(data.draw, problem.dimension, 2)

    def gradient_kept(x):
        expected = plain_classification_gradient(problem, x)
        return bits(problem.true_global_gradient(x)) == bits(expected)

    def loss_kept(x):
        return bits(problem.full_loss(x)) == bits(plain_classification_loss(problem, x))

    assert gradient_kept(first) and loss_kept(first)
    assert loss_kept(second) and gradient_kept(second)
    assert loss_kept(first)


@settings(max_examples=150, deadline=None)
@given(st.data(), toy_problems())
def test_toy_diagnostics_keep_the_plain_bits(data, problem):
    first, second = points(data.draw, problem.dimension, 2)

    def gradient_kept(x):
        return bits(problem.true_global_gradient(x)) == bits(plain_toy_gradient(problem, x))

    def loss_kept(x):
        return bits(problem.full_loss(x)) == bits(plain_toy_loss(problem, x))

    assert gradient_kept(first) and loss_kept(first)
    assert loss_kept(second) and gradient_kept(second)


def test_shared_passes_are_not_written_to():
    # a returned gradient is the caller's: writing to it must not reach the next call
    rng = np.random.default_rng(3)
    features = rng.standard_normal((12, 3))
    problems = [
        ClassificationProblem(
            features, rng.integers(0, 2, 12), features, np.zeros(12), ((0, 5), (5, 12))
        ),
        QuadraticToyProblem(rng.standard_normal((4, 3))),
    ]
    x = rng.standard_normal(3)
    for problem in problems:
        grad, loss = problem.true_global_gradient(x), problem.full_loss(x)
        grad[:] = np.nan
        assert not np.isnan(problem.true_global_gradient(x)).any()
        assert problem.full_loss(x) == loss


def test_toy_diagnostics_follow_centers_written_after_construction():
    # the toy reads the caller's centers live, so its diagnostics must too
    rng = np.random.default_rng(4)
    centers = rng.standard_normal((5, 3))
    problem = QuadraticToyProblem(centers)
    x = rng.standard_normal(3)
    problem.full_loss(x), problem.true_global_gradient(x)
    centers += 1.0
    fresh = QuadraticToyProblem(centers.copy())
    assert bits(problem.full_loss(x)) == bits(fresh.full_loss(x))
    assert bits(problem.true_global_gradient(x)) == bits(fresh.true_global_gradient(x))


# ---- the record ---------------------------------------------------------------


class Recording:
    """Hands diagnostics through and keeps every point they are asked at."""

    def __init__(self, inner):
        self.inner = inner
        self.gradient_points, self.loss_points = [], []

    def true_global_gradient(self, x):
        self.gradient_points.append(np.array(x))
        return self.inner.true_global_gradient(x)

    def full_loss(self, x):
        self.loss_points.append(np.array(x))
        return self.inner.full_loss(x)


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.one_of(classification_problems(), toy_problems()),
    st.integers(1, 7),
    st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0)),
)
def test_capture_record_keeps_the_plain_bits(data, inner, agents, gamma):
    iterates = np.array(points(data.draw, inner.dimension, agents))
    problem = Recording(inner)
    record = capture_record(problem, iterates, 3, gamma, 17, 1.5)
    mean = iterates.mean(axis=0)
    # one call each, at the plain mean
    assert [bits(x) for x in problem.gradient_points] == [bits(mean)]
    assert [bits(x) for x in problem.loss_points] == [bits(mean)]
    grad = inner.true_global_gradient(mean)
    assert bits(record.mean_train_loss) == bits(inner.full_loss(mean))
    assert bits(record.grad_norm_sq) == bits(float(grad @ grad))
    assert bits(record.grad_norm_1pg_sq) == bits(plain_holder_norm_sq(grad, 1.0 + gamma))
    assert bits(record.consensus_err) == bits(plain_consensus_error(iterates, mean))
    assert (record.k, record.oracle_calls, record.wall_ms) == (3, 17, 1.5)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
    st.one_of(st.just(2.0), st.just(1.5), st.floats(0.1, 4.0)),
)
def test_holder_norm_sq_keeps_the_plain_bits(entries, q):
    v = np.array(entries)
    assert bits(holder_norm_sq(v, q)) == bits(plain_holder_norm_sq(v, q))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 6), st.data())
def test_consensus_error_keeps_the_plain_bits(agents, p, data):
    iterates = np.array(points(data.draw, p, agents))
    mean = iterates.mean(axis=0)
    assert bits(consensus_error(iterates)) == bits(plain_consensus_error(iterates, mean))
    assert bits(consensus_error(iterates, mean)) == bits(plain_consensus_error(iterates, mean))


# ---- the powerball transform -------------------------------------------------

# signed zeros, subnormals, the smallest normal, infinities and NaNs of both signs
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=1, max_size=40),
    st.one_of(st.sampled_from([0.5, 0.7, 2.0]), st.floats(0.05, 3.0)).filter(lambda g: g != 1.0),
    st.booleans(),
)
def test_powerball_keeps_the_plain_bits(entries, gamma, as_matrix):
    v = np.array(entries + SPECIAL)
    if as_matrix:
        v = v.reshape(2, -1) if v.size % 2 == 0 else v.reshape(1, -1)
    with np.errstate(all="ignore"):
        out, expected = powerball(v, gamma), plain_powerball(v, gamma)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
