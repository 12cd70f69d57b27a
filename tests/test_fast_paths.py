"""The fast paths in ``src/`` against the plain formulas in ``reference_engine.py``.

``problems``, ``metrics``, ``estimator`` and ``powerball`` compute with
in-place operations, shared passes, memos, reused probe buffers and masked
powers.  Each property here holds one of them to its plain reference and
requires the same float bits: a record CSV must not change when the
arithmetic is only rearranged into fewer calls.  The one exception is the
classification diagnostics against the per-agent reductions, which sum in
another order and are held to a bound set by the float64 rounding of their
summands.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_engine
from zoswarm.dynamics import powerball
from zoswarm.estimator import (
    CoordinateSample,
    central_estimate,
    forward_estimate,
    sample_coordinates,
)
from zoswarm.metrics import capture_record, consensus_error, holder_norm_sq
from zoswarm.problems import (
    ClassificationProblem,
    QuadraticToyProblem,
    make_synthetic_classification,
    sigmoid,
)


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


# ---- strategies ---------------------------------------------------------------

SCALES = st.sampled_from([1e-3, 0.1, 1.0, 5.0, 50.0])

# finite coordinates with exact zeros and both signs; with standard normal
# features, entries of 50 drive responses far past |t| = 40, where phi saturates
COORDINATES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    st.floats(-1e-3, 1e-3, allow_nan=False, allow_infinity=False),
)


def points(draw, dimension, count):
    return [
        np.array(draw(st.lists(COORDINATES, min_size=dimension, max_size=dimension)))
        for _ in range(count)
    ]


@st.composite
def classification_problems(draw, max_dimension=6):
    """A small classification problem with arbitrary shard sizes."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, max_dimension))
    sizes = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stops = np.cumsum(sizes)
    bounds = tuple((int(stop - size), int(stop)) for size, stop in zip(sizes, stops))
    features = rng.standard_normal((int(stops[-1]), d))
    labels = rng.integers(0, 2, int(stops[-1]))
    return ClassificationProblem(features, labels, features[:2], labels[:2], bounds)


@st.composite
def toy_problems(draw, max_agents=8, max_dimension=8):
    n = draw(st.integers(1, max_agents))
    p = draw(st.integers(1, max_dimension))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return QuadraticToyProblem(rng.standard_normal((n, p)) * draw(SCALES))


@st.composite
def with_points(draw, problems, count=2):
    """A drawn problem and ``count`` points in its dimension."""
    problem = draw(problems)
    return problem, points(draw, problem.dimension, count)


@st.composite
def iterate_matrices(draw, max_agents=7, max_dimension=6):
    agents = draw(st.integers(1, max_agents))
    return np.array(points(draw, draw(st.integers(1, max_dimension)), agents))


# ---- the sigmoid and the per-sample oracle ----------------------------------

# infinities, saturated and moderate responses, the smallest subnormal and signed zeros
SIGMOID_SPECIAL = [math.inf, 800.0, 41.0, 1.0, 5e-324, 0.0]
SIGMOID_SPECIAL += [-t for t in SIGMOID_SPECIAL]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400), SCALES)
def test_sigmoid_keeps_the_two_branch_bits(seed, size, scale):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(size) * scale * 30.0
    special = rng.random(size) < 0.3
    t[special] = rng.choice(SIGMOID_SPECIAL, int(special.sum()))
    t = np.concatenate([t, SIGMOID_SPECIAL])
    assert bits(sigmoid(t)) == bits(reference_engine.sigmoid(t))
    assert sigmoid(float(t[0])) == reference_engine.sigmoid(t[0])[0]
    assert np.isnan(sigmoid(np.nan))


@settings(max_examples=60, deadline=None)
@given(with_points(classification_problems(max_dimension=24)), st.data())
def test_classification_evaluate_follows_row_switches(case, data):
    # evaluate keeps the last row it indexed: a sequence that switches rows and
    # comes back to them, keyed by int or by np.int64, must still read each row
    problem, xs = case
    rows = st.integers(0, len(problem.train_labels) - 1)
    visits = data.draw(st.lists(rows, min_size=2, max_size=10))
    for position, xi in enumerate(visits + visits[::-1] + visits):
        key = np.int64(xi) if data.draw(st.booleans()) else xi
        agent = position % problem.local_count
        for x in xs:
            assert problem.evaluate(agent, x, key) == reference_engine.nlls_evaluate(
                problem, agent, x, xi
            )


CENTRED = QuadraticToyProblem(np.random.default_rng(5).standard_normal((3, 17)))


@settings(max_examples=100, deadline=None)
@given(
    with_points(toy_problems(max_agents=4, max_dimension=40), count=1),
    st.one_of(st.just(0.0), SCALES),
    st.integers(0, 2**32 - 1),
)
@example((CENTRED, [CENTRED.centers[1].copy()]), 0.0, 0)
@example((CENTRED, [CENTRED.centers[1].copy()]), 1.0, 7)
def test_toy_evaluate_keeps_the_plain_bits(case, zeta, seed):
    # evaluate halves d . d where the formula halves d first, which is the same
    # bits while every d_j^2 is zero or a normal float and d . d is finite.  The
    # draws stay inside that: centres are normals scaled by at least 1e-3 and
    # coordinates at most 50, so each d_j is exactly zero or far above 1e-154
    problem, (x,) = case
    z = np.random.default_rng(seed).standard_normal(problem.dimension) * zeta
    for agent in range(problem.local_count):
        assert bits(problem.evaluate(agent, x, z)) == bits(
            reference_engine.toy_evaluate(problem, agent, x, z)
        )


# ---- the problems' diagnostics -----------------------------------------------


def diagnostics(problem, x, loss_first):
    """``(gradient, loss)`` at ``x``, the loss asked first when ``loss_first``."""
    if loss_first:
        loss = problem.full_loss(x)
        return problem.true_global_gradient(x), loss
    return problem.true_global_gradient(x), problem.full_loss(x)


# a remainder shard larger than the others, whose rows do not start on a BLAS block boundary
MISALIGNED = make_synthetic_classification(31, 5, 9, 4, seed=1)


@settings(max_examples=150, deadline=None)
@given(with_points(classification_problems(max_dimension=24)))
@example((MISALIGNED, list(np.random.default_rng(2).standard_normal((2, 9)))))
def test_classification_diagnostics_keep_the_one_pass_bits(case):
    # the loss and the gradient share one response pass per point: ask in both
    # orders, at a new point, and back at the first
    problem, (first, second) = case
    weight = reference_engine.shard_weights(problem)
    for x, loss_first in ((first, False), (second, True), (first, True)):
        grad, loss = diagnostics(problem, x, loss_first)
        assert bits(grad) == bits(reference_engine.one_pass_gradient(problem, x))
        assert bits(loss) == bits(reference_engine.one_pass_loss(problem, x))
        # per agent, the sums run in another order: each gradient entry and the
        # loss may differ by 1e-12 times the sum of the absolute values of their
        # summands, coef_r a_rj and the squared residuals, each row weighted
        coef, residual_sq = reference_engine.classification_rows(problem, x)
        gradient_scale = (np.abs(coef) * weight) @ np.abs(problem.train_features)
        per_agent = reference_engine.global_gradient(problem, x)
        assert np.all(np.abs(grad - per_agent) <= 1e-12 * gradient_scale)
        loss_gap = abs(loss - reference_engine.full_loss(problem, x))
        assert loss_gap <= 1e-12 * float(residual_sq @ weight)


# one row, training and test alike, labelled positive: at x = 0 its response is one half
HALF = ClassificationProblem(np.ones((1, 2)), np.ones(1), np.ones((1, 2)), np.ones(1), ((0, 1),))


@settings(max_examples=60, deadline=None)
@given(with_points(classification_problems(), count=1))
@example((HALF, [np.zeros(2)]))
def test_classification_accuracy_keeps_the_plain_threshold(case):
    problem, (x,) = case
    assert problem.test_accuracy(x) == reference_engine.test_accuracy(problem, x)


@settings(max_examples=80, deadline=None)
@given(with_points(toy_problems(max_agents=40, max_dimension=30)))
def test_toy_diagnostics_keep_the_per_agent_bits(case):
    problem, (first, second) = case
    for x, loss_first in ((first, False), (second, True)):
        grad, loss = diagnostics(problem, x, loss_first)
        assert bits(grad) == bits(reference_engine.global_gradient(problem, x))
        assert bits(loss) == bits(reference_engine.full_loss(problem, x))


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


def expected_holder_norm_sq(v, q):
    # at q = 2 the plain squared norm, so a gamma = 1 record's two norms are equal
    return float(v @ v) if q == 2.0 else reference_engine.holder_norm_sq(v, q)


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
    assert bits(record.grad_norm_1pg_sq) == bits(expected_holder_norm_sq(grad, 1.0 + gamma))
    assert bits(record.consensus_err) == bits(reference_engine.consensus_error(iterates, mean))
    assert (record.k, record.oracle_calls, record.wall_ms) == (3, 17, 1.5)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
    st.one_of(st.just(2.0), st.just(1.5), st.floats(0.1, 4.0)),
)
@example([1.0, -2.0, 0.5], 1.7)
def test_holder_norm_sq_keeps_the_plain_bits(entries, q):
    v = np.array(entries)
    assert bits(holder_norm_sq(v, q)) == bits(expected_holder_norm_sq(v, q))


@settings(max_examples=150, deadline=None)
@given(iterate_matrices())
@example(np.random.default_rng(1).standard_normal((6, 9)))
def test_consensus_error_keeps_the_plain_bits(iterates):
    mean = iterates.mean(axis=0)
    expected = bits(reference_engine.consensus_error(iterates, mean))
    assert bits(consensus_error(iterates)) == expected
    assert bits(consensus_error(iterates, mean)) == expected


# ---- the powerball transform -------------------------------------------------

# signed zeros, subnormals, the smallest normal, infinities and NaNs of both signs
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=1, max_size=40),
    st.one_of(st.sampled_from([0.5, 0.7, 2.0]), st.floats(0.05, 3.0)).filter(lambda g: g != 1.0),
    st.booleans(),
)
@example(list(np.random.default_rng(1).standard_normal(50) * 3), 0.5, False)
@example(list(np.random.default_rng(1).standard_normal(50) * 3), 0.7, True)
def test_powerball_keeps_the_plain_bits(entries, gamma, as_matrix):
    v = np.array(entries + SPECIAL)
    if as_matrix:
        v = v.reshape(2, -1) if v.size % 2 == 0 else v.reshape(1, -1)
    with np.errstate(all="ignore"):
        out, expected = powerball(v, gamma), reference_engine.powerball(v, gamma)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


# ---- the coordinate draws and the estimators ---------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(1, 120), st.data(), st.integers(0, 2**32 - 1))
def test_sample_coordinates_rows_are_the_smallest_uniforms(n, p, data, seed):
    n_c = data.draw(st.integers(1, p))
    got = sample_coordinates(n, p, n_c, np.random.default_rng(seed))
    expected = reference_engine.coordinate_rows(np.random.default_rng(seed), n, p, n_c)
    assert got == [tuple(row) for row in expected]
    assert all(type(sample) is CoordinateSample for sample in got)
    assert all(type(j) is int for sample in got for j in sample)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=40, unique=True))
def test_a_coordinate_sample_is_its_sorted_indices(indices):
    sample = CoordinateSample(indices)
    assert sample == tuple(sorted(indices))
    assert sample.n_c == len(sample) == len(indices)
    assert CoordinateSample(sample) == sample
    from_numpy = CoordinateSample(np.array(indices))
    assert from_numpy == sample
    assert all(type(j) is int for j in from_numpy)


class RecordingOracle:
    """Logs a copy of every probe point; the value is a fixed smooth function."""

    def __init__(self, weights):
        self.weights = weights
        self.probes = []

    def __call__(self, z):
        self.probes.append(np.array(z))
        return float(np.sin(z) @ self.weights)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.data(), st.integers(0, 2**32 - 1), SCALES)
def test_buffered_estimators_keep_the_plain_bits(p, data, seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(p) * scale
    before = x.copy()
    weights = rng.standard_normal(p)
    (sample,) = sample_coordinates(1, p, data.draw(st.integers(1, p)), rng)
    delta = float(rng.uniform(1e-4, 0.5))
    for fast, reference in (
        (forward_estimate, reference_engine.forward),
        (central_estimate, reference_engine.central),
    ):
        got_oracle, ref_oracle = RecordingOracle(weights), RecordingOracle(weights)
        got = fast(got_oracle, x, sample, delta)
        expected = reference(ref_oracle, x, list(sample), delta)
        assert bits(got) == bits(expected)
        # same probe points in the same order, and the caller's point untouched
        assert [bits(z) for z in got_oracle.probes] == [bits(z) for z in ref_oracle.probes]
        assert bits(x) == bits(before)
