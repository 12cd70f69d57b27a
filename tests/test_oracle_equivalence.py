"""The streamlined oracle path against straightforward reference versions.

Each fast path here is checked against a plainer computation: the
per-sample oracle against ``nlls_evaluate``, the fused full-batch
diagnostics against the base class's per-agent reductions, the branch-free
sigmoid against a masked evaluation, the buffered estimators against one
fresh copy per probe, and ``sample_coordinates`` against sorting the
positions of the smallest uniforms of the same draw.  Every comparison is
exact equality except the classification diagnostics, which sum over the
whole training set in one pass and are held to a bound set by the float64
rounding of their summands.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zoswarm.estimator import (
    central_estimate,
    forward_estimate,
    sample_coordinates,
)
from zoswarm.problems import (
    ClassificationProblem,
    QuadraticToyProblem,
    StochasticProblem,
    make_synthetic_classification,
    nlls_evaluate,
    sigmoid,
)

SCALES = st.sampled_from([1e-3, 0.1, 1.0, 5.0, 50.0])


def masked_sigmoid(t):
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    exp_t = np.exp(arr[~pos])
    out[~pos] = exp_t / (1.0 + exp_t)
    return out


@st.composite
def classification_cases(draw):
    n_agents = draw(st.integers(1, 6))
    n_train = draw(st.integers(n_agents, 70))
    d = draw(st.integers(1, 24))
    dataset = make_synthetic_classification(n_train, 5, d, n_agents, seed=draw(st.integers(0, 99)))
    problem = ClassificationProblem(dataset)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = [rng.standard_normal(d) * draw(SCALES) for _ in range(2)]
    return problem, points


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400), SCALES)
def test_sigmoid_matches_masked_evaluation(seed, size, scale):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(size) * scale * 30.0
    t[rng.random(size) < 0.1] = 0.0
    t[rng.random(size) < 0.05] = -0.0
    t[rng.random(size) < 0.05] = math.inf
    t[rng.random(size) < 0.05] = -math.inf
    assert sigmoid(t).tobytes() == masked_sigmoid(t).tobytes()
    assert sigmoid(float(t[0])) == float(masked_sigmoid(t[0])[0])


@settings(max_examples=60, deadline=None)
@given(classification_cases(), st.data())
def test_classification_evaluate_matches_nlls_evaluate(case, data):
    problem, points = case
    xi = data.draw(st.integers(0, problem.dataset.n_train - 1))
    for x in points:
        for agent in range(problem.local_count):
            assert problem.evaluate(agent, x, xi) == nlls_evaluate(problem.dataset, agent, x, xi)


def assert_fused_close_to_per_agent(problem, x):
    """The one-pass diagnostics against the per-agent base-class reductions.

    They sum in another order, so each gradient entry and the loss may
    differ by 1e-12 times the sum of the absolute values of their summands
    (``coef_r a_rj`` and the squared residuals, each over its shard size
    times the agent count).
    """
    dataset = problem.dataset
    labels = dataset.train_labels.astype(float)
    phi = sigmoid(dataset.train_features @ x)
    weight = np.concatenate(
        [
            np.full(stop - start, 1.0 / ((stop - start) * problem.local_count))
            for start, stop in dataset.shard_bounds
        ]
    )
    coef = -2.0 * (labels - phi) * phi * (1.0 - phi)
    gradient_scale = (np.abs(coef) * weight) @ np.abs(dataset.train_features)
    loss_scale = float((labels - phi) ** 2 @ weight)
    fused = problem.true_global_gradient(x)
    reference = StochasticProblem.true_global_gradient(problem, x)
    assert np.all(np.abs(fused - reference) <= 1e-12 * gradient_scale)
    loss_gap = abs(problem.full_loss(x) - StochasticProblem.full_loss(problem, x))
    assert loss_gap <= 1e-12 * loss_scale


@settings(max_examples=80, deadline=None)
@given(classification_cases())
def test_classification_fused_diagnostics_match_per_agent_reductions(case):
    problem, points = case
    # alternate the points so a stale shared pass would show
    for x in points + points[::-1]:
        assert_fused_close_to_per_agent(problem, x)


def test_classification_fused_diagnostics_on_misaligned_remainder_shard():
    # a fixed case of what the property test explores: a remainder shard
    # larger than the others, whose rows do not start on a BLAS block boundary
    dataset = make_synthetic_classification(31, 5, 9, 4, seed=1)
    assert dataset.shard_bounds[-1] == (21, 31)
    x = np.random.default_rng(2).standard_normal(9)
    assert_fused_close_to_per_agent(ClassificationProblem(dataset), x)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(1, 30), st.integers(0, 2**32 - 1), SCALES)
def test_toy_fused_diagnostics_match_per_agent_reductions(n_agents, p, seed, scale):
    centers = np.random.default_rng(seed % 1000).standard_normal((n_agents, p)) * scale
    problem = QuadraticToyProblem(centers)
    x = np.random.default_rng(seed).standard_normal(p) * scale
    fused = problem.true_global_gradient(x)
    assert fused.tobytes() == StochasticProblem.true_global_gradient(problem, x).tobytes()
    assert problem.full_loss(x) == StochasticProblem.full_loss(problem, x)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(1, 120), st.data(), st.integers(0, 2**32 - 1))
def test_sample_coordinates_rows_are_the_smallest_uniforms(n, p, data, seed):
    n_c = data.draw(st.integers(1, p))
    got = sample_coordinates(n, p, n_c, np.random.default_rng(seed))
    uniforms = np.random.default_rng(seed).random((n, p))
    assert len(got) == n
    for sample, u in zip(got, uniforms):
        assert sample.indices == tuple(sorted(np.argsort(u)[:n_c].tolist()))
        assert len(set(sample.indices)) == n_c
        assert sample.indices == tuple(sorted(sample.indices))
        assert all(type(j) is int and 0 <= j < p for j in sample.indices)


def copying_forward(oracle, x, sample, delta):
    base = float(oracle(x))
    estimate = np.zeros(x.size)
    for j in sample.indices:
        shifted = x.copy()
        shifted[j] += delta
        estimate[j] = x.size / sample.n_c * (float(oracle(shifted)) - base) / delta
    return estimate


def copying_central(oracle, x, sample, delta):
    estimate = np.zeros(x.size)
    for j in sample.indices:
        forward, backward = x.copy(), x.copy()
        forward[j] += delta
        backward[j] -= delta
        hi, lo = float(oracle(forward)), float(oracle(backward))
        estimate[j] = x.size / sample.n_c * (hi - lo) / (2.0 * delta)
    return estimate


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
def test_buffered_estimators_match_copying_references(p, data, seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(p) * scale
    before = x.copy()
    weights = rng.standard_normal(p)
    (sample,) = sample_coordinates(1, p, data.draw(st.integers(1, p)), rng)
    delta = float(rng.uniform(1e-4, 0.5))
    for fast, reference in (
        (forward_estimate, copying_forward),
        (central_estimate, copying_central),
    ):
        got_oracle, ref_oracle = RecordingOracle(weights), RecordingOracle(weights)
        got = fast(got_oracle, x, sample, delta)
        expected = reference(ref_oracle, x, sample, delta)
        assert got.tobytes() == expected.tobytes()
        # same probe points in the same order, and the caller's point untouched
        assert len(got_oracle.probes) == len(ref_oracle.probes)
        for a, b in zip(got_oracle.probes, ref_oracle.probes):
            assert a.tobytes() == b.tobytes()
        assert x.tobytes() == before.tobytes()
