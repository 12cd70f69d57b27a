import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
import zoswarm as zs
from reference_engine import nlls_evaluate
from zoswarm.problems import (
    ClassificationProblem,
    QuadraticToyProblem,
    StochasticProblem,
    make_quadratic_toy,
    make_synthetic_classification,
    sigmoid,
)


@pytest.fixture(scope="module")
def synthetic():
    return make_synthetic_classification(seed=7)


def central_differences(loss, x, h=1e-5):
    """``(loss(x + h e_j) - loss(x - h e_j)) / 2h`` for every coordinate ``j``."""
    fd = np.zeros(x.size)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        fd[j] = (loss(x + e) - loss(x - e)) / (2.0 * h)
    return fd


class TestSigmoid:
    def test_midpoint_and_symmetry(self):
        assert sigmoid(0.0) == 0.5
        t = np.linspace(-30, 30, 101)
        assert np.allclose(sigmoid(t) + sigmoid(-t), 1.0, atol=1e-12)

    def test_no_overflow_at_extreme_arguments(self):
        assert sigmoid(1e4) == 1.0
        assert sigmoid(-1e4) == 0.0
        assert np.all(np.isfinite(sigmoid(np.array([-1e308, 1e308]))))


class TestSyntheticDataset:
    def test_default_sizes_match_benchmark(self, synthetic):
        assert synthetic.train_features.shape == (2000, 100)
        assert synthetic.test_features.shape == (200, 100)
        assert synthetic.dimension == 100
        assert synthetic.local_count == 10
        assert all(stop - start == 200 for start, stop in synthetic.shard_bounds)

    def test_deterministic_per_seed(self):
        a = make_synthetic_classification(50, 10, 5, 2, seed=3)
        b = make_synthetic_classification(50, 10, 5, 2, seed=3)
        assert np.array_equal(a.train_features, b.train_features)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_label_rule_equivalence(self, synthetic):
        # sigmoid is monotone with threshold at argument zero, so the label
        # is exactly the sign of the feature sum
        for feats, labels in (
            (synthetic.train_features, synthetic.train_labels),
            (synthetic.test_features, synthetic.test_labels),
        ):
            assert np.array_equal(labels == 1, feats.sum(axis=1) >= 0)

    def test_all_positive_and_all_negative_features(self):
        assert sigmoid(np.ones(100) @ np.ones(100)) >= 0.5
        assert sigmoid(-np.ones(100) @ np.ones(100)) < 0.5

    def test_shards_partition_train_indices(self, synthetic):
        seen = []
        for start, stop in synthetic.shard_bounds:
            seen.extend(range(start, stop))
        assert sorted(seen) == list(range(len(synthetic.train_labels)))

    def test_remainder_goes_to_last_agent(self):
        ds = make_synthetic_classification(103, 10, 4, 10, seed=0)
        sizes = [stop - start for start, stop in ds.shard_bounds]
        assert sizes == [10] * 9 + [13]

    def test_rejects_fewer_training_samples_than_agents(self):
        with pytest.raises(ValueError, match="^cannot shard fewer training samples than agents$"):
            make_synthetic_classification(n_train=3, n_agents=5)

    @pytest.mark.parametrize(
        "changed, message",
        [
            (
                {"shard_bounds": ((0, 3), (3, 3), (3, 6))},
                r"shard 1 is \(3, 3\) and holds no sample",
            ),
            ({"shard_bounds": ((0, 2), (3, 6))}, r"shard 1 is \(3, 6\) but must start at 2"),
            ({"shard_bounds": ((0, 4), (3, 6))}, r"shard 1 is \(3, 6\) but must start at 4"),
            ({"shard_bounds": ((3, 6), (0, 3))}, r"shard 0 is \(3, 6\) but must start at 0"),
            ({"shard_bounds": ((0, 3), (3, 5))}, r"shard 1 stops at 5, not at n_train = 6"),
            ({"shard_bounds": ()}, "at least one shard"),
            (
                {"train_features": np.zeros(6)},
                r"^train_features must be a finite real array of shape \(n_train, d\), "
                r"got shape \(6,\)$",
            ),
            (
                {"test_features": np.zeros((4, 2, 1))},
                r"^test_features must be a finite real array of shape \(n_test, 2\), "
                r"got shape \(4, 2, 1\)$",
            ),
            ({"test_features": np.zeros((4, 3))}, r"of shape \(n_test, 2\), got shape \(4, 3\)$"),
            ({"train_labels": np.zeros(5)}, r"^train_labels must .* \(6,\), got shape \(5,\)$"),
            ({"test_labels": np.zeros(6)}, r"^test_labels must .* \(4,\), got shape \(6,\)$"),
            (
                {"test_features": np.zeros((0, 2)), "test_labels": np.zeros(0, dtype=np.int64)},
                r"^test_features must be .* of shape \(n_test, 2\), got shape \(0, 2\)$",
            ),
            ({"train_labels": np.array([0, 1, 2, 0, 1, 0])}, "train_labels must be 0 or 1, got 2"),
            ({"test_labels": np.array([0.0, 1.0, 0.5, 1.0])}, "test_labels must be 0 or 1, got 0.5"),
            (
                {"shard_bounds": ((0, 3.0), (3.0, 6))},
                r"^shard_bounds\[0\]\[1\] must be an integer of at least 0, got 3\.0$",
            ),
        ],
        ids=[
            "empty",
            "gap",
            "overlap",
            "unordered",
            "short",
            "none",
            "train-not-2d",
            "test-not-2d",
            "test-columns",
            "train-labels",
            "test-labels",
            "test-empty",
            "train-label-value",
            "test-label-value",
            "shard-not-int",
        ],
    )
    def test_shards_must_partition_train_set(self, changed, message):
        arrays = {
            "train_features": np.zeros((6, 2)),
            "train_labels": np.zeros(6, dtype=np.int64),
            "test_features": np.zeros((4, 2)),
            "test_labels": np.zeros(4, dtype=np.int64),
            "shard_bounds": ((0, 3), (3, 6)),
        }
        with pytest.raises(ValueError, match=message):
            ClassificationProblem(**(arrays | changed))


class TestNllsEvaluate:
    def test_zero_point_gives_quarter_loss(self, synthetic):
        for xi in (0, 57, 1999):
            assert nlls_evaluate(synthetic, 0, np.zeros(100), xi) == 0.25

    def test_single_sample_hand_value(self):
        ds = make_synthetic_classification(4, 2, 3, 1, seed=0)
        feats = ds.train_features.copy()
        feats[0] = [1.0, 0.0, 0.0]
        labels = ds.train_labels.copy()
        labels[0] = 1
        ds2 = type(ds)(feats, labels, ds.test_features, ds.test_labels, ds.shard_bounds)
        got = nlls_evaluate(ds2, 0, np.ones(3), 0)
        assert abs(got - (1.0 - 1.0 / (1.0 + np.exp(-1.0))) ** 2) < 1e-12
        assert abs(got - 0.07232948812851325) < 1e-10

    def test_saturated_sample_near_zero_loss(self, synthetic):
        x = 50.0 * np.ones(100)
        sums = synthetic.train_features.sum(axis=1)
        xi = int(np.argmax(np.abs(sums)))
        assert nlls_evaluate(synthetic, 0, x, xi) < 1e-6

    def test_loss_bounds(self, synthetic):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(100)
            xi = int(rng.integers(2000))
            value = nlls_evaluate(synthetic, 0, x, xi)
            assert 0.0 <= value <= 1.0


class TestNllsGradient:
    def test_gradient_vanishes_on_saturated_samples(self, synthetic):
        # a one-sample shard's gradient is that sample's gradient
        x = 100.0 * np.ones(100)
        sums = synthetic.train_features.sum(axis=1)
        xi = int(np.argmax(np.abs(sums)))
        problem = ClassificationProblem(
            synthetic.train_features[xi : xi + 1],
            synthetic.train_labels[xi : xi + 1],
            synthetic.test_features,
            synthetic.test_labels,
            ((0, 1),),
        )
        assert np.linalg.norm(problem.true_global_gradient(x)) < 1e-8

    def test_closed_form_at_zero(self, synthetic):
        # at x = 0 every per-sample gradient is -(y - 1/2) a / 2; the shards are equal,
        # so the mean over agents of the shard means is the mean over all samples
        labels = synthetic.train_labels.astype(float)
        expected = np.mean(-(labels - 0.5)[:, None] * synthetic.train_features / 2.0, axis=0)
        got = synthetic.true_global_gradient(np.zeros(100))
        assert np.allclose(got, expected, atol=1e-12)

    def test_single_sample_matches_central_differences(self):
        problem = make_synthetic_classification(1, 1, 8, 1, seed=5)
        x = np.random.default_rng(1).standard_normal(8)
        analytic = problem.true_global_gradient(x)
        fd = central_differences(lambda z: reference_engine.full_loss(problem, z), x)
        assert np.linalg.norm(fd - analytic) <= 1e-6 * max(1.0, np.linalg.norm(analytic))

    def test_full_batch_matches_central_differences(self, synthetic):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(100)
            analytic = synthetic.true_global_gradient(x)
            fd = central_differences(lambda z: reference_engine.full_loss(synthetic, z), x)
            assert np.linalg.norm(fd - analytic) <= 1e-5 * np.linalg.norm(analytic)


class TestAccuracy:
    def test_reference_vector_is_perfect(self, synthetic):
        assert synthetic.test_accuracy(np.ones(100)) == 1.0

    def test_flipped_reference_is_near_zero(self, synthetic):
        assert synthetic.test_accuracy(-np.ones(100)) <= 0.01

    def test_zero_vector_predicts_all_positive(self, synthetic):
        # every response at x = 0 is exactly one half, which classifies as positive;
        # all-positive labels tell that apart from all-negative predictions
        features = synthetic.test_features
        problem = ClassificationProblem(features, np.ones(200), features, np.ones(200), ((0, 200),))
        assert problem.test_accuracy(np.zeros(100)) == 1.0


# the four data arrays a ClassificationProblem keeps
ARRAY_NAMES = ("train_features", "train_labels", "test_features", "test_labels")


class TestClassificationProblem:
    def test_samples_stay_in_shard(self, synthetic):
        rng = np.random.default_rng(0)
        for agent in range(10):
            start, stop = synthetic.shard_bounds[agent]
            for _ in range(20):
                xi = synthetic.sample(agent, rng)
                assert start <= xi < stop

    def test_stored_arrays_are_read_only_copies(self):
        # the full-batch cache and evaluate's row memo would go stale after an
        # in-place write, so the stored arrays refuse one; the caller's stay
        # writable, and a write to them reaches nothing the problem computes
        rng = np.random.default_rng(4)
        features, labels = rng.standard_normal((40, 3)), rng.integers(0, 2, 40)
        test_features, test_labels = features[:5].copy(), labels[:5].copy()
        caller_arrays = (features, labels, test_features, test_labels)
        bounds = ((0, 20), (20, 40))
        problem = ClassificationProblem(*caller_arrays, bounds)
        pristine = ClassificationProblem(*(a.copy() for a in caller_arrays), bounds)
        x = rng.standard_normal(3)

        def computed(problem, x):
            return (
                [problem.evaluate(agent, x, xi) for agent, xi in ((0, 3), (1, 27))],
                problem.full_loss(x),
                problem.true_global_gradient(x).tolist(),
                problem.test_accuracy(x),
            )

        computed(problem, x)  # fills the row memo and the full-batch cache
        stored = [getattr(problem, name) for name in ARRAY_NAMES]
        for array in stored:
            with pytest.raises(ValueError, match="read-only"):
                array[:] *= -1
        for array in caller_arrays:
            assert array.flags.writeable
        features *= 10.0
        test_features *= -1.0
        labels ^= 1
        test_labels ^= 1
        # at a point the caches hold and at a fresh one
        for point in (x, rng.standard_normal(3)):
            assert computed(problem, point) == computed(pristine, point)
        assert not any(np.shares_memory(a, b) for a in stored for b in caller_arrays)

    def test_the_factory_hands_its_arrays_over_without_a_copy(self):
        # the constructor's copy would hold the training features twice during set-up
        tracemalloc.start()
        try:
            problem = make_synthetic_classification(n_train=2000, n_test=10, d=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * problem.train_features.nbytes
        for name in ARRAY_NAMES:
            array = getattr(problem, name)
            assert array.flags.owndata and not array.flags.writeable


class TestQuadraticToy:
    def test_identical_centers_have_zero_optimum(self):
        problem = QuadraticToyProblem(np.ones((3, 2)))
        assert np.array_equal(problem.centroid(), [1.0, 1.0])
        assert problem.optimal_value() == 0.0

    def test_two_agent_closed_form(self):
        problem = QuadraticToyProblem(np.array([[0.0], [2.0]]))
        assert problem.centroid() == np.array([1.0])
        assert problem.optimal_value() == 0.5
        assert problem.full_loss(np.array([1.0])) == 0.5

    def test_zero_noise_oracle_is_deterministic_loss(self):
        problem = make_quadratic_toy(2, 3, seed=1, zeta=0.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        z = problem.sample(0, rng)
        assert np.all(z == 0.0)
        assert problem.evaluate(0, x, z) == reference_engine.local_loss(problem, 0, x)

    def test_noise_is_zero_mean_with_std_zeta(self):
        # central differences of the quadratic oracle are exact: (x - c_i)_j + z_j
        problem = make_quadratic_toy(1, 4, seed=2, zeta=0.5)
        rng = np.random.default_rng(3)
        x = np.ones(4)
        h = 0.5
        deviations = []
        for _ in range(4000):
            z = problem.sample(0, rng)
            shifts = h * np.eye(4)
            central = np.array(
                [problem.evaluate(0, x + e, z) - problem.evaluate(0, x - e, z) for e in shifts]
            )
            deviation = central / (2.0 * h) - problem.true_global_gradient(x)
            assert np.allclose(deviation, z, rtol=0.0, atol=1e-12)
            deviations.append(deviation)
        assert abs(np.mean(deviations)) < 0.02
        assert abs(np.std(deviations) - 0.5) < 0.02

    def test_gradient_matches_central_differences(self):
        problem = make_quadratic_toy(4, 6, seed=3, zeta=0.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(6)
            analytic = problem.true_global_gradient(x)
            fd = central_differences(problem.full_loss, x)
            assert np.linalg.norm(fd - analytic) <= 1e-5 * max(1.0, np.linalg.norm(analytic))


def test_black_box_problem_needs_only_function_values():
    # a problem supplies no per-sample gradient: the dynamics only query evaluate
    class NoisyTargets(StochasticProblem):
        dimension = 3
        local_count = 2

        def sample(self, agent, rng):
            return rng.standard_normal()

        def evaluate(self, agent, x, xi):
            return float(np.sum((x - agent - xi) ** 2))

        def true_global_gradient(self, x):
            return np.mean([2.0 * (x - agent) for agent in range(2)], axis=0)

        def full_loss(self, x):
            # E[xi^2] = 1 per coordinate
            return float(np.mean([np.sum((x - agent) ** 2) for agent in range(2)])) + 3.0

    topo = zs.erdos_renyi(2, 1.0, seed=0)
    params = zs.HyperParams(
        alpha=0.5 * zs.laplacian_spectrum(topo).alpha_max, eta=0.05, T=200, n_c=2
    )
    trajectory = zs.run(topo, NoisyTargets(), params, seed=1)
    assert trajectory.final_state.k == 200
    assert trajectory.records[-1].oracle_calls == 200 * 2 * 3
    # from 4.5 at the origin toward f* = 3.75 at the mean target (0.5, 0.5, 0.5)
    assert trajectory.records[-1].mean_train_loss < 3.9


@st.composite
def shipped_problems(draw):
    """A quadratic toy or a classification problem with arbitrary shard sizes."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        p = draw(st.integers(1, 8))
        zeta = draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0]))
        return QuadraticToyProblem(rng.standard_normal((n, p)), zeta=zeta)
    sizes = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    stops = np.cumsum(sizes)
    bounds = tuple((int(stop - size), int(stop)) for size, stop in zip(sizes, stops))
    features = rng.standard_normal((int(stops[-1]), 3))
    labels = rng.integers(0, 2, int(stops[-1]))
    return ClassificationProblem(features, labels, features, labels, bounds)


@settings(max_examples=150, deadline=None)
@given(shipped_problems(), st.integers(0, 2**63 - 1), st.integers(1, 4))
def test_sample_round_replays_per_agent_draws(problem, seed, rounds):
    # the override, the base-class default and per-agent calls agree bit for bit
    # and leave their generators in the same state
    override, default, single = (np.random.default_rng(seed) for _ in range(3))
    for _ in range(rounds):
        block = problem.sample_round(override)
        listed = StochasticProblem.sample_round(problem, default)
        one_by_one = [problem.sample(i, single) for i in range(problem.local_count)]
        assert len(block) == len(listed) == problem.local_count
        for i, expected in enumerate(one_by_one):
            assert np.asarray(block[i]).tobytes() == np.asarray(expected).tobytes()
            assert np.asarray(listed[i]).tobytes() == np.asarray(expected).tobytes()
    assert override.bit_generator.state == single.bit_generator.state
    assert default.bit_generator.state == single.bit_generator.state
