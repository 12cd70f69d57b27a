import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoswarm as zs
from reference_engine import nlls_evaluate
from zoswarm.problems import (
    ClassificationDataset,
    ClassificationProblem,
    QuadraticToyProblem,
    StochasticProblem,
    accuracy,
    make_quadratic_toy,
    make_synthetic_classification,
    sigmoid,
)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_classification(seed=7)


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
    def test_default_sizes_match_benchmark(self, dataset):
        assert dataset.n_train == 2000
        assert dataset.n_test == 200
        assert dataset.d == 100
        assert dataset.n_agents == 10
        assert all(stop - start == 200 for start, stop in dataset.shard_bounds)

    def test_deterministic_per_seed(self):
        a = make_synthetic_classification(50, 10, 5, 2, seed=3)
        b = make_synthetic_classification(50, 10, 5, 2, seed=3)
        assert np.array_equal(a.train_features, b.train_features)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_label_rule_equivalence(self, dataset):
        # sigmoid is monotone with threshold at argument zero, so the label
        # is exactly the sign of the feature sum
        for feats, labels in (
            (dataset.train_features, dataset.train_labels),
            (dataset.test_features, dataset.test_labels),
        ):
            assert np.array_equal(labels == 1, feats.sum(axis=1) >= 0)

    def test_all_positive_and_all_negative_features(self):
        assert sigmoid(np.ones(100) @ np.ones(100)) >= 0.5
        assert sigmoid(-np.ones(100) @ np.ones(100)) < 0.5

    def test_shards_partition_train_indices(self, dataset):
        seen = []
        for start, stop in dataset.shard_bounds:
            seen.extend(range(start, stop))
        assert sorted(seen) == list(range(dataset.n_train))

    def test_remainder_goes_to_last_agent(self):
        ds = make_synthetic_classification(103, 10, 4, 10, seed=0)
        sizes = [stop - start for start, stop in ds.shard_bounds]
        assert sizes == [10] * 9 + [13]

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (((0, 3), (3, 3), (3, 6)), r"shard 1 is \(3, 3\) and holds no sample"),
            (((0, 2), (3, 6)), r"shard 1 is \(3, 6\) but must start at 2"),
            (((0, 4), (3, 6)), r"shard 1 is \(3, 6\) but must start at 4"),
            (((3, 6), (0, 3)), r"shard 0 is \(3, 6\) but must start at 0"),
            (((0, 3), (3, 5)), r"shard 1 stops at 5, not at n_train = 6"),
            ((), "at least one shard"),
        ],
        ids=["empty", "gap", "overlap", "unordered", "short", "none"],
    )
    def test_shards_must_partition_train_set(self, bounds, message):
        features = np.zeros((6, 2))
        labels = np.zeros(6, dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            ClassificationDataset(features, labels, features, labels, bounds)


class TestNllsEvaluate:
    def test_zero_point_gives_quarter_loss(self, dataset):
        for xi in (0, 57, 1999):
            assert nlls_evaluate(dataset, 0, np.zeros(100), xi) == 0.25

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

    def test_saturated_sample_near_zero_loss(self, dataset):
        x = 50.0 * np.ones(100)
        sums = dataset.train_features.sum(axis=1)
        xi = int(np.argmax(np.abs(sums)))
        assert nlls_evaluate(dataset, 0, x, xi) < 1e-6

    def test_loss_bounds(self, dataset):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(100)
            xi = int(rng.integers(2000))
            value = nlls_evaluate(dataset, 0, x, xi)
            assert 0.0 <= value <= 1.0


class TestNllsGradient:
    def test_gradient_vanishes_on_saturated_samples(self, dataset):
        # a one-sample shard's gradient is that sample's gradient
        x = 100.0 * np.ones(100)
        sums = dataset.train_features.sum(axis=1)
        xi = int(np.argmax(np.abs(sums)))
        single = ClassificationDataset(
            dataset.train_features[xi : xi + 1],
            dataset.train_labels[xi : xi + 1],
            dataset.test_features,
            dataset.test_labels,
            ((0, 1),),
        )
        problem = ClassificationProblem(single)
        assert np.linalg.norm(problem.true_local_gradient(0, x)) < 1e-8
        assert np.linalg.norm(problem.true_global_gradient(x)) < 1e-8

    def test_closed_form_at_zero(self, dataset):
        # at x = 0 every per-sample gradient is -(y - 1/2) a / 2
        for agent in (0, 4, 9):
            sl = dataset.shard_slice(agent)
            feats = dataset.train_features[sl]
            labels = dataset.train_labels[sl].astype(float)
            expected = np.mean(-(labels - 0.5)[:, None] * feats / 2.0, axis=0)
            got = ClassificationProblem(dataset).true_local_gradient(agent, np.zeros(100))
            assert np.allclose(got, expected, atol=1e-12)

    def test_single_sample_matches_central_differences(self):
        ds = make_synthetic_classification(1, 1, 8, 1, seed=5)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        analytic = ClassificationProblem(ds).true_local_gradient(0, x)
        feats = ds.train_features
        labels = ds.train_labels.astype(float)
        loss = lambda z: float(np.mean((labels - sigmoid(feats @ z)) ** 2))
        fd = np.zeros(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-5
            fd[j] = (loss(x + e) - loss(x - e)) / 2e-5
        assert np.linalg.norm(fd - analytic) <= 1e-6 * max(1.0, np.linalg.norm(analytic))

    def test_full_shard_matches_central_differences(self, dataset):
        rng = np.random.default_rng(2)
        sl = dataset.shard_slice(3)
        feats = dataset.train_features[sl]
        labels = dataset.train_labels[sl].astype(float)
        loss = lambda z: float(np.mean((labels - sigmoid(feats @ z)) ** 2))
        problem = ClassificationProblem(dataset)
        for _ in range(5):
            x = rng.standard_normal(100)
            analytic = problem.true_local_gradient(3, x)
            fd = np.zeros(100)
            for j in range(100):
                e = np.zeros(100)
                e[j] = 1e-5
                fd[j] = (loss(x + e) - loss(x - e)) / 2e-5
            assert np.linalg.norm(fd - analytic) <= 1e-5 * np.linalg.norm(analytic)


class TestAccuracy:
    def test_reference_vector_is_perfect(self, dataset):
        assert accuracy(dataset, np.ones(100)) == 1.0

    def test_flipped_reference_is_near_zero(self, dataset):
        assert accuracy(dataset, -np.ones(100)) <= 0.01

    def test_zero_vector_predicts_all_positive(self, dataset):
        expected = float(np.mean(dataset.test_labels == 1))
        assert accuracy(dataset, np.zeros(100)) == expected


class TestClassificationProblem:
    def test_samples_stay_in_shard(self, dataset):
        problem = ClassificationProblem(dataset)
        rng = np.random.default_rng(0)
        for agent in range(10):
            start, stop = dataset.shard_bounds[agent]
            for _ in range(20):
                xi = problem.sample(agent, rng)
                assert start <= xi < stop

    def test_global_gradient_is_average_of_locals(self, dataset):
        problem = ClassificationProblem(dataset)
        x = np.random.default_rng(4).standard_normal(100)
        locals_ = [problem.true_local_gradient(i, x) for i in range(10)]
        assert np.allclose(
            problem.true_global_gradient(x), np.mean(locals_, axis=0), atol=1e-10
        )


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

    @pytest.mark.parametrize("zeta", [-0.1, float("nan"), float("inf")])
    def test_rejects_invalid_noise_level(self, zeta):
        with pytest.raises(ValueError, match="zeta"):
            make_quadratic_toy(2, 3, zeta=zeta)

    def test_zero_noise_oracle_is_deterministic_loss(self):
        problem = make_quadratic_toy(2, 3, seed=1, zeta=0.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        z = problem.sample(0, rng)
        assert np.all(z == 0.0)
        assert problem.evaluate(0, x, z) == problem.local_loss(0, x)

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
            deviation = central / (2.0 * h) - problem.true_local_gradient(0, x)
            assert np.allclose(deviation, z, rtol=0.0, atol=1e-12)
            deviations.append(deviation)
        assert abs(np.mean(deviations)) < 0.02
        assert abs(np.std(deviations) - 0.5) < 0.02

    def test_gradient_matches_central_differences(self):
        problem = make_quadratic_toy(4, 6, seed=3, zeta=0.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(6)
            analytic = problem.true_local_gradient(2, x)
            fd = np.zeros(6)
            for j in range(6):
                e = np.zeros(6)
                e[j] = 1e-5
                fd[j] = (problem.local_loss(2, x + e) - problem.local_loss(2, x - e)) / 2e-5
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

        def true_local_gradient(self, agent, x):
            return 2.0 * (x - agent)

        def local_loss(self, agent, x):
            return float(np.sum((x - agent) ** 2)) + 3.0  # E[xi^2] = 1 per coordinate

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
    return ClassificationProblem(ClassificationDataset(features, labels, features, labels, bounds))


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
