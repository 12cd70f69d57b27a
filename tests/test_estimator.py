import math
from itertools import combinations

import numpy as np
import pytest

from zoswarm.estimator import (
    CoordinateSample,
    OracleEvaluationError,
    SmoothingSchedule,
    central_estimate,
    forward_estimate,
    sample_coordinates,
)


def sphere(z):
    return float(z @ z)


class CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return self.fn(z)


class TestCoordinateSample:
    def test_full_set(self):
        rng = np.random.default_rng(0)
        assert sample_coordinates(1, 5, 5, rng)[0].indices == (0, 1, 2, 3, 4)

    def test_single_dimension(self):
        rng = np.random.default_rng(0)
        assert sample_coordinates(1, 1, 1, rng)[0].indices == (0,)

    def test_seeded_replay(self):
        first = sample_coordinates(3, 100, 10, np.random.default_rng(42))
        second = sample_coordinates(3, 100, 10, np.random.default_rng(42))
        assert first == second
        assert [sample.n_c for sample in first] == [10, 10, 10]
        assert all(0 <= j < 100 for sample in first for j in sample.indices)

    def test_rejects_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_coordinates(1, 5, 6, rng)
        with pytest.raises(ValueError):
            sample_coordinates(1, 5, 0, rng)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            CoordinateSample((1, 1))

    def test_uniform_coverage(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(6)
        for sample in sample_coordinates(3000, 6, 2, rng):
            for j in sample.indices:
                counts[j] += 1
        # each coordinate appears with frequency ~ n_c/p = 1/3
        assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)


class TestForwardEstimate:
    def test_hand_value_first_coordinate(self):
        got = forward_estimate(sphere, np.array([1.0, 0.0]), CoordinateSample((0,)), 0.1)
        assert np.allclose(got, [4.2, 0.0], atol=1e-12)

    def test_hand_value_second_coordinate(self):
        got = forward_estimate(sphere, np.array([1.0, 0.0]), CoordinateSample((1,)), 0.1)
        assert np.allclose(got, [0.0, 0.2], atol=1e-12)

    def test_exact_on_linear_functions(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(6)
        oracle = lambda z: float(c @ z)
        for delta in (1.0, 0.1, 1e-4):
            sample = sample_coordinates(1, 6, 3, rng)[0]
            got = forward_estimate(oracle, rng.standard_normal(6), sample, delta)
            expected = np.zeros(6)
            expected[list(sample.indices)] = (6 / 3) * c[list(sample.indices)]
            assert np.allclose(got, expected, atol=1e-9)

    def test_zero_outside_sampled_support(self):
        rng = np.random.default_rng(3)
        sample = sample_coordinates(1, 10, 3, rng)[0]
        got = forward_estimate(sphere, rng.standard_normal(10), sample, 0.05)
        outside = [j for j in range(10) if j not in sample.indices]
        assert np.all(got[outside] == 0.0)

    def test_evaluation_count(self):
        oracle = CountingOracle(sphere)
        forward_estimate(oracle, np.zeros(8), CoordinateSample((0, 3, 5)), 0.1)
        assert oracle.calls == 4  # base point shared across coordinates

    def test_non_finite_tagged_with_coordinate(self):
        def bad(z):
            return math.inf if z[2] > 0 else float(z @ z)

        with pytest.raises(OracleEvaluationError) as info:
            forward_estimate(bad, np.zeros(4), CoordinateSample((1, 2)), 0.1)
        assert info.value.coordinate == 2

    def test_non_finite_base_point(self):
        with pytest.raises(OracleEvaluationError) as info:
            forward_estimate(lambda z: math.nan, np.zeros(3), CoordinateSample((0,)), 0.1)
        assert info.value.coordinate is None

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            forward_estimate(sphere, np.zeros(2), CoordinateSample((0,)), 0.0)


class TestCentralEstimate:
    def test_hand_value_quadratic(self):
        got = central_estimate(sphere, np.array([1.0, 0.0]), CoordinateSample((0,)), 0.1)
        assert np.allclose(got, [4.0, 0.0], atol=1e-12)

    def test_constant_function_gives_zero(self):
        rng = np.random.default_rng(4)
        sample = sample_coordinates(1, 7, 4, rng)[0]
        got = central_estimate(lambda z: 3.25, rng.standard_normal(7), sample, 0.2)
        assert np.all(got == 0.0)

    def test_exact_on_linear_functions(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(5)
        sample = sample_coordinates(1, 5, 2, rng)[0]
        x = rng.standard_normal(5)
        got = central_estimate(lambda z: float(c @ z), x, sample, 0.3)
        expected = np.zeros(5)
        expected[list(sample.indices)] = (5 / 2) * c[list(sample.indices)]
        assert np.allclose(got, expected, atol=1e-10)

    def test_quadratic_exactness_random_trials(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = int(rng.integers(2, 9))
            raw = rng.standard_normal((p, p))
            hessian = raw + raw.T
            b = rng.standard_normal(p)
            x = rng.standard_normal(p)
            n_c = int(rng.integers(1, p + 1))
            sample = sample_coordinates(1, p, n_c, rng)[0]
            delta = float(rng.uniform(1e-3, 1e-1))
            oracle = lambda z: float(0.5 * z @ hessian @ z + b @ z)
            got = central_estimate(oracle, x, sample, delta)
            grad = hessian @ x + b
            expected = np.zeros(p)
            idx = list(sample.indices)
            expected[idx] = (p / n_c) * grad[idx]
            scale = max(np.abs(expected).max(), 1.0)
            assert np.all(np.abs(got - expected) <= 1e-9 * scale)

    def test_evaluation_count(self):
        oracle = CountingOracle(sphere)
        central_estimate(oracle, np.zeros(8), CoordinateSample((0, 3, 5)), 0.1)
        assert oracle.calls == 6

    def test_non_finite_tagged_with_coordinate(self):
        def bad(z):
            return math.nan if z[1] != 0 else float(z @ z)

        with pytest.raises(OracleEvaluationError) as info:
            central_estimate(bad, np.zeros(3), CoordinateSample((1,)), 0.1)
        assert info.value.coordinate == 1


class TestSubsetAveraging:
    def test_average_over_all_subsets_recovers_full_differences(self):
        # averaging the estimate over every size-n_c subset must reproduce
        # the full forward-difference vector
        rng = np.random.default_rng(7)
        p, n_c, delta = 6, 2, 0.05
        x = rng.standard_normal(p)
        c = rng.standard_normal(p)
        oracle = lambda z: float(0.5 * np.sum((z - c) ** 2))
        base = oracle(x)
        full = np.array(
            [(oracle(x + delta * np.eye(p)[j]) - base) / delta for j in range(p)]
        )
        subsets = list(combinations(range(p), n_c))
        assert len(subsets) == 15
        total = np.zeros(p)
        for s in subsets:
            total += forward_estimate(oracle, x, CoordinateSample(s), delta)
        assert np.all(np.abs(total / len(subsets) - full) < 1e-10)


class TestSmoothingOrder:
    def test_forward_error_is_first_order_central_second_order(self):
        # on ||x||^4 halving delta halves the forward error and quarters the
        # central error
        x = np.full(3, 0.8)
        quartic = lambda z: float(np.sum(z**2) ** 2)
        grad = 4.0 * np.sum(x**2) * x
        sample = CoordinateSample((0, 1, 2))

        def errors(estimate, delta):
            return np.linalg.norm(estimate(quartic, x, sample, delta) - grad)

        fw_ratio = errors(forward_estimate, 0.1) / errors(forward_estimate, 0.05)
        ct_ratio = errors(central_estimate, 0.1) / errors(central_estimate, 0.05)
        assert 1.5 < fw_ratio < 3.0
        assert 3.0 < ct_ratio < 6.0


class TestSmoothingSchedule:
    def test_decay_example_values(self):
        schedule = SmoothingSchedule(kappa_delta=1.0)
        assert abs(schedule.delta(100, 10, 0) - 0.17782794100389226) < 1e-12

    def test_decay_meets_cap_with_equality(self):
        schedule = SmoothingSchedule(kappa_delta=2.5)
        for k in (0, 3, 999):
            cap = 2.5 / (7**0.25 * 4**0.25 * (k + 1) ** 0.25)
            assert abs(schedule.delta(7, 4, k) - cap) < 1e-12

    def test_fixed_mode(self):
        schedule = SmoothingSchedule(mode="fixed", fixed_value=0.01)
        assert schedule.delta(100, 10, 0) == 0.01
        assert schedule.delta(100, 10, 9999) == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothingSchedule(kappa_delta=0.0)
        with pytest.raises(ValueError):
            SmoothingSchedule(mode="fixed")
        with pytest.raises(ValueError):
            SmoothingSchedule(mode="nope")
