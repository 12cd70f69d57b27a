import math
import re

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
        assert sample_coordinates(1, 5, 5, rng)[0] == (0, 1, 2, 3, 4)

    def test_single_dimension(self):
        rng = np.random.default_rng(0)
        assert sample_coordinates(1, 1, 1, rng)[0] == (0,)

    def test_seeded_replay(self):
        first = sample_coordinates(3, 100, 10, np.random.default_rng(42))
        second = sample_coordinates(3, 100, 10, np.random.default_rng(42))
        assert first == second
        assert [sample.n_c for sample in first] == [10, 10, 10]
        assert all(0 <= j < 100 for sample in first for j in sample)

    def test_rejects_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_coordinates(1, 5, 6, rng)
        with pytest.raises(ValueError):
            sample_coordinates(1, 5, 0, rng)

    @pytest.mark.parametrize(
        "indices, message", [((1, 1), "distinct, got (1, 1)"), ((), "cannot be empty")]
    )
    def test_rejects_repeated_or_no_indices(self, indices, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CoordinateSample(indices)

    def test_uniform_coverage(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(6)
        for sample in sample_coordinates(3000, 6, 2, rng):
            for j in sample:
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
            expected[list(sample)] = (6 / 3) * c[list(sample)]
            assert np.allclose(got, expected, atol=1e-9)

    def test_zero_outside_sampled_support(self):
        rng = np.random.default_rng(3)
        sample = sample_coordinates(1, 10, 3, rng)[0]
        got = forward_estimate(sphere, rng.standard_normal(10), sample, 0.05)
        outside = [j for j in range(10) if j not in sample]
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


@pytest.mark.parametrize("estimate", [forward_estimate, central_estimate])
def test_an_index_beyond_the_dimension_is_named(estimate):
    # the probe's memoryview would otherwise end this in a bare IndexError
    oracle = CountingOracle(sphere)
    message = r"^coordinate index 3 is out of range for dimension p = 3$"
    with pytest.raises(ValueError, match=message):
        estimate(oracle, np.zeros(3), CoordinateSample((1, 3)), 0.1)
    assert oracle.calls == 0
    estimate(oracle, np.zeros(3), CoordinateSample((2,)), 0.1)  # the last index is in range


@pytest.mark.parametrize("estimate", [forward_estimate, central_estimate])
@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
def test_a_delta_outside_zero_to_infinity_is_rejected_before_any_probe(estimate, delta):
    # a NaN radius would otherwise probe at NaN and blame the oracle
    oracle = CountingOracle(sphere)
    message = rf"^delta must be a finite number in \(0, inf\), got {re.escape(repr(delta))}$"
    with pytest.raises(ValueError, match=message):
        estimate(oracle, np.zeros(3), CoordinateSample((0, 2)), delta)
    assert oracle.calls == 0


@pytest.mark.parametrize("estimate", [forward_estimate, central_estimate])
@pytest.mark.parametrize("x", [np.zeros((2, 2)), np.array(1.0)], ids=["matrix", "scalar"])
def test_a_point_that_is_not_a_vector_is_named_by_shape(estimate, x):
    # the probe's memoryview would otherwise end this in a bare
    # NotImplementedError or TypeError
    oracle = CountingOracle(sphere)
    shape = re.escape(str(x.shape))
    message = rf"^x must be a finite real array of shape \(p,\), got shape {shape}$"
    with pytest.raises(ValueError, match=message):
        estimate(oracle, x, CoordinateSample((0,)), 0.1)
    assert oracle.calls == 0


@pytest.mark.parametrize("estimate", [forward_estimate, central_estimate])
@pytest.mark.parametrize("value", [None, "abc", np.zeros(2), 1j], ids=["None", "str", "array", "complex"])
def test_a_value_float_rejects_is_named_with_its_coordinate(estimate, value):
    def bad(z):
        return value if z[2] != 0.0 else float(z @ z)

    message = f"oracle returned {value!r}, not a finite number, probing coordinate 2"
    with pytest.raises(OracleEvaluationError, match=f"^{re.escape(message)}$"):
        estimate(bad, np.zeros(4), CoordinateSample((1, 2)), 0.1)
    with pytest.raises(OracleEvaluationError) as info:
        estimate(lambda z: value, np.zeros(4), CoordinateSample((1, 2)), 0.1)
    # the forward estimate reads the base point first
    assert info.value.coordinate == (None if estimate is forward_estimate else 1)
    assert info.value.__cause__ is None


@pytest.mark.parametrize("estimate", [forward_estimate, central_estimate])
def test_an_error_the_oracle_raises_itself_is_not_relabelled(estimate):
    def raises(z):
        raise TypeError("the oracle's own failure")

    with pytest.raises(TypeError, match="^the oracle's own failure$"):
        estimate(raises, np.zeros(3), CoordinateSample((0,)), 0.1)


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
        expected[list(sample)] = (5 / 2) * c[list(sample)]
        assert np.allclose(got, expected, atol=1e-10)

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
        schedule = SmoothingSchedule()
        assert schedule == SmoothingSchedule("theorem_decay", 1.0)  # kappa defaults to 1
        assert abs(schedule.delta(100, 10, 0) - 0.17782794100389226) < 1e-12

    def test_decay_meets_cap_with_equality(self):
        schedule = SmoothingSchedule(value=2.5)
        for k in (0, 3, 999):
            cap = 2.5 / (7**0.25 * 4**0.25 * (k + 1) ** 0.25)
            assert abs(schedule.delta(7, 4, k) - cap) < 1e-12

    def test_fixed_mode(self):
        schedule = SmoothingSchedule(mode="fixed", value=0.01)
        assert schedule.delta(100, 10, 0) == 0.01
        assert schedule.delta(100, 10, 9999) == 0.01

    @pytest.mark.parametrize("mode", ["theorem_decay", "fixed"])
    def test_a_numpy_value_gives_the_python_float_radius(self, mode):
        # an estimate checks a Python float radius with one comparison and
        # any other with the full number rule, once per agent and round
        plain, numpy = SmoothingSchedule(mode, 0.3), SmoothingSchedule(mode, np.float64(0.3))
        for k in (0, 7):
            assert type(numpy.delta(5, 4, k)) is float
            assert numpy.delta(5, 4, k) == plain.delta(5, 4, k)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mode": "fixed"}, "^fixed mode needs a radius value$"),
            ({"mode": "nope"}, "^mode must be one of"),
            # an array holding a mode would pass a bare `in` test and be stored
            (
                {"mode": np.array(["fixed"]), "value": 0.1},
                r"^mode must be one of \('theorem_decay', 'fixed'\), got array\(\['fixed'\]",
            ),
            *(
                (
                    {"mode": mode, "value": bad},
                    rf"^value must be a finite number in \(0, inf\), got {bad!r}$",
                )
                for mode in ("theorem_decay", "fixed")
                # a non-finite radius would otherwise surface as an oracle failure mid-run
                for bad in (0.0, -0.5, math.nan, math.inf)
            ),
        ],
    )
    def test_rejected_shapes(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SmoothingSchedule(**kwargs)

    @pytest.mark.parametrize("keyword", ["kappa_delta", "fixed_value"])
    def test_old_keywords_are_gone(self, keyword):
        # each silently ignored the other mode's setting
        with pytest.raises(TypeError, match=keyword):
            SmoothingSchedule(**{keyword: 0.01})
