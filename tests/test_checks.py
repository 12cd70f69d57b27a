"""The input rule, at every entry point that takes a count, size, index or seed,
at every entry point that takes a real-valued parameter or an array, and at
every site that reads a number a problem returns.

Each integer entry point rejects ``True``, ``2.0``, ``"3"`` and the value
just below its minimum with ``ValueError: <name> must be an integer of at
least <least>, got <value!r>``, and it takes a numpy integer at the minimum.
Each number entry point rejects a ``bool``, text, ``None`` (where ``None``
does not mean a default), NaN, an infinity, an integer beyond the float
range, a complex number and values just outside its interval with
``ValueError: <name> must be a finite number in <interval>, got <value!r>``,
and it takes a numpy float inside the interval.  On a config path the
error is a ``ConfigError`` that puts the section or the label in front.
Every error comes before the entry point draws, writes or runs a round.

Each array entry point rejects ``bool``, complex, numeric text, object and
ragged arrays, ``None``, a wrong shape or number of dimensions, an empty
array and a NaN or infinite entry with ``ValueError: <name> must be a finite
real array of shape <shape>, got <what>``, where ``<what>`` names the first
non-finite entry's index, and it takes integer and float32 arrays as the
float64 arrays of the same values.  The shipped problems' full-batch methods
check their point ``x`` so too.

Each value a problem returns, from ``evaluate``, ``full_loss`` or
``test_accuracy``, is read by the same number rule: the bad values above,
bytes and 0-d or 1-element arrays end in the error each site raises, and an
``int``, numpy integer or float, or ``Fraction`` is read as its ``float()``.
"""

import math
import re
import warnings
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zoswarm.config import (
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    build_problem,
    build_topology,
    load_config,
    resolve_hyperparams,
)
from zoswarm.dynamics import HyperParams, run, theorem_schedule
from zoswarm.estimator import (
    CoordinateSample,
    OracleEvaluationError,
    SmoothingSchedule,
    central_estimate,
    forward_estimate,
)
from zoswarm.graph import Topology, erdos_renyi, laplacian_spectrum
from zoswarm.harness import gamma_sweep
from zoswarm.metrics import capture_record, holder_norm_sq
from zoswarm.problems import (
    ClassificationProblem,
    QuadraticToyProblem,
    StochasticProblem,
    make_quadratic_toy,
    make_synthetic_classification,
)

TOPO = erdos_renyi(4, 1.0)
PROFILE = laplacian_spectrum(TOPO)
PARAMS = HyperParams(alpha=0.5 * PROFILE.alpha_max, eta=0.01, T=3)
TOY = load_config("toy_quadratic")


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


def untouched_oracle(z):
    raise AssertionError("the oracle was called")


def estimate_with(estimate):
    return lambda v: estimate(untouched_oracle, np.zeros(3), CoordinateSample((0, 2)), v)


def spec(name):
    """A call that resolves a ``zoom_pb`` spec whose ``name`` field is the value."""
    return lambda v: resolve_hyperparams(
        AlgorithmSpec(label="z", kind="zoom_pb", **{"eta": 0.1, name: v}), PROFILE, 4, 3, 5
    )


class Number(NamedTuple):
    """A number entry point: the name its error gives, its interval and a call with the value."""

    name: str
    interval: str
    call: Callable
    prefix: str = ""  # what a config path puts in front of the rule's message
    none_is_a_default: bool = False


NUMBER_ENTRY_POINTS = {
    "HyperParams.alpha": Number("alpha", "[0, inf)", lambda v: HyperParams(alpha=v, eta=0.1, T=3)),
    "HyperParams.eta": Number("eta", "[0, inf)", lambda v: HyperParams(alpha=0.1, eta=v, T=3)),
    "HyperParams.gamma": Number(
        "gamma",
        "(0, inf)",
        lambda v: HyperParams(alpha=0.1, eta=0.1, T=3, gamma=v),
        none_is_a_default=True,
    ),
    "SmoothingSchedule.value fixed": Number(
        "value", "(0, inf)", lambda v: SmoothingSchedule("fixed", v), none_is_a_default=True
    ),
    "SmoothingSchedule.value theorem_decay": Number(
        "value", "(0, inf)", lambda v: SmoothingSchedule("theorem_decay", v), none_is_a_default=True
    ),
    "erdos_renyi.prob": Number("prob", "(0, 1]", lambda v: erdos_renyi(5, v)),
    "QuadraticToyProblem.zeta": Number(
        "zeta", "[0, inf)", lambda v: QuadraticToyProblem(np.zeros((2, 3)), v)
    ),
    "make_quadratic_toy.zeta": Number(
        "zeta", "[0, inf)", lambda v: make_quadratic_toy(2, 3, zeta=v)
    ),
    "forward_estimate.delta": Number("delta", "(0, inf)", estimate_with(forward_estimate)),
    "central_estimate.delta": Number("delta", "(0, inf)", estimate_with(central_estimate)),
    "holder_norm_sq.q": Number("q", "(0, inf)", lambda v: holder_norm_sq(np.ones(3), v)),
    # a sweep that got past its gammas would build the problem: a forbidden draw
    "gamma_sweep.gammas": Number(
        "gamma", "(0, inf)", lambda v: gamma_sweep(TOY, [0.5, v]), "gamma sweep: "
    ),
    "build_topology.prob": Number(
        "prob",
        "(0, 1]",
        lambda v: build_topology(ExperimentConfig(topology={"n": 5, "prob": v})),
        "topology: ",
    ),
    "build_problem.zeta": Number(
        "zeta",
        "[0, inf)",
        lambda v: build_problem(ExperimentConfig(problem={"name": "quadratic_toy", "zeta": v})),
        "problem: ",
    ),
    "resolve_hyperparams.eta": Number("eta", "[0, inf)", spec("eta"), "algorithm 'z': "),
    "resolve_hyperparams.gamma": Number(
        "gamma", "(0, inf)", spec("gamma"), "algorithm 'z': ", none_is_a_default=True
    ),
    "resolve_hyperparams.alpha_frac": Number(
        "alpha_frac", "(0, 1)", spec("alpha_frac"), "algorithm 'z': "
    ),
}

# interval -> values just outside it, and values inside it
INTERVALS = {
    "[0, inf)": (st.floats(max_value=-5e-324), st.floats(0.0, 1e300)),
    "(0, inf)": (st.floats(max_value=0.0), st.floats(5e-324, 1e300)),
    "(0, 1]": (
        st.floats(max_value=0.0) | st.floats(min_value=math.nextafter(1.0, 2.0)),
        st.floats(5e-324, 1.0),
    ),
    "(0, 1)": (
        st.floats(max_value=0.0) | st.floats(min_value=1.0),
        st.floats(5e-324, math.nextafter(1.0, 0.0)),
    ),
}


def bad_numbers(interval, none_is_a_default):
    """``True`` or ``False``, text, ``None``, NaN, an infinity, a complex number
    or a value just outside ``interval``."""
    kinds = [
        st.booleans(),
        st.sampled_from(["0.5", "1", "nan", ""]),
        st.just(math.nan),
        st.sampled_from([math.inf, -math.inf]),
        st.just(10**400),  # finite as an int, beyond the float range
        st.complex_numbers(allow_nan=False, allow_infinity=False),
        INTERVALS[interval][0],
    ]
    if not none_is_a_default:
        kinds.append(st.none())
    return st.one_of(kinds)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.sampled_from(sorted(NUMBER_ENTRY_POINTS)), st.data())
def test_every_number_is_checked_by_the_one_rule(no_draws, entry, data):
    name, interval, call, prefix, none_is_a_default = NUMBER_ENTRY_POINTS[entry]
    bad = data.draw(bad_numbers(interval, none_is_a_default), label="bad")
    with pytest.raises(ValueError) as info:
        call(bad)
    assert type(info.value) is (ConfigError if prefix else ValueError)
    assert str(info.value) == f"{prefix}{name} must be a finite number in {interval}, got {bad!r}"
    # a numpy float inside the interval passes the rule; the call may then fail
    # on something else, such as the forbidden draw or the untouchable oracle
    good = np.float64(data.draw(INTERVALS[interval][1], label="good"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gammas outside the guarantees, overflow
            call(good)
    except Exception as exc:
        assert not str(exc).startswith(f"{prefix}{name} must be a finite number")


@pytest.mark.parametrize("factor", [0.0, 1.0, 2.0])
def test_a_run_takes_alpha_only_inside_its_topologys_bound(no_draws, factor):
    alpha = factor * PROFILE.alpha_max
    message = f"alpha must be a finite number in (0, {PROFILE.alpha_max!r}), got {alpha!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(TOPO, Untouchable(), replace(PARAMS, alpha=alpha))


def test_a_config_alpha_that_underflows_is_named(no_draws):
    # alpha_frac passes its own rule, but the product alpha_frac * alpha_max is 0.0
    message = f"algorithm 'z': alpha must be a finite number in (0, {PROFILE.alpha_max!r}), got 0.0"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        spec("alpha_frac")(5e-324)


CLASSIFICATION = {
    "train_features": np.array([[1, 0], [0, 1], [1, 1], [2, -1], [0, 0], [-1, 2]], float),
    "train_labels": np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0]),
    "test_features": np.array([[1.0, 2.0], [-1.0, 0.0], [0.0, 3.0]]),
    "test_labels": np.array([1.0, 0.0, 1.0]),
}


def classification(**changed):
    """What a two-agent classification problem computes, with ``changed`` arrays."""
    problem = ClassificationProblem(**(CLASSIFICATION | changed), shard_bounds=((0, 3), (3, 6)))
    x = np.array([0.5, -0.25])
    return (
        problem.full_loss(x),
        problem.true_global_gradient(x).tolist(),
        problem.test_accuracy(x),
        problem.evaluate(1, x, 3),
    )


def toy(centers):
    problem = QuadraticToyProblem(centers, 0.5)
    x = np.ones(3)
    return (
        problem.full_loss(x),
        problem.true_global_gradient(x).tolist(),
        problem.evaluate(1, x, np.ones(3)),
        problem.optimal_value(),
    )


def topology(weights):
    topo = Topology(3, weights)
    return topo.neighbours.tolist(), topo.coefficients.tolist(), laplacian_spectrum(topo).alpha_max


def estimate_at(estimate):
    def call(x):
        calls = []

        def oracle(z):
            calls.append(z.copy())
            return float(z @ z)

        try:
            return estimate(oracle, x, CoordinateSample((0, 2)), 0.5).tolist()
        except ValueError:
            assert calls == []  # raised before any oracle call
            raise

    return call


class Diagnostics:
    """Hands back the given gradient and loss and logs each call."""

    def __init__(self, gradient, loss):
        self.gradient, self.loss, self.calls = gradient, loss, []

    def true_global_gradient(self, x):
        self.calls.append("true_global_gradient")
        return self.gradient

    def full_loss(self, x):
        self.calls.append("full_loss")
        return self.loss


def record_with(gradient=np.array([1.0, 2.0, 3.0]), loss=2.0):
    problem = Diagnostics(gradient, loss)
    try:
        return capture_record(problem, np.zeros((2, 3)), 7, 0.5, 0, 0.0)
    finally:
        # each method once, and no loss after a rejected gradient
        assert problem.calls in (["true_global_gradient"], ["true_global_gradient", "full_loss"])


# a problem, an integer-valued point it takes, shapes of point it rejects and
# the full-batch methods that check their point
FULL_BATCH = (
    (
        ClassificationProblem(**CLASSIFICATION, shard_bounds=((0, 3), (3, 6))),
        np.array([1.0, -2.0]),
        ((3,), (1,), (2, 1), ()),
        ("full_loss", "true_global_gradient", "test_accuracy"),
    ),
    (
        QuadraticToyProblem(np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 2.0]]), 0.5),
        np.array([1.0, -2.0, 3.0]),
        ((2,), (4,), (3, 1), ()),
        ("full_loss", "true_global_gradient"),
    ),
)


class ArraySite(NamedTuple):
    """An array entry point: the name its error gives, an integer-valued float64
    array it takes, a call with the array, shapes it rejects and whether a
    float64 array skips the scan for non-finite entries."""

    name: str
    good: np.ndarray
    call: Callable
    wrong_shapes: tuple
    unscanned: bool = False


ARRAY_SITES = {
    "Topology.weights": ArraySite(
        "weights",
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]),
        topology,
        ((3,), (3, 4), (4, 3), (2, 2), (3, 3, 1)),
    ),
    "QuadraticToyProblem.centers": ArraySite(
        "centers", np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 2.0]]), toy, ((3,), (2, 3, 1))
    ),
    **{
        f"ClassificationProblem.{name}": ArraySite(
            name, CLASSIFICATION[name], lambda v, name=name: classification(**{name: v}), wrong
        )
        for name, wrong in (
            ("train_features", ((6,), (6, 2, 1))),
            ("train_labels", ((6, 1), (1, 6), (5,), (7,), ())),
            ("test_features", ((3,), (3, 3), (3, 1), (3, 2, 1))),
            ("test_labels", ((3, 1), (2,), (4,))),
        )
    },
    "forward_estimate.x": ArraySite(
        "x", np.array([1.0, -2.0, 3.0]), estimate_at(forward_estimate), ((3, 1), (1, 3), ()), True
    ),
    "central_estimate.x": ArraySite(
        "x", np.array([1.0, -2.0, 3.0]), estimate_at(central_estimate), ((3, 1), (1, 3), ()), True
    ),
    "capture_record.gradient": ArraySite(
        "true_global_gradient at iteration 7",
        np.array([1.0, 2.0, 3.0]),
        lambda v: record_with(gradient=v),
        ((2,), (4,), (3, 1), ()),
    ),
    **{
        f"{type(problem).__name__}.{method}.x": ArraySite(
            "x", good, lambda v, m=getattr(problem, method): np.asarray(m(v)).tolist(), wrong, True
        )
        for problem, good, wrong, methods in FULL_BATCH
        for method in methods
    },
}

RAGGED = ([[0.0, 1.0], [2.0]], [1.0, [2.0, 3.0]], [[[0.0]], [1.0, 2.0]])


@st.composite
def bad_arrays(draw, site):
    """A drawn bad array for ``site``, its kind and, for a non-finite entry, the
    message's ending."""
    good, shape = site.good, site.good.shape
    kind = draw(
        st.sampled_from(
            ["bool", "complex", "text", "object", "ragged", "shape", "empty", "non-finite"]
        )
    )
    if kind == "non-finite":
        index = tuple(draw(st.integers(0, size - 1)) for size in shape)
        entry = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        array = good.copy()
        array[index] = entry
        # a float64 point is not scanned, so it reaches the estimators as a list or float32
        containers = ["float32", "list"] + ([] if site.unscanned else ["float64"])
        container = draw(st.sampled_from(containers))
        value = {"float64": array, "float32": array.astype(np.float32), "list": array.tolist()}
        return value[container], kind, f", got {entry} at index {index}"
    if kind == "empty":
        axis = draw(st.integers(0, len(shape) - 1)) if shape else None
        return np.ones(0 if axis is None else shape[:axis] + (0,) + shape[axis + 1 :]), kind, None
    choices = {
        "bool": [good != 0.0, good.astype(bool).tolist()],
        "complex": [good + 1j, good.astype(complex)],
        "text": [good.astype(str), good.astype(str).tolist()],
        "object": [good.astype(object), None],
        "ragged": list(RAGGED),
        "shape": [np.ones(wrong) for wrong in site.wrong_shapes],
    }[kind]
    return draw(st.sampled_from(choices)), kind, None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SITES)), st.data())
def test_every_array_is_checked_by_the_one_rule(entry, data):
    site = ARRAY_SITES[entry]
    bad, kind, ending = data.draw(bad_arrays(site), label="bad")
    with pytest.raises(ValueError) as info:
        site.call(bad)
    message = str(info.value)
    assert type(info.value) is ValueError
    assert message.startswith(f"{site.name} must be a finite real array of shape ("), message
    if ending is not None:
        assert message.endswith(ending)
    elif kind in ("shape", "empty"):
        assert message.endswith(f", got shape {np.shape(bad)}")
    # an int64 or float32 array or a list of the same values gives the float64 results
    same = data.draw(st.sampled_from(["int64", "float32", "list"]), label="same values")
    value = site.good.tolist() if same == "list" else site.good.astype(same)
    assert site.call(value) == site.call(site.good)


def test_a_label_column_is_rejected_at_construction():
    # before, an (n, 1) column passed: evaluate read every label as 1.0, full_loss
    # ended in a broadcast error and the gradient came back as an (n, d) matrix
    message = "train_labels must be a finite real array of shape (6,), got shape (6, 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classification(train_labels=np.zeros((6, 1)))


class ReturnsAt(StochasticProblem):
    """Two agents on one coordinate with oracle ``F(x) = x . x``, except that agent
    1's oracle returns ``value`` where ``x[0]`` has the sign ``where``: 0 at the
    unshifted base point of round 0, 1 and -1 at the probes above and below it.
    The diagnostics return ``loss`` and ``accuracy``."""

    dimension, local_count = 1, 2

    def __init__(self, where=None, value=None, loss=0.25, accuracy=None):
        self.where, self.value, self.loss, self.accuracy = where, value, loss, accuracy

    def sample(self, agent, rng):
        return None

    def evaluate(self, agent, x, xi):
        return self.value if agent == 1 and np.sign(x[0]) == self.where else float(x @ x)

    def true_global_gradient(self, x):
        return 2.0 * x

    def full_loss(self, x):
        return self.loss

    def test_accuracy(self, x):
        return self.accuracy


PAIR = Topology(2, np.ones((2, 2)) - np.eye(2))


def one_round(estimator, **returns):
    """The trajectory of one round on :data:`PAIR` with a :class:`ReturnsAt` problem."""
    params = HyperParams(
        alpha=0.5 * laplacian_spectrum(PAIR).alpha_max,
        eta=0.01,
        T=1,
        estimator=estimator,
        smoothing=SmoothingSchedule("fixed", 0.5),
    )
    return run(PAIR, ReturnsAt(**returns), params)


class ScalarSite(NamedTuple):
    """A site that reads a number a problem returns: a call with the value, which
    gives what was read from it, the error for a bad one, its message, the
    ``(coordinate, agent, k)`` an oracle error names, the interval of numbers
    the site takes and whether it takes ``None`` too."""

    call: Callable
    error: type
    message: Callable
    names: tuple | None = None
    interval: str = "(-inf, inf)"
    none_means_no_value: bool = False


def oracle_site(estimator, side, in_run):
    """The oracle value read at the base point (side 0) or at the probe above or below it."""
    where = "at the base point" if side == 0 else "probing coordinate 0"
    coordinate = None if side == 0 else 0
    if in_run:

        def call(v):
            trajectory = one_round(estimator, where=side, value=v)
            return trajectory.records, trajectory.final_state.iterates.tobytes()

        return ScalarSite(
            call,
            OracleEvaluationError,
            lambda bad: f"oracle returned {bad!r}, not a finite number, {where} "
            "at iteration 0 on agent 1",
            (coordinate, 1, 0),
        )
    estimate = forward_estimate if estimator == "forward" else central_estimate
    return ScalarSite(
        lambda v: estimate(
            lambda z: ReturnsAt(side, v).evaluate(1, z, None),
            np.zeros(1),
            CoordinateSample((0,)),
            0.5,
        ).tobytes(),
        OracleEvaluationError,
        lambda bad: f"oracle returned {bad!r}, not a finite number, {where}",
        (coordinate, None, None),
    )


SCALAR_SITES = {
    **{
        f"{estimator}_estimate.{name}{' in run' if in_run else ''}": oracle_site(
            estimator, side, in_run
        )
        for estimator, sides in (
            ("forward", (("base", 0), ("probe", 1))),
            ("central", (("hi", 1), ("lo", -1))),
        )
        for name, side in sides
        for in_run in (False, True)
    },
    "capture_record.full_loss": ScalarSite(
        lambda v: repr(record_with(loss=v).mean_train_loss),  # exact, and names the type
        ValueError,
        lambda bad: f"full_loss at iteration 7 must be a finite number in (-inf, inf), got {bad!r}",
    ),
    "run.test_accuracy": ScalarSite(
        lambda v: repr(one_round("forward", accuracy=v).final_accuracy),
        ValueError,
        lambda bad: f"test_accuracy at iteration 1 must be a finite number in [0, 1], got {bad!r}",
        interval="[0, 1]",
        none_means_no_value=True,
    ),
}

# interval -> (its ends for drawn good values, values just outside it)
SCALAR_INTERVALS = {
    "(-inf, inf)": ((-1000, 1000), st.nothing()),
    "[0, 1]": (
        (0, 1),
        st.floats(max_value=-5e-324) | st.floats(min_value=math.nextafter(1.0, 2.0)),
    ),
}


def bad_values(interval, none_means_no_value):
    """A value the number rule rejects, as a problem might return it."""
    return st.one_of(
        st.booleans() | st.sampled_from([np.True_, np.False_]),
        st.sampled_from(["0.25", "1", "nan"]),
        st.sampled_from([b"0.25", b"1"]),
        st.nothing() if none_means_no_value else st.none(),
        st.complex_numbers(allow_nan=False, allow_infinity=False),
        st.floats(0.0, 1.0).map(np.array),  # 0-d
        st.floats(0.0, 1.0).map(lambda v: np.array([v])),
        st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
        st.just(10**400),
        SCALAR_INTERVALS[interval][1],
    )


def good_values(interval):
    """An int, numpy integer or float, or Fraction inside ``interval``."""
    low, high = SCALAR_INTERVALS[interval][0]
    return st.one_of(
        st.integers(low, high),
        st.integers(low, high).map(np.int64),
        st.floats(low, high, width=32).map(np.float32),
        st.floats(low, high).map(np.float64),
        st.fractions(low, high, max_denominator=10**6),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SCALAR_SITES)), st.data())
def test_every_number_a_problem_returns_is_read_by_the_one_rule(entry, data):
    site = SCALAR_SITES[entry]
    bad = data.draw(bad_values(site.interval, site.none_means_no_value), label="bad")
    with pytest.raises(site.error) as info:
        site.call(bad)
    error = info.value
    assert type(error) is site.error
    assert str(error) == site.message(bad)
    if site.names is not None:
        assert (error.coordinate, error.agent, error.k) == site.names
    # a good value is read as its float(), bit for bit
    good = data.draw(good_values(site.interval), label="good")
    assert site.call(good) == site.call(float(good))
