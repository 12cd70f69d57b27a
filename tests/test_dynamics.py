import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoswarm import dynamics, graph
from zoswarm.dynamics import (
    DivergenceError,
    HyperParams,
    RunStreams,
    SwarmState,
    powerball,
    run,
    step,
    theorem_schedule,
)
from zoswarm.estimator import (
    OracleEvaluationError,
    SmoothingSchedule,
    forward_estimate,
    sample_coordinates,
)
from zoswarm.graph import Topology, erdos_renyi, laplacian_product, laplacian_spectrum
from zoswarm.problems import QuadraticToyProblem, make_quadratic_toy

FINITE = st.floats(allow_nan=False, allow_infinity=False)
VECTORS = st.lists(FINITE, min_size=1, max_size=40).map(np.array)
GAMMAS = st.floats(0.05, 1.0)


def mixing_row(topo, iterates, i):
    """Row i of ``L @ X`` as ``step`` sums it: agent i's table entries, in slot order.

    ``iterates`` may also be a vector, as in the spectral solve's products.
    """
    return np.einsum("j,j...->...", topo.coefficients[i], iterates[topo.neighbours[i]])


def path3():
    return Topology(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


class TestPowerball:
    def test_square_roots_with_sign(self):
        assert np.array_equal(powerball(np.array([4.0, -4.0, 0.0]), 0.5), [2.0, -2.0, 0.0])
        # a scalar or 0-d input too, zero included
        assert [float(powerball(v, 0.5)) for v in (4.0, np.array(-4.0), 0.0)] == [2.0, -2.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40).map(np.array))
    def test_gamma_one_is_identity(self, v):
        # bit for bit, with signed zeros, infinities and NaNs always among the entries
        v = np.append(v, [-0.0, 0.0, -np.inf, np.nan])
        out = powerball(v, 1.0)
        assert out.tobytes() == v.tobytes()
        assert out is not v  # no aliasing of the input buffer

    def test_unit_entries_are_fixed_points(self):
        for gamma in (0.5, 0.7, 0.9, 1.0):
            assert np.array_equal(powerball(np.array([1.0, -1.0]), gamma), [1.0, -1.0])

    @settings(max_examples=200, deadline=None)
    @given(VECTORS, GAMMAS)
    def test_odd_and_monotone(self, v, gamma):
        assert np.array_equal(powerball(-v, gamma), -powerball(v, gamma))
        x = np.sort(v)
        assert np.all(np.diff(powerball(x, gamma)) >= 0.0)


class TestConsensusTerm:
    """The Laplacian mixing part of ``step``, isolated by ``eta = 0``."""

    @staticmethod
    def mix(topo, iterates, alpha):
        params = HyperParams(alpha=alpha, eta=0.0, T=1)
        n, p = iterates.shape
        problem = make_quadratic_toy(n, p, seed=0)
        state = SwarmState(iterates, 0)
        return step(state, topo, params, problem, RunStreams.from_seed(0)).iterates

    def test_identical_rows_annihilated(self):
        rows = np.tile([2.0, -1.0], (3, 1))
        assert np.allclose(self.mix(path3(), rows, 0.05), rows, atol=1e-12)

    def test_two_agent_hand_value(self):
        topo = Topology(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        mixed = self.mix(topo, np.array([[1.0], [0.0]]), 0.25)
        assert np.array_equal(mixed, [[0.75], [0.25]])

    def test_isolated_agent_contributes_nothing(self):
        # disconnected in weights; unit-testable even though runs reject it
        weights = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        topo = Topology(3, weights)
        # the isolated agent's row is all padding: itself with coefficient 0.0
        assert topo.neighbours[2].tolist() == [2, 2]
        assert topo.coefficients[2].tolist() == [0.0, 0.0]
        start = np.random.default_rng(0).standard_normal((3, 2))
        mixed = self.mix(topo, start, 0.2)
        assert np.array_equal(mixed[2], start[2])
        assert not np.array_equal(mixed[0], start[0])

    def test_swarm_scale_mixing_is_the_slot_order_table_sum(self):
        # at the 1000-agent benchmark shape a BLAS product L @ X sums in an order
        # of its own, which can move with the thread count; the mixing must be
        # the table sum, slot by slot, exactly
        topo = erdos_renyi(1000, 0.0207, seed=2)
        iterates = np.random.default_rng(5).standard_normal((1000, 10))
        c, nb = topo.coefficients, topo.neighbours
        table_sum = c[:, 0, None] * iterates[nb[:, 0]]
        for j in range(1, c.shape[1]):
            table_sum += c[:, j, None] * iterates[nb[:, j]]
        # alpha = 1 leaves every bit of the sum in the update; eta = 0 adds a zero
        assert np.array_equal(self.mix(topo, iterates, 1.0), iterates - table_sum)


class TestLaplacianProduct:
    """``laplacian_product`` gathers a block of rows at a time; no row may notice."""

    @staticmethod
    def weighted_with_isolated_agent():
        rng = np.random.default_rng(4)
        w = np.triu(rng.uniform(0.5, 2.0, (8, 8)) * (rng.random((8, 8)) < 0.5), 1)
        w[:, 7] = 0.0  # agent 7 talks to no one: its row is all padding
        return Topology(8, w + w.T)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("shape", [(8,), (8, 1), (8, 5)], ids=["vector", "column", "matrix"])
    def test_blocks_sum_each_row_in_slot_order(self, monkeypatch, rows, shape):
        topo = self.weighted_with_isolated_agent()
        assert topo.coefficients[7].tolist() == [0.0] * topo.coefficients.shape[1]
        x = np.random.default_rng(6).standard_normal(shape)
        # blocks of `rows` agents: 8 rows split 1 by 1, or 3, 3 and a partial 2
        width = topo.coefficients.shape[1]
        monkeypatch.setattr(graph, "DRAW_CHUNK", rows * width * math.prod(shape[1:]))
        got = laplacian_product(topo, x)
        rows_one_at_a_time = np.array([mixing_row(topo, x, i) for i in range(topo.n)])
        assert got.tobytes() == rows_one_at_a_time.tobytes()
        assert got.shape == x.shape
        assert np.all(got[7] == 0.0)  # the all-padding row adds nothing

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 60),
        st.integers(0, 12),
        st.integers(1, 400),
        st.integers(0, 2**31 - 1),
    )
    def test_any_block_size_keeps_every_bit(self, n, p, chunk, seed):
        topo = erdos_renyi(n, 0.6, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p) if p else n)
        whole = laplacian_product(topo, x)
        original = graph.DRAW_CHUNK
        try:
            graph.DRAW_CHUNK = chunk  # hypothesis runs examples without fixture resets
            blocked = laplacian_product(topo, x)
        finally:
            graph.DRAW_CHUNK = original
        assert blocked.tobytes() == whole.tobytes()

    def test_a_step_keeps_no_gathered_table(self):
        # a whole-table gather iterates[neighbours] alone is 8 n width p bytes
        n, p = 1000, 10
        topo = erdos_renyi(n, 0.0207, seed=2)  # the toy_swarm_1k topology
        width = topo.neighbours.shape[1]
        problem = make_quadratic_toy(n, p, seed=0, zeta=0.5)
        alpha = 0.5 * laplacian_spectrum(topo).alpha_max
        params = HyperParams(alpha=alpha, eta=0.02, T=2, estimator="central")
        streams = RunStreams.from_seed(0)
        state = step(SwarmState(np.zeros((n, p)), 0), topo, params, problem, streams)
        tracemalloc.start()
        try:
            step(state, topo, params, problem, streams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * n * width * p


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=-0.1, eta=0.1, T=10)
        with pytest.raises(ValueError):
            HyperParams(alpha=0.1, eta=-1.0, T=10)
        with pytest.raises(ValueError):
            HyperParams(alpha=0.1, eta=0.1, T=-1)
        with pytest.raises(ValueError):
            HyperParams(alpha=0.1, eta=0.1, T=10, estimator="secant")
        with pytest.raises(ValueError):
            HyperParams(alpha=0.1, eta=0.1, T=10, n_c=0)
        with pytest.raises(ValueError, match="algorithm must be one of"):
            HyperParams(alpha=0.1, eta=0.1, T=10, algorithm="sgd")

    @pytest.mark.parametrize(("algorithm", "gamma"), [("zoom", 1.0), ("zoom_pb", 0.7)])
    def test_unset_gamma_resolves_by_algorithm(self, algorithm, gamma):
        assert HyperParams(alpha=0.1, eta=0.1, T=10, algorithm=algorithm).gamma == gamma
        assert HyperParams(alpha=0.1, eta=0.1, T=10, algorithm=algorithm, gamma=0.5).gamma == 0.5

    def test_gamma_outside_guarantee_range_warns_but_runs(self):
        with pytest.warns(RuntimeWarning, match="outside") as caught:
            params = HyperParams(alpha=0.1, eta=0.1, T=10, gamma=0.3)
        assert params.gamma == 0.3
        assert caught[0].filename == __file__  # names the caller, not the generated __init__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in (0.5, 1.0):  # the ends of the range are covered
                HyperParams(alpha=0.1, eta=0.1, T=10, gamma=gamma)

    @pytest.mark.parametrize(
        "name, choices", [("algorithm", dynamics.ALGORITHMS), ("estimator", dynamics.ESTIMATORS)]
    )
    def test_a_choice_must_be_text(self, name, choices):
        # an array holding a valid choice would pass a bare `in` test and be stored
        value = np.array([choices[-1]])
        message = f"{name} must be one of {choices}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HyperParams(alpha=0.1, eta=0.1, T=10, **{name: value})

    def test_numbers_are_kept_as_python_numbers(self):
        # a Fraction made the iterates an object array, which numpy's einsum refuses,
        # and an np.int8 n_c wrapped the oracle-call count past 127
        exact = HyperParams(
            alpha=Fraction(1, 20), eta=Fraction(1, 10), T=np.int64(10), algorithm="zoom_pb",
            gamma=Fraction(7, 10), n_c=np.int8(2), estimator="central",
        )
        plain = HyperParams(
            alpha=0.05, eta=0.1, T=10, algorithm="zoom_pb", gamma=0.7, n_c=2, estimator="central"
        )
        assert exact == plain
        assert [type(getattr(exact, name)) for name in ("alpha", "eta", "gamma", "T", "n_c")] == [
            float, float, float, int, int
        ]
        topo, problem = erdos_renyi(4, 1.0), make_quadratic_toy(4, 3)
        assert run(topo, problem, exact, seed=5).records == run(topo, problem, plain, seed=5).records


class TestTheoremSchedule:
    def test_benchmark_scale_value(self):
        assert abs(theorem_schedule(10, 100, 10000) - 0.0031622776601683794) < 1e-18

    def test_unit_case(self):
        assert theorem_schedule(1, 1, 1) == 1.0

    def test_warns_on_short_horizon(self):
        with pytest.warns(RuntimeWarning, match="n\\^3/p"):
            theorem_schedule(10, 2, 100)  # n^3/p = 500 > 100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theorem_schedule(2, 8, 1)  # T = n^3/p is long enough


class TestSteps:
    def test_alpha_zero_single_agent_is_coordinate_descent(self):
        # with one agent and no mixing the update is exactly x - eta * g
        from zoswarm.estimator import central_estimate

        problem = make_quadratic_toy(1, 3, seed=2, zeta=0.0)
        params = HyperParams(alpha=0.0, eta=0.1, T=1, estimator="central")
        streams = RunStreams.from_seed(7)
        shadow = RunStreams.from_seed(7)
        state = SwarmState(np.array([[1.0, -2.0, 0.5]]), 0)
        nxt = step(state, Topology(1, np.zeros((1, 1))), params, problem, streams)
        (coords,) = sample_coordinates(1, 3, 1, shadow.coords)
        xi = problem.sample(0, shadow.data)
        delta = params.smoothing.delta(3, 1, 0)
        g = central_estimate(
            lambda z: problem.evaluate(0, z, xi), state.iterates[0], coords, delta
        )
        assert np.array_equal(nxt.iterates[0], state.iterates[0] - 0.1 * g)

    def test_two_agent_step_matches_scripted_replay(self):
        topo = Topology(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        profile = laplacian_spectrum(topo)
        problem = make_quadratic_toy(2, 2, seed=3, zeta=0.4)
        eta = theorem_schedule(2, 2, 50)
        params = HyperParams(alpha=0.8 * profile.alpha_max, eta=eta, T=50)
        streams = RunStreams.from_seed(21)
        shadow = RunStreams.from_seed(21)
        state = SwarmState(np.array([[1.0, 0.0], [0.0, 1.0]]), 0)
        nxt = step(state, topo, params, problem, streams)
        delta = params.smoothing.delta(2, 2, 0)
        expected = np.empty((2, 2))
        coords = sample_coordinates(2, 2, 1, shadow.coords)  # one block per round
        for i in range(2):
            xi = problem.sample(i, shadow.data)  # agents draw data in index order
            g = forward_estimate(
                lambda z, a=i, r=xi: problem.evaluate(a, z, r),
                state.iterates[i],
                coords[i],
                delta,
            )
            expected[i] = (
                state.iterates[i]
                - params.alpha * mixing_row(topo, state.iterates, i)
                - params.eta * g
            )
        assert np.array_equal(nxt.iterates, expected)
        assert nxt.k == 1

    def test_update_order_does_not_matter(self):
        # with the round's draws taken in index order, computing the agent
        # updates in reversed order reproduces the step exactly: every agent
        # reads only round-k iterates and its own draws
        topo = erdos_renyi(5, 0.7, seed=1)
        profile = laplacian_spectrum(topo)
        problem = make_quadratic_toy(5, 4, seed=4, zeta=0.3)
        eta = theorem_schedule(5, 4, 100)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=100)
        streams = RunStreams.from_seed(9)
        shadow = RunStreams.from_seed(9)
        state = SwarmState(np.random.default_rng(8).standard_normal((5, 4)), 0)
        nxt = step(state, topo, params, problem, streams)
        delta = params.smoothing.delta(4, 5, 0)
        coords = sample_coordinates(5, 4, 1, shadow.coords)
        draws = [problem.sample(i, shadow.data) for i in range(5)]
        permuted = np.empty((5, 4))
        for i in reversed(range(5)):
            g = forward_estimate(
                lambda z, a=i, r=draws[i]: problem.evaluate(a, z, r),
                state.iterates[i],
                coords[i],
                delta,
            )
            permuted[i] = (
                state.iterates[i]
                - params.alpha * mixing_row(topo, state.iterates, i)
                - params.eta * g
            )
        assert np.array_equal(nxt.iterates, permuted)

    def test_powerball_step_fixed_points(self):
        # estimates with entries in {-1, 0, 1} update identically for any gamma
        class SignProblem:
            dimension = 2
            local_count = 2

            def sample(self, agent, rng):
                return rng.integers(10)

            def sample_round(self, rng):
                return [self.sample(i, rng) for i in range(self.local_count)]

            def evaluate(self, agent, x, xi):
                return float(np.sum(x))  # linear: slope 1 on every coordinate

        topo = Topology(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        profile = laplacian_spectrum(topo)
        smoothing = SmoothingSchedule(mode="fixed", value=0.5)
        state = SwarmState(np.zeros((2, 2)), 0)
        outputs = []
        for gamma in (0.5, 0.8, 1.0):
            params = HyperParams(
                alpha=0.1 * profile.alpha_max,
                eta=0.3,
                T=1,
                algorithm="zoom_pb",
                gamma=gamma,
                n_c=2,
                smoothing=smoothing,
            )
            nxt = step(state, topo, params, SignProblem(), RunStreams.from_seed(0))
            outputs.append(nxt.iterates)
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])

    def test_single_agent_powerball_halves_a_four(self):
        class FlatSlope:
            dimension = 1
            local_count = 1

            def sample(self, agent, rng):
                return rng.integers(10)

            def sample_round(self, rng):
                return [self.sample(i, rng) for i in range(self.local_count)]

            def evaluate(self, agent, x, xi):
                return 4.0 * float(x[0])  # gradient estimate is exactly (4,)

        params = HyperParams(
            alpha=0.0,
            eta=1.0,
            T=1,
            algorithm="zoom_pb",
            gamma=0.5,
            smoothing=SmoothingSchedule(mode="fixed", value=0.25),
        )
        state = SwarmState(np.array([[10.0]]), 0)
        lone = Topology(1, np.zeros((1, 1)))
        nxt = step(state, lone, params, FlatSlope(), RunStreams.from_seed(1))
        assert np.allclose(nxt.iterates, [[8.0]], atol=1e-12)  # sigma(4, 0.5) = 2

    def test_divergence_guard_reports_iteration_and_agent(self):
        # from the origin an agent steps to exactly its slope: an entry of 1e12
        # is kept, and the next float up is divergence, named on its agent
        class Slopes:
            dimension = 1
            local_count = 2

            def __init__(self, *slopes):
                self.slopes = slopes

            def sample_round(self, rng):
                return [None] * self.local_count

            def evaluate(self, agent, x, xi):
                return -self.slopes[agent] * float(x[0])

        apart = Topology(2, np.zeros((2, 2)))
        smoothing = SmoothingSchedule(mode="fixed", value=0.5)
        params = HyperParams(alpha=0.0, eta=1.0, T=1, smoothing=smoothing)
        state = SwarmState(np.zeros((2, 1)), 3)
        limit, beyond = 1e12, math.nextafter(1e12, math.inf)
        kept = step(state, apart, params, Slopes(limit, limit), RunStreams.from_seed(0))
        assert kept.iterates.tolist() == [[limit], [limit]]
        with pytest.raises(DivergenceError) as info:
            step(state, apart, params, Slopes(limit, beyond), RunStreams.from_seed(0))
        assert (info.value.k, info.value.agent) == (3, 1)

    @pytest.mark.parametrize(("estimator", "coordinate"), [("forward", None), ("central", 0)])
    @pytest.mark.parametrize(
        ("value", "failure"),
        [
            (math.nan, "nan"),
            (None, "None"),
            ("abc", "'abc'"),
            (np.zeros(2), "array([0., 0.])"),
            (1j, "1j"),
            # values float() reads, which the number rule rejects
            (True, "True"),
            ("0.25", "'0.25'"),
            (10**400, str(10**400)),
        ],
        ids=["nan", "None", "str", "array", "complex", "bool", "numeric-str", "huge-int"],
    )
    def test_oracle_failure_names_agent_and_round(self, estimator, coordinate, value, failure):
        class FailsOnAgentTwo:
            dimension = 2
            local_count = 3

            def sample_round(self, rng):
                return [None] * self.local_count

            def evaluate(self, agent, x, xi):
                return value if agent == 2 else float(x @ x)

        topo = Topology(3, np.ones((3, 3)) - np.eye(3))
        params = HyperParams(alpha=0.1, eta=0.1, T=5, n_c=2, estimator=estimator)
        state = SwarmState(np.zeros((3, 2)), 4)
        with pytest.raises(OracleEvaluationError) as info:
            step(state, topo, params, FailsOnAgentTwo(), RunStreams.from_seed(0))
        error = info.value
        assert (error.agent, error.k, error.coordinate) == (2, 4, coordinate)
        where = "at the base point" if coordinate is None else f"probing coordinate {coordinate}"
        assert str(error) == (
            f"oracle returned {failure}, not a finite number, {where} at iteration 4 on agent 2"
        )

    @pytest.mark.parametrize("estimator", ["forward", "central"])
    def test_only_the_oracles_own_exceptions_are_named_with_agent_and_round(
        self, monkeypatch, estimator
    ):
        class RaisesOnAgentTwo:
            dimension = 2
            local_count = 3

            def sample_round(self, rng):
                return [None] * self.local_count

            def evaluate(self, agent, x, xi):
                if agent == 2:
                    raise KeyError("missing")
                return float(x @ x)

        topo = Topology(3, np.ones((3, 3)) - np.eye(3))
        params = HyperParams(alpha=0.1, eta=0.1, T=5, n_c=2, estimator=estimator)
        state = SwarmState(np.zeros((3, 2)), 4)
        with pytest.raises(OracleEvaluationError) as info:
            step(state, topo, params, RaisesOnAgentTwo(), RunStreams.from_seed(0))
        error = info.value
        assert (error.agent, error.k, error.coordinate) == (2, 4, None)
        assert str(error) == "oracle raised KeyError('missing') at iteration 4 on agent 2"
        assert type(error.__cause__) is KeyError
        # an estimator's own ValueError about its inputs passes through as it is
        own = dynamics.forward_estimate if estimator == "forward" else dynamics.central_estimate
        monkeypatch.setattr(
            dynamics,
            f"{estimator}_estimate",
            lambda oracle, x, sample, delta: own(oracle, x, sample, -delta),
        )
        with pytest.raises(ValueError, match=r"^delta must be a finite number in \(0, inf\), got -"):
            step(state, topo, params, RaisesOnAgentTwo(), RunStreams.from_seed(0))


class TestRunStreams:
    @pytest.mark.parametrize("n_agents", [2, 4, 9])
    def test_from_seed_draws_the_spawned_children(self, n_agents):
        # data is SeedSequence(seed).spawn(2)[0], spawn key (0,); coords is the
        # second child, spawn key (1,); a round draws from exactly these two
        seed = 31
        children = np.random.SeedSequence(seed).spawn(2)
        keyed = [np.random.SeedSequence(seed, spawn_key=(key,)) for key in range(2)]
        for child, same in zip(children, keyed):
            assert np.array_equal(
                np.random.default_rng(child).random(6), np.random.default_rng(same).random(6)
            )
        topo = erdos_renyi(n_agents, 1.0)
        profile = laplacian_spectrum(topo)
        problem = make_quadratic_toy(n_agents, 5, seed=2, zeta=0.3)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.1, T=3, n_c=2)
        spawned = RunStreams(*(np.random.default_rng(child) for child in children))
        ours = RunStreams.from_seed(seed)
        a = b = SwarmState(np.random.default_rng(3).standard_normal((n_agents, 5)), 0)
        for _ in range(3):
            a = step(a, topo, params, problem, ours)
            b = step(b, topo, params, problem, spawned)
        assert np.array_equal(a.iterates, b.iterates)
        assert ours.data.random() == spawned.data.random()
        assert ours.coords.random() == spawned.coords.random()


@pytest.fixture(scope="module")
def toy_setup():
    topo = erdos_renyi(4, 0.8, seed=1)
    profile = laplacian_spectrum(topo)
    problem = make_quadratic_toy(4, 6, seed=3, zeta=0.3)
    return topo, profile, problem


class TestRun:
    def test_horizon_zero_keeps_only_initial_record(self, toy_setup):
        topo, profile, problem = toy_setup
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.01, T=0)
        trajectory = run(topo, problem, params, seed=0)
        assert len(trajectory.records) == 1
        assert trajectory.records[0].k == 0
        assert trajectory.final_state.k == 0

    def test_same_seed_reproduces_trajectory(self, toy_setup):
        topo, profile, problem = toy_setup
        eta = theorem_schedule(4, 6, 100)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=100)
        a = run(topo, problem, params, seed=5)
        b = run(topo, problem, params, seed=5)
        assert a.records == b.records
        assert np.array_equal(a.final_state.iterates, b.final_state.iterates)

    def test_different_seeds_differ(self, toy_setup):
        topo, profile, problem = toy_setup
        eta = theorem_schedule(4, 6, 50)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=50)
        a = run(topo, problem, params, seed=5)
        b = run(topo, problem, params, seed=6)
        assert not np.array_equal(a.final_state.iterates, b.final_state.iterates)

    def test_rejects_disconnected_topology(self):
        broken = Topology(3, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        problem = make_quadratic_toy(3, 2, seed=0)
        params = HyperParams(alpha=0.1, eta=0.01, T=5)
        with pytest.raises(ValueError, match="connected"):
            run(broken, problem, params)

    def test_rejects_agent_count_mismatch(self, toy_setup):
        topo, profile, _ = toy_setup
        problem = make_quadratic_toy(5, 6, seed=0)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.01, T=5)
        with pytest.raises(ValueError, match="^problem carries 5 agents but the topology has 4$"):
            run(topo, problem, params)

    @pytest.mark.parametrize("size", [3, 5])
    def test_a_sample_round_of_the_wrong_length_is_named_with_its_round(self, toy_setup, size):
        # a short block would otherwise leave rows of steps unwritten, a long one pass unseen
        topo, profile, _ = toy_setup
        problem = make_quadratic_toy(4, 6, seed=3, zeta=0.3)
        draw = problem.sample_round
        calls = []

        def wrong_from_round_two(rng):
            calls.append(None)
            block = list(draw(rng))
            return block if len(calls) <= 2 else (block * 2)[:size]

        problem.sample_round = wrong_from_round_two
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.01, T=5)
        with pytest.raises(
            ValueError,
            match=rf"^sample_round returned {size} realizations for 4 agents at iteration 2$",
        ):
            run(topo, problem, params)

    def test_record_cadence_and_final_record(self, toy_setup):
        topo, profile, problem = toy_setup
        eta = theorem_schedule(4, 6, 25)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=25)
        trajectory = run(topo, problem, params, seed=0, record_every=10)
        assert [r.k for r in trajectory.records] == [0, 10, 20, 25]

    def test_draws_one_data_block_per_round(self, toy_setup):
        topo, profile, _ = toy_setup
        problem = make_quadratic_toy(4, 6, seed=3, zeta=0.3)
        blocks = []
        draw = problem.sample_round

        def recording(rng):
            blocks.append(draw(rng))
            return blocks[-1]

        problem.sample_round = recording
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.01, T=30, n_c=3)
        run(topo, problem, params, seed=4)
        assert len(blocks) == 30

    def test_oracle_call_accounting(self, toy_setup):
        topo, profile, problem = toy_setup
        eta = theorem_schedule(4, 6, 30)
        for estimator, per_round in (("forward", 4 * 3), ("central", 4 * 4)):
            params = HyperParams(
                alpha=0.5 * profile.alpha_max,
                eta=eta,
                T=30,
                n_c=2,
                estimator=estimator,
            )
            trajectory = run(topo, problem, params, seed=1)
            assert trajectory.records[-1].oracle_calls == 30 * per_round


# (fault, what it ends in, whether it strikes a round rather than a record)
FAULTS = {
    "evaluate raises": (OracleEvaluationError, True),
    "evaluate returns nan": (OracleEvaluationError, True),
    "evaluate returns text": (OracleEvaluationError, True),
    "short sample_round": (ValueError, True),
    "gradient of the wrong shape": (ValueError, False),
    "non-finite gradient": (ValueError, False),
    "non-finite loss": (ValueError, False),
    "loss that is text": (ValueError, False),
}


class Misbehaving(QuadraticToyProblem):
    """A toy with one fault, at round or record ``when`` and, in ``evaluate``, on ``agent``.

    With ``record_every = 1`` record ``j`` is taken at iteration ``j``.
    """

    def __init__(self, centers, fault, when, agent):
        super().__init__(centers, zeta=0.1)
        self.fault, self.when, self.agent = fault, when, agent
        self.round = self.record = -1

    def sample_round(self, rng):
        self.round += 1
        block = super().sample_round(rng)
        if self.fault == "short sample_round" and self.round == self.when:
            return block[1:]
        return block

    def evaluate(self, agent, x, z):
        value = super().evaluate(agent, x, z)
        if (self.round, agent) != (self.when, self.agent):
            return value
        if self.fault == "evaluate raises":
            raise KeyError(agent)
        return {"evaluate returns nan": math.nan, "evaluate returns text": "abc"}.get(
            self.fault, value
        )

    def true_global_gradient(self, x):
        self.record += 1
        grad = super().true_global_gradient(x)
        if self.record == self.when and self.fault == "gradient of the wrong shape":
            return np.append(grad, 0.0)
        if self.record == self.when and self.fault == "non-finite gradient":
            return np.full_like(grad, math.inf)
        return grad

    def full_loss(self, x):
        loss = super().full_loss(x)
        if self.record == self.when and self.fault == "non-finite loss":
            return math.nan
        return "abc" if self.record == self.when and self.fault == "loss that is text" else loss


@settings(max_examples=60, deadline=None)
@given(
    fault=st.sampled_from(sorted(FAULTS)),
    n=st.integers(2, 5),
    p=st.integers(1, 4),
    T=st.integers(1, 4),
    estimator=st.sampled_from(["forward", "central"]),
    data=st.data(),
)
def test_a_misbehaving_problem_ends_in_a_typed_error_naming_its_round(
    fault, n, p, T, estimator, data
):
    error_type, in_a_round = FAULTS[fault]
    when = data.draw(st.integers(0, T - 1 if in_a_round else T), label="when")
    agent = data.draw(st.integers(0, n - 1), label="agent")
    centers = np.random.default_rng(n * 10 + p).standard_normal((n, p))
    problem = Misbehaving(centers, fault, when, agent)
    topo = erdos_renyi(n, 1.0)
    n_c = data.draw(st.integers(1, p), label="n_c")
    params = HyperParams(
        alpha=0.5 * laplacian_spectrum(topo).alpha_max,
        eta=0.05,
        T=T,
        n_c=n_c,
        estimator=estimator,
    )
    with pytest.raises(error_type) as info:
        run(topo, problem, params, seed=1, record_every=1)
    error = info.value
    assert type(error) is error_type
    assert re.search(rf"\bat iteration {when}\b", str(error))
    if error_type is OracleEvaluationError:
        assert (error.agent, error.k) == (agent, when)
        assert str(error).endswith(f"at iteration {when} on agent {agent}")
    elif not in_a_round:
        method, rule = (
            ("full_loss", "number in (-inf, inf)")
            if "loss" in fault
            else ("true_global_gradient", "real array")
        )
        assert str(error).startswith(f"{method} at iteration {when} must be a finite {rule}")
