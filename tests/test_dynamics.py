from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from zoswarm.estimator import SmoothingSchedule, forward_estimate, sample_coordinates
from zoswarm.graph import SpectralProfile, Topology, erdos_renyi, laplacian_spectrum
from zoswarm.harness import SELF_CHECKS
from zoswarm.problems import make_quadratic_toy

FINITE = st.floats(allow_nan=False, allow_infinity=False)
VECTORS = st.lists(FINITE, min_size=1, max_size=40).map(np.array)
GAMMAS = st.floats(0.05, 1.0)


def path3_profile():
    topo = Topology(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    return topo, laplacian_spectrum(topo)


class TestPowerball:
    def test_square_roots_with_sign(self):
        assert np.array_equal(powerball(np.array([4.0, -4.0, 0.0]), 0.5), [2.0, -2.0, 0.0])

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

    def test_sign_and_magnitude(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(50) * 3
        for gamma in (0.5, 0.7, 1.0):
            out = powerball(v, gamma)
            assert np.array_equal(np.sign(out), np.sign(v))
            assert np.allclose(np.abs(out), np.abs(v) ** gamma, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(VECTORS, GAMMAS)
    def test_odd_and_monotone(self, v, gamma):
        assert np.array_equal(powerball(-v, gamma), -powerball(v, gamma))
        x = np.sort(v)
        assert np.all(np.diff(powerball(x, gamma)) >= 0.0)


class TestConsensusTerm:
    """The Laplacian mixing part of ``step``, isolated by ``eta = 0``."""

    @staticmethod
    def mix(profile, iterates, alpha):
        params = HyperParams(alpha=alpha, eta=0.0, T=1)
        n, p = iterates.shape
        problem = make_quadratic_toy(n, p, seed=0)
        state = SwarmState(iterates, 0)
        return step(state, profile, params, problem, RunStreams.from_seed(0)).iterates

    def test_identical_rows_annihilated(self):
        _, profile = path3_profile()
        rows = np.tile([2.0, -1.0], (3, 1))
        assert np.allclose(self.mix(profile, rows, 0.05), rows, atol=1e-12)

    def test_two_agent_hand_value(self):
        profile = laplacian_spectrum(Topology(2, np.array([[0.0, 1.0], [1.0, 0.0]])))
        mixed = self.mix(profile, np.array([[1.0], [0.0]]), 0.25)
        assert np.array_equal(mixed, [[0.75], [0.25]])

    def test_isolated_agent_contributes_nothing(self):
        # disconnected in weights; unit-testable even though runs reject it
        weights = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        lap = np.diag(weights.sum(axis=1)) - weights
        profile = SpectralProfile(laplacian=lap, rho2=2.0, rho_l2=4.0, alpha_max=0.25)
        start = np.random.default_rng(0).standard_normal((3, 2))
        mixed = self.mix(profile, start, 0.2)
        assert np.array_equal(mixed[2], start[2])
        assert not np.array_equal(mixed[0], start[0])


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

    @pytest.mark.parametrize(
        ("algorithm", "gamma"), [("zoom", 1.0), ("zoom_pb", 0.7), ("dsgd", 1.0)]
    )
    def test_unset_gamma_resolves_by_algorithm(self, algorithm, gamma):
        assert HyperParams(alpha=0.1, eta=0.1, T=10, algorithm=algorithm).gamma == gamma
        assert HyperParams(alpha=0.1, eta=0.1, T=10, algorithm=algorithm, gamma=0.5).gamma == 0.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["alpha", "eta", "gamma"])
    def test_non_finite_step_sizes_rejected_by_name(self, name, value):
        kwargs = {"alpha": 0.1, "eta": 0.1, "gamma": 0.7, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
            HyperParams(T=10, **kwargs)

    def test_gamma_outside_guarantee_range_warns_but_runs(self):
        with pytest.warns(RuntimeWarning, match="outside") as caught:
            params = HyperParams(alpha=0.1, eta=0.1, T=10, gamma=0.3)
        assert params.gamma == 0.3
        assert caught[0].filename == __file__  # names the caller, not the generated __init__


class TestTheoremSchedule:
    def test_benchmark_scale_value(self):
        eta, schedule = theorem_schedule(10, 100, 10000)
        assert abs(eta - 0.0031622776601683794) < 1e-18
        assert schedule.mode == "theorem_decay"

    def test_unit_case(self):
        eta, _ = theorem_schedule(1, 1, 1)
        assert eta == 1.0

    def test_decay_value(self):
        _, schedule = theorem_schedule(10, 100, 10000, kappa_delta=1.0)
        assert abs(schedule.delta(100, 10, 0) - 0.17783) < 1e-5

    def test_warns_on_short_horizon(self):
        with pytest.warns(RuntimeWarning, match="n\\^3/p"):
            theorem_schedule(10, 2, 100)  # n^3/p = 500 > 100


class TestSteps:
    def test_eta_zero_is_pure_consensus_contraction(self):
        passed, detail = SELF_CHECKS["consensus contraction"]()
        assert passed, detail

    def test_alpha_zero_single_agent_is_coordinate_descent(self):
        # with one agent and no mixing the update is exactly x - eta * g
        from zoswarm.estimator import central_estimate

        profile = SpectralProfile(laplacian=np.zeros((1, 1)), rho2=0.0, rho_l2=0.0, alpha_max=0.0)
        problem = make_quadratic_toy(1, 3, seed=2, zeta=0.0)
        params = HyperParams(alpha=0.0, eta=0.1, T=1, estimator="central")
        streams = RunStreams.from_seed(7)
        shadow = RunStreams.from_seed(7)
        state = SwarmState(np.array([[1.0, -2.0, 0.5]]), 0)
        nxt = step(state, profile, params, problem, streams)
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
        eta, smoothing = theorem_schedule(2, 2, 50)
        params = HyperParams(
            alpha=0.8 * profile.alpha_max, eta=eta, T=50, smoothing=smoothing
        )
        streams = RunStreams.from_seed(21)
        shadow = RunStreams.from_seed(21)
        state = SwarmState(np.array([[1.0, 0.0], [0.0, 1.0]]), 0)
        nxt = step(state, profile, params, problem, streams)
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
                - params.alpha * (profile.laplacian[i] @ state.iterates)
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
        eta, smoothing = theorem_schedule(5, 4, 100)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=100, smoothing=smoothing)
        streams = RunStreams.from_seed(9)
        shadow = RunStreams.from_seed(9)
        state = SwarmState(np.random.default_rng(8).standard_normal((5, 4)), 0)
        nxt = step(state, profile, params, problem, streams)
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
                - params.alpha * (profile.laplacian[i] @ state.iterates)
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
        smoothing = SmoothingSchedule(mode="fixed", fixed_value=0.5)
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
            nxt = step(state, profile, params, SignProblem(), RunStreams.from_seed(0))
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

        profile = SpectralProfile(laplacian=np.zeros((1, 1)), rho2=0.0, rho_l2=0.0, alpha_max=0.0)
        params = HyperParams(
            alpha=0.0,
            eta=1.0,
            T=1,
            algorithm="zoom_pb",
            gamma=0.5,
            smoothing=SmoothingSchedule(mode="fixed", fixed_value=0.25),
        )
        state = SwarmState(np.array([[10.0]]), 0)
        nxt = step(state, profile, params, FlatSlope(), RunStreams.from_seed(1))
        assert np.allclose(nxt.iterates, [[8.0]], atol=1e-12)  # sigma(4, 0.5) = 2

    def test_divergence_guard_reports_iteration_and_agent(self):
        class Explosive:
            dimension = 2
            local_count = 2

            def sample(self, agent, rng):
                return None

            def sample_round(self, rng):
                return [None] * self.local_count

            def evaluate(self, agent, x, xi):
                return 1e14 * float(x[0])  # slope large enough to trip the guard

        topo = Topology(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        profile = laplacian_spectrum(topo)
        params = HyperParams(
            alpha=0.1,
            eta=1.0,
            T=1,
            n_c=2,
            smoothing=SmoothingSchedule(mode="fixed", fixed_value=1.0),
        )
        state = SwarmState(np.zeros((2, 2)), 3)
        with pytest.raises(DivergenceError) as info:
            step(state, profile, params, Explosive(), RunStreams.from_seed(0))
        assert info.value.k == 3
        assert info.value.agent == 0


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
        profile = laplacian_spectrum(erdos_renyi(n_agents, 1.0))
        problem = make_quadratic_toy(n_agents, 5, seed=2, zeta=0.3)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.1, T=3, n_c=2)
        spawned = RunStreams(*(np.random.default_rng(child) for child in children))
        ours = RunStreams.from_seed(seed)
        a = b = SwarmState(np.random.default_rng(3).standard_normal((n_agents, 5)), 0)
        for _ in range(3):
            a = step(a, profile, params, problem, ours)
            b = step(b, profile, params, problem, spawned)
        assert np.array_equal(a.iterates, b.iterates)
        assert ours.data.random() == spawned.data.random()
        assert ours.coords.random() == spawned.coords.random()


class TestMeanDynamics:
    def test_mean_iterate_moves_by_average_estimate(self):
        passed, detail = SELF_CHECKS["mean drift"]()
        assert passed, detail


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
        eta, smoothing = theorem_schedule(4, 6, 100)
        params = HyperParams(
            alpha=0.5 * profile.alpha_max, eta=eta, T=100, smoothing=smoothing
        )
        a = run(topo, problem, params, seed=5)
        b = run(topo, problem, params, seed=5)
        assert a.records == b.records
        assert np.array_equal(a.final_state.iterates, b.final_state.iterates)

    def test_different_seeds_differ(self, toy_setup):
        topo, profile, problem = toy_setup
        eta, smoothing = theorem_schedule(4, 6, 50)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=50, smoothing=smoothing)
        a = run(topo, problem, params, seed=5)
        b = run(topo, problem, params, seed=6)
        assert not np.array_equal(a.final_state.iterates, b.final_state.iterates)

    def test_powerball_gamma_one_reduces_to_plain(self, toy_setup):
        topo, profile, problem = toy_setup
        eta, smoothing = theorem_schedule(4, 6, 150)
        for estimator in ("forward", "central"):
            params = HyperParams(
                alpha=0.9 * profile.alpha_max,
                eta=eta,
                T=150,
                gamma=1.0,
                estimator=estimator,
                smoothing=smoothing,
            )
            a = run(topo, problem, params, seed=11)
            b = run(topo, problem, replace(params, algorithm="zoom_pb"), seed=11)
            assert a.records == b.records
            assert np.array_equal(a.final_state.iterates, b.final_state.iterates)

    def test_rejects_disconnected_topology(self):
        broken = Topology(3, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        problem = make_quadratic_toy(3, 2, seed=0)
        params = HyperParams(alpha=0.1, eta=0.01, T=5)
        with pytest.raises(ValueError, match="connected"):
            run(broken, problem, params)

    def test_rejects_alpha_outside_admissible_interval(self, toy_setup):
        topo, profile, problem = toy_setup
        params = HyperParams(alpha=2.0 * profile.alpha_max, eta=0.01, T=5)
        with pytest.raises(ValueError, match="alpha"):
            run(topo, problem, params)
        with pytest.raises(ValueError, match="alpha"):
            run(topo, problem, HyperParams(alpha=0.0, eta=0.01, T=5))

    def test_rejects_agent_count_mismatch(self, toy_setup):
        topo, profile, _ = toy_setup
        problem = make_quadratic_toy(5, 6, seed=0)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.01, T=5)
        with pytest.raises(ValueError, match="agents"):
            run(topo, problem, params)

    def test_record_cadence_and_final_record(self, toy_setup):
        topo, profile, problem = toy_setup
        eta, smoothing = theorem_schedule(4, 6, 25)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=25, smoothing=smoothing)
        trajectory = run(topo, problem, params, seed=0, record_every=10)
        assert [r.k for r in trajectory.records] == [0, 10, 20, 25]

    def test_dsgd_never_draws_coordinates(self, toy_setup, monkeypatch):
        def refuse(*args):
            raise AssertionError("dsgd drew coordinates")

        monkeypatch.setattr("zoswarm.dynamics.sample_coordinates", refuse)
        topo, profile, problem = toy_setup
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=0.01, T=20, n_c=3)
        assert run(topo, problem, replace(params, algorithm="dsgd"), seed=2).final_state.k == 20
        with pytest.raises(AssertionError, match="drew coordinates"):
            run(topo, problem, params, seed=2)

    def test_oracle_call_accounting(self, toy_setup):
        topo, profile, problem = toy_setup
        eta, smoothing = theorem_schedule(4, 6, 30)
        for estimator, per_round in (("forward", 4 * 3), ("central", 4 * 4)):
            params = HyperParams(
                alpha=0.5 * profile.alpha_max,
                eta=eta,
                T=30,
                n_c=2,
                estimator=estimator,
                smoothing=smoothing,
            )
            trajectory = run(topo, problem, params, seed=1)
            assert trajectory.records[-1].oracle_calls == 30 * per_round
