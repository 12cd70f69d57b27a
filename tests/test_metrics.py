import numpy as np
import pytest

from zoswarm.dynamics import HyperParams, run, theorem_schedule
from zoswarm.graph import erdos_renyi, laplacian_spectrum
from zoswarm.metrics import (
    CSV_FIELDS,
    IterationRecord,
    capture_record,
    consensus_error,
    holder_norm_sq,
    summarize,
    write_csv,
)
from zoswarm.problems import ClassificationProblem, make_quadratic_toy, make_synthetic_classification


class CountingProblem:
    """Wraps a problem and counts black-box evaluations only."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.local_count = inner.local_count
        self.evaluations = 0

    def sample(self, agent, rng):
        return self.inner.sample(agent, rng)

    def sample_round(self, rng):
        return self.inner.sample_round(rng)

    def evaluate(self, agent, x, xi):
        self.evaluations += 1
        return self.inner.evaluate(agent, x, xi)

    def stochastic_gradient(self, agent, x, xi):
        return self.inner.stochastic_gradient(agent, x, xi)

    def true_local_gradient(self, agent, x):
        return self.inner.true_local_gradient(agent, x)

    def true_global_gradient(self, x):
        return self.inner.true_global_gradient(x)

    def local_loss(self, agent, x):
        return self.inner.local_loss(agent, x)

    def full_loss(self, x):
        return self.inner.full_loss(x)

    def test_accuracy(self, x):
        return self.inner.test_accuracy(x)


class TestNorms:
    def test_holder_with_gamma_one_equals_squared_norm_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(17)
            assert holder_norm_sq(v, 2.0) == float(v @ v)

    def test_holder_against_manual_formula(self):
        v = np.array([1.0, -2.0, 0.5])
        q = 1.7
        expected = (np.sum(np.abs(v) ** q)) ** (2.0 / q)
        assert abs(holder_norm_sq(v, q) - expected) < 1e-14

    def test_consensus_error_two_computations_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal((6, 9))
            xbar = x.mean(axis=0)
            frobenius = np.linalg.norm(x - xbar, "fro") ** 2 / 6
            assert abs(consensus_error(x) - frobenius) < 1e-10


@pytest.fixture(scope="module")
def toy_run():
    topo = erdos_renyi(4, 0.9, seed=0)
    profile = laplacian_spectrum(topo)
    problem = make_quadratic_toy(4, 5, seed=1, zeta=0.3)
    eta, smoothing = theorem_schedule(4, 5, 400)
    params = HyperParams(
        alpha=0.9 * profile.alpha_max, eta=eta, T=400, gamma=1.0, smoothing=smoothing
    )
    return run(topo, problem, params, seed=2), problem


class TestSummarize:
    def test_single_record_averages_equal_that_record(self, toy_run):
        trajectory, _ = toy_run
        only = type(trajectory)(
            records=trajectory.records[:1],
            final_state=trajectory.final_state,
            params=trajectory.params,
            seed=trajectory.seed,
            final_accuracy=None,
        )
        summary = summarize(only)
        assert summary.avg_grad_norm_sq == trajectory.records[0].grad_norm_sq
        assert summary.avg_consensus_err == trajectory.records[0].consensus_err
        assert summary.final_loss == trajectory.records[0].mean_train_loss

    def test_constant_trajectory_from_consensus_start(self):
        # eta = 0 from a shared start never moves: zero consensus error,
        # averages equal the initial values
        topo = erdos_renyi(3, 1.0, seed=0)
        profile = laplacian_spectrum(topo)
        problem = make_quadratic_toy(3, 4, seed=5)
        params = HyperParams(alpha=0.9 * profile.alpha_max, eta=0.0, T=40)
        trajectory = run(topo, problem, params, seed=0)
        summary = summarize(trajectory)
        assert summary.avg_consensus_err == 0.0
        grad = problem.true_global_gradient(np.zeros(4))
        assert abs(summary.avg_grad_norm_sq - float(grad @ grad)) < 1e-12

    def test_final_loss_approaches_known_optimum(self, toy_run):
        trajectory, problem = toy_run
        gap = summarize(trajectory).final_loss - problem.optimal_value()
        assert 0.0 <= gap < 0.15

    def test_averages_exclude_the_horizon_record(self, toy_run):
        trajectory, _ = toy_run
        horizon = trajectory.params.T
        window = [r for r in trajectory.records if r.k < horizon]
        expected = float(np.mean([r.grad_norm_sq for r in window]))
        assert summarize(trajectory).avg_grad_norm_sq == expected


class TestOracleAccounting:
    def test_counts_match_instrumented_problem(self):
        topo = erdos_renyi(3, 1.0, seed=0)
        profile = laplacian_spectrum(topo)
        T, n, n_c = 25, 3, 2
        for estimator, expected in (("forward", n * T * (n_c + 1)), ("central", n * T * 2 * n_c)):
            counted = CountingProblem(make_quadratic_toy(3, 6, seed=2, zeta=0.1))
            eta, smoothing = theorem_schedule(n, 6, T)
            params = HyperParams(
                alpha=0.5 * profile.alpha_max,
                eta=eta,
                T=T,
                n_c=n_c,
                estimator=estimator,
                smoothing=smoothing,
            )
            trajectory = run(topo, counted, params, seed=3)
            assert counted.evaluations == expected
            assert trajectory.records[-1].oracle_calls == expected

    def test_oracle_calls_non_decreasing(self, toy_run):
        trajectory, _ = toy_run
        calls = [r.oracle_calls for r in trajectory.records]
        assert all(b >= a for a, b in zip(calls, calls[1:]))

    def test_diagnostics_do_not_touch_the_oracle(self):
        counted = CountingProblem(make_quadratic_toy(2, 3, seed=0))
        capture_record(counted, np.ones((2, 3)), 0, 1.0, 0, 0.0)
        assert counted.evaluations == 0


class TestCsv:
    def test_roundtrip(self, tmp_path):
        records = [
            IterationRecord(0, 0.25, 1.5, 1.5, 0.0, 0, 0.0),
            IterationRecord(10, 0.125, 0.75, 0.8123456789012345, 1e-9, 60, 12.5),
        ]
        path = tmp_path / "records.csv"
        write_csv(records, path)
        header, *rows = path.read_text().splitlines()
        kinds = [type(value) for value in vars(records[0]).values()]  # int or float per column
        parsed = [IterationRecord(*(k(c) for k, c in zip(kinds, r.split(",")))) for r in rows]
        assert header == ",".join(CSV_FIELDS)
        assert parsed == records

    def test_header_row(self, tmp_path):
        path = tmp_path / "records.csv"
        write_csv([IterationRecord(0, 0.1, 0.2, 0.2, 0.0, 0, 0.0)], path)
        header = path.read_text().splitlines()[0]
        assert header == "k,mean_train_loss,grad_norm_sq,grad_norm_1pg_sq,consensus_err,oracle_calls,wall_ms"

    def test_no_thousands_separators_decimal_point(self, tmp_path):
        path = tmp_path / "records.csv"
        write_csv([IterationRecord(1000, 123456.789, 0.5, 0.5, 0.25, 123456, 9999.5)], path)
        body = path.read_text()
        assert "," not in body.replace(",", "", 6 * 2)  # only the 6 field separators per row
        assert "123456.789" in body

    def test_records_compare_without_wall_time(self):
        a = (IterationRecord(0, 0.1, 0.2, 0.2, 0.0, 0, 1.0),)
        b = (IterationRecord(0, 0.1, 0.2, 0.2, 0.0, 0, 99.0),)
        c = (IterationRecord(0, 0.1, 0.2, 0.3, 0.0, 0, 1.0),)
        assert a == b
        assert a != c
        assert a != a + b


class TestRecordContents:
    def test_gamma_one_norms_agree_along_a_run(self, toy_run):
        trajectory, _ = toy_run
        for record in trajectory.records:
            assert record.grad_norm_1pg_sq == record.grad_norm_sq

    def test_benchmark_run_records_accuracy(self):
        dataset = make_synthetic_classification(60, 20, 5, 3, seed=4)
        problem = ClassificationProblem(dataset)
        topo = erdos_renyi(3, 1.0, seed=0)
        profile = laplacian_spectrum(topo)
        eta, smoothing = theorem_schedule(3, 5, 50)
        params = HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=50, smoothing=smoothing)
        trajectory = run(topo, problem, params, seed=0)
        assert trajectory.final_accuracy is not None
        assert 0.0 <= trajectory.final_accuracy <= 1.0
        assert summarize(trajectory).final_accuracy == trajectory.final_accuracy
