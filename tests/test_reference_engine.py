"""zoswarm against the frozen per-probe engine in ``reference_engine.py``.

Short batteries of both bundled configs run through ``run_battery`` and
through the reference: both algorithm kinds, both estimators, two seeds,
T = 200.  A property does the same for small drawn runs: weighted graphs,
both problems, any ``n_c``, both smoothing modes and odd record cadences.
``k`` and ``oracle_calls`` must be equal and every other record field must
agree within a relative 1e-10; so must a battery's summary rows and the
final test accuracy.  A change of summation order moves records
by about 1e-14 over thousands of rounds, so this gate lets a deliberate
rounding change through and stops a change in the algorithm (a wrong
``p / n_c`` scale or a dropped probe moves records by far more).
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from zoswarm.config import build_problem, build_topology, load_config
from zoswarm.dynamics import HyperParams, run
from zoswarm.estimator import SmoothingSchedule
from zoswarm.graph import Topology, laplacian_spectrum
from zoswarm.harness import run_battery
from zoswarm.problems import make_quadratic_toy, make_synthetic_classification

T = 200
RTOL = 1e-10


def battery(name):
    config = load_config(name)
    config.T = T
    config.seeds = config.seeds[:2]
    if name == "toy_quadratic":  # bundled with the central estimator only
        # powerball at 0.5, the low end of the gammas the guarantees cover
        config.algorithms = [
            replace(spec, label=f"{spec.label}_{est}", estimator=est)
            if spec.kind == "zoom"
            else replace(spec, label=f"{spec.label}_{est}", estimator=est, gamma=0.5)
            for spec in config.algorithms
            for est in ("forward", "central")
        ]
        config.record_every = 1  # record T - 1 is the last one a summary averages
    return config


@pytest.mark.parametrize("name", ["paper_iv_a", "toy_quadratic"])
def test_records_match_the_reference_engine(name):
    config = battery(name)
    result = run_battery(config)
    problem = build_problem(config)
    weights = reference_engine.weights(build_topology(config))
    covered = set()
    for spec, row in zip(config.algorithms, result.summary_rows, strict=True):
        own = [r for r in result.runs if r.label == spec.label]
        params = own[0].params
        covered.add((params.algorithm, params.estimator))
        references = []
        for battery_run in own:
            got = battery_run.trajectory.records
            expected, accuracy = reference_engine.run(
                weights, problem, params, battery_run.seed, config.record_every
            )
            references.append((expected, accuracy))
            where = f"{spec.label} seed {battery_run.seed}"
            assert battery_run.trajectory.final_accuracy == pytest.approx(accuracy, rel=RTOL)
            assert [(r.k, r.oracle_calls) for r in got] == [(e[0], e[5]) for e in expected], where
            np.testing.assert_allclose(
                [
                    (r.mean_train_loss, r.grad_norm_sq, r.grad_norm_1pg_sq, r.consensus_err)
                    for r in got
                ],
                [e[1:5] for e in expected],
                rtol=RTOL,
                atol=0.0,
                err_msg=where,
            )
        summary = reference_engine.summary_row(references, config.T, params.gamma)
        assert {key: row[key] for key in summary} == pytest.approx(summary, rel=RTOL), spec.label
    assert covered == {(kind, est) for kind in ("zoom", "zoom_pb") for est in ("forward", "central")}
    assert len(config.seeds) == 2


@st.composite
def connected_topologies(draw):
    """A random spanning tree plus random extra edges on 2 to 12 agents, with
    unit weights, uniform weights on [0.1, 5] or log-uniform weights over 10^+-2."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = {
        "unit": lambda: 1.0,
        "uniform": lambda: rng.uniform(0.1, 5.0),
        "log-uniform": lambda: 10.0 ** rng.uniform(-2.0, 2.0),
    }[draw(st.sampled_from(["unit", "uniform", "log-uniform"]))]
    weights = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(k)]
        weights[i, j] = weights[j, i] = weight()
    extra = rng.uniform()
    for i, j in zip(*np.triu_indices(n, k=1)):
        if weights[i, j] == 0.0 and rng.uniform() < extra:
            weights[i, j] = weights[j, i] = weight()
    return Topology(n, weights)


@st.composite
def drawn_runs(draw):
    """A small run of either problem, algorithm and estimator, with its seed and cadence."""
    topo = draw(connected_topologies())
    n, p = topo.n, draw(st.integers(1, 20))
    data_seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        problem = make_quadratic_toy(n, p, data_seed, zeta=draw(st.floats(0.0, 1.0)))
    else:
        n_train = n * draw(st.integers(1, 8))
        problem = make_synthetic_classification(n_train, 3, p, n, data_seed)
    if draw(st.booleans()):
        smoothing = SmoothingSchedule("fixed", draw(st.floats(1e-3, 0.5)))
    else:
        smoothing = SmoothingSchedule("theorem_decay", draw(st.floats(0.1, 2.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gammas outside the guarantees
        params = HyperParams(
            alpha=draw(st.floats(0.05, 0.95)) * laplacian_spectrum(topo).alpha_max,
            eta=draw(st.floats(1e-3, 0.2)),
            T=draw(st.integers(1, 30)),
            algorithm=draw(st.sampled_from(["zoom", "zoom_pb"])),
            gamma=draw(st.floats(0.3, 1.2)),
            n_c=draw(st.integers(1, p)),
            estimator=draw(st.sampled_from(["forward", "central"])),
            smoothing=smoothing,
        )
    return topo, problem, params, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(drawn_runs())
def test_drawn_runs_match_the_reference_engine(drawn):
    # the rule of the bundled-config gate above
    topo, problem, params, seed, record_every = drawn
    got = run(topo, problem, params, seed=seed, record_every=record_every).records
    expected, _ = reference_engine.run(
        reference_engine.weights(topo), problem, params, seed, record_every
    )
    assert [(r.k, r.oracle_calls) for r in got] == [(e[0], e[5]) for e in expected]
    np.testing.assert_allclose(
        [(r.mean_train_loss, r.grad_norm_sq, r.grad_norm_1pg_sq, r.consensus_err) for r in got],
        [e[1:5] for e in expected],
        rtol=RTOL,
        atol=0.0,
    )
