"""zoswarm against the frozen per-probe engine in ``reference_engine.py``.

Short batteries of both bundled configs run through ``dynamics.run`` and
through the reference: both algorithm kinds, both estimators, two seeds,
T = 200.  ``k`` and ``oracle_calls`` must be equal and every other record
field must agree within a relative 1e-10.  A change of summation order
moves records by about 1e-14 over thousands of rounds, so this gate lets a
deliberate rounding change through and stops a change in the algorithm
(a wrong ``p / n_c`` scale or a dropped probe moves records by far more).
"""

from dataclasses import replace

import numpy as np
import pytest

import reference_engine
from zoswarm.dynamics import run
from zoswarm.graph import laplacian_spectrum
from zoswarm.config import build_problem, build_topology, load_config, resolve_hyperparams

T = 200
RTOL = 1e-10


def battery(name):
    config = load_config(name)
    config.T = T
    config.seeds = config.seeds[:2]
    if name == "toy_quadratic":  # bundled with the central estimator only
        config.algorithms = [
            replace(spec, label=f"{spec.label}_{est}", estimator=est)
            for spec in config.algorithms
            for est in ("forward", "central")
        ]
    return config


@pytest.mark.parametrize("name", ["paper_iv_a", "toy_quadratic"])
def test_records_match_the_reference_engine(name):
    config = battery(name)
    problem = build_problem(config)
    topo = build_topology(config)
    profile = laplacian_spectrum(topo)
    covered = set()
    for spec in config.algorithms:
        params = resolve_hyperparams(spec, profile, topo.n, problem.dimension, config.T)
        covered.add((params.algorithm, params.estimator))
        for seed in config.seeds:
            got = run(topo, problem, params, seed=seed, record_every=config.record_every).records
            expected = reference_engine.run(
                reference_engine.weights(topo), problem, params, seed, config.record_every
            )
            where = f"{spec.label} seed {seed}"
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
    assert covered == {(kind, est) for kind in ("zoom", "zoom_pb") for est in ("forward", "central")}
    assert len(config.seeds) == 2
