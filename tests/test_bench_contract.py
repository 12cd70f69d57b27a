"""What the benchmark in ``benchmarks/`` relies on from the package.

The benchmark's tracer patches named functions in ``zoswarm``'s modules and
the ``evaluate`` method of the problem instance, then checks that every
probe is one ``evaluate`` call: it counts the calls of each
``forward_estimate``/``central_estimate(oracle, x, sample, delta)`` against
``sample.n_c``, so a coordinate sample must keep that attribute.
``mock.patch.object`` fails when a patched name is gone, so running a
battery under the tracer also guards those names.  The workloads'
generated configs must also keep passing the config layer's set-up.
These tests only import from ``benchmarks/``; they change nothing there.
"""

from pathlib import Path

import pytest

import zoswarm
from zoswarm import graph, harness
from zoswarm.config import parse_config, resolve_hyperparams

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

TINY_TOY = """
problem.name = quadratic_toy
problem.n_agents = 4
problem.p = 5
problem.seed = 3
problem.zeta = 0.3
topology.n = 4
topology.prob = 0.9
topology.seed = 1
run.T = 12
run.record_every = 4
run.seeds = 1,2
defaults.eta = 0.05
defaults.n_c = 2
algorithms = zoom_fd,zoom_cd,zoom_pb_fd,zoom_pb_cd
algorithm.zoom_fd.kind = zoom
algorithm.zoom_fd.estimator = forward
algorithm.zoom_cd.kind = zoom
algorithm.zoom_cd.estimator = central
algorithm.zoom_pb_fd.kind = zoom_pb
algorithm.zoom_pb_fd.estimator = forward
algorithm.zoom_pb_cd.kind = zoom_pb
algorithm.zoom_pb_cd.estimator = central
"""

# paper_iv_a in miniature: classification, four agents, both kinds, both estimators
TINY_IV_A = """
problem.name = classification
problem.n_train = 80
problem.n_test = 10
problem.d = 6
problem.n_agents = 4
problem.seed = 7
topology.n = 4
topology.prob = 0.9
topology.seed = 7
run.T = 9
run.record_every = 3
run.seeds = 1,2
defaults.n_c = 3
defaults.alpha_frac = 0.9
defaults.smoothing = scaled_fixed:10
algorithms = zoom_fd,zoom_cd,zoom_pb_fd,zoom_pb_cd
algorithm.zoom_fd.kind = zoom
algorithm.zoom_fd.estimator = forward
algorithm.zoom_fd.eta = 0.02
algorithm.zoom_cd.kind = zoom
algorithm.zoom_cd.estimator = central
algorithm.zoom_cd.eta = 0.02
algorithm.zoom_pb_fd.kind = zoom_pb
algorithm.zoom_pb_fd.estimator = forward
algorithm.zoom_pb_fd.gamma = 0.7
algorithm.zoom_pb_fd.eta = 0.04
algorithm.zoom_pb_cd.kind = zoom_pb
algorithm.zoom_pb_cd.estimator = central
algorithm.zoom_pb_cd.gamma = 0.7
algorithm.zoom_pb_cd.eta = 0.04
"""


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer

    return tracer


def test_traced_battery_counts_one_evaluate_per_probe(tracer_module, tmp_path):
    config_path = tmp_path / "toy.cfg"
    config_path.write_text(TINY_TOY)
    tracer = tracer_module.Tracer()
    with tracer.instrument():
        battery = harness.run_battery(
            harness.load_config(config_path), out_dir=tmp_path / "out", jobs=1, quiet=True
        )
    layers = tracer.layer_metrics()
    oracle_calls = sum(run.trajectory.records[-1].oracle_calls for run in battery.runs)
    assert len(battery.runs) == 8
    # T x agents x seeds x (n_c + 1 per forward estimate, 2 n_c per central one)
    assert oracle_calls == 12 * 4 * 2 * (3 + 4 + 3 + 4)
    assert layers["problems.evaluate_calls"] == oracle_calls
    assert tracer.probe_mismatches == 0
    assert layers["estimator.estimate_calls"] == 8 * 12 * 4
    assert layers["metrics.capture_record_calls"] == 8 * 4
    assert all(run.csv_path.exists() for run in battery.runs)


def test_traced_classification_battery_counts_one_evaluate_per_probe(tracer_module, tmp_path):
    # the classification oracle memoizes its last row; every probe must still
    # be one call of the instance's evaluate, which the tracer counts
    config_path = tmp_path / "iv_a.cfg"
    config_path.write_text(TINY_IV_A)
    tracer = tracer_module.Tracer()
    with tracer.instrument():
        battery = harness.run_battery(
            harness.load_config(config_path), out_dir=tmp_path / "out", jobs=1, quiet=True
        )
    layers = tracer.layer_metrics()
    oracle_calls = sum(run.trajectory.records[-1].oracle_calls for run in battery.runs)
    assert len(battery.runs) == 8
    assert oracle_calls == 9 * 4 * 2 * (4 + 6 + 4 + 6)
    assert layers["problems.evaluate_calls"] == oracle_calls
    assert tracer.probe_mismatches == 0
    assert layers["estimator.estimate_calls"] == 8 * 9 * 4
    assert layers["estimator.sample_coordinates_calls"] == 8 * 9
    # a record asks the instance once for each diagnostic, so diagnostics_ms
    # times every full-batch pass: 8 runs x 4 records (k = 0, 3, 6, 9)
    assert tracer.stat("problems.true_global_gradient")[0] == 8 * 4
    assert tracer.stat("problems.full_loss")[0] == 8 * 4
    assert layers["problems.diagnostics_ms"] > 0.0


@pytest.mark.parametrize("seed", [0, 1])
def test_every_workload_config_sets_up(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    configs = Path(zoswarm.__file__).parent / "configs"
    for workload in workloads.WORKLOADS.values():
        config = parse_config(workloads.config_text(workload, seed, configs))
        problem = harness.build_problem(config)
        topo = harness.build_topology(config)
        assert problem.local_count == topo.n, workload.name
        profile = graph.laplacian_spectrum(topo)
        for spec in config.algorithms:
            resolve_hyperparams(spec, profile, topo.n, problem.dimension, config.T)
