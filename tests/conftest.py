import pytest

from zoswarm.dynamics import run
from zoswarm.graph import laplacian_spectrum
from zoswarm.config import build_problem, build_topology, record_file_name, resolve_hyperparams
from zoswarm.metrics import write_csv


def _standalone_runs(config, out_dir):
    """Write the record CSV of every (algorithm, seed) of ``config`` as a battery names it.

    Each run is a plain ``dynamics.run`` on a freshly built problem, made in
    the reverse of the battery's order, so a run that depends on the run
    before it in a battery writes a different CSV here.
    """
    out_dir.mkdir(parents=True)
    problem = build_problem(config)
    topo = build_topology(config)
    profile = laplacian_spectrum(topo)
    for spec in reversed(config.algorithms):
        params = resolve_hyperparams(spec, profile, topo.n, problem.dimension, config.T)
        for seed in reversed(config.seeds):
            trajectory = run(topo, problem, params, seed=seed, record_every=config.record_every)
            write_csv(trajectory.records, out_dir / record_file_name(spec.label, seed))


@pytest.fixture
def standalone_runs():
    return _standalone_runs
