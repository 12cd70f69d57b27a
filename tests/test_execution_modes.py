"""One home for the determinism promise: every execution mode gives the same runs.

Small batteries are drawn as ``ExperimentConfig``s: both problems, both
algorithm kinds, both estimators, 2 to 12 agents and 1 to 30 rounds, with the
value ranges of the drawn runs in ``test_reference_engine.py``.  Each
(algorithm, seed) run must give equal records (``==``, which leaves out the
wall clock) and a bit-equal final iterate in every mode:

- inside ``run_battery``, and as a standalone ``dynamics.run`` on a freshly
  built problem and topology
- with the algorithm list and the seed list in any order
- under any ``graph.DRAW_CHUNK``, which bounds both the graph draw and the
  Laplacian's row blocks
"""

import warnings
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from zoswarm import graph
from zoswarm.config import (
    AlgorithmSpec,
    ExperimentConfig,
    build_problem,
    build_topology,
    resolve_hyperparams,
)
from zoswarm.dynamics import run
from zoswarm.harness import run_battery


@st.composite
def algorithm_specs(draw, label, p):
    """One algorithm entry over a problem of dimension ``p``."""
    if draw(st.booleans()):
        smoothing = f"fixed:{draw(st.floats(1e-3, 0.5))!r}"
    else:
        smoothing = f"theorem_decay:{draw(st.floats(0.1, 2.0))!r}"
    return AlgorithmSpec(
        label=label,
        kind=draw(st.sampled_from(["zoom", "zoom_pb"])),
        estimator=draw(st.sampled_from(["forward", "central"])),
        gamma=draw(st.floats(0.3, 1.2)),
        eta=draw(st.floats(1e-3, 0.2)),
        alpha_frac=draw(st.floats(0.05, 0.95)),
        n_c=draw(st.integers(1, p)),
        smoothing=smoothing,
    )


@st.composite
def drawn_configs(draw):
    """A small battery of one to three algorithms over one to three seeds."""
    n, p = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    data_seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        zeta = draw(st.floats(0.0, 1.0))
        problem = {"name": "quadratic_toy", "n_agents": n, "p": p, "seed": data_seed, "zeta": zeta}
    else:
        n_train = n * draw(st.integers(1, 8))
        problem = {"name": "classification", "n_train": n_train, "n_test": 3, "d": p}
        problem |= {"n_agents": n, "seed": data_seed}
    # erdos_renyi redraws until the graph is connected
    topology = {"n": n, "prob": draw(st.floats(0.4, 1.0)), "seed": draw(st.integers(0, 2**32 - 1))}
    count = draw(st.integers(1, 3))
    return ExperimentConfig(
        problem=problem,
        topology=topology,
        algorithms=[draw(algorithm_specs(f"a{i}", p)) for i in range(count)],
        seeds=draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True)),
        T=draw(st.integers(1, 30)),
        record_every=draw(st.integers(1, 7)),
    )


def outcomes(runs):
    """(label, seed) -> (records, final iterate bytes) of ``(label, seed, trajectory)``s."""
    return {
        (label, seed): (trajectory.records, trajectory.final_state.iterates.tobytes())
        for label, seed, trajectory in runs
    }


def battery(config):
    return outcomes((r.label, r.seed, r.trajectory) for r in run_battery(config, quiet=True).runs)


def standalone(config):
    problem, topo = build_problem(config), build_topology(config)
    profile = graph.laplacian_spectrum(topo)
    runs = []
    for spec in config.algorithms:
        params = resolve_hyperparams(spec, profile, topo.n, problem.dimension, config.T)
        for seed in config.seeds:
            trajectory = run(topo, problem, params, seed=seed, record_every=config.record_every)
            runs.append((spec.label, seed, trajectory))
    return outcomes(runs)


@settings(max_examples=100, deadline=None)
@given(drawn_configs(), st.data())
def test_every_execution_mode_gives_the_same_runs(config, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short horizons, gammas outside the guarantees
        expected = battery(config)
        assert len(expected) == len(config.algorithms) * len(config.seeds)
        assert standalone(config) == expected
        reordered = replace(
            config,
            algorithms=data.draw(st.permutations(config.algorithms), label="algorithms"),
            seeds=data.draw(st.permutations(config.seeds), label="seeds"),
        )
        assert battery(reordered) == expected
        chunk = data.draw(st.integers(1, 400), label="DRAW_CHUNK")
        original = graph.DRAW_CHUNK
        try:
            graph.DRAW_CHUNK = chunk  # hypothesis runs examples without fixture resets
            chunked = battery(config)
        finally:
            graph.DRAW_CHUNK = original
        assert chunked == expected
