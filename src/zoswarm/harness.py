"""Experiment orchestration: batteries, sweeps, self checks.

A battery runs every configured algorithm over every master seed, writes one
record CSV per (algorithm, seed) plus a ``summary.csv`` of per-algorithm
medians, and is reproducible byte for byte apart from the wall-clock column.
A gamma sweep is a battery over labels it generates, with the same outputs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import dynamics, estimator, graph, metrics, problems
from ._checks import check_number
from .config import AlgorithmSpec, ConfigError, ExperimentConfig, record_file_name
from .config import _config_errors, resolve_hyperparams
# re-exported for benchmarks/, whose tracer patches the builders run_battery looks up here
from .config import build_problem, build_topology, load_config

__all__ = [
    "RunResult",
    "BatteryResult",
    "load_config",
    "build_problem",
    "build_topology",
    "run_battery",
    "gamma_sweep",
    "record_csv_fingerprint",
    "SELF_CHECKS",
    "self_check",
]

SUMMARY_FIELDS = (
    "algorithm",
    "gamma",
    "estimator",
    "within_guarantee_range",
    "seed_count",
    "median_initial_loss",
    "median_final_loss",
    "median_avg_grad_norm_sq",
    "median_avg_consensus_err",
    "median_accuracy",
)

# Loss values in summaries are the full-batch loss at the mean iterate, not
# the average of per-agent losses.
_SUMMARY_NOTE = "# losses are full-batch values at the mean iterate"


@dataclass
class RunResult:
    """One (algorithm, seed) execution with its summary and CSV location."""

    label: str
    kind: str
    seed: int
    params: dynamics.HyperParams
    trajectory: dynamics.Trajectory
    summary: metrics.RunSummary
    csv_path: Path | None = None


@dataclass
class BatteryResult:
    """All runs of a battery plus the aggregated summary rows."""

    runs: list[RunResult]
    summary_rows: list[dict]
    summary_path: Path | None = None


def _median_or_none(values) -> float | None:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else None


def _output_dir(path: str | Path | None) -> Path | None:
    """The output directory, made if missing, or a ConfigError naming an unusable path."""
    if path is None:
        return None
    target = Path(path)
    if target.is_dir() and any(target.iterdir()):
        # files of an earlier battery would sit beside the new ones, told apart by nothing
        raise ConfigError(f"cannot use {str(target)!r} as output directory: it is not empty")
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot use {str(target)!r} as output directory: {exc.strerror}"
        ) from None
    return target


def run_battery(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    jobs: int | None = None,
    quiet: bool = False,
) -> BatteryResult:
    """Run every configured (algorithm, seed) pair and aggregate medians.

    Writes one record CSV per run, then ``summary.csv``, the mark of a
    finished battery, into ``out_dir`` when one is given, which must be new
    or empty; runs purely in memory otherwise.  Reruns with identical config
    and seeds give byte-identical outputs apart from the wall-clock column.
    """
    # quiet is ignored, and only jobs=1 callers remain; ROADMAP item 1 removes both
    if jobs not in (None, 1):
        raise ValueError(f"run_battery runs serially; jobs must be None or 1, got {jobs!r}")
    config.validate()
    problem = build_problem(config)
    topo = build_topology(config)
    if problem.local_count != topo.n:
        raise ConfigError(f"problem has {problem.local_count} agents but topology.n = {topo.n}")
    profile = graph.laplacian_spectrum(topo)

    resolved = [
        (spec, resolve_hyperparams(spec, profile, topo.n, problem.dimension, config.T))
        for spec in config.algorithms
    ]

    target = _output_dir(out_dir)

    runs = []
    for spec, params in resolved:
        for seed in config.seeds:
            trajectory = dynamics.run(
                topo, problem, params, seed=seed, record_every=config.record_every
            )
            csv_path = None
            if target is not None:
                csv_path = target / record_file_name(spec.label, seed)
                metrics.write_csv(trajectory.records, csv_path)
            runs.append(
                RunResult(
                    label=spec.label,
                    kind=spec.kind,
                    seed=seed,
                    params=params,
                    trajectory=trajectory,
                    summary=metrics.summarize(trajectory),
                    csv_path=csv_path,
                )
            )

    summary_rows = []
    comments = [_SUMMARY_NOTE]
    low, high = dynamics.GAMMA_GUARANTEE
    for spec, params in resolved:
        own_runs = [r for r in runs if r.label == spec.label]
        own = [r.summary for r in own_runs]
        summary_rows.append(
            {
                "algorithm": spec.label,
                "gamma": params.gamma,
                "estimator": params.estimator,
                "within_guarantee_range": low <= params.gamma <= high,
                "seed_count": len(own),
                "median_initial_loss": _median_or_none(
                    r.trajectory.records[0].mean_train_loss for r in own_runs
                ),
                "median_final_loss": _median_or_none(s.final_loss for s in own),
                "median_avg_grad_norm_sq": _median_or_none(s.avg_grad_norm_sq for s in own),
                "median_avg_consensus_err": _median_or_none(s.avg_consensus_err for s in own),
                "median_accuracy": _median_or_none(s.final_accuracy for s in own),
            }
        )
        # theorem-faithful when both the step and the smoothing follow the analysis
        faithful = spec.eta == "theorem" and params.smoothing.mode == "theorem_decay"
        schedule = "theorem" if faithful else "experiment"
        comments.append(
            f"# {spec.label}: kind={spec.kind} eta={params.eta!r} "
            f"delta_mode={params.smoothing.mode} schedule={schedule}-faithful"
        )

    summary_path = None
    if target is not None:
        summary_path = target / "summary.csv"
        metrics.write_table(summary_path, SUMMARY_FIELDS, summary_rows, comments)
    return BatteryResult(runs=runs, summary_rows=summary_rows, summary_path=summary_path)


def gamma_sweep(
    config: ExperimentConfig, gammas, out_dir: str | Path | None = None
) -> BatteryResult:
    """Run the powerball variant across ``gammas`` for both estimators.

    A battery over one label ``zoom_pb_g<gamma>_<estimator>`` per (gamma,
    estimator), medians over the config's seeds, written into ``out_dir`` as
    :func:`run_battery` writes.  A gamma outside ``dynamics.GAMMA_GUARANTEE``
    still runs, uncovered by the guarantees, and its rows read
    ``within_guarantee_range`` false.
    """
    with _config_errors("gamma sweep"):  # before any run, so nothing is built or written
        for gamma in (gammas := list(gammas)):
            check_number("gamma", gamma, dynamics.GAMMA_RANGE)
    gammas = [float(g) for g in gammas]  # a label spells the Python float's repr
    if not gammas:
        raise ConfigError("gamma sweep needs at least one gamma value")
    base = config.algorithms[0] if config.algorithms else AlgorithmSpec(label="zoom_pb", kind="zoom_pb")
    specs = [
        # repr keeps every digit, so distinct gammas make distinct labels
        replace(base, label=f"zoom_pb_g{g!r}_{est}", kind="zoom_pb", estimator=est, gamma=g)
        for g in gammas
        for est in dynamics.ESTIMATORS
    ]
    return run_battery(replace(config, algorithms=specs), out_dir=out_dir)


def record_csv_fingerprint(path: str | Path) -> str:
    """Record-CSV body with comments and the wall-clock column stripped.

    Wall time is the only nondeterministic quantity a record CSV carries;
    everything else must reproduce byte for byte across reruns.
    """
    lines = Path(path).read_text().splitlines()
    return "\n".join(line.rsplit(",", 1)[0] for line in lines if not line.startswith("#"))


# Invariant checks behind ``zoswarm check`` and acceptance criteria 03 and
# 06-09.  Each returns ``(passed, detail)``; the detail reports the measured
# quantity so a failure says by how much.


def _check_spectra() -> tuple[bool, str]:
    # the path 0-1-2 has Laplacian eigenvalues 0, 1 and 3
    path3 = graph.Topology(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    p3 = graph.laplacian_spectrum(path3)
    p3_ok = (
        abs(p3.rho2 - 1.0) < 1e-10
        and abs(p3.rho_l2 - 9.0) < 1e-9
        and abs(p3.alpha_max - 1.0 / 18.0) < 1e-10
    )
    k2 = graph.laplacian_spectrum(graph.Topology(2, np.array([[0.0, 1.0], [1.0, 0.0]])))
    k2_ok = abs(k2.rho2 - 2.0) < 1e-12 and abs(k2.alpha_max - 0.25) < 1e-12
    detail = f"p3 alpha_max={p3.alpha_max:.12g}, k2 alpha_max={k2.alpha_max:.12g}"
    return p3_ok and k2_ok, detail


def _check_central_quadratic() -> tuple[bool, str]:
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 9))
        raw = rng.standard_normal((p, p))
        hessian = raw + raw.T
        b = rng.standard_normal(p)
        x = rng.standard_normal(p)
        n_c = int(rng.integers(1, p + 1))
        (sample,) = estimator.sample_coordinates(1, p, n_c, rng)
        delta = float(rng.uniform(1e-3, 1e-1))
        oracle = lambda z: float(0.5 * z @ hessian @ z + b @ z)
        got = estimator.central_estimate(oracle, x, sample, delta)
        expected = np.zeros(p)
        expected[list(sample)] = (p / n_c) * (hessian @ x + b)[list(sample)]
        scale = max(float(np.abs(expected).max()), 1.0)
        worst = max(worst, float(np.abs(got - expected).max()) / scale)
    return worst < 1e-9, f"worst rel err={worst:.2e}"


def _check_subset_average() -> tuple[bool, str]:
    problem = problems.make_quadratic_toy(1, 6, seed=3, zeta=0.4)
    rng = np.random.default_rng(0)
    realization = problem.sample(0, rng)  # fixed for every evaluation
    oracle = lambda z: problem.evaluate(0, z, realization)
    x = rng.standard_normal(6)
    delta = 0.05
    base = oracle(x)
    full = np.array([(oracle(x + delta * np.eye(6)[j]) - base) / delta for j in range(6)])
    subsets = list(combinations(range(6), 2))
    total = np.zeros(6)
    for subset in subsets:
        total += estimator.forward_estimate(oracle, x, estimator.CoordinateSample(subset), delta)
    worst = float(np.abs(total / len(subsets) - full).max())
    return len(subsets) == 15 and worst < 1e-10, f"max err={worst:.2e}"


def _check_reduction() -> tuple[bool, str]:
    toy = problems.make_quadratic_toy(4, 6, seed=3, zeta=0.3)
    benchmark = problems.make_synthetic_classification(seed=7)
    cases = [
        ("toy", graph.erdos_renyi(4, 0.8, seed=1), toy, 150),
        ("benchmark", graph.erdos_renyi(10, 0.4, seed=7), benchmark, 200),
    ]
    passed = True
    details = []
    for name, topo, problem, horizon in cases:
        profile = graph.laplacian_spectrum(topo)
        eta = dynamics.theorem_schedule(topo.n, problem.dimension, horizon)
        for est in dynamics.ESTIMATORS:
            params = dynamics.HyperParams(
                alpha=0.9 * profile.alpha_max, eta=eta, T=horizon, gamma=1.0, estimator=est
            )
            plain = dynamics.run(topo, problem, params, seed=9)
            transformed = dynamics.run(topo, problem, replace(params, algorithm="zoom_pb"), seed=9)
            identical = plain.records == transformed.records and np.array_equal(
                plain.final_state.iterates, transformed.final_state.iterates
            )
            passed = passed and identical
            details.append(f"{name}/{est}={'ok' if identical else 'MISMATCH'}")
    # Trajectories cannot tell +0.0 from -0.0 in an estimate, so the
    # transform itself must return its input bit for bit at gamma = 1.
    probe = np.array([-0.0, 0.0, 5e-324, -2.5, 1e300, -np.inf])
    if dynamics.powerball(probe, 1.0).tobytes() != probe.tobytes():
        passed = False
        details.append("powerball(v, 1) is not v bit for bit")
    return passed, ", ".join(details)


def _check_gradient_vs_differences() -> tuple[bool, str]:
    worst = 0.0
    for dataset_seed in (0, 1, 2):
        problem = problems.make_synthetic_classification(seed=dataset_seed)

        def loss(z):
            # the mean over agents of each shard's mean squared residual
            residual_sq = (problem.train_labels - problems.sigmoid(problem.train_features @ z)) ** 2
            return float(np.mean([residual_sq[a:b].mean() for a, b in problem.shard_bounds]))

        rng = np.random.default_rng(100 + dataset_seed)
        rng.integers(problem.local_count)  # an agent index precedes the pinned points
        for _ in range(5):
            x = rng.standard_normal(problem.dimension)
            analytic = problem.true_global_gradient(x)
            steps = 1e-5 * np.eye(problem.dimension)
            finite = np.array([(loss(x + step) - loss(x - step)) / 2e-5 for step in steps])
            rel = float(np.linalg.norm(finite - analytic) / np.linalg.norm(analytic))
            worst = max(worst, rel)
    return worst <= 1e-5, f"worst rel err={worst:.2e}"


def _check_consensus_contraction() -> tuple[bool, str]:
    # with eta = 0 a round is exactly the mixing x <- (I - alpha L) x
    topo = graph.Topology(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    profile = graph.laplacian_spectrum(topo)
    problem = problems.make_quadratic_toy(3, 4, seed=0)
    params = dynamics.HyperParams(alpha=0.9 * profile.alpha_max, eta=0.0, T=1)
    streams = dynamics.RunStreams.from_seed(0)
    state = dynamics.SwarmState(np.random.default_rng(9).standard_normal((3, 4)), 0)
    laplacian = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    mixing = np.eye(3) - params.alpha * laplacian
    previous = metrics.consensus_error(state.iterates)
    for _ in range(300):
        expected = mixing @ state.iterates
        state = dynamics.step(state, topo, params, problem, streams)
        current = metrics.consensus_error(state.iterates)
        if not np.allclose(state.iterates, expected, atol=1e-12) or current > previous + 1e-12:
            return False, f"round {state.k} is not a contracting mixing step"
        previous = current
    return previous < 1e-6, f"consensus error {previous:.2e} after 300 rounds"


def _check_mean_drift() -> tuple[bool, str]:
    # the mean iterate moves by -eta times the average estimate: mixing cancels
    topo = graph.erdos_renyi(4, 0.9, seed=0)
    profile = graph.laplacian_spectrum(topo)
    problem = problems.make_quadratic_toy(4, 5, seed=1, zeta=0.2)
    eta = dynamics.theorem_schedule(4, 5, 200)
    params = dynamics.HyperParams(alpha=0.5 * profile.alpha_max, eta=eta, T=200)
    streams = dynamics.RunStreams.from_seed(4)
    shadow = dynamics.RunStreams.from_seed(4)  # replays the same draws
    state = dynamics.SwarmState(np.random.default_rng(2).standard_normal((4, 5)), 0)
    passed, worst = True, 0.0
    for _ in range(10):
        nxt = dynamics.step(state, topo, params, problem, streams)
        delta = params.smoothing.delta(5, 4, state.k)
        total = np.zeros(5)
        coords = estimator.sample_coordinates(4, 5, 1, shadow.coords)
        for i in range(4):
            xi = problem.sample(i, shadow.data)
            total += estimator.forward_estimate(
                lambda z, a=i, r=xi: problem.evaluate(a, z, r), state.iterates[i], coords[i], delta
            )
        predicted = state.mean_iterate - params.eta / 4.0 * total
        passed = passed and np.allclose(nxt.mean_iterate, predicted, atol=1e-10)
        worst = max(worst, float(np.abs(nxt.mean_iterate - predicted).max()))
        state = nxt
    return passed, f"max mean-iterate err={worst:.2e} over 10 rounds"


SELF_CHECKS = {
    "spectra": _check_spectra,
    "central estimate on quadratics": _check_central_quadratic,
    "subset average": _check_subset_average,
    "gamma = 1 reduction": _check_reduction,
    "analytic gradient vs finite differences": _check_gradient_vs_differences,
    "consensus contraction": _check_consensus_contraction,
    "mean drift": _check_mean_drift,
}


def self_check() -> dict[str, tuple[bool, str]]:
    """``{name: (passed, detail)}`` for every check in ``SELF_CHECKS``; one that raises fails."""
    results = {}
    for name, check in SELF_CHECKS.items():
        try:
            results[name] = check()
        except Exception as exc:  # report and keep going; the CLI surfaces the verdict
            results[name] = (False, repr(exc))
    return results
