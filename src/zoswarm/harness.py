"""Experiment orchestration: config files, batteries, sweeps, self checks.

Configs are flat ``key = value`` lines with dotted section prefixes
(``topology.n = 10``); ``#`` starts a comment.  A battery runs every
configured algorithm over every master seed, writes one record CSV per
(algorithm, seed) plus a ``summary.csv`` of per-algorithm medians, and is
reproducible byte for byte apart from the wall-clock column.
"""

from __future__ import annotations

import importlib.resources
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import dynamics, estimator, graph, metrics, problems

__all__ = [
    "ConfigError",
    "AlgorithmSpec",
    "ExperimentConfig",
    "RunResult",
    "BatteryResult",
    "parse_config",
    "load_config",
    "build_problem",
    "build_topology",
    "resolve_hyperparams",
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
    "seed_count",
    "median_final_loss",
    "median_avg_grad_norm_sq",
    "median_avg_consensus_err",
    "median_accuracy",
)

SWEEP_FIELDS = (
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

# the longest file name, in bytes, that common file systems accept
MAX_FILE_NAME_BYTES = 255

# Loss values in summaries are the full-batch loss at the mean iterate, not
# the average of per-agent losses.
_SUMMARY_NOTE = "# losses are full-batch values at the mean iterate"


class ConfigError(ValueError):
    """The experiment configuration is malformed or incomplete."""


@dataclass
class AlgorithmSpec:
    """One algorithm entry of a battery, before hyperparameter resolution.

    ``eta`` is either the literal string ``"theorem"`` or an explicit float;
    ``smoothing`` is ``theorem_decay[:kappa]``, ``fixed:<value>`` or
    ``scaled_fixed:<c>`` (fixed radius ``c / sqrt(T * p)``).  ``alpha``
    defaults to ``alpha_frac`` times the topology's admissible maximum.
    """

    label: str
    kind: str
    estimator: str = "forward"
    gamma: float | None = None
    eta: str | float = "theorem"
    alpha: float | None = None
    alpha_frac: float = 0.9
    n_c: int = 1
    smoothing: str = "theorem_decay:1.0"

    def __post_init__(self) -> None:
        if self.kind not in dynamics.ALGORITHMS:
            raise ConfigError(f"unknown algorithm kind {self.kind!r} for {self.label!r}")
        if self.estimator not in dynamics.ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r} for {self.label!r}")


@dataclass
class ExperimentConfig:
    """Everything a battery needs: problem, topology, algorithms, seeds."""

    problem: dict = field(default_factory=dict)
    topology: dict = field(default_factory=dict)
    algorithms: list[AlgorithmSpec] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    T: int = 1000
    record_every: int = 10
    out_dir: str | None = None

    def validate(self) -> None:
        if not self.algorithms:
            raise ConfigError("at least one algorithm must be configured")
        if not self.seeds:
            raise ConfigError("at least one master seed must be configured")
        if self.T < 0:
            raise ConfigError("run.T must be nonnegative")
        if self.record_every < 1:
            raise ConfigError("run.record_every must be at least 1")
        for seed in self.seeds:
            if seed < 0:
                raise ConfigError(f"master seed {seed} is negative (run.seeds or --seed)")
        _reject_duplicates("master seed", self.seeds)
        _reject_duplicates("algorithm label", [spec.label for spec in self.algorithms])
        for spec in self.algorithms:
            # a label names its record CSVs, which must stay inside the output
            # directory and be names the file system accepts
            if "/" in spec.label or "\\" in spec.label:
                raise ConfigError(f"algorithm label {spec.label!r} contains a path separator")
            if "\0" in spec.label:
                raise ConfigError(f"algorithm label {spec.label!r} contains a NUL byte")
            longest = max(len(f"{spec.label}_seed{seed}.csv".encode()) for seed in self.seeds)
            if longest > MAX_FILE_NAME_BYTES:
                raise ConfigError(
                    f"algorithm label {spec.label!r} makes a record file name of {longest} "
                    f"bytes, longer than the {MAX_FILE_NAME_BYTES} a file name may hold"
                )


def _reject_duplicates(what: str, items) -> None:
    # a repeated seed or label would write over the same CSV and double its summary row
    seen = set()
    for item in items:
        if item in seen:
            raise ConfigError(f"duplicate {what} {item!r}")
        seen.add(item)


# run.* keys: ExperimentConfig attribute and value type
_RUN_KEYS = {
    "run.T": ("T", int),
    "run.record_every": ("record_every", int),
    "run.out": ("out_dir", str),
}

# problem.name -> the factory that builds it and the settings the factory
# takes, with their value types; every default is the factory's own
_PROBLEMS = {
    "classification": (
        problems.make_synthetic_classification,
        {"n_train": int, "n_test": int, "d": int, "n_agents": int, "seed": int},
    ),
    "quadratic_toy": (
        problems.make_quadratic_toy,
        {"n_agents": int, "p": int, "seed": int, "zeta": float},
    ),
}

# problem.* and topology.* settings and their value types; build_problem
# rejects a setting its problem does not take
_SETTINGS = {
    "problem": {"name": str}
    | {name: kind for _, settings in _PROBLEMS.values() for name, kind in settings.items()},
    "topology": {"n": int, "prob": float, "seed": int},
}


def _eta(value: str) -> str | float:
    return value if value == "theorem" else float(value)


def _smoothing_terms(token: str) -> tuple[str, float]:
    """Mode and number of a smoothing spec; ValueError when it is malformed.

    The grammar is ``theorem_decay[:<kappa>]`` (kappa 1 when left out),
    ``fixed:<delta>`` or ``scaled_fixed:<c>``, each number positive.
    """
    head, _, arg = token.partition(":")
    if head not in ("theorem_decay", "fixed", "scaled_fixed"):
        raise ValueError(token)
    if head == "theorem_decay" and not arg:
        return head, 1.0
    value = float(arg)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(token)
    return head, value


def _smoothing(value: str) -> str:
    _smoothing_terms(value)
    return value


# AlgorithmSpec fields settable from a config and their value types
_ALGORITHM_FIELDS = {
    "estimator": str,
    "gamma": float,
    "eta": _eta,
    "alpha": float,
    "alpha_frac": float,
    "n_c": int,
    "smoothing": _smoothing,
}

_EXPECTED = {
    int: "an integer",
    float: "a number",
    _eta: "'theorem' or a number",
    _smoothing: (
        "theorem_decay[:<kappa>], fixed:<delta> or scaled_fixed:<c> with a positive number"
    ),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines into an :class:`ExperimentConfig`."""
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}

    def typed(key: str, value: str, kind):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(
                f"line {first_line[key]}: {key} = {value!r} is not {_EXPECTED[kind]}"
            ) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r}, first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        pairs[key] = value

    cfg = ExperimentConfig()
    # algorithm field -> the key that set it, per label and as a default
    defaults: dict[str, str] = {}
    per_algorithm: dict[str, dict[str, str]] = {}
    labels: list[str] = []

    for key, value in pairs.items():
        section, _, name = key.partition(".")
        if name in _SETTINGS.get(section, ()):
            getattr(cfg, section)[name] = typed(key, value, _SETTINGS[section][name])
        elif key.startswith("defaults."):
            defaults[key[len("defaults.") :]] = key
        elif key.startswith("algorithm."):
            rest = key[len("algorithm.") :]
            if "." not in rest:
                raise ConfigError(f"algorithm key {key!r} needs a '<label>.<field>' suffix")
            label, fieldname = rest.split(".", 1)
            per_algorithm.setdefault(label, {})[fieldname] = key
        elif key == "algorithms":
            labels = [token.strip() for token in value.split(",") if token.strip()]
        elif key == "run.seeds":
            tokens = [token.strip() for token in value.split(",")]
            cfg.seeds = [typed(key, token, int) for token in tokens if token]
        elif key in _RUN_KEYS:
            attr, kind = _RUN_KEYS[key]
            setattr(cfg, attr, typed(key, value, kind))
        else:
            raise ConfigError(f"unknown config key {key!r}")

    for label in labels:
        fields = {**defaults, **per_algorithm.get(label, {})}
        kind_key = fields.pop("kind", None)
        kwargs = {}
        for name, key in fields.items():
            if name not in _ALGORITHM_FIELDS:
                raise ConfigError(f"unknown algorithm field {name!r} for {label!r}")
            kwargs[name] = typed(key, pairs[key], _ALGORITHM_FIELDS[name])
        kind = pairs[kind_key] if kind_key else label
        cfg.algorithms.append(AlgorithmSpec(label=label, kind=kind, **kwargs))

    stray = set(per_algorithm) - set(labels)
    if stray:
        raise ConfigError(f"algorithm settings for unlisted labels: {sorted(stray)}")
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a config from a file path or from the bundled configs by name."""
    candidate = Path(path)
    if candidate.is_file():
        try:
            text = candidate.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {str(path)!r} is not UTF-8: {exc}") from None
        return parse_config(text)
    resource = _bundled_resource(str(path))
    if not resource.is_file():
        raise ConfigError(
            f"neither a config file {str(path)!r} nor a bundled config named "
            f"{resource.name!r} exists"
        )
    return parse_config(resource.read_text())


def _bundled_resource(name: str):
    if not name.endswith(".cfg"):
        name = name + ".cfg"
    return importlib.resources.files("zoswarm").joinpath("configs", name)


@contextmanager
def _config_errors(where: str):
    """Re-raise a ValueError from building ``where`` as a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_problem(cfg: ExperimentConfig) -> problems.StochasticProblem:
    """Instantiate the configured problem; an unset setting takes its factory's default."""
    spec = dict(cfg.problem)
    name = spec.pop("name", None)
    if name not in _PROBLEMS:
        raise ConfigError(f"unknown problem name {name!r}")
    factory, settings = _PROBLEMS[name]
    with _config_errors("problem"):
        unknown = sorted(set(spec) - set(settings))
        if unknown:
            raise ValueError(f"unknown {name} settings: {unknown}")
        built = factory(**spec)
        # the classification factory makes the dataset its problem samples from
        if isinstance(built, problems.ClassificationDataset):
            built = problems.ClassificationProblem(built)
    return built


def build_topology(cfg: ExperimentConfig) -> graph.Topology:
    """Instantiate the configured communication graph."""
    spec = dict(cfg.topology)
    unknown = sorted(set(spec) - set(_SETTINGS["topology"]))
    if unknown:
        raise ConfigError(f"unknown topology settings: {unknown}")
    if "n" not in spec or "prob" not in spec:
        raise ConfigError("topology needs both 'n' and 'prob'")
    with _config_errors("topology"):
        return graph.erdos_renyi(**spec)


def _parse_smoothing(token: str, p: int, T: int) -> estimator.SmoothingSchedule:
    try:
        head, value = _smoothing_terms(token)
    except ValueError:
        raise ConfigError(f"smoothing {token!r} is not {_EXPECTED[_smoothing]}") from None
    if head == "theorem_decay":
        return estimator.SmoothingSchedule(kappa_delta=value, mode="theorem_decay")
    if head == "scaled_fixed":
        if T < 1:
            raise ConfigError("scaled_fixed smoothing needs a positive horizon")
        value /= math.sqrt(T * p)
    return estimator.SmoothingSchedule(mode="fixed", fixed_value=value)


def resolve_hyperparams(
    spec: AlgorithmSpec,
    profile: graph.SpectralProfile,
    n_agents: int,
    p: int,
    T: int,
) -> tuple[dynamics.HyperParams, str]:
    """Turn an algorithm spec into concrete hyperparameters.

    Returns the parameters and a faithfulness label: ``theorem`` when both
    the gradient step and the smoothing follow the schedule from the
    analysis, ``experiment`` when either is overridden explicitly.  Any
    value the run would reject raises a :class:`ConfigError` naming the label.
    """
    with _config_errors(f"algorithm {spec.label!r}"):
        if spec.n_c > p:
            raise ValueError(f"n_c = {spec.n_c} exceeds the dimension p = {p}")
        smoothing = _parse_smoothing(spec.smoothing, p, T)
        if spec.eta == "theorem":
            eta, _ = dynamics.theorem_schedule(n_agents, p, max(T, 1))
        else:
            eta = float(spec.eta)
        alpha = spec.alpha if spec.alpha is not None else spec.alpha_frac * profile.alpha_max
        if not 0.0 < alpha < profile.alpha_max:
            raise ValueError(f"alpha = {alpha:g} must lie in (0, {profile.alpha_max:g})")
        params = dynamics.HyperParams(
            alpha=alpha,
            eta=eta,
            T=T,
            algorithm=spec.kind,
            gamma=spec.gamma,
            n_c=spec.n_c,
            estimator=spec.estimator,
            smoothing=smoothing,
        )
    faithful = "theorem" if spec.eta == "theorem" and smoothing.mode == "theorem_decay" else "experiment"
    return params, faithful


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

    def runs_for(self, label: str) -> list[RunResult]:
        return [r for r in self.runs if r.label == label]


def _median_or_none(values) -> float | None:
    values = [v for v in values if v is not None]
    if not values:
        return None
    return float(statistics.median(values))


def _output_dir(path: str | Path | None) -> Path | None:
    """Create the output directory, or say which path cannot be used."""
    if path is None:
        return None
    target = Path(path)
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

    Writes one record CSV per run plus ``summary.csv`` when an output
    directory is known (argument wins over ``run.out`` in the config); runs
    purely in memory otherwise.  Rerunning with identical config and seeds
    reproduces byte-identical outputs apart from the wall-clock column.
    """
    # only jobs=1 callers remain; ROADMAP item 1 removes the keyword
    if jobs not in (None, 1):
        raise ValueError(f"run_battery runs serially; jobs must be None or 1, got {jobs!r}")
    config.validate()
    problem = build_problem(config)
    topo = build_topology(config)
    if problem.local_count != topo.n:
        raise ConfigError(
            f"problem has {problem.local_count} agents but topology.n = {topo.n}"
        )
    profile = graph.laplacian_spectrum(topo)

    resolved: list[tuple[AlgorithmSpec, dynamics.HyperParams, str]] = []
    for spec in config.algorithms:
        params, faithful = resolve_hyperparams(spec, profile, topo.n, problem.dimension, config.T)
        resolved.append((spec, params, faithful))

    target = _output_dir(out_dir if out_dir is not None else config.out_dir or None)

    runs = []
    for spec, params, _ in resolved:
        for seed in config.seeds:
            trajectory = dynamics.run(
                topo, problem, params, seed=seed, record_every=config.record_every
            )
            csv_path = None
            if target is not None:
                csv_path = target / f"{spec.label}_seed{seed}.csv"
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
    for spec, params, faithful in resolved:
        own = [r.summary for r in runs if r.label == spec.label]
        summary_rows.append(
            {
                "algorithm": spec.label,
                "gamma": params.gamma,
                "estimator": spec.estimator if spec.kind != "dsgd" else "-",
                "seed_count": len(own),
                "median_final_loss": _median_or_none(s.final_loss for s in own),
                "median_avg_grad_norm_sq": _median_or_none(s.avg_grad_norm_sq for s in own),
                "median_avg_consensus_err": _median_or_none(s.avg_consensus_err for s in own),
                "median_accuracy": _median_or_none(s.final_accuracy for s in own),
            }
        )
        comments.append(
            f"# {spec.label}: kind={spec.kind} eta={params.eta!r} "
            f"delta_mode={params.smoothing.mode} schedule={faithful}-faithful"
        )
        if not quiet:
            row = summary_rows[-1]
            acc = row["median_accuracy"]
            acc_text = f" accuracy={acc:.4f}" if acc is not None else ""
            print(
                f"[battery] {spec.label}: median final loss "
                f"{row['median_final_loss']:.6g} over {len(own)} seed(s){acc_text}"
            )

    summary_path = None
    if target is not None:
        summary_path = target / "summary.csv"
        metrics.write_table(summary_path, SUMMARY_FIELDS, summary_rows, comments)
    return BatteryResult(runs=runs, summary_rows=summary_rows, summary_path=summary_path)


def gamma_sweep(
    config: ExperimentConfig,
    gammas,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> list[dict]:
    """Run the powerball variant across ``gammas`` for both estimators.

    One row per (gamma, estimator): the battery's summary row for that label,
    medians over the config's seeds, plus ``median_initial_loss`` and
    ``within_guarantee_range``.  Gammas outside ``[1/2, 1]`` still run but
    are flagged there as outside the range the convergence guarantees cover.
    """
    gammas = list(gammas)
    if not gammas:
        raise ConfigError("gamma sweep needs at least one gamma value")
    base = config.algorithms[0] if config.algorithms else AlgorithmSpec(label="zoom_pb", kind="zoom_pb")
    specs = [
        replace(base, label=f"zoom_pb_g{g:g}_{est}", kind="zoom_pb", estimator=est, gamma=float(g))
        for g in gammas
        for est in dynamics.ESTIMATORS
    ]
    battery = run_battery(replace(config, algorithms=specs), out_dir=None, quiet=True)

    rows = battery.summary_rows
    for row in rows:
        row["within_guarantee_range"] = 0.5 <= row["gamma"] <= 1.0
        row["median_initial_loss"] = _median_or_none(
            r.trajectory.records[0].mean_train_loss for r in battery.runs_for(row["algorithm"])
        )
        if not quiet:
            print(
                f"[sweep] gamma={row['gamma']:g} {row['estimator']}: median final loss "
                f"{row['median_final_loss']:.6g}"
            )
    # created only now, so a sweep whose set-up or runs fail leaves no directory
    out = _output_dir(out_dir)
    if out is not None:
        metrics.write_table(out / "sweep.csv", SWEEP_FIELDS, rows, [_SUMMARY_NOTE])
    return rows


def record_csv_fingerprint(path: str | Path) -> str:
    """Record-CSV body with comments and the wall-clock column stripped.

    Wall time is the only nondeterministic quantity a record CSV carries;
    everything else must reproduce byte for byte across reruns.
    """
    kept = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            continue
        kept.append(line.rsplit(",", 1)[0])
    return "\n".join(kept)


# Invariant checks behind ``zoswarm check`` and acceptance criteria 03 and
# 06-09.  Each returns ``(passed, detail)``; the detail reports the measured
# quantity so a failure says by how much.


def _check_spectra() -> tuple[bool, str]:
    path3 = graph.Topology(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    p3 = graph.laplacian_spectrum(path3)
    p3_ok = (
        np.allclose(np.linalg.eigvalsh(p3.laplacian), [0.0, 1.0, 3.0], atol=1e-10)
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
        indices = list(sample.indices)
        expected[indices] = (p / n_c) * (hessian @ x + b)[indices]
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
    benchmark = problems.ClassificationProblem(problems.make_synthetic_classification(seed=7))
    cases = [
        ("toy", graph.erdos_renyi(4, 0.8, seed=1), toy, 150),
        ("benchmark", graph.erdos_renyi(10, 0.4, seed=7), benchmark, 200),
    ]
    passed = True
    details = []
    for name, topo, problem, horizon in cases:
        profile = graph.laplacian_spectrum(topo)
        eta, smoothing = dynamics.theorem_schedule(topo.n, problem.dimension, horizon)
        for est in dynamics.ESTIMATORS:
            params = dynamics.HyperParams(
                alpha=0.9 * profile.alpha_max,
                eta=eta,
                T=horizon,
                gamma=1.0,
                estimator=est,
                smoothing=smoothing,
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
        dataset = problems.make_synthetic_classification(seed=dataset_seed)
        problem = problems.ClassificationProblem(dataset)
        rng = np.random.default_rng(100 + dataset_seed)
        agent = int(rng.integers(dataset.n_agents))
        sl = dataset.shard_slice(agent)
        features = dataset.train_features[sl]
        labels = dataset.train_labels[sl].astype(float)
        loss = lambda z: float(np.mean((labels - problems.sigmoid(features @ z)) ** 2))
        for _ in range(5):
            x = rng.standard_normal(dataset.d)
            analytic = problem.true_local_gradient(agent, x)
            finite = np.zeros(dataset.d)
            for j in range(dataset.d):
                step = np.zeros(dataset.d)
                step[j] = 1e-5
                finite[j] = (loss(x + step) - loss(x - step)) / 2e-5
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
    mixing = np.eye(3) - params.alpha * profile.laplacian
    previous = metrics.consensus_error(state.iterates)
    for _ in range(300):
        expected = mixing @ state.iterates
        state = dynamics.step(state, profile, params, problem, streams)
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
    eta, smoothing = dynamics.theorem_schedule(4, 5, 200)
    params = dynamics.HyperParams(
        alpha=0.5 * profile.alpha_max, eta=eta, T=200, smoothing=smoothing
    )
    streams = dynamics.RunStreams.from_seed(4)
    shadow = dynamics.RunStreams.from_seed(4)  # replays the same draws
    state = dynamics.SwarmState(np.random.default_rng(2).standard_normal((4, 5)), 0)
    passed, worst = True, 0.0
    for _ in range(10):
        nxt = dynamics.step(state, profile, params, problem, streams)
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


def self_check(quiet: bool = False) -> bool:
    """Run every check in ``SELF_CHECKS``; True iff all of them pass."""
    all_passed = True
    for name, check in SELF_CHECKS.items():
        try:
            passed, detail = check()
        except Exception as exc:  # report and keep going; the CLI surfaces the verdict
            passed, detail = False, repr(exc)
        all_passed = all_passed and passed
        if not quiet:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return all_passed
