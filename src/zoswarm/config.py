"""Experiment configs: flat ``key = value`` lines whose keys are the rows of
``CONFIG_SCHEMA`` (``#`` starts a comment).  ``parse_config`` only types the
text.  ``ExperimentConfig.validate`` checks what no library function does: the
run section, the config's shape and the labels that name its record files.
Every problem, topology and algorithm value is checked once, by the library
rule of the factory, :func:`resolve_hyperparams` or ``HyperParams`` it is
handed to.  A parsed config and one built in code meet the same checks, all
before anything is written, and each failure is a :class:`ConfigError`.
"""

from __future__ import annotations

import importlib.resources
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import dynamics, estimator, graph, problems
from ._checks import check_integer, check_number

__all__ = [
    "ConfigError",
    "AlgorithmSpec",
    "ExperimentConfig",
    "CONFIG_SCHEMA",
    "parse_config",
    "load_config",
    "record_file_name",
    "build_problem",
    "build_topology",
    "resolve_hyperparams",
]

# the longest file name, in bytes, that common file systems accept
MAX_FILE_NAME_BYTES = 255

# characters that would split or quote an unquoted CSV cell
CSV_UNSAFE_CHARS = ('"', ",", "\r", "\n")


class ConfigError(ValueError):
    """The experiment configuration is malformed or incomplete."""


@dataclass
class AlgorithmSpec:
    """One algorithm entry of a battery, before hyperparameter resolution.

    ``eta`` is either the literal string ``"theorem"`` or an explicit float;
    ``smoothing`` is ``theorem_decay[:kappa]``, ``fixed:<value>`` or
    ``scaled_fixed:<c>`` (fixed radius ``c / sqrt(T * p)``).  The consensus
    step ``alpha`` is ``alpha_frac`` times the topology's admissible maximum.
    ``estimator``, ``gamma``, ``n_c`` and ``smoothing`` left ``None`` take
    the defaults of :class:`~zoswarm.dynamics.HyperParams`.
    """

    label: str
    kind: str
    estimator: str | None = None
    gamma: float | None = None
    eta: str | float = "theorem"
    alpha_frac: float = 0.9
    n_c: int | None = None
    smoothing: str | None = None


@dataclass
class ExperimentConfig:
    """Everything a battery needs: problem, topology, algorithms, seeds."""

    problem: dict = field(default_factory=dict)
    topology: dict = field(default_factory=dict)
    algorithms: list[AlgorithmSpec] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    T: int = 1000
    record_every: int = dynamics.RECORD_EVERY

    def validate(self) -> None:
        """Check the run section, the config's shape and its labels; every other
        value meets the rule of the function it reaches, before anything is written."""
        for section in ("problem", "topology"):
            settings = getattr(self, section)
            if not isinstance(settings, dict):
                raise ConfigError(f"{section} = {settings!r} is not a dict of settings")
        if not isinstance(self.algorithms, list):
            raise ConfigError(f"algorithms = {self.algorithms!r} is not a list")
        for position, spec in enumerate(self.algorithms):
            if not isinstance(spec, AlgorithmSpec):
                raise ConfigError(f"algorithms[{position}] = {spec!r} is not an AlgorithmSpec")
            if not isinstance(spec.label, str):
                raise ConfigError(f"algorithm label {spec.label!r} is not text")
        if not isinstance(self.seeds, list):
            raise ConfigError(f"run.seeds = {self.seeds!r} is not a list")
        if not self.algorithms:
            raise ConfigError("at least one algorithm must be configured")
        if not self.seeds:
            raise ConfigError("at least one master seed must be configured")
        with _config_errors("run"):
            # a run without rounds reports only the origin, record 0 of every run
            check_integer("T", self.T, 1)
            check_integer("record_every", self.record_every, 1)
            for seed in self.seeds:
                check_integer("master seed (run.seeds or --seed)", seed, 0)
        _reject_duplicates("master seed", self.seeds)
        _reject_duplicates("algorithm label", [spec.label for spec in self.algorithms])
        for spec in self.algorithms:
            # a label names its record CSVs, which must stay inside the output
            # directory and be names the file system accepts
            if "/" in spec.label or "\\" in spec.label:
                raise ConfigError(f"algorithm label {spec.label!r} contains a path separator")
            if "\0" in spec.label:
                raise ConfigError(f"algorithm label {spec.label!r} contains a NUL byte")
            # it is also a summary.csv cell, written unquoted
            for char in CSV_UNSAFE_CHARS:
                if char in spec.label:
                    raise ConfigError(
                        f"algorithm label {spec.label!r} contains {char!r}, "
                        "which a CSV cell cannot hold unquoted"
                    )
            longest = max(len(record_file_name(spec.label, seed).encode()) for seed in self.seeds)
            if longest > MAX_FILE_NAME_BYTES:
                raise ConfigError(
                    f"algorithm label {spec.label!r} makes a record file name of {longest} "
                    f"bytes, longer than the {MAX_FILE_NAME_BYTES} a file name may hold"
                )


def record_file_name(label: str, seed: int) -> str:
    """The name of the record CSV of one (algorithm, master seed) run of a battery."""
    return f"{label}_seed{seed}.csv"


def _reject_duplicates(what: str, items) -> None:
    # a repeated seed or label would write over the same CSV and double its summary row
    seen = set()
    for item in items:
        if item in seen:
            raise ConfigError(f"duplicate {what} {item!r}")
        seen.add(item)


# problem.name -> the factory that builds it; the factory's parameters are
# the settings the problem takes, and every default is the factory's own
_PROBLEMS = {
    "classification": problems.make_synthetic_classification,
    "quadratic_toy": problems.make_quadratic_toy,
}


def _one_of(choices: tuple[str, ...]) -> tuple:
    """The schema row of a text setting that must be one of ``choices``."""
    def read(value: str) -> str:
        if value not in choices:
            raise ValueError(value)
        return value
    return read, " or ".join(choices)


def _eta(value: str) -> str | float:
    return value if value == "theorem" else float(value)


def _smoothing_terms(token: str) -> tuple[str, float | None]:
    """Mode and number of a smoothing spec; ValueError when it is malformed.

    The grammar is ``theorem_decay[:<kappa>]``, ``fixed:<delta>`` or
    ``scaled_fixed:<c>``, each number positive; a bare ``theorem_decay``
    has no number and keeps the schedule's default kappa.
    """
    if not isinstance(token, str):  # a config built in code may hold anything
        raise ValueError(token)
    head, _, arg = token.partition(":")
    if head not in ("theorem_decay", "fixed", "scaled_fixed"):
        raise ValueError(token)
    if head == "theorem_decay" and not arg:
        return head, None
    value = float(arg)
    check_number(head, value, "(0, inf)")
    return head, value


def _smoothing(value: str) -> str:
    _smoothing_terms(value)
    return value


# The config schema: section -> setting -> (reader, what a malformed value
# "is not"); a reader raises ValueError on malformed text, and ``[reader]``
# reads a comma-separated list.  Every key but ``algorithms`` names a row as
# ``<section>.<setting>``, an algorithm row as ``defaults.<setting>`` or
# ``algorithm.<label>.<setting>``.
CONFIG_SCHEMA = {
    "run": {
        "T": (int, "an integer"),
        "record_every": (int, "an integer"),
        "seeds": ([int], "an integer"),
    },
    "problem": {
        "name": (str, "text"),
        "n_train": (int, "an integer"),
        "n_test": (int, "an integer"),
        "d": (int, "an integer"),
        "n_agents": (int, "an integer"),
        "seed": (int, "an integer"),
        "p": (int, "an integer"),
        "zeta": (float, "a number"),
    },
    "topology": {
        "n": (int, "an integer"),
        "prob": (float, "a number"),
        "seed": (int, "an integer"),
    },
    "algorithm": {
        "kind": _one_of(dynamics.ALGORITHMS),
        "estimator": _one_of(dynamics.ESTIMATORS),
        "gamma": (float, "a number"),
        "eta": (_eta, "'theorem' or a number"),
        "alpha_frac": (float, "a number"),
        "n_c": (int, "an integer"),
        "smoothing": (
            _smoothing,
            "theorem_decay[:<kappa>], fixed:<delta> or scaled_fixed:<c> with a positive number",
        ),
    },
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines into an :class:`ExperimentConfig`.

    A leading UTF-8 byte-order mark is ignored.
    """
    # key -> the line that set it and its value
    pairs: dict[str, tuple[int, str]] = {}

    def typed(key: str, value: str, read, expected: str):
        if isinstance(read, list):
            items = (token.strip() for token in value.split(","))
            return [typed(key, item, read[0], expected) for item in items if item]
        try:
            return read(value)
        except ValueError:
            raise ConfigError(
                f"line {pairs[key][0]}: {key} = {value!r} is not {expected}"
            ) from None

    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r}, first set on line {pairs[key][0]}"
            )
        pairs[key] = lineno, value

    # section -> its settings as typed; "defaults" holds the algorithm fields of every label
    settings: dict[str, dict] = {"problem": {}, "topology": {}, "run": {}, "defaults": {}}
    per_algorithm: dict[str, dict] = {}  # label -> its own algorithm fields
    labels: list[str] = []

    for key, (_, value) in pairs.items():
        section, dot, name = key.partition(".")
        if key == "algorithms":
            labels = typed(key, value, [str], "text")
            continue
        if dot and section == "algorithm":
            # a label may contain a dot; a setting name never does
            label, dot, name = name.rpartition(".")
            if not dot:
                raise ConfigError(f"algorithm key {key!r} needs a '<label>.<field>' suffix")
            values = per_algorithm.setdefault(label, {})
        else:
            values = settings.get(section)
        row = CONFIG_SCHEMA.get("algorithm" if section == "defaults" else section, {}).get(name)
        if values is None or row is None:
            raise ConfigError(f"unknown config key {key!r}")
        values[name] = typed(key, value, *row)

    stray = set(per_algorithm) - set(labels)
    if stray:
        raise ConfigError(f"algorithm settings for unlisted labels: {sorted(stray)}")
    algorithms = []
    for label in labels:
        fields = {**settings["defaults"], **per_algorithm.get(label, {})}
        algorithms.append(AlgorithmSpec(label=label, kind=fields.pop("kind", label), **fields))
    return ExperimentConfig(
        settings["problem"], settings["topology"], algorithms, **settings["run"]
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a config from a file path or from the bundled configs by name."""
    candidate = Path(path)
    if candidate.is_file():
        try:
            text = candidate.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {str(path)!r} is not UTF-8: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"config file {str(path)!r} cannot be read: {exc}") from None
        return parse_config(text)
    name = f"{str(path).removesuffix('.cfg')}.cfg"
    resource = importlib.resources.files("zoswarm").joinpath("configs", name)
    if not resource.is_file():
        raise ConfigError(
            f"neither a config file {str(path)!r} nor a bundled config named "
            f"{resource.name!r} exists"
        )
    return parse_config(resource.read_text(encoding="utf-8"))


@contextmanager
def _config_errors(where: str):
    """Re-raise a ValueError from building ``where`` as a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build(section: str, kind: str, factory, settings: dict):
    """``factory(**settings)``; its signature says which settings it takes and
    which it needs, and its own defaults fill the rest."""
    with _config_errors(section):
        parameters = inspect.signature(factory).parameters
        unknown = sorted(set(settings) - set(parameters))
        if unknown:
            raise ValueError(f"unknown {kind} settings: {unknown}")
        missing = [n for n, p in parameters.items() if p.default is p.empty and n not in settings]
        if missing:
            raise ValueError(f"missing {kind} settings: {missing}")
        return factory(**settings)


def build_problem(cfg: ExperimentConfig) -> problems.StochasticProblem:
    """Instantiate the configured problem."""
    spec = dict(cfg.problem)
    name = spec.pop("name", None)
    if not (isinstance(name, str) and name in _PROBLEMS):  # a name built in code may be unhashable
        raise ConfigError(f"unknown problem name {name!r}")
    return _build("problem", name, _PROBLEMS[name], spec)


def build_topology(cfg: ExperimentConfig) -> graph.Topology:
    """Instantiate the configured communication graph."""
    return _build("topology", "Erdos-Renyi", graph.erdos_renyi, cfg.topology)


def _parse_smoothing(token: str, p: int, T: int) -> estimator.SmoothingSchedule:
    try:
        head, value = _smoothing_terms(token)
    except ValueError:
        _, expected = CONFIG_SCHEMA["algorithm"]["smoothing"]
        raise ConfigError(f"smoothing {token!r} is not {expected}") from None
    if head == "scaled_fixed":
        if T < 1:
            raise ValueError(f"scaled_fixed smoothing needs T >= 1, got {T}")
        head, value = "fixed", value / math.sqrt(T * p)
    return estimator.SmoothingSchedule(head, value)


def resolve_hyperparams(
    spec: AlgorithmSpec,
    profile: graph.SpectralProfile,
    n_agents: int,
    p: int,
    T: int,
) -> dynamics.HyperParams:
    """Turn an algorithm spec into concrete hyperparameters.

    Any value the run would reject raises a :class:`ConfigError` naming the label.
    """
    with _config_errors(f"algorithm {spec.label!r}"):
        chosen = {"gamma": spec.gamma, "n_c": spec.n_c, "estimator": spec.estimator}
        if spec.smoothing is not None:
            chosen["smoothing"] = _parse_smoothing(spec.smoothing, p, T)
        eta = spec.eta  # unless it is "theorem", a number HyperParams checks
        if isinstance(eta, str) and eta == "theorem":
            eta = dynamics.theorem_schedule(n_agents, p, T)
        check_number("alpha_frac", spec.alpha_frac, "(0, 1)")
        alpha = spec.alpha_frac * profile.alpha_max  # a tiny alpha_frac underflows to 0
        check_number("alpha", alpha, f"(0, {profile.alpha_max!r})")
        params = dynamics.HyperParams(
            alpha=alpha,
            eta=eta,
            T=T,
            algorithm=spec.kind,
            **{name: value for name, value in chosen.items() if value is not None},
        )
        if params.n_c > p:
            raise ValueError(f"n_c = {params.n_c} exceeds the dimension p = {p}")
    return params
