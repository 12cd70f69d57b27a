"""The package's surface: every export resolves, every name the package
root imports is declared public by its module, every module-level import is
used, and the set of options is pinned."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import zoswarm
from zoswarm import cli, dynamics, harness

MODULES = sorted(info.name for info in pkgutil.iter_modules(zoswarm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"zoswarm.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_root_imports_only_public_names():
    tree = ast.parse(Path(zoswarm.__file__).read_text())
    imported, stale = 0, []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"zoswarm.{node.module}")
            imported += len(node.names)
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__]
    assert imported > 0
    assert stale == []


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    # no linter is a dependency; this catches an import orphaned by a deletion
    tree = ast.parse(Path(zoswarm.__file__).with_name(f"{name}.py").read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported
    assert [name for name in imported if name not in used] == []


CONFIG_KEYS = {
    "run.T": "5",
    "run.record_every": "1",
    "run.out": "out",
    "run.seeds": "1,2",
    "problem.name": "quadratic_toy",
    "problem.n_train": "20",
    "problem.n_test": "5",
    "problem.d": "3",
    "problem.n_agents": "2",
    "problem.seed": "0",
    "problem.p": "3",
    "problem.zeta": "0.1",
    "topology.n": "2",
    "topology.prob": "1.0",
    "topology.seed": "0",
    "algorithms": "a",
    "algorithm.a.kind": "zoom_pb",
    "algorithm.a.estimator": "central",
    "algorithm.a.gamma": "0.7",
    "algorithm.a.eta": "theorem",
    "algorithm.a.alpha": "0.01",
    "algorithm.a.alpha_frac": "0.5",
    "algorithm.a.n_c": "2",
    "algorithm.a.smoothing": "fixed:0.01",
}

CLI_FLAGS = {
    "run": ["--config", "--out", "--seed", "--quiet"],
    "sweep": ["--config", "--gammas", "--out", "--quiet"],
    "spectra": ["--config", "--n", "--prob", "--seed"],
    "check": ["--quiet"],
}


def test_option_surface_is_pinned():
    # adding, renaming or removing an option is a deliberate change to this test
    tables = (
        set(harness._RUN_KEYS)
        | {f"{section}.{name}" for section, names in harness._SETTINGS.items() for name in names}
        | {f"algorithm.a.{name}" for name in harness._ALGORITHM_FIELDS}
        | {"run.seeds", "algorithms", "algorithm.a.kind"}
    )
    assert tables == set(CONFIG_KEYS)
    assert len(CONFIG_KEYS) == 24
    parsed = harness.parse_config("".join(f"{k} = {v}\n" for k, v in CONFIG_KEYS.items()))
    assert parsed.problem["zeta"] == 0.1 and parsed.topology["prob"] == 1.0
    assert parsed.algorithms[0].smoothing == "fixed:0.01"

    (subcommands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {
        name: [opt for a in sub._actions for opt in a.option_strings if opt not in ("-h", "--help")]
        for name, sub in subcommands.choices.items()
    }
    assert flags == CLI_FLAGS

    # a run is described by its HyperParams alone
    assert list(inspect.signature(dynamics.run).parameters) == [
        "topo", "problem", "params", "seed", "record_every"
    ]
    assert list(inspect.signature(dynamics.step).parameters) == [
        "state", "profile", "params", "problem", "streams"
    ]
    assert [f.name for f in dataclasses.fields(dynamics.HyperParams)] == [
        "alpha", "eta", "T", "algorithm", "gamma", "n_c", "estimator", "smoothing"
    ]
    assert list(inspect.signature(harness.run_battery).parameters) == [
        "config", "out_dir", "jobs", "quiet"
    ]
