"""The package's surface: every export resolves, every name the package
root imports is declared public by its module and named in the README,
every module-level import is used, and the set of options is pinned."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import zoswarm
from zoswarm import cli, dynamics, estimator, graph, harness, problems
from zoswarm.config import CONFIG_SCHEMA, AlgorithmSpec, parse_config, resolve_hyperparams

MODULES = sorted(info.name for info in pkgutil.iter_modules(zoswarm.__path__))
# the package's modules by name, and the test suite's as tests/<name>
SOURCES = {name: Path(zoswarm.__file__).with_name(f"{name}.py") for name in MODULES}
SOURCES |= {f"tests/{p.stem}": p for p in sorted(Path(__file__).resolve().parent.glob("*.py"))}


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


def test_package_root_exports_what_the_readme_names():
    # the quickstart's names, the types its library sections name, and no more
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    exported = {name for name in vars(zoswarm) if not name.startswith("_")} - set(MODULES)
    assert exported == {
        "erdos_renyi", "laplacian_spectrum", "make_synthetic_classification",
        "theorem_schedule", "HyperParams", "run", "summarize",
        "StochasticProblem", "ClassificationProblem", "Topology", "SmoothingSchedule",
        "EigenSolveError",
    }
    assert [name for name in sorted(exported) if not re.search(rf"(`|zs\.){name}\b", readme)] == []


@pytest.mark.parametrize("name", SOURCES)
def test_every_module_level_import_is_used(name):
    # no linter is a dependency; this catches an import orphaned by a deletion
    tree = ast.parse(SOURCES[name].read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name the module lists in __all__ is re-exported, which pyflakes counts as a use
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", "") for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    assert imported
    assert [name for name in imported if name not in used] == []


CONFIG_KEYS = {
    "run.T": "5",
    "run.record_every": "1",
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
    # adding, renaming or removing an option, an algorithm kind or a required
    # problem method is a deliberate change to this test
    schema = {
        f"{'algorithm.a' if section == 'algorithm' else section}.{name}"
        for section, rows in CONFIG_SCHEMA.items()
        for name in rows
    }
    assert schema | {"algorithms"} == set(CONFIG_KEYS)
    assert len(CONFIG_KEYS) == 22
    parsed = parse_config("".join(f"{k} = {v}\n" for k, v in CONFIG_KEYS.items()))
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
        "state", "topo", "params", "problem", "streams"
    ]
    assert [f.name for f in dataclasses.fields(dynamics.HyperParams)] == [
        "alpha", "eta", "T", "algorithm", "gamma", "n_c", "estimator", "smoothing"
    ]
    assert list(inspect.signature(harness.run_battery).parameters) == [
        "config", "out_dir", "jobs", "quiet"
    ]
    assert list(inspect.signature(harness.gamma_sweep).parameters) == [
        "config", "gammas", "out_dir"
    ]
    assert list(inspect.signature(harness.self_check).parameters) == []
    # a graph is drawn from its topology.* rows alone, and the analysis's
    # schedule from the swarm's size and horizon alone
    assert list(inspect.signature(graph.erdos_renyi).parameters) == ["n", "prob", "seed"]
    assert list(inspect.signature(dynamics.theorem_schedule).parameters) == [
        "n_agents", "p", "T"
    ]
    # a smoothing schedule mirrors the config's <mode>[:<value>] spec; the
    # analysis's step is one number and a spec resolves to parameters alone
    assert [f.name for f in dataclasses.fields(estimator.SmoothingSchedule)] == ["mode", "value"]
    assert type(dynamics.theorem_schedule(1, 1, 1)) is float
    profile = graph.laplacian_spectrum(graph.erdos_renyi(2, 1.0))
    spec = AlgorithmSpec(label="z", kind="zoom")
    assert type(resolve_hyperparams(spec, profile, 2, 2, 8)) is dynamics.HyperParams

    # a graph is kept in one form, the Laplacian's padded neighbour table, and
    # its spectral profile is the three bounds derived from it
    assert [f.name for f in dataclasses.fields(graph.Topology)] == [
        "n", "neighbours", "coefficients", "_spectrum"
    ]
    assert [f.name for f in dataclasses.fields(graph.SpectralProfile)] == [
        "rho2", "rho_l2", "alpha_max"
    ]

    # zeroth-order only: two algorithm kinds, and a problem answers function values
    assert dynamics.ALGORITHMS == ("zoom", "zoom_pb")
    assert problems.StochasticProblem.__abstractmethods__ == {
        "sample", "evaluate", "true_global_gradient", "full_loss"
    }


def test_readme_config_format_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    missing = []
    for group, rows in CONFIG_SCHEMA.items():
        for name in rows:
            if group == "algorithm":
                pattern = rf"(algorithm\.\S+\.|defaults\.){name}\b"
            else:
                pattern = rf"\b{group}\.{name}\b"
            if not re.search(pattern, section):
                missing.append(f"{group}.{name}")
    assert missing == []


def _message_pattern(rule, rules, bound=None):
    """A regex of the f-string ``rule`` raises, each ``{...}`` read as any text but
    the names ``bound`` to a constant; a rule that raises through another one,
    as ``check_point`` through ``check_array``, binds that rule's constant arguments."""
    bound = bound or {}
    raised = [node.exc.args[0] for node in ast.walk(rule) if isinstance(node, ast.Raise)]
    if not raised:
        (call,) = [
            node for node in ast.walk(rule)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in rules
        ]
        inner = rules[call.func.id]
        constants = {
            param.arg: arg.value
            for param, arg in zip(inner.args.args, call.args)
            if isinstance(arg, ast.Constant)
        }
        return _message_pattern(inner, rules, constants)
    (fstring,) = raised
    return "".join(
        re.escape(part.value) if isinstance(part, ast.Constant)
        else re.escape(bound[part.value.id]) if getattr(part.value, "id", None) in bound
        else ".+"
        for part in fstring.values
    )


def test_readme_input_rules_table_has_one_row_per_rule_with_its_message():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Input rules", 1)[1].split("\n#", 1)[0]
    # | <rule>: `check_<rule>` | what passes | `message shape` | example |
    rows = re.findall(r"^\| (\w+): `check_\1` \|[^|]*\| `([^`]*)` \|", section, re.M)
    tree = ast.parse(SOURCES["_checks"].read_text())
    rules = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    }
    assert sorted(f"check_{rule}" for rule, _ in rows) == sorted(rules)
    for rule, shape in rows:
        assert re.fullmatch(_message_pattern(rules[f"check_{rule}"], rules), shape), rule


def test_no_test_builds_a_spectral_profile():
    # a profile is what laplacian_spectrum derives from a topology, and a
    # step reads the topology itself, so no test needs made-up bounds
    built = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "SpectralProfile":
                    built.append(f"{path.name}:{node.lineno}")
    assert built == []


def test_only_graph_reads_the_neighbour_table():
    # the table's layout has one home: other modules ask graph for L @ x or
    # the edge count instead of reading the padded rows themselves
    readers = []
    for name, path in SOURCES.items():
        if name == "graph" or name.startswith("tests/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("neighbours", "coefficients"):
                readers.append(f"{name}:{node.lineno}")
    assert readers == []


def test_only_the_cli_prints():
    # the library returns its results; what reaches stdout or stderr is the CLI's
    printers = []
    for name, path in SOURCES.items():
        if name == "cli" or name.startswith("tests/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                printers.append(f"{name}:{node.lineno}")
    assert printers == []


def test_only_the_input_rule_tests_for_integers_and_numbers():
    # what counts as an integer or a real number has one home: other modules
    # call zoswarm._checks
    kinds = ("Integral", "integer", "Real", "floating")
    testers = []
    for name, path in SOURCES.items():
        if name == "_checks" or name.startswith("tests/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in kinds:
                testers.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.alias) and node.name in kinds:
                testers.append(f"{name}:{node.lineno}")
    assert testers == []


def test_only_the_input_rule_reads_a_dtype_kind():
    # what counts as a real array has one home: other modules call
    # zoswarm._checks.check_array
    readers = set()
    for name, path in SOURCES.items():
        if name.startswith("tests/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "kind":
                if isinstance(node.value, ast.Attribute) and node.value.attr == "dtype":
                    readers.add(name)
    assert readers == {"_checks"}


def test_every_config_row_is_set_by_a_bundled_config_or_a_workload(monkeypatch):
    # a row that no shipped config and no benchmark workload sets is a second
    # home for a value that something else already sets
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads  # read only

    configs = Path(zoswarm.__file__).parent / "configs"
    texts = [path.read_text() for path in sorted(configs.glob("*.cfg"))]
    texts += [workloads.config_text(w, 0, configs) for w in workloads.WORKLOADS.values()]
    set_rows = set()
    for text in texts:
        for line in text.splitlines():
            section, _, name = line.split("#", 1)[0].partition("=")[0].strip().partition(".")
            if section in ("defaults", "algorithm"):
                section, name = "algorithm", name.rpartition(".")[2]
            set_rows.add(f"{section}.{name}")
    rows = {f"{section}.{name}" for section, names in CONFIG_SCHEMA.items() for name in names}
    assert sorted(rows - set_rows) == []
