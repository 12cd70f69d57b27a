import inspect
import math
import re
import tempfile
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoswarm import dynamics, graph
from zoswarm.config import (
    _PROBLEMS,
    CONFIG_SCHEMA,
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    build_problem,
    build_topology,
    load_config,
    parse_config,
    resolve_hyperparams,
)
from zoswarm.dynamics import HyperParams, run
from zoswarm.graph import Topology, laplacian_spectrum
from zoswarm.harness import gamma_sweep, record_csv_fingerprint, run_battery

TOY_CFG = """
problem.name = quadratic_toy
problem.n_agents = 4
problem.p = 6
problem.seed = 3
problem.zeta = 0.3
topology.n = 4
topology.prob = 0.9
topology.seed = 1
run.T = 120
run.record_every = 10
run.seeds = 1,2,3
defaults.eta = theorem
algorithms = zoom,zoom_pb
algorithm.zoom_pb.gamma = 0.7
"""


def _malformed_row_cases():
    """A malformed value for every schema row that is not text, in each key form."""
    for section, rows in CONFIG_SCHEMA.items():
        for name, (read, expected) in rows.items():
            if read is str:
                continue
            if read in (int, float):  # the literal cases pin the other readers' texts
                expected = {int: "an integer", float: "a number"}[read]
            if section == "algorithm":
                keys = [f"defaults.{name}", f"algorithm.zoom.{name}"]
            else:
                keys = [f"{section}.{name}"]
            for key in keys:
                yield (
                    f"algorithms = zoom\n{key} = nonsense\n",
                    f"line 2: {key} = 'nonsense' is not {expected}",
                )


MALFORMED_ROW_CASES = list(_malformed_row_cases())


def _as_text(values, to_text=str):
    """(config text, parsed value) pairs for the values a strategy draws."""
    return values.map(lambda value: (to_text(value), value))


NUMBERS = st.floats(allow_nan=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
SMOOTHING = st.one_of(
    st.just("theorem_decay"),
    st.builds("{}:{!r}".format, st.sampled_from(["theorem_decay", "fixed", "scaled_fixed"]), POSITIVE),
)
# (text, value) pairs valid for a row: by row where the reader is not a plain
# type (the kind and the estimator take one of a few words), else by reader
ROW_VALUES = {
    ("algorithm", "kind"): _as_text(st.sampled_from(dynamics.ALGORITHMS)),
    ("algorithm", "estimator"): _as_text(st.sampled_from(dynamics.ESTIMATORS)),
    ("algorithm", "eta"): _as_text(st.one_of(st.just("theorem"), NUMBERS)),
    ("algorithm", "smoothing"): _as_text(SMOOTHING),
}
READER_VALUES = {
    int: _as_text(st.integers()),
    float: _as_text(NUMBERS, repr),
    str: _as_text(
        st.text(st.characters(codec="ascii", categories=["L", "N", "P", "S"], exclude_characters="#"))
    ),
}
SEEDS = _as_text(st.lists(st.integers()), lambda seeds: ", ".join(map(str, seeds)))
FILLER = st.sampled_from(["", "   ", "# a comment", "# key = value"])


def _row_values(section, name):
    if (section, name) in ROW_VALUES:
        return ROW_VALUES[section, name]
    read, _ = CONFIG_SCHEMA[section][name]
    return SEEDS if read == [int] else READER_VALUES[read]


def toy_config():
    return parse_config(TOY_CFG)


class TestConfigParsing:
    def test_round_trip_fields(self):
        cfg = toy_config()
        assert cfg.problem["name"] == "quadratic_toy"
        assert cfg.topology == {"n": 4, "prob": 0.9, "seed": 1}
        assert cfg.T == 120
        assert cfg.seeds == [1, 2, 3]
        assert [a.label for a in cfg.algorithms] == ["zoom", "zoom_pb"]
        assert cfg.algorithms[1].gamma == 0.7

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# hello\n\nproblem.name = quadratic_toy # trailing\nrun.T = 5\n")
        assert cfg.problem["name"] == "quadratic_toy"
        assert cfg.T == 5

    def test_defaults_apply_to_all_algorithms(self):
        cfg = parse_config(
            "defaults.n_c = 3\ndefaults.estimator = central\n"
            "algorithms = zoom,zoom_pb\nalgorithm.zoom_pb.estimator = forward\n"
        )
        assert cfg.algorithms[0].n_c == 3
        assert cfg.algorithms[0].estimator == "central"
        assert cfg.algorithms[1].estimator == "forward"

    @pytest.mark.parametrize(
        "text, key",
        [
            ("runt.T = 5\n", "runt.T"),
            ("algorithms = zoom\nalgorithm.zoom.step = 5\n", "algorithm.zoom.step"),
            # one message, whether or not a label exists to take the default
            ("algorithms = zoom\ndefaults.alpha = 0.01\n", "defaults.alpha"),
            ("defaults.alpha = 0.01\n", "defaults.alpha"),
        ],
    )
    def test_unknown_keys_rejected(self, text, key):
        with pytest.raises(ConfigError, match=rf"^unknown config key '{re.escape(key)}'$"):
            parse_config(text)

    def test_a_kind_taken_from_a_label_is_left_to_hyperparams(self):
        (spec,) = parse_config("algorithms = sneaky\n").algorithms
        profile = laplacian_spectrum(build_topology(toy_config()))
        message = "algorithm 'sneaky': algorithm must be one of ('zoom', 'zoom_pb'), got 'sneaky'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_hyperparams(spec, profile, 4, 6, 120)

    def test_label_may_contain_a_dot(self):
        cfg = parse_config("algorithms = zoom.v2\nalgorithm.zoom.v2.kind = zoom\n")
        assert [(a.label, a.kind) for a in cfg.algorithms] == [("zoom.v2", "zoom")]
        with pytest.raises(ConfigError, match=r"^algorithm key 'algorithm.zoom' needs a"):
            parse_config("algorithms = zoom\nalgorithm.zoom = 1\n")

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_drawn_values_parse_back_exactly(self, data):
        rows = [(section, name) for section, names in CONFIG_SCHEMA.items() for name in names]
        chosen = data.draw(st.lists(st.sampled_from(rows), unique=True))
        # the parser keeps a kind taken from a label unchecked, as it keeps any text
        label = data.draw(st.sampled_from([*dynamics.ALGORITHMS, "a", "b.c"]))
        expected = ExperimentConfig()
        fields = {}
        lines = [f"algorithms = {label}"]
        for section, name in chosen:
            text, value = data.draw(_row_values(section, name))
            if section == "algorithm":
                key = data.draw(st.sampled_from([f"defaults.{name}", f"algorithm.{label}.{name}"]))
                fields[name] = value
            elif section == "run":
                key = f"run.{name}"
                setattr(expected, name, value)
            else:
                key = f"{section}.{name}"
                getattr(expected, section)[name] = value
            lines.append(f"{key} = {text}" + data.draw(st.sampled_from(["", "  # note"])))
        expected.algorithms = [AlgorithmSpec(label=label, kind=fields.pop("kind", label), **fields)]
        lines = data.draw(st.permutations(lines))
        for _ in range(data.draw(st.integers(0, 3))):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(FILLER))
        bom = data.draw(st.sampled_from(["", "\ufeff"]))
        assert parse_config(bom + "\n".join(lines)) == expected

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just a line\n")

    def test_duplicate_key_rejected_with_both_lines(self):
        text = "run.T = 5\n# comment\nrun.seeds = 1\n run.T=6  # again\n"
        with pytest.raises(ConfigError, match=r"line 4: duplicate key 'run.T', first set on line 1"):
            parse_config(text)

    def test_duplicate_seeds_and_labels_fail_validation(self):
        cfg = parse_config("run.seeds = 1,2,1\nalgorithms = zoom\n")
        with pytest.raises(ConfigError, match="duplicate master seed 1"):
            cfg.validate()
        cfg = parse_config("run.seeds = 1\nalgorithms = zoom,zoom_pb,zoom\n")
        with pytest.raises(ConfigError, match="duplicate algorithm label 'zoom'"):
            cfg.validate()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("run.T = twenty\n", "line 1: run.T = 'twenty' is not an integer"),
            ("run.seeds = 1, x\n", "line 1: run.seeds = 'x' is not an integer"),
            ("# note\nproblem.p = four\n", "line 2: problem.p = 'four' is not an integer"),
            ("topology.prob = dense\n", "line 1: topology.prob = 'dense' is not a number"),
            (
                "algorithms = zoom\nalgorithm.zoom.n_c = two\n",
                "line 2: algorithm.zoom.n_c = 'two' is not an integer",
            ),
            (
                "defaults.eta = fast\nalgorithms = zoom\n",
                "line 1: defaults.eta = 'fast' is not 'theorem' or a number",
            ),
            # a default that every label overrides, or that no label reads, is checked too
            (
                "defaults.eta = fast\nalgorithms = zoom\nalgorithm.zoom.eta = 0.1\n",
                "line 1: defaults.eta = 'fast' is not 'theorem' or a number",
            ),
            ("defaults.n_c = two\n", "line 1: defaults.n_c = 'two' is not an integer"),
            ("defaults.step = 5\n", "unknown config key 'defaults.step'"),
            *(
                (
                    f"algorithms = zoom\ndefaults.smoothing = {spec}\n",
                    f"line 2: defaults.smoothing = {spec!r} is not theorem_decay[:<kappa>], "
                    "fixed:<delta> or scaled_fixed:<c> with a positive number",
                )
                for spec in ("fixed:abc", "fixed:-1", "fixed:0", "linear:1", "theorem_decay:x")
            ),
            *MALFORMED_ROW_CASES,
        ],
    )
    def test_malformed_values_name_key_and_line(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_empty_algorithms_fails_validation(self):
        cfg = parse_config("problem.name = quadratic_toy\nrun.seeds = 1\n")
        with pytest.raises(ConfigError, match="algorithm"):
            cfg.validate()

    def test_missing_seeds_fails_validation(self):
        cfg = parse_config("problem.name = quadratic_toy\nalgorithms = zoom\n")
        with pytest.raises(ConfigError, match="seed"):
            cfg.validate()


# algorithm fields whose None means "take HyperParams' default"
UNSET = {f.name for f in fields(AlgorithmSpec) if f.default is None}

# values of the right kind that the gate, a builder or resolve_hyperparams rejects
OUT_OF_RANGE = {
    ("run", "T"): [0, -1],
    ("run", "record_every"): [0, -2],
    ("run", "seeds"): [[-1], [], [1, 1]],
    ("problem", "name"): ["mystery"],
    ("problem", "n_train"): [0],
    ("problem", "n_test"): [0],
    ("problem", "d"): [0],
    ("problem", "n_agents"): [0, -1],
    ("problem", "seed"): [-1],
    ("problem", "p"): [0],
    ("problem", "zeta"): [-1.0, math.nan],
    ("topology", "n"): [1, 0],
    ("topology", "prob"): [0.0, 1.5, -0.5, math.nan],
    ("topology", "seed"): [-1],
    ("algorithm", "label"): ["../x", 'a"b', "z" * 300],
    ("algorithm", "kind"): ["dsgd"],
    ("algorithm", "estimator"): ["backward"],
    ("algorithm", "gamma"): [0.0, -1.0, math.nan, math.inf],
    ("algorithm", "eta"): [-0.1, math.nan, math.inf],
    ("algorithm", "alpha_frac"): [0.0, 1.0, 2.0, math.nan],
    ("algorithm", "n_c"): [0, -1, 10**6],
    ("algorithm", "smoothing"): ["fixed:-1", "fixed:0", "theorem_decay:nan", "decay"],
}


# a text each text row reads
TEXTS = {
    "name": "quadratic_toy", "kind": "zoom_pb", "estimator": "forward", "smoothing": "fixed:0.1"
}


def _wrong_kinds(section, name):
    """Values no text of the row reads as: a bool, a float in an int row,
    numeric text, ``None`` where it does not mean unset, a list, an array."""
    if name == "label":
        return [5, None, ["z"]]
    read, _ = CONFIG_SCHEMA[section][name]
    if read == [int]:
        return [[True], [1.5], ["1"], [None], 5, None, "1"]
    if read is int:
        kinds = [True, 2.5, 3.0, "3", [1]]
    elif read is float or name == "eta":
        kinds = [True, False, "0.5", [0.5], np.array([0.5, 0.5])]
    else:  # an array holding a text the row reads is no text either
        kinds = [5, 0.5, True, ["x"], np.array([TEXTS[name]])]
    return kinds if section == "algorithm" and name in UNSET else kinds + [None]


@st.composite
def bad_fields(draw):
    """(bundled config, T <= 5, section, field, value) with one field wrong."""
    name = draw(st.sampled_from(["paper_iv_a", "toy_quadratic"]))
    cfg = load_config(name)
    rows = [("run", field) for field in CONFIG_SCHEMA["run"]]
    rows += [(section, field) for section in ("problem", "topology") for field in getattr(cfg, section)]
    rows += [("algorithm", field) for field in ["label", *CONFIG_SCHEMA["algorithm"]]]
    section, field = draw(st.sampled_from(rows))
    values = _wrong_kinds(section, field) + OUT_OF_RANGE.get((section, field), [])
    return name, draw(st.integers(1, 5)), section, field, draw(st.sampled_from(values))


def _with_field(name, horizon, section, field, value):
    cfg = load_config(name)
    cfg.T = horizon
    if section in ("run", "config"):  # "config" replaces a whole container
        setattr(cfg, field, value)
    elif section == "algorithm":
        cfg.algorithms[0] = replace(cfg.algorithms[0], **{field: value})
    else:
        getattr(cfg, section)[field] = value
    return cfg


class TestGate:
    @settings(max_examples=150, deadline=None)
    @given(bad_fields())
    @example(("toy_quadratic", 5, "run", "record_every", 2.5))
    @example(("toy_quadratic", 5, "run", "seeds", [1.5]))
    @example(("toy_quadratic", 5, "run", "seeds", [True]))
    @example(("toy_quadratic", 5, "run", "T", True))
    @example(("toy_quadratic", 5, "algorithm", "n_c", True))
    @example(("toy_quadratic", 5, "run", "seeds", ["1"]))
    @example(("toy_quadratic", 5, "run", "record_every", "3"))
    @example(("toy_quadratic", 5, "run", "T", "5"))
    @example(("toy_quadratic", 5, "algorithm", "gamma", "x"))
    @example(("toy_quadratic", 5, "problem", "name", ["x"]))
    @example(("toy_quadratic", 5, "algorithm", "kind", np.array(["zoom_pb"])))
    @example(("toy_quadratic", 5, "algorithm", "estimator", np.array(["forward"])))
    def test_a_config_built_in_code_fails_before_anything_is_written(self, case):
        cfg = _with_field(*case)
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # T <= 5 is a short horizon
                with pytest.raises(ConfigError):
                    run_battery(cfg, out_dir=out, quiet=True)
            assert not out.exists()

    @pytest.mark.parametrize(
        "case, message",
        [
            (
                ("run", "record_every", 2.5),
                "run: record_every must be an integer of at least 1, got 2.5",
            ),
            (("run", "T", True), "run: T must be an integer of at least 1, got True"),
            (
                ("run", "seeds", [1, "2"]),
                "run: master seed (run.seeds or --seed) must be an integer of at least 0, got '2'",
            ),
            (("run", "seeds", 1), "run.seeds = 1 is not a list"),
            (("problem", "name", ["x"]), "unknown problem name ['x']"),
            (
                ("topology", "prob", "0.5"),
                "topology: prob must be a finite number in (0, 1], got '0.5'",
            ),
            (("algorithm", "label", 5), "algorithm label 5 is not text"),
            (
                ("algorithm", "eta", None),
                "algorithm 'zoom': eta must be a finite number in [0, inf), got None",
            ),
            (
                ("algorithm", "eta", np.array([0.1, 0.1])),
                "algorithm 'zoom': eta must be a finite number in [0, inf), got array([0.1, 0.1])",
            ),
            (
                ("algorithm", "estimator", "fd"),
                "algorithm 'zoom': estimator must be one of ('forward', 'central'), got 'fd'",
            ),
            (
                ("algorithm", "kind", np.array(["zoom"])),
                "algorithm 'zoom': algorithm must be one of ('zoom', 'zoom_pb'), "
                "got array(['zoom'], dtype='<U4')",
            ),
            (
                ("algorithm", "smoothing", 5),
                "algorithm 'zoom': smoothing 5 is not theorem_decay[:<kappa>], fixed:<delta> "
                "or scaled_fixed:<c> with a positive number",
            ),
            (("config", "problem", None), "problem = None is not a dict of settings"),
            (("config", "topology", None), "topology = None is not a dict of settings"),
            (("config", "algorithms", ["zoom"]), "algorithms[0] = 'zoom' is not an AlgorithmSpec"),
            (("config", "algorithms", None), "algorithms = None is not a list"),
        ],
    )
    def test_a_value_of_the_wrong_kind_is_named_by_its_rule(self, tmp_path, case, message):
        cfg = _with_field("toy_quadratic", 5, *case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # T = 5 is a short horizon
            with pytest.raises(ConfigError) as info:
                run_battery(cfg, out_dir=tmp_path / "out", quiet=True)
        assert str(info.value) == message
        assert not (tmp_path / "out").exists()

    def test_numpy_scalars_and_unset_fields_pass(self):
        # each number runs as its float: the records equal those of the float config
        def toy(horizon, seed, prob, eta, gamma, n_c):
            cfg = _with_field("toy_quadratic", horizon, "run", "seeds", [seed])
            cfg.topology["prob"] = prob
            cfg.algorithms[0] = replace(cfg.algorithms[0], eta=eta[0])
            cfg.algorithms[1] = replace(cfg.algorithms[1], eta=eta[1], gamma=gamma, n_c=n_c)
            return cfg

        cfg = toy(
            np.int64(20), np.int64(1), np.float32(0.9),
            (np.float32(0.25), Fraction(1, 10)), Fraction(7, 10), np.int8(2),
        )
        assert cfg.algorithms[0].gamma is None
        floats = toy(20, 1, float(np.float32(0.9)), (0.25, 0.1), 0.7, 2)
        runs = [run_battery(config, quiet=True).runs for config in (cfg, floats)]
        assert [r.trajectory.records for r in runs[0]] == [r.trajectory.records for r in runs[1]]


class TestBundledConfigs:
    def test_benchmark_config_matches_protocol(self):
        cfg = load_config("paper_iv_a")
        assert cfg.problem["n_train"] == 2000
        assert cfg.problem["n_test"] == 200
        assert cfg.problem["d"] == 100
        assert cfg.topology["n"] == 10
        assert cfg.topology["prob"] == 0.4
        assert cfg.T == 10000
        assert len(cfg.seeds) == 5
        kinds = {a.label: a.kind for a in cfg.algorithms}
        assert set(kinds.values()) == {"zoom", "zoom_pb"}
        estimators = {(a.kind, a.estimator) for a in cfg.algorithms}
        assert estimators == {
            ("zoom", "forward"),
            ("zoom", "central"),
            ("zoom_pb", "forward"),
            ("zoom_pb", "central"),
        }
        for a in cfg.algorithms:
            if a.kind == "zoom_pb":
                assert a.gamma == 0.7
            assert a.smoothing == "scaled_fixed:10"

    def test_benchmark_smoothing_resolves_to_fixed_radius(self):
        cfg = load_config("paper_iv_a")
        topo = build_topology(cfg)
        profile = laplacian_spectrum(topo)
        params = resolve_hyperparams(cfg.algorithms[0], profile, 10, 100, cfg.T)
        assert params.smoothing.mode == "fixed"
        assert abs(params.smoothing.value - 0.01) < 1e-15

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError, match="bundled"):
            load_config("nope")


class TestBuilders:
    def test_build_problem_and_topology(self):
        cfg = toy_config()
        problem = build_problem(cfg)
        topo = build_topology(cfg)
        assert problem.local_count == 4
        assert problem.dimension == 6
        assert topo.n == 4

    def test_problem_rows_are_the_factories_parameters_plus_name(self):
        parameters = {
            name
            for factory in _PROBLEMS.values()
            for name in inspect.signature(factory).parameters
        }
        assert set(CONFIG_SCHEMA["problem"]) == parameters | {"name"}

    def test_topology_rows_are_the_factorys_parameters(self):
        parameters = inspect.signature(graph.erdos_renyi).parameters
        assert set(CONFIG_SCHEMA["topology"]) == set(parameters)

    @pytest.mark.parametrize(
        "name, agents, dimension", [("classification", 10, 100), ("quadratic_toy", 5, 10)]
    )
    def test_name_alone_builds_the_factory_default(self, name, agents, dimension):
        problem = build_problem(parse_config(f"problem.name = {name}"))
        assert (problem.local_count, problem.dimension) == (agents, dimension)

    def test_unknown_setting_rejected_with_problem_name(self):
        cfg = parse_config("problem.name = quadratic_toy\nproblem.d = 3")
        with pytest.raises(ConfigError, match=r"^problem: unknown quadratic_toy settings: \['d'\]$"):
            build_problem(cfg)

    def test_unknown_problem_rejected(self):
        cfg = ExperimentConfig(problem={"name": "mystery"})
        with pytest.raises(ConfigError, match="unknown problem"):
            build_problem(cfg)

    def test_theorem_eta_resolution(self):
        cfg = toy_config()
        topo = build_topology(cfg)
        profile = laplacian_spectrum(topo)
        params = resolve_hyperparams(cfg.algorithms[0], profile, 4, 6, 120)
        assert abs(params.eta - np.sqrt(4) / np.sqrt(6 * 120)) < 1e-15
        assert 0.0 < params.alpha < profile.alpha_max
        assert params.gamma == 1.0  # plain variant reports the 2-norm

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_is_rejected_before_any_run(self, tmp_path, horizon):
        # a battery without rounds would report only the origin, record 0 of every run
        for name in ("toy_quadratic", "paper_iv_a"):
            cfg = load_config(name)
            cfg.T = horizon
            message = rf"^run: T must be an integer of at least 1, got {horizon}$"
            with pytest.raises(ConfigError, match=message):
                run_battery(cfg, out_dir=tmp_path / "out", quiet=True)
        assert not (tmp_path / "out").exists()

    def test_unset_fields_take_the_hyperparams_defaults(self):
        profile = laplacian_spectrum(build_topology(toy_config()))
        spec = AlgorithmSpec(label="z", kind="zoom")
        assert (spec.estimator, spec.gamma, spec.n_c, spec.smoothing) == (None, None, None, None)
        params = resolve_hyperparams(spec, profile, 4, 6, 120)
        defaults = HyperParams(alpha=params.alpha, eta=params.eta, T=120)
        assert params == defaults
        bare = resolve_hyperparams(replace(spec, smoothing="theorem_decay"), profile, 4, 6, 120)
        assert bare == defaults

    def test_short_horizon_warning_shows_once_per_battery(self):
        # leaving a catch_warnings block resets Python's once-per-location
        # registry, so resolving each label must not enter one at T > 0
        cfg = parse_config(
            TOY_CFG.replace("algorithms = zoom,zoom_pb", "algorithms = zoom,zoom_pb,zoom_cd")
            + "algorithm.zoom_cd.kind = zoom\nalgorithm.zoom_cd.estimator = central\n"
        )
        cfg.T = 5
        cfg.seeds = [1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_battery(cfg, quiet=True)
        assert len(cfg.algorithms) == 3
        assert [str(w.message).split(";")[0] for w in caught] == [
            "horizon T=5 is below n^3/p = 10.6667"
        ]

    def test_spec_built_in_code_is_checked_with_its_label(self):
        cfg = toy_config()
        profile = laplacian_spectrum(build_topology(cfg))
        spec = AlgorithmSpec(label="z", kind="zoom", smoothing="fixed:abc")
        with pytest.raises(ConfigError, match=r"^algorithm 'z': smoothing 'fixed:abc' is not"):
            resolve_hyperparams(spec, profile, 4, 6, 120)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_scaled_fixed_smoothing_needs_rounds_to_scale_by(self, horizon):
        # called directly, no validate() rejects the horizon first
        profile = laplacian_spectrum(build_topology(toy_config()))
        spec = AlgorithmSpec(label="z", kind="zoom", eta=0.01, smoothing="scaled_fixed:10")
        with pytest.raises(
            ConfigError,
            match=rf"^algorithm 'z': scaled_fixed smoothing needs T >= 1, got {horizon}$",
        ):
            resolve_hyperparams(spec, profile, 4, 6, horizon)


class TestBattery:
    def test_outputs_one_csv_per_run_plus_summary(self, tmp_path):
        result = run_battery(toy_config(), out_dir=tmp_path, quiet=True)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "summary.csv",
            "zoom_pb_seed1.csv",
            "zoom_pb_seed2.csv",
            "zoom_pb_seed3.csv",
            "zoom_seed1.csv",
            "zoom_seed2.csv",
            "zoom_seed3.csv",
        ]
        assert len(result.runs) == 6

    def test_summary_schema(self, tmp_path):
        run_battery(toy_config(), out_dir=tmp_path, quiet=True)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == (
            "algorithm,gamma,estimator,within_guarantee_range,seed_count,median_initial_loss,"
            "median_final_loss,median_avg_grad_norm_sq,median_avg_consensus_err,median_accuracy"
        )
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2
        assert rows[0].startswith("zoom,1.0,forward,yes,3,")
        assert rows[1].startswith("zoom_pb,0.7,forward,yes,3,")
        assert rows[0].endswith(",")  # toy problem has no test set

    @pytest.mark.parametrize(
        "name, change, label",
        [
            ("toy_quadratic", {}, "theorem"),
            ("toy_quadratic", {"eta": 0.01}, "experiment"),
            ("toy_quadratic", {"smoothing": "fixed:0.1"}, "experiment"),
            ("paper_iv_a", {}, "experiment"),
        ],
    )
    def test_summary_comment_names_the_schedule(self, tmp_path, name, change, label):
        # theorem-faithful only when both the step and the smoothing follow the analysis
        cfg = load_config(name)
        cfg.T, cfg.seeds = 20, cfg.seeds[:1]  # past the toy's n^3/p = 12.5
        cfg.algorithms = [replace(spec, **change) for spec in cfg.algorithms]
        run_battery(cfg, out_dir=tmp_path, quiet=True)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        notes = [l for l in lines if l.startswith("# ") and ": kind=" in l]
        assert [l.split(":")[0] for l in notes] == [f"# {a.label}" for a in cfg.algorithms]
        assert all(l.endswith(f" schedule={label}-faithful") for l in notes)

    def test_numpy_gamma_writes_a_plain_summary_cell(self, tmp_path):
        cfg = toy_config()
        cfg.algorithms[1].gamma = np.float64(0.7)
        cfg.seeds = [1]
        run_battery(cfg, out_dir=tmp_path, quiet=True)
        assert "\nzoom_pb,0.7,forward,yes,1," in (tmp_path / "summary.csv").read_text()

    def test_gamma_one_powerball_writes_identical_record_csv(self, tmp_path):
        cfg = parse_config(
            TOY_CFG.replace("algorithm.zoom_pb.gamma = 0.7", "algorithm.zoom_pb.gamma = 1.0")
        )
        cfg.seeds = [5]
        run_battery(cfg, out_dir=tmp_path, quiet=True)
        plain = record_csv_fingerprint(tmp_path / "zoom_seed5.csv")
        transformed = record_csv_fingerprint(tmp_path / "zoom_pb_seed5.csv")
        assert plain == transformed

    def test_battery_matches_standalone_runs(self, tmp_path, standalone_runs):
        # classification, so a record reads the problem's full-batch response cache
        cfg = parse_config(
            "problem.name = classification\nproblem.n_train = 200\nproblem.n_test = 40\n"
            "problem.d = 12\nproblem.n_agents = 4\nproblem.seed = 5\n"
            "topology.n = 4\ntopology.prob = 0.8\ntopology.seed = 2\n"
            "run.T = 40\nrun.record_every = 5\nrun.seeds = 1,2,3\n"
            "defaults.eta = 0.05\ndefaults.n_c = 3\ndefaults.smoothing = fixed:0.01\n"
            "algorithms = zoom_fd,zoom_pb_cd,zoom_cd\nalgorithm.zoom_fd.kind = zoom\n"
            "algorithm.zoom_pb_cd.kind = zoom_pb\nalgorithm.zoom_pb_cd.estimator = central\n"
            "algorithm.zoom_cd.kind = zoom\nalgorithm.zoom_cd.estimator = central\n"
        )
        run_battery(cfg, out_dir=tmp_path / "battery", quiet=True)
        standalone_runs(cfg, tmp_path / "alone")
        paths = sorted((tmp_path / "battery").glob("*_seed*.csv"))
        assert len(paths) == 9
        for path in paths:
            assert record_csv_fingerprint(path) == record_csv_fingerprint(
                tmp_path / "alone" / path.name
            )

    def test_a_used_output_directory_is_refused_before_any_run(self, tmp_path, monkeypatch):
        # the stale-output probe: a 1-label, 1-seed battery written over a 6-run
        # directory left 5 stale record CSVs beside a summary.csv naming 1 run
        run_battery(toy_config(), out_dir=tmp_path, quiet=True)
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert len(written) == 7

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(dynamics, "run", no_run)
        smaller = replace(toy_config(), algorithms=toy_config().algorithms[:1], seeds=[1])
        message = f"cannot use {str(tmp_path)!r} as output directory: it is not empty"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_battery(smaller, out_dir=tmp_path, quiet=True)
        # a sweep is a battery, so it refuses the directory before any run too
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            gamma_sweep(smaller, [0.5], out_dir=tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written
        # any entry counts, a hidden one or a directory too
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / ".keep").touch()
        (tmp_path / "b" / "nested").mkdir(parents=True)
        for used in ("a", "b"):
            with pytest.raises(ConfigError, match="it is not empty$"):
                run_battery(smaller, out_dir=tmp_path / used, quiet=True)

    @pytest.mark.parametrize(
        "battery", [run_battery, lambda cfg: gamma_sweep(cfg, [0.7])], ids=["run", "sweep"]
    )
    def test_without_out_dir_nothing_is_written(self, tmp_path, monkeypatch, battery):
        monkeypatch.chdir(tmp_path)
        result = battery(replace(toy_config(), seeds=[1], T=20))
        assert result.summary_path is None
        assert all(run.csv_path is None for run in result.runs)
        assert list(tmp_path.iterdir()) == []

    def test_only_serial_execution(self):
        with pytest.raises(ValueError, match="jobs must be None or 1"):
            run_battery(toy_config(), quiet=True, jobs=2)

    def test_summary_medians_ignore_seed_order(self, tmp_path):
        cfg = toy_config()
        forward = run_battery(cfg, quiet=True)
        cfg_reversed = toy_config()
        cfg_reversed.seeds = list(reversed(cfg_reversed.seeds))
        backward = run_battery(cfg_reversed, quiet=True)
        assert forward.summary_rows == backward.summary_rows

    def test_seed_override(self):
        result = run_battery(replace(toy_config(), seeds=[9]), quiet=True)
        assert {r.seed for r in result.runs} == {9}
        with pytest.raises(ConfigError, match="duplicate master seed 9"):
            run_battery(replace(toy_config(), seeds=[9, 9]), quiet=True)

    def test_standalone_zoom_run_records_what_the_battery_records(self):
        # one gamma default: a zoom run left without gamma reports plain squared norms
        cfg = replace(toy_config(), seeds=[1])
        (battery_run,) = [r for r in run_battery(cfg).runs if r.label == "zoom"]
        resolved = battery_run.params
        params = HyperParams(
            alpha=resolved.alpha,
            eta=resolved.eta,
            T=cfg.T,
            algorithm="zoom",
            smoothing=resolved.smoothing,
        )
        trajectory = run(build_topology(cfg), build_problem(cfg), params, seed=1)
        assert all(r.grad_norm_1pg_sq == r.grad_norm_sq for r in trajectory.records)
        assert trajectory.records == battery_run.trajectory.records

    def test_agent_count_mismatch_rejected(self):
        cfg = toy_config()
        cfg.topology["n"] = 5
        with pytest.raises(ConfigError, match="topology.n"):
            run_battery(cfg, quiet=True)

    def test_empty_algorithms_rejected(self):
        cfg = toy_config()
        cfg.algorithms = []
        with pytest.raises(ConfigError):
            run_battery(cfg, quiet=True)


class TestGammaSweep:
    def test_empty_gamma_list_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            gamma_sweep(toy_config(), [])

    def test_repeated_gamma_rejected(self):
        with pytest.raises(ConfigError, match="duplicate algorithm label 'zoom_pb_g0.5_forward'"):
            gamma_sweep(toy_config(), [0.5, 0.5])

    def test_close_gammas_keep_distinct_labels(self):
        # six significant digits would print both as g0.5 and share one label
        cfg = toy_config()
        cfg.T, cfg.seeds = 20, [1]
        rows = gamma_sweep(cfg, [0.5, 0.5000001]).summary_rows
        assert [(r["algorithm"], r["gamma"]) for r in rows] == [
            ("zoom_pb_g0.5_forward", 0.5),
            ("zoom_pb_g0.5_central", 0.5),
            ("zoom_pb_g0.5000001_forward", 0.5000001),
            ("zoom_pb_g0.5000001_central", 0.5000001),
        ]

    def test_gamma_one_matches_plain_run_summary(self):
        cfg = toy_config()
        cfg.seeds = [2]
        rows = gamma_sweep(cfg, [1.0]).summary_rows
        plain_text = TOY_CFG.replace("algorithms = zoom,zoom_pb", "algorithms = zoom").replace(
            "algorithm.zoom_pb.gamma = 0.7", ""
        )
        battery = run_battery(replace(parse_config(plain_text), seeds=[2]), quiet=True)
        plain = battery.summary_rows[0]
        forward_row = next(r for r in rows if r["estimator"] == "forward")
        assert forward_row["median_final_loss"] == plain["median_final_loss"]
        assert forward_row["median_avg_grad_norm_sq"] == plain["median_avg_grad_norm_sq"]

    def test_flags_gammas_outside_guarantee_range(self, tmp_path):
        cfg = toy_config()
        cfg.seeds = [1]
        cfg.T = 40
        with pytest.warns(RuntimeWarning):
            rows = gamma_sweep(cfg, [0.3, 0.7], out_dir=tmp_path).summary_rows
        flagged = {r["gamma"]: r["within_guarantee_range"] for r in rows}
        assert flagged == {0.3: False, 0.7: True}
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        flags = [l.split(",")[3] for l in lines if l.startswith("zoom_pb_g")]
        assert flags == ["no", "no", "yes", "yes"]

    def test_one_row_per_gamma_per_estimator(self):
        cfg = toy_config()
        cfg.seeds = [1]
        cfg.T = 40
        rows = gamma_sweep(cfg, [0.5, 1.0]).summary_rows
        assert len(rows) == 4
        assert {(r["gamma"], r["estimator"]) for r in rows} == {
            (0.5, "forward"),
            (0.5, "central"),
            (1.0, "forward"),
            (1.0, "central"),
        }


def test_battery_solves_the_spectrum_once_and_keeps_it_read_only(monkeypatch):
    solves = []
    solve = graph._solve_spectrum

    def counted(topo):
        solves.append(topo.n)
        return solve(topo)

    monkeypatch.setattr(graph, "_solve_spectrum", counted)
    battery = run_battery(toy_config(), quiet=True)
    assert len(battery.runs) == 6  # two algorithms x three seeds, each calling run
    assert solves == [4]

    # the memo cannot go stale: the Laplacian's table takes no writes
    topo = build_topology(toy_config())
    profile = laplacian_spectrum(topo)
    assert laplacian_spectrum(topo) is profile
    for table in (topo.neighbours, topo.coefficients):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 5
    # ... while the caller's array is copied, not frozen
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    Topology(2, w)
    w[0, 1] = w[1, 0] = 2.0
    assert w.flags.writeable
