import inspect
from dataclasses import replace

import numpy as np
import pytest

from zoswarm import harness
from zoswarm.dynamics import HyperParams, run
from zoswarm.graph import Topology, laplacian_spectrum
from zoswarm.harness import (
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    build_problem,
    build_topology,
    gamma_sweep,
    load_config,
    parse_config,
    record_csv_fingerprint,
    resolve_hyperparams,
    run_battery,
    self_check,
)

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

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("runt.T = 5\n")
        with pytest.raises(ConfigError, match="unknown algorithm field"):
            parse_config("algorithms = zoom\nalgorithm.zoom.step = 5\n")
        with pytest.raises(ConfigError, match="unknown algorithm kind"):
            parse_config("algorithms = sneaky\n")

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
            *(
                (
                    f"algorithms = zoom\ndefaults.smoothing = {spec}\n",
                    f"line 2: defaults.smoothing = {spec!r} is not theorem_decay[:<kappa>], "
                    "fixed:<delta> or scaled_fixed:<c> with a positive number",
                )
                for spec in ("fixed:abc", "fixed:-1", "theorem_decay:x")
            ),
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
        params, faithful = resolve_hyperparams(cfg.algorithms[0], profile, 10, 100, cfg.T)
        assert params.smoothing.mode == "fixed"
        assert abs(params.smoothing.fixed_value - 0.01) < 1e-15
        assert faithful == "experiment"

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

    @pytest.mark.parametrize("name", sorted(harness._PROBLEMS))
    def test_problem_registry_matches_factory_signatures(self, name):
        factory, settings = harness._PROBLEMS[name]
        assert set(settings) == set(inspect.signature(factory).parameters)

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
        params, faithful = resolve_hyperparams(cfg.algorithms[0], profile, 4, 6, 120)
        assert abs(params.eta - np.sqrt(4) / np.sqrt(6 * 120)) < 1e-15
        assert 0.0 < params.alpha < profile.alpha_max
        assert faithful == "theorem"
        assert params.gamma == 1.0  # plain variant reports the 2-norm


    def test_spec_built_in_code_is_checked_with_its_label(self):
        cfg = toy_config()
        profile = laplacian_spectrum(build_topology(cfg))
        spec = AlgorithmSpec(label="z", kind="zoom", smoothing="fixed:abc")
        with pytest.raises(ConfigError, match=r"^algorithm 'z': smoothing 'fixed:abc' is not"):
            resolve_hyperparams(spec, profile, 4, 6, 120)


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
            "algorithm,gamma,estimator,seed_count,median_final_loss,"
            "median_avg_grad_norm_sq,median_avg_consensus_err,median_accuracy"
        )
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2
        assert rows[0].startswith("zoom,1.0,forward,3,")
        assert rows[0].endswith(",")  # toy problem has no test set

    def test_gamma_one_powerball_writes_identical_record_csv(self, tmp_path):
        cfg = parse_config(
            TOY_CFG.replace("algorithm.zoom_pb.gamma = 0.7", "algorithm.zoom_pb.gamma = 1.0")
        )
        cfg.seeds = [5]
        run_battery(cfg, out_dir=tmp_path, quiet=True)
        plain = record_csv_fingerprint(tmp_path / "zoom_seed5.csv")
        transformed = record_csv_fingerprint(tmp_path / "zoom_pb_seed5.csv")
        assert plain == transformed

    def test_rerun_reproduces_bodies_byte_for_byte(self, tmp_path):
        cfg = toy_config()
        run_battery(cfg, out_dir=tmp_path / "a", quiet=True)
        run_battery(cfg, out_dir=tmp_path / "b", quiet=True)
        for name in ("zoom_seed1.csv", "zoom_pb_seed3.csv"):
            assert record_csv_fingerprint(tmp_path / "a" / name) == record_csv_fingerprint(
                tmp_path / "b" / name
            )
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_battery_matches_standalone_runs(self, tmp_path, standalone_runs):
        # classification, so a record reads the problem's full-batch response cache
        cfg = parse_config(
            "problem.name = classification\nproblem.n_train = 200\nproblem.n_test = 40\n"
            "problem.d = 12\nproblem.n_agents = 4\nproblem.seed = 5\n"
            "topology.n = 4\ntopology.prob = 0.8\ntopology.seed = 2\n"
            "run.T = 40\nrun.record_every = 5\nrun.seeds = 1,2,3\n"
            "defaults.eta = 0.05\ndefaults.n_c = 3\ndefaults.smoothing = fixed:0.01\n"
            "algorithms = zoom_fd,zoom_pb_cd,dsgd\nalgorithm.zoom_fd.kind = zoom\n"
            "algorithm.zoom_pb_cd.kind = zoom_pb\nalgorithm.zoom_pb_cd.estimator = central\n"
        )
        run_battery(cfg, out_dir=tmp_path / "battery", quiet=True)
        standalone_runs(cfg, tmp_path / "alone")
        paths = sorted((tmp_path / "battery").glob("*_seed*.csv"))
        assert len(paths) == 9
        for path in paths:
            assert record_csv_fingerprint(path) == record_csv_fingerprint(
                tmp_path / "alone" / path.name
            )

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
        (battery_run,) = run_battery(cfg, quiet=True).runs_for("zoom")
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


class TestBaseline:
    """The first-order baseline runs as a battery entry of kind ``dsgd``."""

    def test_monotone_decrease_on_noiseless_toy(self):
        cfg = parse_config(
            "problem.name = quadratic_toy\nproblem.n_agents = 3\nproblem.p = 4\n"
            "problem.seed = 2\nproblem.zeta = 0.0\n"
            "topology.n = 3\ntopology.prob = 1.0\ntopology.seed = 0\n"
            "run.T = 200\nrun.seeds = 1\n"
            "algorithms = dsgd\nalgorithm.dsgd.eta = 0.05\n"
        )
        (baseline,) = run_battery(cfg, quiet=True).runs
        problem = build_problem(cfg)
        losses = [r.mean_train_loss for r in baseline.trajectory.records]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] - problem.optimal_value() < 1e-3
        assert losses[-1] == 1.6813997998058285  # pinned bit for bit, like tests/test_golden.py

    def test_shares_realization_draws_with_zoom(self):
        cfg = toy_config()
        problem = build_problem(cfg)
        topo = build_topology(cfg)
        profile = laplacian_spectrum(topo)
        params, _ = resolve_hyperparams(cfg.algorithms[0], profile, 4, 6, 30)

        class RecordingProblem:
            def __init__(self, inner):
                self.inner = inner
                self.dimension = inner.dimension
                self.local_count = inner.local_count
                self.draws = []

            def sample_round(self, rng):
                draws = self.inner.sample_round(rng)
                self.draws.append([tuple(np.atleast_1d(xi)) for xi in draws])
                return draws

            def __getattr__(self, name):
                return getattr(self.inner, name)

        recorder_zoom = RecordingProblem(problem)
        recorder_dsgd = RecordingProblem(problem)
        run(topo, recorder_zoom, params, seed=4)
        run(topo, recorder_dsgd, replace(params, algorithm="dsgd"), seed=4)
        assert len(recorder_zoom.draws) == 30  # one block per round
        assert recorder_zoom.draws == recorder_dsgd.draws

    def test_first_order_dominates_zeroth_order_on_benchmark(self):
        # reduced-scale benchmark: same seeds, median final loss comparison
        cfg = parse_config(
            "problem.name = classification\nproblem.n_train = 300\nproblem.n_test = 60\n"
            "problem.d = 30\nproblem.n_agents = 5\nproblem.seed = 7\n"
            "topology.n = 5\ntopology.prob = 0.6\ntopology.seed = 3\n"
            "run.T = 600\nrun.record_every = 50\nrun.seeds = 1,2,3,4,5\n"
            "defaults.eta = 0.05\ndefaults.smoothing = scaled_fixed:10\n"
            "algorithms = zoom,dsgd\n"
        )
        battery = run_battery(cfg, quiet=True)
        zoom_row, dsgd_row = battery.summary_rows
        assert dsgd_row["median_final_loss"] <= zoom_row["median_final_loss"]
        # pinned bit for bit, like tests/test_golden.py
        assert [r.summary.final_loss for r in battery.runs_for("dsgd")] == [
            0.07514417390600871,
            0.07435620678356718,
            0.07461038395610023,
            0.07364729932343685,
            0.07356988909841025,
        ]


class TestGammaSweep:
    def test_empty_gamma_list_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            gamma_sweep(toy_config(), [])

    def test_repeated_gamma_rejected(self):
        # both values print as g0.5 and would share one label
        with pytest.raises(ConfigError, match="duplicate algorithm label 'zoom_pb_g0.5_forward'"):
            gamma_sweep(toy_config(), [0.5, 0.5000001], quiet=True)

    def test_gamma_one_matches_plain_run_summary(self):
        cfg = toy_config()
        cfg.seeds = [2]
        rows = gamma_sweep(cfg, [1.0], quiet=True)
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
            rows = gamma_sweep(cfg, [0.3, 0.7], out_dir=tmp_path, quiet=True)
        flagged = {r["gamma"]: r["within_guarantee_range"] for r in rows}
        assert flagged == {0.3: False, 0.7: True}
        sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = next(l for l in sweep_lines if not l.startswith("#"))
        assert header.startswith("gamma,estimator,within_guarantee_range,seed_count,")

    def test_one_row_per_gamma_per_estimator(self):
        cfg = toy_config()
        cfg.seeds = [1]
        cfg.T = 40
        rows = gamma_sweep(cfg, [0.5, 1.0], quiet=True)
        assert len(rows) == 4
        assert {(r["gamma"], r["estimator"]) for r in rows} == {
            (0.5, "forward"),
            (0.5, "central"),
            (1.0, "forward"),
            (1.0, "central"),
        }


def test_self_check_battery_passes():
    assert self_check(quiet=True)


def test_battery_solves_the_spectrum_once_and_keeps_it_read_only(monkeypatch):
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solves.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    battery = run_battery(toy_config(), quiet=True)
    assert len(battery.runs) == 6  # two algorithms x three seeds, each calling run
    assert solves == [(4, 4)]

    # the memo cannot go stale: neither the weights nor the Laplacian take writes
    topo = build_topology(toy_config())
    profile = laplacian_spectrum(topo)
    assert laplacian_spectrum(topo) is profile
    with pytest.raises(ValueError, match="read-only"):
        topo.weights[0, 1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        profile.laplacian[0, 0] = 5.0
    # ... while the caller's array is copied, not frozen
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    Topology(2, w)
    w[0, 1] = w[1, 0] = 2.0
    assert w.flags.writeable
