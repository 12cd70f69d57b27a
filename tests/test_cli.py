import importlib.resources
import math
from pathlib import Path

import numpy as np
import pytest

import reference_engine
from zoswarm import harness
from zoswarm.cli import main
from zoswarm.config import AlgorithmSpec, ConfigError, ExperimentConfig, build_topology, load_config
from zoswarm.graph import erdos_renyi, laplacian_spectrum
from zoswarm.problems import QuadraticToyProblem

TOY_CFG = """
problem.name = quadratic_toy
problem.n_agents = 3
problem.p = 4
problem.seed = 2
problem.zeta = 0.2
topology.n = 3
topology.prob = 1.0
topology.seed = 0
run.T = 60
run.record_every = 10
run.seeds = 1,2
algorithms = zoom,zoom_pb
algorithm.zoom_pb.gamma = 0.7
"""


def write_cfg(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CFG)
    return path


def write_labelled_cfg(tmp_path, label):
    """The toy config with one algorithm of kind zoom, named ``label``."""
    path = tmp_path / "toy.cfg"
    path.write_text(
        TOY_CFG.replace(
            "algorithms = zoom,zoom_pb\nalgorithm.zoom_pb.gamma = 0.7",
            f"defaults.kind = zoom\nalgorithms = {label}",
        ),
        encoding="utf-8",
    )
    return path


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "summary.csv" in names
    assert "zoom_seed1.csv" in names
    assert "zoom_pb_seed2.csv" in names
    # one median line per label, no accuracy on the toy, then the summary's path
    *medians, written = capsys.readouterr().out.splitlines()
    assert [line.split(" median final loss ")[0] for line in medians] == [
        "[battery] zoom:", "[battery] zoom_pb:"
    ]
    assert all(line.endswith(" over 2 seed(s)") for line in medians)
    assert written == f"[battery] summary written to {tmp_path / 'out' / 'summary.csv'}"


def test_run_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "7", "--quiet"])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["summary.csv", "zoom_pb_seed7.csv", "zoom_seed7.csv"]
    assert capsys.readouterr() == ("", "")  # quiet


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("algorithms = \nrun.seeds = 1\nproblem.name = quadratic_toy\n")
    code = main(["run", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["../escaped", "sub/x", "sub\\x"])
def test_run_rejects_labels_with_path_separators(tmp_path, capsys, label):
    cfg = write_labelled_cfg(tmp_path, label)
    out = tmp_path / "work" / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: algorithm label {label!r} contains a path separator"
    )
    # nothing inside --out, and nothing next to it
    assert [p.name for p in tmp_path.rglob("*")] == ["toy.cfg"]


@pytest.mark.parametrize(
    "label, message",
    [
        ("zo\0om", "contains a NUL byte"),
        ('"x', """contains '"', which a CSV cell cannot hold unquoted"""),
        ("z" * 300, "makes a record file name of 310 bytes, longer than the 255"),
        # 123 two-byte characters: 256 bytes in UTF-8 with the suffix, 133 characters
        ("é" * 123, "makes a record file name of 256 bytes, longer than the 255"),
    ],
    ids=["nul", "quote", "long", "long-utf8"],
)
def test_run_rejects_labels_that_cannot_name_a_file(tmp_path, capsys, label, message):
    cfg = write_labelled_cfg(tmp_path, label)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: algorithm label {label!r}") and message in err
    assert not out.exists()


@pytest.mark.parametrize("char", ['"', ",", "\r", "\n"], ids=["quote", "comma", "cr", "lf"])
def test_config_rejects_labels_that_break_csv_cells(char):
    # a config file cannot spell a comma or a line break inside a label, the API can
    label = f"zo{char}om"
    config = ExperimentConfig(algorithms=[AlgorithmSpec(label=label, kind="zoom")], seeds=[1])
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert str(info.value) == (
        f"algorithm label {label!r} contains {char!r}, which a CSV cell cannot hold unquoted"
    )


def test_run_writes_a_record_file_name_of_255_bytes(tmp_path):
    label = "z" * (255 - len("_seed10.csv"))
    cfg = write_labelled_cfg(tmp_path, label)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "10", "--quiet"]) == 0
    assert sorted(len(p.name) for p in out.iterdir()) == [len("summary.csv"), 255]


def test_run_rejects_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(TOY_CFG.encode() + b"# caf\xe9\n")
    assert main(["run", "--config", str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {str(bad)!r} is not UTF-8")


def test_config_with_a_byte_order_mark_parses_like_one_without(tmp_path):
    plain = load_config("toy_quadratic")
    marked = tmp_path / "toy_quadratic.cfg"
    bundled = importlib.resources.files("zoswarm").joinpath("configs", "toy_quadratic.cfg")
    marked.write_bytes(b"\xef\xbb\xbf" + bundled.read_bytes())
    assert load_config(marked) == plain


def test_run_rejects_config_that_cannot_be_read(tmp_path, capsys, monkeypatch):
    # root reads a mode-000 file, so the refused read is patched in
    cfg = write_cfg(tmp_path)

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {str(cfg)!r} cannot be read")
    assert "Permission denied" in err


@pytest.mark.parametrize(
    "algorithms, message",
    [
        # a kind the config spells is a parse error on its line
        (
            "algorithms = x\nalgorithm.x.kind = dsgd",
            "line 14: algorithm.x.kind = 'dsgd' is not zoom or zoom_pb",
        ),
        # a kind taken from its label is caught by HyperParams
        (
            "algorithms = dsgd",
            "algorithm 'dsgd': algorithm must be one of ('zoom', 'zoom_pb'), got 'dsgd'",
        ),
    ],
    ids=["kind", "label"],
)
def test_run_rejects_the_first_order_kind(tmp_path, capsys, algorithms, message):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        TOY_CFG.replace("algorithms = zoom,zoom_pb\nalgorithm.zoom_pb.gamma = 0.7", algorithms)
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--gammas", "0.7"]])
def test_a_used_output_directory_exits_2_and_keeps_its_files(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main([*command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot use {str(out)!r} as output directory: it is not empty\n"
    )
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written


def test_run_reports_a_record_file_it_cannot_write(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    run = harness.dynamics.run

    def run_then_block_the_record_file(*args, **kwargs):
        # the battery refuses a directory that already holds an entry, so the
        # directory in the record file's place appears during the first run
        (out / "zoom_seed1.csv").mkdir(exist_ok=True)
        return run(*args, **kwargs)

    monkeypatch.setattr(harness.dynamics, "run", run_then_block_the_record_file)
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zoom_seed1.csv" in err
    assert [p.name for p in out.iterdir()] == ["zoom_seed1.csv"]  # no temp file left


def test_run_unknown_bundled_name(capsys):
    assert main(["run", "--config", "does_not_exist"]) == 2


def test_run_missing_config_path(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "my.cfg")]) == 2
    err = capsys.readouterr().err
    assert "neither a config file" in err and "my.cfg" in err


def test_run_reports_non_finite_oracle(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(QuadraticToyProblem, "evaluate", lambda self, agent, x, z: math.nan)
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: oracle returned nan, not a finite number, at the base point")
    assert "at iteration 0 on agent 0" in err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--gammas", "0.7"]])
def test_run_rejects_unusable_out(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "toy.cfg" / "x"  # below a file, so it cannot be created
    assert main([*command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use") and str(out) in err


def test_run_rejects_duplicate_seeds_and_malformed_values(tmp_path, capsys):
    for old, new, message in (
        ("run.seeds = 1,2", "run.seeds = 1,1", "duplicate master seed 1"),
        ("run.T = 60", "run.T = twenty", "line 10: run.T = 'twenty' is not an integer"),
        ("problem.p = 4", "problem.p = four", "line 4: problem.p = 'four' is not an integer"),
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TOY_CFG.replace(old, new))
        assert main(["run", "--config", str(bad), "--quiet"]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, flags, message",
    [
        (
            "run.seeds = 1,2",
            "run.seeds = -1",
            [],
            "run: master seed (run.seeds or --seed) must be an integer of at least 0, got -1",
        ),
        (
            "run.seeds = 1,2",
            "run.seeds = 1,2",
            ["--seed", "-1"],
            "run: master seed (run.seeds or --seed) must be an integer of at least 0, got -1",
        ),
        (
            "problem.n_agents = 3",
            "problem.n_agents = 0",
            [],
            "problem: n_agents must be an integer of at least 1, got 0",
        ),
        (
            "topology.prob = 1.0",
            "topology.prob = 1.5",
            [],
            "topology: prob must be a finite number in (0, 1], got 1.5",
        ),
        ("run.T = 60", "run.T = 60\ndefaults.gamma = -1", [], "algorithm 'zoom': gamma must"),
        ("run.T = 60", "run.T = 60\ndefaults.eta = -0.1", [], "algorithm 'zoom': eta must"),
        (
            "run.T = 60",
            "run.T = 60\ndefaults.eta = nan",
            [],
            "algorithm 'zoom': eta must be a finite number in [0, inf), got nan",
        ),
        (
            "run.T = 60",
            "run.T = 60\ndefaults.eta = inf",
            [],
            "algorithm 'zoom': eta must be a finite number in [0, inf), got inf",
        ),
        (
            "run.T = 60",
            "run.T = 60\ndefaults.gamma = nan",
            [],
            "algorithm 'zoom': gamma must be a finite number in (0, inf), got nan",
        ),
        (
            "algorithm.zoom_pb.gamma = 0.7",
            "algorithm.zoom_pb.gamma = nan",
            [],
            "algorithm 'zoom_pb': gamma must be a finite number in (0, inf), got nan",
        ),
        (
            "run.T = 60",
            "run.T = 60\ndefaults.alpha_frac = 2",
            [],
            "algorithm 'zoom': alpha_frac must be a finite number in (0, 1), got 2.0",
        ),
        (
            "run.T = 60",
            "run.T = 60\ndefaults.n_c = 9",
            [],
            "algorithm 'zoom': n_c = 9 exceeds the dimension p = 4",
        ),
        (
            "run.T = 60",
            "run.T = 60\ndefaults.smoothing = fixed:abc",
            [],
            "line 11: defaults.smoothing = 'fixed:abc' is not",
        ),
        (
            "problem.seed = 2",
            "problem.seed = -1",
            [],
            "problem: seed must be an integer of at least 0, got -1",
        ),
        (
            "topology.seed = 0",
            "topology.seed = -1",
            [],
            "topology: seed must be an integer of at least 0, got -1",
        ),
        ("topology.n = 3\n", "", [], "topology: missing Erdos-Renyi settings: ['n']"),
        ("run.T = 60", "run.T = 0", [], "run: T must be an integer of at least 1, got 0"),
        # keys that set what another input already sets are gone
        ("run.T = 60", "run.T = 60\nrun.out = from_config", [], "unknown config key 'run.out'"),
        (
            "run.T = 60",
            "run.T = 60\ndefaults.alpha = 0.01",
            [],
            "unknown config key 'defaults.alpha'",
        ),
        (
            "algorithm.zoom_pb.gamma = 0.7",
            "algorithm.zoom_pb.gamma = 0.7\nalgorithm.zoom_pb.alpha = 0.01",
            [],
            "unknown config key 'algorithm.zoom_pb.alpha'",
        ),
        # a mistyped label's settings are not silently dropped
        (
            "algorithm.zoom_pb.gamma = 0.7",
            "algorithm.zoom_pb.gamma = 0.7\nalgorithm.zom.eta = 0.1",
            [],
            "algorithm settings for unlisted labels: ['zom']",
        ),
    ],
)
def test_run_rejects_out_of_range_values_before_any_run(tmp_path, capsys, old, new, flags, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TOY_CFG.replace(old, new))
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out), "--quiet", *flags]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()  # set-up failed before the first run wrote anything


def test_sweep_rejects_duplicate_gammas(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--gammas", "0.5,0.5", "--quiet"]) == 2
    assert "duplicate algorithm label 'zoom_pb_g0.5_forward'" in capsys.readouterr().err


def test_sweep_rejects_malformed_gammas(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--gammas", "0.5,abc", "--quiet"]) == 2
    assert "config error: --gammas: 'abc' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_sweep_rejects_non_finite_gammas(tmp_path, capsys, gamma):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--gammas", gamma, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: gamma sweep: gamma must be a finite number in (0, inf), got {gamma}"
    )
    assert not out.exists()  # set-up failed before the sweep wrote anything


def test_sweep_subcommand_writes_a_battery_directory(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--config", str(cfg), "--gammas", "0.7,1.0", "--out", str(out)])
    assert code == 0
    labels = [f"zoom_pb_g{g}_{est}" for g in ("0.7", "1.0") for est in ("forward", "central")]
    records = {f"{label}_seed{seed}.csv" for label in labels for seed in (1, 2)}
    assert {p.name for p in out.iterdir()} == records | {"summary.csv"}
    lines = (out / "summary.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == ",".join(harness.SUMMARY_FIELDS)
    assert [row.split(",")[0] for row in rows[1:]] == labels
    assert f"[battery] summary written to {out / 'summary.csv'}" in capsys.readouterr().out


def test_a_failed_sweep_keeps_the_finished_records_and_writes_no_summary(
    tmp_path, capsys, monkeypatch
):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sw"
    run = harness.dynamics.run
    started = []

    def diverge_on_the_third_run(*args, **kwargs):
        started.append(kwargs["seed"])
        if len(started) == 3:
            raise harness.dynamics.DivergenceError(3, 0)
        return run(*args, **kwargs)

    monkeypatch.setattr(harness.dynamics, "run", diverge_on_the_third_run)
    args = ["sweep", "--config", str(cfg), "--gammas", "0.7,1.0", "--out", str(out), "--quiet"]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: iterate diverged at iteration 3 on agent 0\n"
    assert len(started) == 3  # no later run starts
    names = sorted(p.name for p in out.iterdir())
    assert names == ["zoom_pb_g0.7_forward_seed1.csv", "zoom_pb_g0.7_forward_seed2.csv"]


def test_an_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_battery", interrupt)
    assert main(["run", "--config", str(write_cfg(tmp_path))]) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_spectra_from_flags(capsys):
    code = main(["spectra", "--n", "3", "--prob", "1.0", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "agents: 3" in out
    assert "edges: 3\n" in out
    assert "connected: True" in out
    # complete triangle: rho2 = 3, rho(L^2) = 9, bound = 1/6
    assert "alpha_max" in out
    assert f"{1/6:.10g}" in out
    # every bit of the bound, for comparing two machines
    bound = laplacian_spectrum(erdos_renyi(3, 1.0, seed=0)).alpha_max
    assert f"alpha_max (hex, for comparing machines): {bound.hex()}\n" in out
    assert abs(bound - 1 / 6) < 1e-12


def test_spectra_from_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["spectra", "--config", str(cfg)]) == 0
    assert "agents: 3" in capsys.readouterr().out


def test_spectra_counts_the_edges_of_a_sparse_config(tmp_path, capsys):
    cfg = tmp_path / "sparse.cfg"
    text = TOY_CFG.replace("topology.n = 3", "topology.n = 12")
    cfg.write_text(text.replace("topology.prob = 1.0", "topology.prob = 0.3"))
    assert main(["spectra", "--config", str(cfg)]) == 0
    edges = np.count_nonzero(reference_engine.weights(build_topology(load_config(cfg)))) // 2
    assert 11 <= edges < 66  # connected, not complete
    assert f"edges: {edges}\n" in capsys.readouterr().out


def test_spectra_needs_arguments(capsys):
    assert main(["spectra"]) == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--n", "50", "--prob", "0.1", "--seed", "3"], "--n, --prob, --seed"),
        (["--seed", "0"], "--seed"),
    ],
)
def test_spectra_rejects_graph_flags_next_to_a_config(capsys, flags, named):
    # the config's graph would otherwise be printed and the flags dropped
    assert main(["spectra", "--config", "toy_quadratic", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: spectra takes --config or graph flags, not both; got {named}\n"


def test_spectra_without_seed_draws_the_graph_of_its_default_seed(capsys):
    assert main(["spectra", "--n", "8", "--prob", "0.4"]) == 0
    unseeded = capsys.readouterr().out
    assert main(["spectra", "--n", "8", "--prob", "0.4", "--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded


def test_spectra_rejects_an_out_of_range_flag_as_a_config_error(capsys):
    # the flags go through the same topology builder as a config's topology.* rows;
    # which values each rule rejects is tests/test_checks.py's
    assert main(["spectra", "--n", "5", "--prob", "1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: topology: prob must be a finite number in (0, 1], got 1.5\n"


def test_problem_too_large_for_memory_is_an_error(tmp_path, capsys):
    # the request exceeds any address space, so it fails before allocating anything
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        "problem.name = classification\nproblem.n_train = 10000000000000\n"
        "topology.n = 10\ntopology.prob = 0.5\nrun.seeds = 1\nalgorithms = zoom\n"
    )
    assert main(["run", "--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def test_check_subcommand_quiet(capsys):
    assert main(["check", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")


def test_check_prints_one_line_per_check_and_keeps_going(monkeypatch, capsys):
    def raises():
        raise RuntimeError("boom")

    fakes = {"first": lambda: (True, "fine"), "second": lambda: (True, "also fine")}
    monkeypatch.setattr(harness, "SELF_CHECKS", fakes)
    assert main(["check"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS first: fine", "PASS second: also fine"]

    fakes = {
        "fails": lambda: (False, "off by 2"),
        "raises": raises,
        "passes": lambda: (True, "still ran"),
    }
    monkeypatch.setattr(harness, "SELF_CHECKS", fakes)
    assert main(["check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL fails: off by 2",
        "FAIL raises: RuntimeError('boom')",
        "PASS passes: still ran",
    ]


def test_bundled_name_resolves(tmp_path):
    code = main(["run", "--config", "toy_quadratic", "--out", str(tmp_path / "o"), "--seed", "1", "--quiet"])
    assert code == 0
    assert (tmp_path / "o" / "summary.csv").exists()
