import math

import numpy as np
import pytest

from zoswarm.cli import main
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


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "summary.csv" in names
    assert "zoom_seed1.csv" in names
    assert "zoom_pb_seed2.csv" in names
    assert "summary written" in capsys.readouterr().out


def test_run_seed_override(tmp_path):
    cfg = write_cfg(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "7", "--quiet"])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["summary.csv", "zoom_pb_seed7.csv", "zoom_seed7.csv"]


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("algorithms = \nrun.seeds = 1\nproblem.name = quadratic_toy\n")
    code = main(["run", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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
    assert err.startswith("error: oracle returned a non-finite value")


def test_run_rejects_unusable_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "toy.cfg" / "x"  # below a file, so it cannot be created
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use") and str(out) in err


def test_sweep_rejects_unusable_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "toy.cfg" / "x"
    assert main(["sweep", "--config", str(cfg), "--gammas", "0.7", "--out", str(out)]) == 2
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
        ("run.seeds = 1,2", "run.seeds = -1", [], "master seed -1 is negative"),
        ("run.seeds = 1,2", "run.seeds = 1,2", ["--seed", "-1"], "master seed -1 is negative"),
        ("problem.n_agents = 3", "problem.n_agents = 0", [], "problem: n_agents and p must"),
        ("topology.prob = 1.0", "topology.prob = 1.5", [], "topology: edge probability"),
        ("run.T = 60", "run.T = 60\ndefaults.gamma = -1", [], "algorithm 'zoom': gamma must"),
        ("run.T = 60", "run.T = 60\ndefaults.eta = -0.1", [], "algorithm 'zoom': eta must"),
        ("run.T = 60", "run.T = 60\ndefaults.alpha_frac = 2", [], "algorithm 'zoom': alpha = "),
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


def test_sweep_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(
        ["sweep", "--config", str(cfg), "--gammas", "0.7,1.0", "--out", str(tmp_path / "sw")]
    )
    assert code == 0
    body = (tmp_path / "sw" / "sweep.csv").read_text()
    assert "gamma,estimator," in body


def test_spectra_from_flags(capsys):
    code = main(["spectra", "--n", "3", "--prob", "1.0", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "agents: 3" in out
    assert "connected: True" in out
    # complete triangle: rho2 = 3, rho(L^2) = 9, bound = 1/6
    assert "alpha_max" in out
    assert f"{1/6:.10g}" in out


def test_spectra_from_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["spectra", "--config", str(cfg)]) == 0
    assert "agents: 3" in capsys.readouterr().out


def test_spectra_needs_arguments(capsys):
    assert main(["spectra"]) == 2


def test_check_subcommand_quiet():
    assert main(["check", "--quiet"]) == 0


def test_bundled_name_resolves(tmp_path):
    code = main(["run", "--config", "toy_quadratic", "--out", str(tmp_path / "o"), "--seed", "1", "--quiet"])
    assert code == 0
    assert (tmp_path / "o" / "summary.csv").exists()
