"""Pinned outputs of two short batteries and a short gamma sweep.

Each battery digest is the SHA-256 over every run's record-CSV fingerprint
(wall clock stripped) plus the bytes of ``summary.csv``; the sweep digest is
the SHA-256 of ``sweep.csv``.  The pinned values were
taken when each run moved to one data and one coordinate stream; they guard
the promise that an optimisation changes no record bit.  A deliberate
numerical change must update them and say so in CHANGES.md.
"""

import hashlib

from zoswarm.harness import gamma_sweep, load_config, record_csv_fingerprint, run_battery

PAPER_IV_A_T30_SEED1 = "5e9583f1a65cb0358900e49c72a90cb11841c5dc6d2c030d0cdc7304f43b2498"
TOY_QUADRATIC = "4bb25d154e8d8f821be64f2eaf92d331f0386ccda03d17cd66d518f20f4b0f6e"
TOY_SWEEP_T200 = "f06803b3be67be9fdad3626a67b6550add995cbf8547b671357ab9a75cd6e99a"


def battery_digest(config, out_dir) -> str:
    battery = run_battery(config, out_dir=out_dir, quiet=True)
    digest = hashlib.sha256()
    for run in battery.runs:
        digest.update(f"{run.label} seed{run.seed}\n".encode())
        digest.update(record_csv_fingerprint(run.csv_path).encode())
        digest.update(b"\n")
    digest.update(battery.summary_path.read_bytes())
    return digest.hexdigest()


def test_paper_iv_a_short_battery_is_pinned(tmp_path):
    config = load_config("paper_iv_a")
    config.T = 30
    config.seeds = [1]
    assert battery_digest(config, tmp_path) == PAPER_IV_A_T30_SEED1


def test_toy_quadratic_battery_is_pinned(tmp_path):
    assert battery_digest(load_config("toy_quadratic"), tmp_path) == TOY_QUADRATIC


def test_toy_quadratic_gamma_sweep_is_pinned(tmp_path):
    config = load_config("toy_quadratic")
    config.T = 200
    gamma_sweep(config, [0.5, 0.7, 1.0], out_dir=tmp_path, quiet=True)
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == TOY_SWEEP_T200
