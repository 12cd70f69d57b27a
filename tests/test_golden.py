"""Pinned outputs of two short batteries and a short gamma sweep.

Each battery digest is the SHA-256 over every run's record-CSV fingerprint
(wall clock stripped) plus the bytes of ``summary.csv``; the sweep digest is
the SHA-256 of ``sweep.csv``.  The pinned values were
taken before the scalar oracle path was streamlined, so they guard the
promise that those optimisations changed no record bit.  A deliberate
numerical change must update them and say so in CHANGES.md.
"""

import hashlib

from zoswarm.harness import gamma_sweep, load_config, record_csv_fingerprint, run_battery

PAPER_IV_A_T30_SEED1 = "97f2bf2f28aec9ae92eaf8abba170a1cd68684857b3b4c86cdebc6e12018295c"
TOY_QUADRATIC = "3614916294eeb1574eadacef3597e4b08e66e85818ece3fdc80e01fec1114c2f"
TOY_SWEEP_T200 = "789b78e7535962cbd50fd7e6ee9caf648425dad426287beced8727e18b50efd9"


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
