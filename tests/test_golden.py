"""Pinned outputs of two short batteries.

Each digest is the SHA-256 over every run's record-CSV fingerprint (wall
clock stripped) plus the bytes of ``summary.csv``.  The pinned values were
taken before the scalar oracle path was streamlined, so they guard the
promise that those optimisations changed no record bit.  A deliberate
numerical change must update them and say so in CHANGES.md.
"""

import hashlib

from zoswarm.harness import bundled_config, record_csv_fingerprint, run_battery

PAPER_IV_A_T30_SEED1 = "97f2bf2f28aec9ae92eaf8abba170a1cd68684857b3b4c86cdebc6e12018295c"
TOY_QUADRATIC = "3614916294eeb1574eadacef3597e4b08e66e85818ece3fdc80e01fec1114c2f"


def battery_digest(config, out_dir) -> str:
    battery = run_battery(config, out_dir=out_dir, jobs=1, quiet=True)
    digest = hashlib.sha256()
    for run in battery.runs:
        digest.update(f"{run.label} seed{run.seed}\n".encode())
        digest.update(record_csv_fingerprint(run.csv_path).encode())
        digest.update(b"\n")
    digest.update(battery.summary_path.read_bytes())
    return digest.hexdigest()


def test_paper_iv_a_short_battery_is_pinned(tmp_path):
    config = bundled_config("paper_iv_a")
    config.T = 30
    config.seeds = [1]
    assert battery_digest(config, tmp_path) == PAPER_IV_A_T30_SEED1


def test_toy_quadratic_battery_is_pinned(tmp_path):
    assert battery_digest(bundled_config("toy_quadratic"), tmp_path) == TOY_QUADRATIC
