"""Pinned outputs of two short batteries and a short gamma sweep.

Each battery digest is the SHA-256 over every run's record-CSV fingerprint
(wall clock stripped) plus the bytes of ``summary.csv``; the sweep digest is
the SHA-256 of ``sweep.csv``.  The toy values were taken when each run
moved to one data and one coordinate stream, the paper_iv_a value when the
classification diagnostics moved to one pass over the training set; they
guard the promise that an optimisation changes no record bit.  A deliberate
numerical change must pass ``test_reference_engine.py``, update them and
say so in CHANGES.md.  The last
test runs the paper_iv_a battery on one and on two BLAS threads and asks
for the same records.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import zoswarm
from zoswarm.harness import gamma_sweep, load_config, record_csv_fingerprint, run_battery

PAPER_IV_A_T30_SEED1 = "1c4ad1e1b7604d2ed5be4d7dbc00e48b8936ba0d31369d79e9d07ce3e68c4304"
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


# prints one line per run of a short paper_iv_a battery: label and fingerprint digest
_FINGERPRINTS = """
import hashlib, tempfile
from zoswarm.harness import load_config, record_csv_fingerprint, run_battery
config = load_config("paper_iv_a")
config.T = 20
config.seeds = [1]
with tempfile.TemporaryDirectory() as out:
    for run in run_battery(config, out_dir=out, quiet=True).runs:
        fingerprint = record_csv_fingerprint(run.csv_path).encode()
        print(run.label, hashlib.sha256(fingerprint).hexdigest())
"""


def test_paper_iv_a_records_do_not_depend_on_blas_threads():
    # the diagnostics' whole-training-set products are large enough for
    # OpenBLAS to split across threads; the benchmark pins one thread
    src = str(Path(zoswarm.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-c", _FINGERPRINTS],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
