"""Pinned outputs of two short batteries and a short gamma sweep.

Each battery digest is the SHA-256 over every run's record-CSV fingerprint
(wall clock stripped) plus the bytes of ``summary.csv``; the sweep digest is
the SHA-256 of ``sweep.csv``.  All three were taken when consensus mixing
moved to the profile's neighbour table and ``alpha_max`` to a 40-bit
mantissa grid; they guard the promise that an optimisation changes no
record bit.  A deliberate numerical change must pass
``test_reference_engine.py``, update them and say so in CHANGES.md.  The
parse digests pin ``repr(parse_config(text))`` of the bundled configs and
of the benchmark workloads' generated configs, so a refactor of the config
layer reads every one of them as before.  The last two tests run a
paper_iv_a battery and a 1000-agent toy battery on one and on two BLAS
threads and ask for the same records.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import zoswarm
from zoswarm.harness import (
    gamma_sweep,
    load_config,
    parse_config,
    record_csv_fingerprint,
    run_battery,
)

PAPER_IV_A_T30_SEED1 = "a2c13c877567e111a2c942005775c98f3a2fb1b32754ec752199102aee4f5666"
TOY_QUADRATIC = "1c204008870ede1ee1f3a0246592774ca6e2c3b77c67164671e68ed15a67f621"
TOY_SWEEP_T200 = "7a2334c5f8cbd049ee43750b41810dbfcb88cd95c167ea4d09aa78e100a8a9c4"

# config -> sha256 of repr(parse_config(text)); "<workload>@<seed>" is the
# config the benchmark generates for that workload and workload seed
PARSE_DIGESTS = {
    "paper_iv_a": "dfa247c3f047db0712033a7d6746314f678de97900a214826e47b9aa1b0ec34a",
    "toy_quadratic": "25a0c3a481f418e86081b35ccae70a216fdbc66fd7b1990be18495c1963119ef",
    "iv_a_battery@0": "f516b6921a60e9acd40a0329c42a39a090e5c59d273895dc275a567aeb78514b",
    "iv_a_battery@1": "b9cba8c88d6c1f387ffb93d81b021b91c0b86250b3bd9fbc1da90f41f5274ef6",
    "iv_a_dense_record@0": "5c5f85a8674a994fba7e78cb6daf5db40ecb6119a9fd9e041981fdf7c7d813a2",
    "iv_a_dense_record@1": "8fd2d07d5a380ce0bd7f7a44d65173418dae550f5f5981a9cc545a04312d50c5",
    "toy_swarm_1k@0": "524eb6c952c9d620929bfd32c6965606a9eeb19e8fffb930b0c4ef923df2efa8",
    "toy_swarm_1k@1": "fa6f25fa6fd8136f7c1a7e2fadd17e1f00867242dcd04a8c236f6a7fff2598c2",
}


def battery_digest(config, out_dir) -> str:
    battery = run_battery(config, out_dir=out_dir, quiet=True)
    digest = hashlib.sha256()
    for run in battery.runs:
        digest.update(f"{run.label} seed{run.seed}\n".encode())
        digest.update(record_csv_fingerprint(run.csv_path).encode())
        digest.update(b"\n")
    digest.update(battery.summary_path.read_bytes())
    return digest.hexdigest()


def test_parsed_configs_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads  # read only

    configs = Path(zoswarm.__file__).parent / "configs"
    texts = {name: (configs / f"{name}.cfg").read_text() for name in ("paper_iv_a", "toy_quadratic")}
    for workload in workloads.WORKLOADS.values():
        for seed in (0, 1):
            texts[f"{workload.name}@{seed}"] = workloads.config_text(workload, seed, configs)
    digests = {
        name: hashlib.sha256(repr(parse_config(text)).encode()).hexdigest()
        for name, text in texts.items()
    }
    assert digests == PARSE_DIGESTS


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

# the same for a 1000-agent toy battery shaped like the toy_swarm_1k benchmark
# workload, cut to three rounds, then the topology's alpha_max in hex
_SWARM_FINGERPRINTS = """
import hashlib, tempfile
from zoswarm.graph import laplacian_spectrum
from zoswarm.harness import build_topology, parse_config, record_csv_fingerprint, run_battery
config = parse_config('''
problem.name = quadratic_toy
problem.n_agents = 1000
problem.p = 10
problem.seed = 11
problem.zeta = 0.5
topology.n = 1000
topology.prob = 0.0207
topology.seed = 2
run.T = 3
run.record_every = 1
run.seeds = 1
defaults.estimator = central
defaults.n_c = 1
defaults.eta = 0.02
algorithms = zoom,zoom_pb
algorithm.zoom_pb.gamma = 0.7
''')
with tempfile.TemporaryDirectory() as out:
    for run in run_battery(config, out_dir=out, quiet=True).runs:
        fingerprint = record_csv_fingerprint(run.csv_path).encode()
        print(run.label, hashlib.sha256(fingerprint).hexdigest())
print(laplacian_spectrum(build_topology(config)).alpha_max.hex())
"""


def outputs_on_one_and_two_blas_threads(script: str) -> list[str]:
    """Standard output of ``script`` in two fresh processes, on one and on two BLAS threads."""
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
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    return outputs


def test_paper_iv_a_records_do_not_depend_on_blas_threads():
    # the diagnostics' whole-training-set products are large enough for
    # OpenBLAS to split across threads; the benchmark pins one thread
    outputs = outputs_on_one_and_two_blas_threads(_FINGERPRINTS)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]


def test_swarm_records_do_not_depend_on_blas_threads():
    # at n = 1000 both a BLAS Laplacian product and the last bits of
    # LAPACK's eigenvalues move with the thread count
    outputs = outputs_on_one_and_two_blas_threads(_SWARM_FINGERPRINTS)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]
