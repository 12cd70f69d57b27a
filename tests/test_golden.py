"""Pinned outputs of two short batteries and a short gamma sweep.

Each digest is the SHA-256 over every run's record-CSV fingerprint (wall
clock stripped) plus the bytes of ``summary.csv``; a sweep is a battery, so
its digest is taken the same way.  All three were re-pinned when
``summary.csv`` gained the ``within_guarantee_range`` and
``median_initial_loss`` columns, every run's fingerprint unchanged; they
guard the promise that an optimisation changes no record bit.  A
deliberate numerical change must pass ``test_reference_engine.py``, update
them and say so in CHANGES.md.  The
parse digests pin ``repr(parse_config(text))`` of the bundled configs and
of the benchmark workloads' generated configs, so a refactor of the config
layer reads every one of them as before.  The last two tests run a
paper_iv_a battery and a 1000-agent toy battery on one and on two BLAS
threads and ask for the same records; the toy battery's, with its
``alpha_max``, are pinned too, as ``TOY_SWARM_T3``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import zoswarm
from zoswarm.config import load_config, parse_config
from zoswarm.harness import gamma_sweep, record_csv_fingerprint, run_battery

PAPER_IV_A_T30_SEED1 = "db913a9c5ee91896039b3d7dfa4db85dc72deb04432389aae3c0b554bcca0757"
TOY_QUADRATIC = "94fe164cda1970f5bd08aae51a9f2dc93a2eb256a41126c0aa0f517b17c06e7b"
TOY_SWEEP_T200 = "287bc101922fe25774bb0329cbf3ef3a417ef86d91ee6aef1207d7f4f3b20bf2"
# sha256 of the output of _SWARM_FINGERPRINTS below
TOY_SWARM_T3 = "6b26b7ab6a6b175f0d3a54b7cdfc39ee3c2b7bf13187d8eb4d45edb23b5a4da1"

# config -> sha256 of repr(parse_config(text)); "<workload>@<seed>" is the
# config the benchmark generates for that workload and workload seed
PARSE_DIGESTS = {
    "paper_iv_a": "de5c8f756f734d938d278964407994448fad9351a41ad26df22e4cc448b7f0c8",
    "toy_quadratic": "cefab3fcabb0136e1e2a33b8e487913929681842ae9f8a3007c90110e1a1ef78",
    "iv_a_battery@0": "6d0715541ed3cf7eb1f9f49f03dd0f99f05b35828f46fe03c253207755a22eba",
    "iv_a_battery@1": "5a7672476b72f898baea2475855861da77944148498c316e29472ffd4c6efbd6",
    "iv_a_dense_record@0": "77e0ecb3a59c23138d7e705cab610f9e1bbb93bf3e03d80445efd239cb721227",
    "iv_a_dense_record@1": "b974551d7ce212e77f4a8d62a1a771b9ad2ef963e873b51b02342cff266ce959",
    "toy_swarm_1k@0": "c72fa0995fb795ba633a2c18986990955dab5bfdc202b82a653fd2e7bc80a2fb",
    "toy_swarm_1k@1": "b3586fb5a4f26a99a2843b09f120b49c933a7e3b2b27dc908a834dfe5d37da4b",
}


def battery_digest(battery) -> str:
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
    battery = run_battery(config, out_dir=tmp_path, quiet=True)
    assert battery_digest(battery) == PAPER_IV_A_T30_SEED1


def test_toy_quadratic_battery_is_pinned(tmp_path):
    battery = run_battery(load_config("toy_quadratic"), out_dir=tmp_path, quiet=True)
    assert battery_digest(battery) == TOY_QUADRATIC


def test_toy_quadratic_gamma_sweep_is_pinned(tmp_path):
    config = load_config("toy_quadratic")
    config.T = 200
    sweep = gamma_sweep(config, [0.5, 0.7, 1.0], out_dir=tmp_path)
    assert battery_digest(sweep) == TOY_SWEEP_T200


# prints one line per run of a short paper_iv_a battery: label and fingerprint digest
_FINGERPRINTS = """
import hashlib, tempfile
from zoswarm.config import load_config
from zoswarm.harness import record_csv_fingerprint, run_battery
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
from zoswarm.config import build_topology, parse_config
from zoswarm.graph import laplacian_spectrum
from zoswarm.harness import record_csv_fingerprint, run_battery
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
    # at n = 1000 a BLAS Laplacian product would move with the thread
    # count; mixing and the Lanczos solve behind alpha_max are BLAS-free
    outputs = outputs_on_one_and_two_blas_threads(_SWARM_FINGERPRINTS)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == TOY_SWARM_T3
