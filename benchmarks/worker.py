"""One repetition of a benchmark workload, run in a fresh process.

Usage: python worker.py <workload> <config-file> <trace 0|1> <rep-dir>

The repetition first times the set-up (``load_config``, ``build_problem``,
``build_topology``, ``laplacian_spectrum``) cold, then the workload itself:
``load_config`` plus ``run_battery`` into a temporary directory, serially.
Between and after the two it times a fixed reference loop, which gauges
the host's speed at the time.
With trace 1 the workload runs under the layer tracer.  It checks the
per-run correctness gates and writes ``result.json`` (and, traced,
``spans.jsonl``) into ``rep-dir``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from hashlib import sha256
from pathlib import Path

import numpy as np
import zoswarm
from zoswarm import graph, harness

from tracer import Tracer
from workloads import WORKLOADS


def reference_s() -> float:
    """Time of a fixed loop shaped like the oracle path: the host's current speed.

    It touches no zoswarm code, so a change to zoswarm cannot move it.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100)
    rows = rng.standard_normal((200, 100))
    start = time.perf_counter()
    for _ in range(5000):
        j = int(rng.integers(200))
        y = x.copy()
        y[j % 100] += 0.01
        value = float(rows[j] @ y)
        z = np.zeros(100)
        z[j % 100] = 1.0 / (1.0 + math.exp(-value))
    return time.perf_counter() - start


def per_round_calls(n_agents: int, kind: str, params) -> int:
    """Oracle calls one round makes, from the estimator's contract."""
    if kind == "dsgd":
        return n_agents
    if params.estimator == "forward":
        return n_agents * (params.n_c + 1)
    return n_agents * 2 * params.n_c


def process_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def blas_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_report(workload, run, n_agents: int, optimum: float | None) -> dict:
    """Record-derived numbers and per-run gate failures of one (algorithm, seed) run."""
    records = run.trajectory.records
    params = run.params
    failures = []
    expected_calls = params.T * per_round_calls(n_agents, run.kind, params)
    if records[-1].oracle_calls != expected_calls:
        failures.append(
            f"oracle_calls {records[-1].oracle_calls} != T x per-round calls {expected_calls}"
        )
    if not all(
        math.isfinite(getattr(r, f))
        for r in records
        for f in ("mean_train_loss", "grad_norm_sq", "grad_norm_1pg_sq", "consensus_err", "wall_ms")
    ):
        failures.append("non-finite record")
    initial, final = records[0].mean_train_loss, records[-1].mean_train_loss
    if workload.optimum_share is not None:
        tolerance = workload.optimum_share * (initial - optimum) + workload.optimum_slack
        if not abs(final - optimum) <= tolerance:
            failures.append(f"final loss {final!r} not within {tolerance:.3g} of f* {optimum!r}")
    target = workload.target(initial, optimum)
    reached = next((r for r in records if r.mean_train_loss <= target), None)
    return {
        "label": run.label,
        "kind": run.kind,
        "seed": run.seed,
        "params": {
            "alpha": params.alpha,
            "eta": params.eta,
            "T": params.T,
            "gamma": params.gamma,
            "n_c": params.n_c,
            "estimator": params.estimator,
            "smoothing": repr(params.smoothing),
        },
        "oracle_calls": records[-1].oracle_calls,
        "final_loss": final,
        "final_accuracy": run.summary.final_accuracy,
        "target_loss": target,
        "target_round": reached.k if reached else None,
        "target_ms": reached.wall_ms if reached else None,
        "intervals_ms": [b.wall_ms - a.wall_ms for a, b in zip(records, records[1:])],
        "fingerprint": sha256(harness.record_csv_fingerprint(run.csv_path).encode()).hexdigest(),
        "csv_bytes": run.csv_path.stat().st_size,
        "failures": failures,
    }


def main(argv: list[str]) -> int:
    name, config_path, trace, rep_dir = argv[0], argv[1], argv[2] == "1", Path(argv[3])
    workload = WORKLOADS[name]
    sources = Path.cwd().resolve() / "src"
    if sources not in Path(zoswarm.__file__).resolve().parents:
        print(f"zoswarm was imported from {zoswarm.__file__}, not from {sources}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    config = harness.load_config(config_path)
    problem = harness.build_problem(config)
    topo = harness.build_topology(config)
    profile = graph.laplacian_spectrum(topo)
    setup_s = time.perf_counter() - start
    optimum = problem.optimal_value()
    reference = [reference_s(), reference_s()]

    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=rep_dir) as out:
        with tracer.instrument() if tracer else nullcontext():
            start = time.perf_counter()
            battery = harness.run_battery(
                harness.load_config(config_path), out_dir=out, jobs=1, quiet=True
            )
            wall_s = time.perf_counter() - start
        runs = [run_report(workload, r, topo.n, optimum) for r in battery.runs]
    reference += [reference_s(), reference_s()]

    failures = []
    oracle_calls = sum(r["oracle_calls"] for r in runs)
    target_rounds = [r["target_round"] for r in runs]
    if sum(k is None for k in target_rounds) * 2 >= len(runs):
        failures.append("the median run does not reach the workload's loss target")
    if workload.min_accuracy is not None:
        accuracy = statistics.median(r["final_accuracy"] for r in runs)
        if not accuracy >= workload.min_accuracy:
            failures.append(f"median accuracy {accuracy} below {workload.min_accuracy}")
    threads = process_threads()
    cpus = len(os.sched_getaffinity(0))
    if threads is not None and threads > cpus:
        failures.append(f"{threads} threads in a process on {cpus} cpus")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_calls": oracle_calls,
        "reference_s": reference,
        "threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "spectrum": {
            "rho2": profile.rho2,
            "rho_l2": profile.rho_l2,
            "alpha_max": profile.alpha_max,
        },
        "optimum": optimum,
        "runs": runs,
        "failures": failures,
    }
    if tracer:
        layers = tracer.layer_metrics()
        layers["metrics.csv_bytes"] = sum(r["csv_bytes"] for r in runs)
        rounds = statistics.median(math.inf if k is None else k for k in target_rounds)
        layers["dynamics.rounds_to_target"] = None if math.isinf(rounds) else rounds
        result["layers"] = layers
        if layers["problems.evaluate_calls"] != oracle_calls:
            failures.append(
                f"traced evaluate calls {layers['problems.evaluate_calls']} != "
                f"summed oracle_calls {oracle_calls}"
            )
        if tracer.probe_mismatches:
            failures.append(f"{tracer.probe_mismatches} estimates broke the probe-count contract")
        with open(rep_dir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (rep_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
