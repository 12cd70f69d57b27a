"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 share one full-scale benchmark battery (about two to three
minutes); criteria 4 and 5 share the quadratic-toy trend runs.  Criteria 3
and 6-9 run their invariant check from ``zoswarm.harness.SELF_CHECKS``, the
same checks ``zoswarm check`` runs.  Criteria 1, 2 and 10 carry the ``slow``
marker, so ``pytest -m "not slow"`` is the quick loop.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from zoswarm.dynamics import HyperParams, run, theorem_schedule
from zoswarm.graph import erdos_renyi, laplacian_spectrum
from zoswarm.harness import (
    SELF_CHECKS,
    gamma_sweep,
    load_config,
    record_csv_fingerprint,
    run_battery,
)
from zoswarm.metrics import summarize
from zoswarm.problems import make_quadratic_toy


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[acceptance] criterion {number:02d} {status} - {name}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def benchmark_battery(tmp_path_factory):
    config = load_config("paper_iv_a")
    out = tmp_path_factory.mktemp("paper_iv_a")
    return run_battery(config, out_dir=out, quiet=True), config


@pytest.fixture(scope="module")
def toy_trend_summaries():
    topo = erdos_renyi(5, 0.9, seed=2)
    profile = laplacian_spectrum(topo)
    problem = make_quadratic_toy(5, 10, seed=11, zeta=0.5)
    summaries = {}
    for horizon in (1000, 4000):
        eta, smoothing = theorem_schedule(5, 10, horizon)
        params = HyperParams(
            alpha=0.9 * profile.alpha_max,
            eta=eta,
            T=horizon,
            gamma=1.0,
            n_c=1,
            estimator="central",
            smoothing=smoothing,
        )
        summaries[horizon] = [
            summarize(run(topo, problem, params, seed=seed))
            for seed in range(1, 6)
        ]
    return summaries


@pytest.mark.slow
def test_criterion_01_benchmark_accuracy(benchmark_battery):
    battery, _ = benchmark_battery
    rows = {row["algorithm"]: row for row in battery.summary_rows}
    passed = all(row["median_accuracy"] >= 0.90 for row in rows.values())
    detail = ", ".join(
        f"{label}={row['median_accuracy']:.3f}" for label, row in sorted(rows.items())
    )
    _report(1, "benchmark median accuracy >= 90% over 5 seeds", passed, detail)


@pytest.mark.slow
def test_criterion_02_acceleration_ordering(benchmark_battery):
    battery, config = benchmark_battery
    horizon = config.T
    pairs = (("forward", "zoom_fd", "zoom_pb_fd"), ("central", "zoom_cd", "zoom_pb_cd"))
    passed = True
    details = []
    for estimator, plain_label, pb_label in pairs:
        plain_final = float(
            np.median([r.summary.final_loss for r in battery.runs_for(plain_label)])
        )
        crossings = []
        for pb_run in battery.runs_for(pb_label):
            hits = [rec.k for rec in pb_run.trajectory.records if rec.mean_train_loss <= plain_final]
            crossings.append(min(hits) if hits else math.inf)
        median_crossing = float(np.median(crossings))
        passed = passed and median_crossing < horizon
        details.append(f"{estimator} crossing at k={median_crossing:g} < T={horizon}")
    _report(2, "powerball variant attains plain final loss early", passed, "; ".join(details))


def test_criterion_03_reduction_identity():
    passed, detail = SELF_CHECKS["gamma = 1 reduction"]()
    _report(3, "gamma=1 powerball trajectory is bit-identical", passed, detail)


def test_criterion_04_consensus_error_scaling(toy_trend_summaries):
    short = float(np.median([s.avg_consensus_err for s in toy_trend_summaries[1000]]))
    long = float(np.median([s.avg_consensus_err for s in toy_trend_summaries[4000]]))
    ratio = short / long
    passed = 2.0 <= ratio <= 8.0
    _report(4, "consensus error shrinks with horizon", passed, f"ratio={ratio:.2f} in [2, 8]")


def test_criterion_05_stationarity_trend(toy_trend_summaries):
    short = float(np.median([s.avg_grad_norm_sq for s in toy_trend_summaries[1000]]))
    long = float(np.median([s.avg_grad_norm_sq for s in toy_trend_summaries[4000]]))
    ratio = short / long
    passed = 1.3 <= ratio <= 6.0
    _report(5, "stationarity measure shrinks with horizon", passed, f"ratio={ratio:.2f} in [1.3, 6]")


def test_criterion_06_estimator_subset_unbiasedness():
    passed, detail = SELF_CHECKS["subset average"]()
    _report(6, "exhaustive subset average equals full differences", passed, detail)


def test_criterion_07_central_quadratic_exactness():
    passed, detail = SELF_CHECKS["central estimate on quadratics"]()
    _report(7, "central estimate exact on quadratics (100 trials)", passed, detail)


def test_criterion_08_spectral_oracle():
    passed, detail = SELF_CHECKS["spectra"]()
    _report(8, "spectral oracle on the path and pair graphs", passed, detail)


def test_criterion_09_gradient_vs_finite_differences():
    passed, detail = SELF_CHECKS["analytic gradient vs finite differences"]()
    _report(9, "analytic gradients match central differences", passed, detail)


@pytest.mark.slow
def test_criterion_10_gamma_robustness():
    config = load_config("paper_iv_a")
    config.seeds = [1]
    rows = gamma_sweep(config, [0.5, 0.7, 0.9, 1.0], quiet=True)
    passed = True
    finals = []
    for row in rows:
        finite = all(
            np.isfinite(row[key])
            for key in ("median_initial_loss", "median_final_loss", "median_avg_grad_norm_sq")
        )
        converged = row["median_final_loss"] < row["median_initial_loss"]
        passed = passed and finite and converged
        finals.append(f"g{row['gamma']:g}/{row['estimator'][0]}={row['median_final_loss']:.3f}")
    _report(10, "gamma sweep finite and below initial loss", passed, ", ".join(finals))


def test_criterion_11_battery_determinism(tmp_path, standalone_runs):
    config = load_config("toy_quadratic")
    run_battery(config, out_dir=tmp_path / "first", quiet=True)
    run_battery(config, out_dir=tmp_path / "second", quiet=True)
    standalone_runs(config, tmp_path / "standalone")
    passed = True
    for path in sorted((tmp_path / "first").glob("*_seed*.csv")):
        reference = record_csv_fingerprint(path)
        passed = passed and record_csv_fingerprint(tmp_path / "second" / path.name) == reference
        passed = passed and record_csv_fingerprint(tmp_path / "standalone" / path.name) == reference
    passed = passed and (
        (tmp_path / "first" / "summary.csv").read_bytes()
        == (tmp_path / "second" / "summary.csv").read_bytes()
    )
    _report(11, "battery reruns byte-identical and equal to standalone runs", passed)
