"""Command line entry point: run batteries, sweeps, spectra, self checks."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import dynamics, estimator, graph, harness
from .config import ConfigError, ExperimentConfig, build_topology, load_config

__all__ = ["main"]


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        required=True,
        help="path to a config file, or the name of a bundled config (e.g. paper_iv_a)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zoswarm",
        description="Simulate decentralized zeroth-order optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment battery from a config")
    _add_config_arg(run_p)
    run_p.add_argument("--out", default=None, help="a new or empty output directory for CSVs")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed list")
    run_p.add_argument("--quiet", action="store_true", help="print no progress lines")

    sweep_p = sub.add_parser("sweep", help="sweep the powerball exponent on a config")
    _add_config_arg(sweep_p)
    sweep_p.add_argument(
        "--gammas",
        default="0.5,0.7,0.9,1.0",
        help="comma separated gamma values (default: 0.5,0.7,0.9,1.0)",
    )
    sweep_p.add_argument("--out", default=None, help="a new or empty output directory for CSVs")
    sweep_p.add_argument("--quiet", action="store_true", help="print no progress lines")

    spectra_p = sub.add_parser("spectra", help="print the spectral profile of a topology")
    spectra_p.add_argument("--config", default=None, help="take the topology from this config")
    spectra_p.add_argument("--n", type=int, default=None, help="agent count (without a config)")
    spectra_p.add_argument("--prob", type=float, default=None, help="edge probability")
    spectra_p.add_argument("--seed", type=int, default=None, help="graph seed")

    check_p = sub.add_parser("check", help="run the invariant self-test battery")
    check_p.add_argument(
        "--quiet", action="store_true", help="print nothing; the exit status gives the verdict"
    )

    return parser


def _finished(result: harness.BatteryResult, args) -> int:
    """Exit status 0 for a finished battery or sweep, printing its medians unless quiet."""
    if not args.quiet:
        for row in result.summary_rows:
            acc = row["median_accuracy"]
            acc_text = f" accuracy={acc:.4f}" if acc is not None else ""
            print(
                f"[battery] {row['algorithm']}: median final loss "
                f"{row['median_final_loss']:.6g} over {row['seed_count']} seed(s){acc_text}"
            )
        if result.summary_path is not None:
            print(f"[battery] summary written to {result.summary_path}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seeds=[args.seed])
    return _finished(harness.run_battery(config, out_dir=args.out), args)


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    gammas = []
    for token in (tok.strip() for tok in args.gammas.split(",")):
        if token:
            try:
                gammas.append(float(token))
            except ValueError:
                raise ConfigError(f"--gammas: {token!r} is not a number") from None
    return _finished(harness.gamma_sweep(config, gammas, out_dir=args.out), args)


def _cmd_spectra(args) -> int:
    flags = {name: getattr(args, name) for name in ("n", "prob", "seed")}
    given = {name: value for name, value in flags.items() if value is not None}
    if args.config is not None:
        if given:
            named = ", ".join(f"--{name}" for name in given)
            raise ConfigError(f"spectra takes --config or graph flags, not both; got {named}")
        config = load_config(args.config)
    elif args.n is not None and args.prob is not None:
        # an unset --seed is left to erdos_renyi's own default
        config = ExperimentConfig(topology=given)
    else:
        raise ConfigError("spectra needs either --config or both --n and --prob")
    topo = build_topology(config)
    profile = graph.laplacian_spectrum(topo)
    print(f"agents: {topo.n}")
    print(f"edges: {topo.edge_count}")
    print(f"connected: {graph.is_connected(topo)}")
    print(f"rho2 (smallest positive eigenvalue): {profile.rho2:.10g}")
    print(f"rho(L^2) (spectral radius of L squared): {profile.rho_l2:.10g}")
    print(f"alpha_max (admissible consensus step bound): {profile.alpha_max:.10g}")
    print(f"alpha_max (hex, for comparing machines): {profile.alpha_max.hex()}")
    return 0


def _cmd_check(args) -> int:
    results = harness.self_check()
    if not args.quiet:
        for name, (passed, detail) in results.items():
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return 0 if all(passed for passed, _ in results.values()) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "spectra": _cmd_spectra, "check": _cmd_check}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        graph.GraphSamplingError,
        graph.EigenSolveError,
        dynamics.DivergenceError,
        estimator.OracleEvaluationError,
        ValueError,
        OSError,
        MemoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
