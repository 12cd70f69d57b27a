"""Command line entry point: run batteries, sweeps, spectra, self checks."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import dynamics, estimator, graph, harness

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
    run_p.add_argument("--out", default=None, help="output directory for CSVs")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed list")
    run_p.add_argument("--quiet", action="store_true")

    sweep_p = sub.add_parser("sweep", help="sweep the powerball exponent on a config")
    _add_config_arg(sweep_p)
    sweep_p.add_argument(
        "--gammas",
        default="0.5,0.7,0.9,1.0",
        help="comma separated gamma values (default: 0.5,0.7,0.9,1.0)",
    )
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--quiet", action="store_true")

    spectra_p = sub.add_parser("spectra", help="print the spectral profile of a topology")
    spectra_p.add_argument("--config", default=None, help="take the topology from this config")
    spectra_p.add_argument("--n", type=int, default=None, help="agent count (without a config)")
    spectra_p.add_argument("--prob", type=float, default=None, help="edge probability")
    spectra_p.add_argument("--seed", type=int, default=0)

    check_p = sub.add_parser("check", help="run the invariant self-test battery")
    check_p.add_argument("--quiet", action="store_true")

    return parser


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = replace(config, seeds=[args.seed])
    result = harness.run_battery(config, out_dir=args.out, quiet=args.quiet)
    if result.summary_path is not None and not args.quiet:
        print(f"[battery] summary written to {result.summary_path}")
    return 0


def _cmd_sweep(args) -> int:
    config = harness.load_config(args.config)
    gammas = []
    for token in (tok.strip() for tok in args.gammas.split(",")):
        if token:
            try:
                gammas.append(float(token))
            except ValueError:
                raise harness.ConfigError(f"--gammas: {token!r} is not a number") from None
    harness.gamma_sweep(config, gammas, out_dir=args.out, quiet=args.quiet)
    return 0


def _cmd_spectra(args) -> int:
    if args.config is not None:
        config = harness.load_config(args.config)
        topo = harness.build_topology(config)
    elif args.n is not None and args.prob is not None:
        if args.n < 2:
            raise harness.ConfigError(
                f"--n: an Erdos-Renyi topology needs at least 2 agents, got {args.n}"
            )
        if not 0.0 < args.prob <= 1.0:
            raise harness.ConfigError(
                f"--prob: edge probability must lie in (0, 1], got {args.prob}"
            )
        if args.seed < 0:
            raise harness.ConfigError(f"--seed: must be nonnegative, got {args.seed}")
        topo = graph.erdos_renyi(args.n, args.prob, seed=args.seed)
    else:
        raise harness.ConfigError("spectra needs either --config or both --n and --prob")
    profile = graph.laplacian_spectrum(topo)
    print(f"agents: {topo.n}")
    print(f"edges: {len(topo.edges())}")
    print(f"connected: {graph.is_connected(topo)}")
    print(f"rho2 (smallest positive eigenvalue): {profile.rho2:.10g}")
    print(f"rho(L^2) (spectral radius of L squared): {profile.rho_l2:.10g}")
    print(f"alpha_max (admissible consensus step bound): {profile.alpha_max:.10g}")
    return 0


def _cmd_check(args) -> int:
    return 0 if harness.self_check(quiet=args.quiet) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "spectra": _cmd_spectra,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        graph.GraphSamplingError,
        graph.EigenSolveError,
        dynamics.DivergenceError,
        estimator.OracleEvaluationError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
