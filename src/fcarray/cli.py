"""Command-line entry point.

Subcommands: optimize, estimate, sweep {power,users,region,snr,pilot},
heatmap, ledger.  A scenario JSON is loaded with --config (defaults apply
field-wise); --set path=value overrides individual fields by dotted path.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, FcError
from .scenario import Scenario
from . import sweeps


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario JSON file")
    parser.add_argument("--seed", type=int, help="seed of optimize, heatmap and ledger "
                        "(default 0); estimate and sweep read seeds.start/seeds.count")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE", help="override a config field by dotted path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcarray",
        description="Flexible-coupler array simulations: position optimization, "
                    "precoding baselines, and channel estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run one coupler-position optimization")
    _add_common(p_opt)

    p_est = sub.add_parser("estimate", help="run channel-estimation schemes over the seed list")
    _add_common(p_est)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep along one axis")
    p_sweep.add_argument("axis", choices=list(sweeps.SWEEP_AXES))
    _add_common(p_sweep)

    p_heat = sub.add_parser("heatmap", help="channel power gain over one coupler region (N=1, K=1)")
    _add_common(p_heat)

    p_led = sub.add_parser("ledger", help="message logs and communication ledgers")
    _add_common(p_led)

    return parser


def _load_scenario(args) -> Scenario:
    if args.config:
        return Scenario.from_file(args.config, overrides=args.overrides)
    return Scenario({}, overrides=args.overrides)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.command in ("estimate", "sweep"):
            raise ConfigError(f"{args.command} takes its seeds from seeds.start and "
                              "seeds.count, not --seed", field="seed")
        seed = 0 if args.seed is None else args.seed
        if seed < 0:
            raise ConfigError(f"must be non-negative, got {seed}", field="seed")
        cpus = os.cpu_count() or 1
        if not 1 <= args.workers <= cpus:
            raise ConfigError(f"must lie in [1, {cpus}], got {args.workers}", field="workers")
        scenario = _load_scenario(args)
        if args.command == "optimize":
            summary = sweeps.run_optimize(scenario, seed, args.out)
            print(f"optimize: rate {summary['initial_rate']:.4f} -> "
                  f"{summary['final_rate']:.4f} bits/s/Hz in "
                  f"{summary['iterations']} iterations -> {args.out}")
        elif args.command == "estimate":
            rows = sweeps.run_estimate(scenario, args.out, workers=args.workers)
            print(f"estimate: {len(rows)} rows -> {args.out}")
        elif args.command == "sweep":
            rows = sweeps.run_sweep(scenario, args.axis, args.out, workers=args.workers)
            print(f"sweep {args.axis}: {len(rows)} rows -> {args.out}")
        elif args.command == "heatmap":
            hm = sweeps.run_heatmap(scenario, seed, args.out)
            print(f"heatmap: {hm.gain_db.shape[0]}x{hm.gain_db.shape[1]} grid, "
                  f"{len(hm.trajectory)} trajectory points -> {args.out}")
        elif args.command == "ledger":
            summary = sweeps.run_ledger(scenario, seed, args.out)
            print(f"ledger: algorithm1 total "
                  f"{summary['algorithm1']['ledger']['total_scalars']} scalars, "
                  f"algorithm3 total "
                  f"{summary['algorithm3']['ledger']['total_scalars']} scalars "
                  f"-> {args.out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FcError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
