"""Command-line front end.

Exit codes: 0 success, 2 config error, 3 infeasible overhead constraint,
4 memory exhausted.
"""
from __future__ import annotations

import argparse
import sys

from .config import ConfigError, build_run_config, load_config_file
from .engine import (SWEEP_PARAMS, compare_systems, run_configs, sweep_parameter,
                     write_run_outputs)
from .memmodel import BudgetError, CapacityError
from .migrator import PlanExecutionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_MEMORY = 4


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tiersim",
        description="Trace-driven simulator for page management on tiered memory")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one configured simulation")
    run.add_argument("-c", "--config", required=True)
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--system", help="override the configured system")

    cmp_ = sub.add_parser("compare",
                          help="run several systems over one shared trace")
    cmp_.add_argument("-c", "--config", required=True)
    cmp_.add_argument("--systems", required=True,
                      help="comma-separated system list (must include first-touch)")
    cmp_.add_argument("--out", default="out")

    swp = sub.add_parser("sweep", help="run one config across parameter values")
    swp.add_argument("-c", "--config", required=True)
    swp.add_argument("--param", required=True,
                     help=f"a dotted config key, or one of the short names "
                          f"{', '.join(SWEEP_PARAMS)}")
    swp.add_argument("--values", required=True,
                     help="comma-separated parameter values")
    swp.add_argument("--out", default="out")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        tree = load_config_file(args.config)
        if args.command == "run":
            cfg = build_run_config(tree, args.config,
                                   {"system": args.system} if args.system else None)
            [result] = run_configs([cfg])
            write_run_outputs(result, args.out)
            app, prof, mig = result.totals()
            print(f"{cfg.system}: {len(result.rows)} intervals, "
                  f"app={app:.1f} prof={prof:.1f} mig={mig:.1f} -> {args.out}")
        elif args.command == "compare":
            systems = [s.strip() for s in args.systems.split(",") if s.strip()]
            rows = compare_systems(tree, args.config, systems, out_dir=args.out)
            width = max(len(r["system"]) for r in rows)
            print(f"{'system'.ljust(width)}  norm_app  norm_total")
            for r in rows:
                print(f"{r['system'].ljust(width)}  {r['norm_app']:8.4f}  "
                      f"{r['norm_total']:10.4f}")
        elif args.command == "sweep":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            rows = sweep_parameter(tree, args.config, args.param, values,
                                   out_dir=args.out)
            for r in rows:
                print(f"{r['param']}={r['value']}: total={r['total_cost']:.1f} "
                      f"recall={r['mean_recall']:.3f}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CapacityError, PlanExecutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
