"""One benchmark repetition, run by bench/run.py in a fresh process.

Sets up (config and trace), simulates every system of the workload on the
shared trace, writes each system's outputs, checks them, and prints one JSON
record as the last line of stdout:

    python3 bench/rep.py --workload gups-mtm --seed 1 --out DIR [--traced]

The three phases are timed with tracing off unless --traced is given, in
which case tracing.installed() wraps tiersim's public functions for all three.
Host times are reported at the reference speed of bench/hostspeed.py, which
samples the host's speed all through the phases.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import shutil
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tiersim  # noqa: E402
from tiersim import config, engine  # noqa: E402

import tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import CONFIG_DIR, WORKLOADS  # noqa: E402

OUTPUT_FILES = ("metrics.csv", "plans.csv", "profiler.csv", "migrations.csv",
                "summary.txt")
MTM_SYSTEMS = ("mtm", "mtm-no-pebs")
COST_COLUMNS = (("app_cost", "app_cost_total"),
                ("prof_cost", "profiling_cost_total"),
                ("mig_cost", "migration_exposed_total"))


def _failure() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


def _data_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def check_outputs(result: engine.RunResult, out: Path, replayed: int) -> list[str]:
    """Invariants of one system's run and the files written for it."""
    problems = []
    counted = sum(sum(r.tier_access_counts.values()) for r in result.rows)
    if counted != replayed:
        problems.append(f"per-tier access counts sum to {counted}, "
                        f"but {replayed} accesses were replayed")
    with open(out / "metrics.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    summary = dict(line.split(": ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    if int(summary["intervals"]) != len(table):
        problems.append("summary.txt intervals differ from metrics.csv rows")
    # metrics.csv rounds each row to 6 decimals; summary.txt rounds the sum.
    tolerance = (len(table) + 1) * 1e-6
    for column, key in COST_COLUMNS:
        total = sum(float(row[column]) for row in table)
        if abs(total - float(summary[key])) > tolerance:
            problems.append(f"summary.txt {key} {summary[key]} differs from the "
                            f"metrics.csv {column} sum {total:.6f}")
    for k in range(1, len(result.tier_ids) + 1):
        total = sum(int(row[f"t{k}_acc"]) for row in table)
        if total != int(summary[f"t{k}_accesses_total"]):
            problems.append(f"summary.txt t{k}_accesses_total differs from "
                            f"the metrics.csv t{k}_acc sum {total}")
    if result.system == "first-touch" and (
            float(summary["profiling_cost_total"]) != 0.0
            or float(summary["migration_exposed_total"]) != 0.0):
        problems.append("first-touch recorded profiling or migration cost")
    plans, moves = _data_rows(out / "plans.csv"), _data_rows(out / "migrations.csv")
    if not len(result.plan_rows) == len(result.migration_rows) == plans == moves:
        problems.append(f"{plans} plan rows but {moves} migration rows")
    return problems


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def simulated_stats(result: engine.RunResult) -> dict:
    app, prof, mig = result.totals()
    per_tier = [sum(r.tier_access_counts[t] for r in result.rows)
                for t in result.tier_ids]
    n = len(result.rows)
    return {"app_cost": app, "prof_cost": prof, "mig_cost": mig,
            "fast_tier_share": per_tier[0] / sum(per_tier),
            "mean_recall": sum(r.recall for r in result.rows) / n,
            "mean_precision": sum(r.precision for r in result.rows) / n}


def result_counts(results: dict[str, engine.RunResult]) -> dict:
    """Counts taken from the RunResult rows, summed over the systems."""
    plans = [row for r in results.values() for row in r.plan_rows]
    moves = [row for r in results.values() for row in r.migration_rows]
    mechanisms = Counter(row[4] for row in moves)
    attempts = mechanisms["async"] + mechanisms["async_fallback"]
    mtm = [r for r in results.values() if r.system in MTM_SYSTEMS]
    mtm_intervals = sum(len(r.rows) for r in mtm)
    return {
        "policy.promotions": sum(1 for row in plans if row[4] == "promote"),
        "policy.demotions": sum(1 for row in plans if row[4] == "demote"),
        "policy.bytes_planned": sum(row[5] for row in plans),
        "migrator.async": mechanisms["async"],
        "migrator.async_fallback": mechanisms["async_fallback"],
        "migrator.sync": mechanisms["sync"],
        "migrator.recopied_pages": sum(row[7] for row in moves),
        "migrator.async_success_ratio":
            mechanisms["async"] / attempts if attempts else 0.0,
        "profiler.regions_mean": (sum(len(r.profiler_rows) for r in mtm)
                                  / mtm_intervals if mtm_intervals else 0.0),
        "profiler.merges": sum(row.merges for r in mtm for row in r.rows),
        "profiler.splits": sum(row.splits for r in mtm for row in r.rows),
    }


def peak_rss_mib() -> float:
    """This process's peak resident set since exec (VmHWM).  ru_maxrss would
    also carry the launching process's peak, which Linux keeps across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def tracer_counts(tracer: tracing.Tracer) -> dict:
    return {
        "memmodel.accesses": tracer.calls["memmodel.apply_access"],
        "memmodel.alloc_calls": tracer.calls[tracing.ALLOC_SPAN],
        "memmodel.scans": tracer.calls["memmodel.scan_pte"],
        "memmodel.pages_moved": tracer.counts["memmodel.move_pages"],
        "migrator.writes_projected": tracer.counts["migrator.project_write_times"],
    }


def run_phases(workload, seed: int, out: Path) -> dict:
    """Set up, simulate and write outputs; stamp each phase's start and end."""
    t0 = perf_counter()
    tree = config.load_config_file(str(CONFIG_DIR / workload.config))
    tree["seed"] = seed
    cfg = config.build_run_config(tree, origin=workload.config)
    trace, oracle = engine.build_trace(cfg)
    t1 = perf_counter()
    results, errors = {}, {}
    for name in workload.systems:
        try:
            results[name] = engine.run_simulation(replace(cfg, system=name),
                                                  trace=trace, oracle=oracle)
        except Exception:  # a failed system run is counted, not fatal
            errors[name] = _failure()
    t2 = perf_counter()
    for name, result in list(results.items()):
        try:
            engine.write_run_outputs(result, out / name)
        except Exception:
            errors[name] = _failure()
            del results[name]
    t3 = perf_counter()
    intervals = min(cfg.intervals, trace.num_intervals)
    return {"results": results, "errors": errors, "events": len(trace),
            "replayed": sum(len(trace.interval_slice(i)) for i in range(intervals)),
            "stamps": (t0, t1, t2, t3)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    shutil.rmtree(args.out, ignore_errors=True)

    tracer = tracing.Tracer()
    with HostSpeed() as speed, (tracing.installed(tracer) if args.traced
                                else contextlib.nullcontext()):
        run = run_phases(workload, args.seed, args.out)
    results, replayed = run["results"], run["replayed"]
    phases = dict(zip(("setup_s", "simulate_s", "output_s"),
                      zip(run["stamps"], run["stamps"][1:])))

    systems = {}
    for name in workload.systems:
        entry = {"error": run["errors"].get(name), "problems": [],
                 "digest": None, "sim": {}}
        if name in results:
            out = args.out / name
            entry["problems"] = check_outputs(results[name], out, replayed)
            entry["digest"] = digest(out)
            entry["sim"] = simulated_stats(results[name])
        systems[name] = entry
    base = results.get("first-touch")
    for name, result in results.items():
        systems[name]["sim"]["norm_total"] = (
            result.total_cost() / base.total_cost() if base else 0.0)

    counts = {"workload.events": run["events"],
              "engine.output_bytes": sum((args.out / name / f).stat().st_size
                                         for name in results for f in OUTPUT_FILES),
              **result_counts(results)}
    if args.traced:
        counts.update(tracer_counts(tracer))
        if not run["errors"] and counts["memmodel.accesses"] != replayed * len(results):
            systems[workload.systems[0]]["problems"].append(
                f"{counts['memmodel.accesses']} apply_access calls for "
                f"{replayed * len(results)} replayed accesses")

    print(json.dumps({
        "traced": args.traced,
        "tiersim_version": tiersim.__version__,
        **{name: speed.reference_s(*span) for name, span in phases.items()},
        "wall_s": sum(speed.reference_s(*span) for span in phases.values()),
        "raw_wall_s": run["stamps"][-1] - run["stamps"][0],
        "scale": speed.scale(),
        "accesses": replayed * len(results),
        "peak_rss_mib": peak_rss_mib(),
        "systems": systems, "counts": counts, "spans": dict(tracer.self_s),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
