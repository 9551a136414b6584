"""Experiment orchestration: `run_configs`, every command's one path from its
configs to their runs over shared traces; the interval loop; compare; sweep."""
from __future__ import annotations

import csv
import random
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field
from pathlib import Path

from . import baselines, metrics, migrator, policy, profiler, workload
from .config import ConfigError, RunConfig, build_run_config
from .memmodel import MemoryState, build_topology
from .metrics import IntervalMetrics
from .workload import AccessTrace, GupsPhase, HotOracle, WorkloadError


def _derive_seed(master: int, label: str) -> int:
    return random.Random(f"{master}:{label}").getrandbits(63)


def build_trace(cfg: RunConfig) -> tuple[AccessTrace, HotOracle]:
    """The workload's trace, from the generator its kind names, and the
    trace's hot-page oracle.  Every trace and every oracle is built here,
    for `run_configs`, and from the fields `trace_key` names alone.  The
    generators check the workload's ranges, so a value they reject is a
    ConfigError."""
    w = cfg.workload
    seed = _derive_seed(cfg.seed, "trace")
    nodes = cfg.topology["nodes"]
    try:
        if w.kind == "gups":
            trace = workload.gen_gups(
                w.footprint_pages, w.hotset_fraction, w.hot_access_fraction,
                w.accesses, nodes, seed,
                accesses_per_interval=w.accesses_per_interval, init_pass=w.init_pass)
        elif w.kind == "phase_change":
            phases = [GupsPhase(w.footprint_pages, w.hotset_fraction,
                                w.hot_access_fraction, w.accesses,
                                init_pass=(w.init_pass and i == 0))
                      for i in range(w.phases)]
            trace = workload.gen_phase_change(
                phases, seed, nodes, accesses_per_interval=w.accesses_per_interval)
        else:
            trace = workload.gen_seq_microbench(
                w.bench, w.array_pages, w.passes, node=w.node,
                accesses_per_interval=w.accesses_per_interval)
    except WorkloadError as exc:
        raise ConfigError(str(exc), "workload") from None
    return trace, HotOracle.from_trace(trace)


def trace_key(cfg: RunConfig) -> tuple:
    """The fields `build_trace` reads: configs with equal keys share a trace."""
    return cfg.seed, astuple(cfg.workload), tuple(cfg.topology["nodes"])


@dataclass
class RunResult:
    system: str
    rows: list[IntervalMetrics] = field(default_factory=list)
    plan_rows: list[list] = field(default_factory=list)
    profiler_rows: list[list] = field(default_factory=list)
    migration_rows: list[list] = field(default_factory=list)
    tier_ids: list[str] = field(default_factory=list)

    def totals(self) -> tuple[float, float, float]:
        return metrics.time_breakdown(self.rows)

    def total_cost(self) -> float:
        return sum(self.totals())


def run_simulation(cfg: RunConfig, trace: AccessTrace, oracle: HotOracle) -> RunResult:
    """Execute the interval loop over `trace`: replay (the run's only
    replay), profile, restructure regions, EMA, plan, migrate, measure, and
    score each interval's detection against `oracle`, the trace's hot pages.
    Profiling in interval i may cost overhead_constraint x interval i-1's
    app cost (none in interval 0).  Deterministic in (config, seed, trace)."""
    topology = build_topology(cfg.topology)
    group = cfg.alloc_group_pages
    if group is None:
        group = cfg.profiler.default_region_pages
    space = MemoryState(topology, cfg.cost, trace.footprint,
                        allocator=baselines.group_first_touch(group))
    system = baselines.SYSTEMS[cfg.system](
        space, cfg.profiler, cfg.policy, _derive_seed(cfg.seed, f"system:{cfg.system}"),
        cfg.detect_threshold)
    mode = cfg.migrator_mode or system.migrator_mode
    result = RunResult(system=cfg.system, tier_ids=list(topology.tier_ids))
    intervals = min(cfg.intervals, trace.num_intervals)
    app_prev = 0.0
    for i in range(intervals):
        slc = trace.interval_slice(i)
        counts0 = space.access_counts()
        prof0 = space.ledger.profiling
        mig0 = space.ledger.migration_exposed
        acc0 = space.tier_access_counts
        merges0, splits0 = system.struct_counts()

        baselines.replay_plain(space, slc)
        system.run_profiling(slc, app_prev)
        detected = system.detected_pages()
        moves = system.plan()

        if moves:
            next_slice = (trace.interval_slice(i + 1)
                          if i + 1 < trace.num_intervals else None)
            reports = migrator.execute_plan(space, moves, mode, next_slice)
            result.migration_rows.extend(migrator.report_rows(i, reports))
            result.plan_rows.extend(policy.plan_rows(i, moves))

        rec, prec = metrics.recall_precision(detected, oracle.hot_sets[i])
        merges, splits = system.struct_counts()
        acc = space.tier_access_counts
        row = IntervalMetrics(
            interval=i, recall=rec, precision=prec,
            app_cost=space.app_cost(counts0),
            profiling_cost=space.ledger.profiling - prof0,
            migration_exposed_cost=space.ledger.migration_exposed - mig0,
            tier_access_counts={t: acc[t] - acc0[t] for t in topology.tier_ids},
            merges=merges - merges0, splits=splits - splits0)
        result.rows.append(row)
        app_prev = row.app_cost
        if isinstance(system, baselines.MtmSystem):
            result.profiler_rows.extend(
                profiler.snapshot_rows(i, system.profiler.regions))
    return result


def run_configs(cfgs: list[RunConfig]) -> Iterator[RunResult]:
    """Run the configs in order, yielding each one's result.  Each distinct
    trace, by `trace_key`, is built when its first config runs and dropped
    after its last."""
    keys = [trace_key(cfg) for cfg in cfgs]
    last = {key: i for i, key in enumerate(keys)}
    traces: dict[tuple, tuple[AccessTrace, HotOracle]] = {}
    for i, (cfg, key) in enumerate(zip(cfgs, keys)):
        if key not in traces:
            traces[key] = build_trace(cfg)
        result = run_simulation(cfg, *traces[key])
        if last[key] == i:
            del traces[key]
        yield result


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_table(path: Path, rows: list[dict], text_columns: tuple[str, ...]) -> None:
    """A CSV with the rows' keys as header; every column not in text_columns
    holds a float written with 6 decimals."""
    header = list(rows[0])
    _write_csv(path, header, ([row[k] if k in text_columns else f"{row[k]:.6f}"
                               for k in header] for row in rows))


def write_run_outputs(result: RunResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", metrics.metrics_header(result.tier_ids),
               (metrics.metrics_row(row, result.tier_ids) for row in result.rows))
    _write_csv(out / "plans.csv",
               ["interval", "region_id", "src_tier", "dst_tier", "reason", "bytes"],
               result.plan_rows)
    _write_csv(out / "profiler.csv",
               ["interval", "region_id", "start_page", "len_pages", "tier",
                "quota", "hi", "whi"],
               result.profiler_rows)
    _write_csv(out / "migrations.csv",
               ["interval", "region_id", "src", "dst", "mechanism",
                "exposed_cost", "background_cost", "recopied_pages"],
               result.migration_rows)
    with open(out / "summary.txt", "w") as fh:
        fh.write(metrics.summary_text(result.system, result.rows, result.tier_ids))


def compare_systems(tree: dict, origin: str, systems: list[str],
                    out_dir: str | Path | None = None) -> list[dict]:
    """Run several systems, each the config `tree` with `system` overridden,
    and emit app-cost figures normalized to the first-touch member.  Every
    member's config is built before any runs; the members differ only in
    their system, so `run_configs` runs them all over one trace."""
    if not systems:
        raise ConfigError("compare needs at least one system")
    if len(set(systems)) != len(systems):
        raise ConfigError("duplicate systems in compare")
    if len(systems) > 1 and "first-touch" not in systems:
        raise ConfigError("compare needs the first-touch member for normalization")
    cfgs = [build_run_config(tree, f"{origin} (system {name})", {"system": name})
            for name in systems]
    results = list(run_configs(cfgs))
    by_name = {r.system: r for r in results}
    base = by_name.get("first-touch", results[0])
    base_app, _, _ = base.totals()
    base_total = base.total_cost()
    rows = []
    for r in results:
        app, prof, mig = r.totals()
        rows.append({
            "system": r.system,
            "app_cost": app, "prof_cost": prof, "mig_cost": mig,
            "total_cost": app + prof + mig,
            "norm_app": app / base_app if base_app else 1.0,
            "norm_total": (app + prof + mig) / base_total if base_total else 1.0,
        })
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_table(out / "compare.csv", rows, ("system",))
        for r in results:
            write_run_outputs(r, out / r.system)
    return rows


# sweep short name -> the dotted key it sets; `--param` takes any dotted key
SWEEP_PARAMS = {
    "overhead_constraint": "profiler.overhead_constraint",
    "alpha": "policy.alpha",
    "tau1": "profiler.tau1",
    "tau2": "profiler.tau2",
    "num_scans": "profiler.num_scans",
    "N": "policy.n_bytes",
}


def sweep_parameter(tree: dict, origin: str, param: str, values: list[str],
                    out_dir: str | Path | None = None) -> list[dict]:
    """Run the config `tree` once per value of `param` (a SWEEP_PARAMS short
    name or a dotted key).  Every value's config is built before any runs.
    The values run in order through `run_configs`, so values that leave
    the trace's fields alone share one trace."""
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    key = SWEEP_PARAMS.get(param, param)
    cfgs = [build_run_config(tree, f"{origin} (sweep {param}={value})", {key: value})
            for value in values]
    rows = []
    for value, result in zip(values, run_configs(cfgs)):
        app, prof, mig = result.totals()
        n = len(result.rows)
        rows.append({
            "param": param, "value": value,
            "app_cost": app, "prof_cost": prof, "mig_cost": mig,
            "total_cost": app + prof + mig,
            "mean_recall": sum(r.recall for r in result.rows) / n if n else 0.0,
            "mean_precision": sum(r.precision for r in result.rows) / n if n else 0.0,
        })
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_table(out / "sweep.csv", rows, ("param", "value"))
    return rows
