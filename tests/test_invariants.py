"""Ledger and plan invariants of every system over random machines.

Hypothesis draws a topology of 2-4 tiers seen by 1-3 nodes, a small GUPS,
phase-change or sequential microbench run on it, and a migrator mode.  The
last tier holds at least twice the footprint and is the slowest in every
view; each view orders the faster tiers at random, so first touch fills them
and demotions cascade through them.  Each of the six systems then runs the
interval loop of `engine.run_simulation` under that mode, and after every
interval:

- each tier's free bytes equal its capacity less 4 KiB per page on it, and
  are never negative;
- the tiers' access counts grew by exactly the slice's length;
- the plan, applied move by move to the free bytes it was planned against,
  never overdraws a tier;
- every planned move leaves its region's tier, and goes up the system's
  preference order if a promotion and down it if a demotion.  AutoNUMA's
  order is the canonical tier order; every other system's is the region's
  `policy.resolve_destination`.

The loop's per-interval costs and tier counts must equal the engine's rows,
so it cannot drift from the loop it stands in for.  On the engine's result:

- profiling in interval i costs at most `profiler.overhead_constraint` times
  interval i-1's app cost, and nothing in interval 0;
- every planned move has one migration row;
- first-touch never profiles or migrates.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import baselines, engine, migrator
from tiersim.baselines import BASELINE_KINDS
from tiersim.config import build_run_config, parse_config_text
from tiersim.memmodel import BASE_PAGE_BYTES, MemoryState, build_topology
from tiersim.policy import resolve_destination

INTERVALS = 6
ACCESSES_PER_INTERVAL = 384
MICROBENCHES = ["read_only", "half_read", "write_only"]
LAYOUTS = ["contiguous", "scattered"]


@st.composite
def configs(draw) -> str:
    footprint = draw(st.integers(64, 512))
    ids = [f"t{i}" for i in range(draw(st.integers(2, 4)))]
    pages = [draw(st.integers(1, footprint)) for _ in ids[:-1]]
    pages.append(draw(st.integers(2 * footprint, 3 * footprint)))
    nodes = list(range(draw(st.integers(1, 3))))
    kind = draw(st.sampled_from(["gups", "phase_change", "microbench"]))
    lines = [f"seed = {draw(st.integers(1, 1000))}",
             f"intervals = {INTERVALS}",
             f"migrator_mode = {draw(st.sampled_from(['sync', 'async', 'adaptive']))}",
             f"topology.nodes = {', '.join(map(str, nodes))}",
             f"workload.kind = {kind}",
             f"workload.accesses_per_interval = {ACCESSES_PER_INTERVAL}",
             f"profiler.default_region_pages = {draw(st.sampled_from([16, 64]))}",
             f"profiler.origin_sampling = {draw(st.booleans())}".lower()]
    if kind == "microbench":  # enough passes to fill every interval
        bench = draw(st.sampled_from(MICROBENCHES))
        per_pass = footprint * (2 if bench == "half_read" else 1)
        lines += [f"workload.bench = {bench}",
                  f"workload.array_pages = {footprint}",
                  f"workload.passes = {-(-INTERVALS * ACCESSES_PER_INTERVAL // per_pass)}",
                  f"workload.node = {draw(st.sampled_from(nodes))}"]
    else:
        phases = draw(st.integers(2, 3)) if kind == "phase_change" else 1
        lines += [f"workload.footprint_pages = {footprint}",
                  f"workload.accesses = {INTERVALS * ACCESSES_PER_INTERVAL // phases}",
                  f"workload.phases = {phases}",
                  f"workload.hotset_layout = {draw(st.sampled_from(LAYOUTS))}",
                  f"workload.init_pass = {draw(st.booleans())}".lower()]
    for i, (tid, n) in enumerate(zip(ids, pages)):
        lines += [f"topology.tier{i}.id = {tid}",
                  f"topology.tier{i}.capacity_bytes = {n * BASE_PAGE_BYTES}"]
    for n in nodes:
        view = [*draw(st.permutations(ids[:-1])), ids[-1]]
        lines.append(f"topology.views.{n} = {', '.join(view)}")
    return "\n".join(lines) + "\n"


def check_ledger(space: MemoryState) -> None:
    pages = {t: 0 for t in space.free}
    for tier in space.page_tier:
        if tier is not None:
            pages[tier] += 1
    for t in space.topology.tiers:
        assert space.free[t.id] == t.capacity_bytes - BASE_PAGE_BYTES * pages[t.id]
        assert space.free[t.id] >= 0


def check_plan_fits(plan, free: dict[str, int]) -> None:
    free = dict(free)
    for m in plan.moves:
        free[m.dst] -= m.bytes
        free[m.src] += m.bytes
        assert free[m.dst] >= 0, f"{m} overdraws {m.dst}"


def check_directions(system, plan, regions) -> None:
    topology = system.space.topology
    for m in plan.moves:
        region = regions[m.region_id]
        assert region.tier == m.src, m
        if isinstance(system, baselines.AutonumaSystem):
            order = topology.tier_ids
        else:
            order = resolve_destination(region, topology.views)
        rank = {t: i for i, t in enumerate(order)}
        if m.reason == "promote":
            assert rank[m.dst] < rank[m.src], f"{m} against {order}"
        else:
            assert m.reason == "demote" and rank[m.dst] > rank[m.src], \
                f"{m} against {order}"


def check_budget(rows, overhead_constraint: float) -> None:
    assert rows[0].profiling_cost == 0
    for prev, row in zip(rows, rows[1:]):
        assert row.profiling_cost <= overhead_constraint * prev.app_cost * (1 + 1e-9), \
            row.interval


def run_checked(cfg, trace) -> list[tuple]:
    """engine.run_simulation's interval loop with the invariants checked
    after every interval; returns each interval's costs and tier counts."""
    topology = build_topology(cfg.topology)
    group = cfg.alloc_group_pages or cfg.profiler.default_region_pages
    space = MemoryState(topology, cfg.cost, trace.footprint(),
                        allocator=baselines.group_first_touch(group))
    system = baselines.make_system(
        cfg.system, space, cfg.profiler, cfg.policy,
        engine._derive_seed(cfg.seed, f"system:{cfg.system}"), cfg.detect_threshold)
    mode = cfg.migrator_mode or system.migrator_mode
    rows = []
    app_prev = 0.0
    for i in range(min(cfg.intervals, trace.num_intervals)):
        slc = trace.interval_slice(i)
        ledger = space.ledger
        app0, prof0, mig0 = ledger.app, ledger.profiling, ledger.migration_exposed
        acc0 = dict(space.tier_access_counts)
        system.run_profiling(slc, app_prev)
        system.detected_pages()
        plan, regions = system.plan()
        check_plan_fits(plan, space.free)
        check_directions(system, plan, regions)
        if plan.moves:
            writes = None
            if mode in ("async", "adaptive") and i + 1 < trace.num_intervals:
                copy_end = migrator.copy_windows(plan, regions, space.cost_model,
                                                 space.clock)[-1]
                writes = migrator.project_write_times(
                    space, trace.interval_slice(i + 1), space.clock, copy_end)
            migrator.execute_plan(space, plan, regions, mode=mode, writes=writes,
                                  start_time=space.clock)
        check_ledger(space)
        counts = {t: space.tier_access_counts[t] - acc0[t] for t in topology.tier_ids}
        assert sum(counts.values()) == len(slc)
        rows.append((ledger.app - app0, ledger.profiling - prof0,
                     ledger.migration_exposed - mig0, counts))
        app_prev = ledger.app - app0
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(configs())
def test_every_system_keeps_the_ledgers(text):
    tree = parse_config_text(text)
    trace, oracle = engine.build_trace(build_run_config(tree))
    for name in BASELINE_KINDS:
        cfg = build_run_config(tree, overrides={"system": name})
        rows = run_checked(cfg, trace)
        result = engine.run_simulation(cfg, trace=trace, oracle=oracle)
        assert rows == [(r.app_cost, r.profiling_cost, r.migration_exposed_cost,
                         r.tier_access_counts) for r in result.rows]
        check_budget(result.rows, cfg.profiler.overhead_constraint)
        assert len(result.plan_rows) == len(result.migration_rows)
        if name == "first-touch":
            assert all(r.profiling_cost == 0 and r.migration_exposed_cost == 0
                       for r in result.rows)
