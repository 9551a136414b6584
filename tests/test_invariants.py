"""Ledger and plan invariants of every system over random machines.

Hypothesis draws a topology of 2-4 tiers seen by 1-3 nodes, a small GUPS,
phase-change or sequential microbench run on it, a migrator mode, and an
allocation group of 1, 8 or 16 pages or the profiler window.  One tier,
drawn, holds 2-3 times the footprint and the others 1 to footprint pages.
The last tier is the slowest in every view, so the biggest tier is often a
faster one; each view orders the faster tiers at random, so first touch
fills them and demotions cascade through them.  Each of the six systems
then runs the interval loop of `engine.run_simulation` under that mode, and
after every interval:

- each tier's free bytes equal its capacity less 4 KiB per page on it, and
  are never negative;
- the tiers' access counts grew by exactly the slice's length, all of it
  in the engine's replay: `run_profiling` adds no access;
- the plan, applied move by move to the free bytes it was planned against,
  never overdraws a tier;
- every planned move leaves its region's tier, which holds all of the
  region's pages, and goes up the system's preference order if a promotion
  and down it if a demotion.  AutoNUMA's order is the canonical tier order;
  every other system's is the region's `policy.resolve_destination`;
- each MTM region samples distinct pages inside it, and the regions' samples
  add up to the budget `num_ps`, unless every region is down to one sample
  (more regions than the budget) or samples all of its pages (fewer pages);
- the MTM regions are sorted by start and disjoint, and each region's pages
  are all on its tier;
- the DAMON regions are sorted by start, disjoint, non-empty and inside the
  footprint, so its merge needs no sort;
- every scan by MTM or DAMON observes whether its own sub-window touched the
  page: scan k of a page reads 1 iff the interval's sub-window k holds it,
  so a DAMON pick's hits are the sub-windows that hold it; and right after
  `profile_interval`, every scheduled MTM sample's count is the number of
  the interval's sub-windows whose `pages()` hold it;
- every allocation group is wholly mapped or wholly unmapped, and each
  first touch spills its group along the toucher's view: no page of the
  group lies beyond a tier of that view that still has a free page;
- the app time and the tiers' access counts equal what `reference_replay`, a
  counter keyed by node and tier name, gives for every access so far;
- the system's detected page mask is one 0/1 byte per footprint page, and
  `metrics.recall_precision` scores it against the oracle as the reference
  set formula, `set_recall_precision`, scores its pages.

The loop's per-interval costs and tier counts must equal the engine's rows,
so it cannot drift from the loop it stands in for.  On the engine's result:

- profiling in interval i costs at most `profiler.overhead_constraint` times
  interval i-1's app cost, and nothing in interval 0;
- every planned move has one migration row;
- first-touch never profiles or migrates.
"""
from __future__ import annotations

from collections import Counter
from math import fsum

from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import baselines, engine, metrics, migrator
from tiersim.baselines import BASELINE_KINDS
from tiersim.config import build_run_config, parse_config_text
from tiersim.memmodel import BASE_PAGE_BYTES, UNMAPPED, MemoryState, build_topology
from tiersim.policy import resolve_destination
from tiersim.profiler import total_quota
from tiersim.workload import AccessTrace

from placement import tier_of

INTERVALS = 6
ACCESSES_PER_INTERVAL = 384
# "write_only" is the all-write stream no config gives: its config reads
# the pages in order, and the test makes every access a write
MICROBENCHES = ["read_only", "half_read", "write_only"]


@st.composite
def configs(draw) -> tuple[str, bool]:
    """A config's text, and whether every access of its trace writes."""
    footprint = draw(st.integers(64, 512))
    ids = [f"t{i}" for i in range(draw(st.integers(2, 4)))]
    big = draw(st.integers(0, len(ids) - 1))
    pages = [draw(st.integers(2 * footprint, 3 * footprint)) if i == big
             else draw(st.integers(1, footprint)) for i in range(len(ids))]
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
    group = draw(st.sampled_from([None, 1, 8, 16]))
    if group is not None:  # groups below the profiler window split its runs
        lines.append(f"alloc_group_pages = {group}")
    bench = None
    if kind == "microbench":  # enough passes to fill every interval
        bench = draw(st.sampled_from(MICROBENCHES))
        per_pass = footprint * (2 if bench == "half_read" else 1)
        lines += [f"workload.bench = {'half_read' if bench == 'half_read' else 'read_only'}",
                  f"workload.array_pages = {footprint}",
                  f"workload.passes = {-(-INTERVALS * ACCESSES_PER_INTERVAL // per_pass)}",
                  f"workload.node = {draw(st.sampled_from(nodes))}"]
    else:
        phases = draw(st.integers(2, 3)) if kind == "phase_change" else 1
        lines += [f"workload.footprint_pages = {footprint}",
                  f"workload.accesses = {INTERVALS * ACCESSES_PER_INTERVAL // phases}",
                  f"workload.phases = {phases}",
                  f"workload.init_pass = {draw(st.booleans())}".lower()]
    for i, (tid, n) in enumerate(zip(ids, pages)):
        lines += [f"topology.tier{i}.id = {tid}",
                  f"topology.tier{i}.capacity_bytes = {n * BASE_PAGE_BYTES}"]
    for n in nodes:
        view = [*draw(st.permutations(ids[:-1])), ids[-1]]
        lines.append(f"topology.views.{n} = {', '.join(view)}")
    return "\n".join(lines) + "\n", bench == "write_only"


def check_ledger(space: MemoryState) -> None:
    pages = {t: 0 for t in space.free}
    for p in range(space.num_pages):
        tier = tier_of(space, p)
        if tier is not None:
            pages[tier] += 1
    for t in space.topology.tiers:
        assert space.free[t.id] == t.capacity_bytes - BASE_PAGE_BYTES * pages[t.id]
        assert space.free[t.id] >= 0


def checked_first_touch(group: int):
    """`group_first_touch(group)`, checking after each touch that no page of
    the touched group lies beyond a tier, in the toucher's view, that still
    has a free page."""
    alloc = baselines.group_first_touch(group)

    def checked(space: MemoryState, vpage: int, node: int) -> None:
        alloc(space, vpage, node)
        view = space.topology.views[node]
        g0 = vpage - vpage % group
        tiers = {tier_of(space, p) for p in range(g0, min(g0 + group, space.num_pages))}
        last = max(map(view.index, tiers))
        assert all(space.free[t] < BASE_PAGE_BYTES for t in view[:last]), (vpage, node)

    return checked


def check_groups(space: MemoryState, group: int) -> None:
    """Every allocation group is wholly mapped or wholly unmapped."""
    for g0 in range(0, space.num_pages, group):
        g1 = min(g0 + group, space.num_pages)
        assert space.page_tier.count(UNMAPPED, g0, g1) in (0, g1 - g0), g0


def check_plan_fits(moves, free: dict[str, int]) -> None:
    free = dict(free)
    for m in moves:
        free[m.dst] -= m.bytes
        free[m.src] += m.bytes
        assert free[m.dst] >= 0, f"{m} overdraws {m.dst}"


def check_directions(system, moves) -> None:
    topology = system.space.topology
    for m in moves:
        assert m.region.tier == m.src, m
        assert all(tier_of(system.space, p) == m.src
                   for p in range(m.region.start_page, m.region.end_page)), m
        if isinstance(system, baselines.AutonumaSystem):
            order = topology.tier_ids
        else:
            order = resolve_destination(m.region, topology.views)
        rank = {t: i for i, t in enumerate(order)}
        if m.reason == "promote":
            assert rank[m.dst] < rank[m.src], f"{m} against {order}"
        else:
            assert m.reason == "demote" and rank[m.dst] > rank[m.src], \
                f"{m} against {order}"


def check_samples(profiler) -> None:
    regions = profiler.regions
    for r in regions:
        assert len(set(r.samples)) == len(r.samples), r
        assert all(r.start_page <= p < r.end_page for p in r.samples), r
    total = total_quota(regions)
    if total > profiler.num_ps:
        assert all(r.quota == 1 for r in regions), (total, profiler.num_ps)
    elif total < profiler.num_ps:
        assert all(r.quota == r.len_pages for r in regions), (total, profiler.num_ps)


def check_partition(profiler) -> None:
    space = profiler.space
    end = 0
    for r in profiler.regions:
        assert r.start_page >= end, r  # sorted by start and disjoint
        assert all(tier_of(space, p) == r.tier for p in range(r.start_page, r.end_page)), r
        end = r.end_page


def check_damon_regions(system) -> None:
    end = 0
    for start, stop, _ in system.regions:
        assert start >= end and stop > start, (start, stop)  # sorted, disjoint, non-empty
        end = stop
    assert end <= system.space.num_pages


def subwindow_hits(slc, num_scans: int) -> Counter:
    """Page -> the number of the slice's sub-windows whose `pages()` hold it."""
    hits = Counter()
    for sub in slc.subwindows(num_scans):
        hits.update(set(sub.pages()))
    return hits


def check_scans(scans: list[tuple[int, int]], slc, num_scans: int) -> None:
    """`scans`, the (page, observation) of an interval's scans in order, come
    in num_scans equal rounds, round k after sub-window k: each observation
    is whether that sub-window touched the page."""
    subs = [set(sub.pages()) for sub in slc.subwindows(num_scans)]
    per_round, rest = divmod(len(scans), num_scans)
    assert not rest, len(scans)
    for k, touched in enumerate(subs):
        for page, seen in scans[k * per_round:(k + 1) * per_round]:
            assert seen == (page in touched), (k, page, seen)


def check_sample_counts(profiler, slc, scans: int, scanned) -> None:
    """After profile_interval performed `scans` scans and returned `scanned`:
    the scheduled samples are the first scans / num_scans samples of the
    active regions in order, each one's count is the number of sub-windows
    that hold it, and `scanned` lists the regions that had one, in order."""
    hits = subwindow_hits(slc, profiler.cfg.num_scans)
    left = scans // profiler.cfg.num_scans
    took = []
    for r in profiler.regions:
        if r.id in profiler.active_ids:
            take = min(r.quota, left)
            left -= take
            assert r.sample_counts[:take] == [hits[p] for p in r.samples[:take]], r
            if take:
                took.append(r)
    assert left == 0
    assert list(map(id, scanned)) == list(map(id, took))


def watch_scans(system) -> list[tuple[int, int]]:
    """Record every scan the system makes, as (page, observation), in a list
    the caller empties each interval, and check MTM's sample counts right
    after each profile_interval."""
    space, scans = system.space, []
    scan_pte = space.scan_pte

    def recorded(page, *args, **kwargs):
        seen = scan_pte(page, *args, **kwargs)
        scans.append((page, seen))
        return seen

    space.scan_pte = recorded
    if isinstance(system, baselines.MtmSystem):
        prof = system.profiler
        profile = prof.profile_interval

        def checked(slc):
            before = len(scans)
            scanned = profile(slc)
            check_sample_counts(prof, slc, len(scans) - before, scanned)
            return scanned

        prof.profile_interval = checked
    return scans


def reference_replay(space: MemoryState, slc,
                     counts: Counter) -> tuple[float, dict[str, int]]:
    """The slice's accesses counted onto `counts` by (node, tier name), then
    the app time and tier counts of every access counted so far.  An access
    costs the rank cost at its page's tier's place in the accessing node's
    view, and the costs are summed exactly, by `math.fsum`.  Call it once
    the slice is replayed: pages are mapped by then and no system moves one
    before it plans."""
    topology = space.topology
    rank_costs = [t.access_cost for t in topology.tiers]
    cost = {n: {tid: rank_costs[rank] for rank, tid in enumerate(view)}
            for n, view in topology.views.items()}
    counts.update((node, tier_of(space, vpage)) for vpage, _, node in slc.events())
    tier_counts = {t: 0 for t in topology.tier_ids}
    for (_, tier), n in counts.items():
        tier_counts[tier] += n
    return fsum(cost[node][tier] * n for (node, tier), n in counts.items()), tier_counts


def set_recall_precision(detected: set[int], hot) -> tuple[float, float]:
    """Recall and precision of a set of detected pages against the oracle's
    hot pages: the reference `metrics.recall_precision` must match."""
    correct = len(detected.intersection(hot)) if detected else 0
    recall = correct / len(hot) if hot else 1.0
    precision = correct / len(detected) if detected else 1.0
    return recall, precision


def check_detection(mask: bytearray, num_pages: int, hot) -> None:
    assert isinstance(mask, bytearray) and len(mask) == num_pages
    assert mask.count(0) + mask.count(1) == num_pages
    detected = {p for p, b in enumerate(mask) if b}
    assert metrics.recall_precision(mask, hot) == set_recall_precision(detected, hot)


def check_budget(rows, overhead_constraint: float) -> None:
    assert rows[0].profiling_cost == 0
    for prev, row in zip(rows, rows[1:]):
        assert row.profiling_cost <= overhead_constraint * prev.app_cost * (1 + 1e-9), \
            row.interval


def run_checked(cfg, trace, oracle) -> list[tuple]:
    """engine.run_simulation's interval loop with the invariants checked
    after every interval; returns each interval's costs and tier counts."""
    topology = build_topology(cfg.topology)
    group = cfg.alloc_group_pages or cfg.profiler.default_region_pages
    space = MemoryState(topology, cfg.cost, trace.footprint,
                        allocator=checked_first_touch(group))
    system = baselines.SYSTEMS[cfg.system](
        space, cfg.profiler, cfg.policy,
        engine._derive_seed(cfg.seed, f"system:{cfg.system}"), cfg.detect_threshold)
    mode = cfg.migrator_mode or system.migrator_mode
    scans = watch_scans(system)
    rows = []
    app_prev = 0.0
    ref_counts = Counter()
    for i in range(min(cfg.intervals, trace.num_intervals)):
        slc = trace.interval_slice(i)
        ledger = space.ledger
        prof0, mig0 = ledger.profiling, ledger.migration_exposed
        counts0 = space.access_counts()
        acc0 = dict(space.tier_access_counts)
        scans.clear()
        baselines.replay_plain(space, slc)
        replayed = space.access_counts()
        system.run_profiling(slc, app_prev)
        assert space.access_counts() == replayed  # profiling only observes
        check_scans(scans, slc, cfg.profiler.num_scans)
        ref_app, ref_tier_counts = reference_replay(space, slc, ref_counts)
        if isinstance(system, baselines.MtmSystem):
            check_samples(system.profiler)
            check_partition(system.profiler)
        if isinstance(system, baselines.DamonSystem):
            check_damon_regions(system)
        check_detection(system.detected_pages(), space.num_pages, oracle.hot_sets[i])
        moves = system.plan()
        check_plan_fits(moves, space.free)
        check_directions(system, moves)
        if moves:
            next_slice = (trace.interval_slice(i + 1)
                          if i + 1 < trace.num_intervals else None)
            migrator.execute_plan(space, moves, mode, next_slice)
        check_ledger(space)
        check_groups(space, group)
        assert space.app_cost() == ref_app
        assert space.tier_access_counts == ref_tier_counts
        counts = {t: space.tier_access_counts[t] - acc0[t] for t in topology.tier_ids}
        assert sum(counts.values()) == len(slc)
        app_prev = space.app_cost(counts0)
        rows.append((app_prev, ledger.profiling - prof0,
                     ledger.migration_exposed - mig0, counts))
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(configs())
def test_every_system_keeps_the_ledgers(case):
    text, all_write = case
    tree = parse_config_text(text)
    trace, oracle = engine.build_trace(build_run_config(tree))
    if all_write:  # the same pages, each access a write: the oracle holds
        trace = AccessTrace(trace.vpages, True, trace.node, trace.accesses_per_interval,
                            trace.footprint)
    for name in BASELINE_KINDS:
        cfg = build_run_config(tree, overrides={"system": name})
        rows = run_checked(cfg, trace, oracle)
        result = engine.run_simulation(cfg, trace=trace, oracle=oracle)
        assert rows == [(r.app_cost, r.profiling_cost, r.migration_exposed_cost,
                         r.tier_access_counts) for r in result.rows]
        check_budget(result.rows, cfg.profiler.overhead_constraint)
        assert len(result.plan_rows) == len(result.migration_rows)
        if name == "first-touch":
            assert all(r.profiling_cost == 0 and r.migration_exposed_cost == 0
                       for r in result.rows)
