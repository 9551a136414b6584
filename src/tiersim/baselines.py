"""Reference profiling/policy behaviour of the comparison systems, run under
the same simulator contract (same traces, topologies, cost models, budget).

Every system is a `System`, built from the memory state, the profiler and
policy configs, a seed and the detection threshold.  In each interval the
engine calls, in this order:

1. `run_profiling(slc, app_prev)` replays the interval's slice and profiles
   it.  Profiling may cost `profiling_budget(cfg, app_prev)`, where app_prev
   is the previous interval's application time (0 in interval 0).
2. `detected_pages()` gives the pages the system now takes as hot.
3. `plan()` gives a migration plan and the regions its moves name.  The
   engine executes it with `migrator_mode`, unless the config names a mode.
4. `struct_counts()` gives the running totals of region merges and splits.
   The engine records each interval's difference, as it does for the cost
   ledgers, so reading the totals never resets them.

The base class holds only what every system shares.  `run_profiling`,
`plan` and `detected_pages` stay on each system class: the benchmark's
tracer (bench/tracing.py) times them by patching each class's own methods.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .memmodel import BASE_PAGE_BYTES, CapacityError, MemoryState
from .metrics import detect_hot_pages
from .profiler import (Profiler, ProfilerConfig, Region, affordable_samples,
                       profiling_budget)
from .policy import Move, MigrationPlan, PolicyConfig, plan_interval, update_ema
from .workload import TraceSlice

# share of memory the tiered-AutoNUMA profiler inspects per interval: the
# paper's 256 MiB window over its 1.5 TiB system
AUTONUMA_WINDOW_FRACTION = (256 * 1024 * 1024) / (1536 * 1024 ** 3)
THERMOSTAT_COST_MULTIPLIER = 2.5
DAMON_MERGE_FRACTION = 0.10


def first_touch_alloc(space: MemoryState, vpage: int, node: int) -> str:
    """Place an untouched page in the first tier with room along the toucher
    node's distance order.  Never migrates."""
    for tier_id in space.topology.alloc_order(node):
        if space.free[tier_id] >= BASE_PAGE_BYTES:
            space.map_page(vpage, tier_id)
            return tier_id
    raise CapacityError("all tiers full")


def group_first_touch(group_pages: int):
    """First-touch at allocation-extent granularity: touching any page maps
    the unmapped pages of its aligned group into the first tier, in the
    toucher's allocation order, that can hold them all, as base pages.
    Falls back to page-by-page placement when no tier can."""

    def alloc(space: MemoryState, vpage: int, node: int) -> None:
        g0 = (vpage // group_pages) * group_pages
        g1 = min(g0 + group_pages, space.num_pages)
        mapped = set(space.mapped_pages(g0, g1))
        pages = [p for p in range(g0, g1) if p not in mapped]
        need = len(pages) * BASE_PAGE_BYTES
        for tier_id in space.topology.alloc_order(node):
            if space.free[tier_id] >= need:
                space.map_pages(pages, tier_id)
                return
        for p in pages:  # spill across tiers at the capacity boundary
            first_touch_alloc(space, p, node)

    return alloc


def replay_plain(space: MemoryState, slc: TraceSlice) -> None:
    space.replay(slc)


class System:
    """What every system shares: its inputs, its own random stream, sync
    migration unless it says otherwise, and running merge/split totals."""

    name: str
    migrator_mode = "sync"

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        self.space = space
        self.cfg = cfg
        self.policy = policy
        self.rng = random.Random(seed)
        self.detect_threshold = detect_threshold
        self.merges = 0
        self.splits = 0

    def struct_counts(self) -> tuple[int, int]:
        """Region merges and splits so far; running totals, never reset."""
        return (self.merges, self.splits)


class FirstTouchSystem(System):
    """Allocation-only baseline: no profiling, no migration."""

    name = "first-touch"

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        replay_plain(self.space, slc)

    def detected_pages(self) -> set[int]:
        return set()

    def plan(self):
        return MigrationPlan(), {}


class MtmSystem(System):
    """The adaptive profiler plus the EMA planner."""

    name = "mtm"
    migrator_mode = "adaptive"
    pebs_assist = True

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.profiler = Profiler(cfg, space, seed, self.pebs_assist)

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        prof = self.profiler
        if not prof.initialized:
            app0 = self.space.ledger.app
            replay_plain(self.space, slc)
            prof.init_regions(slc, self.space.ledger.app - app0)
            return
        prof.set_budget(app_prev)
        prof.adopt_new_pages()
        prof.select_active(slc)
        prof.profile_interval(slc)
        for r in prof.regions:
            if r.id in prof.active_ids:
                update_ema(r, r.hi, self.policy.alpha)
        prof.end_interval()

    def detected_pages(self) -> set[int]:
        return detect_hot_pages(self.profiler.regions, self.detect_threshold)

    def plan(self):
        plan = plan_interval(self.profiler.regions, self.space, self.policy)
        return plan, {r.id: r for r in self.profiler.regions}

    def struct_counts(self) -> tuple[int, int]:
        return (self.profiler.merges, self.profiler.splits)


class MtmNoPebsSystem(MtmSystem):
    """MTM without counter assistance: the slowest tier is profiled like any
    other (every region, one random sample)."""

    name = "mtm-no-pebs"
    pebs_assist = False


class AutonumaSystem(System):
    """Tiered-AutoNUMA style: one random window per interval, fault counting,
    one-level-per-interval migration along the canonical hierarchy."""

    name = "autonuma"

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.counts: dict[int, int] = {}  # retained per-page fault counts

    def _window_pages(self, budget: float) -> int:
        footprint = self.space.num_pages
        scaled = max(1, int(footprint * AUTONUMA_WINDOW_FRACTION))
        by_budget = max(1, affordable_samples(budget, self.space.cost_model.scan_cost,
                                              self.cfg.num_scans))
        return min(footprint, scaled, by_budget)

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        space, cfg = self.space, self.cfg
        budget = profiling_budget(cfg, app_prev)
        window = self._window_pages(budget)
        w0 = self.rng.randrange(max(1, space.num_pages - window + 1))
        w1 = w0 + window
        scan_cost = space.cost_model.scan_cost
        spent = 0.0
        fresh = {}
        for sub in slc.subwindows(cfg.num_scans):
            replay_plain(space, sub)
            # one fault per page the sub-window touched in the window, taken
            # in first-access order until the budget runs dry
            for p in sub.page_counts():
                if w0 <= p < w1 and spent + scan_cost <= budget:
                    spent += scan_cost
                    fresh[p] = fresh.get(p, 0) + 1
        space.ledger.profiling += spent
        for p in range(w0, w1):
            self.counts[p] = fresh.get(p, 0)

    def detected_pages(self) -> set[int]:
        return {p for p, c in self.counts.items() if c >= self.detect_threshold}

    def plan(self):
        """Promote hot pages one level toward the fastest tier; the coldest
        residents drop one level when the target lacks room."""
        space, topo = self.space, self.space.topology
        order = topo.tier_ids  # fixed global hierarchy
        free = dict(space.free)
        budget = self.policy.promotion_budget(topo)
        page = BASE_PAGE_BYTES
        moves: list[Move] = []
        regions: dict[int, Region] = {}
        hot = sorted(self.detected_pages())
        hot_set = set(hot)
        victims: dict[str, list[int]] = {}  # per tier, built when first needed
        for p in hot:
            if budget < page:
                break
            tier = space.page_tier[p]
            if tier is None:
                continue
            rank = order.index(tier)
            if rank == 0:
                continue
            dst = order[rank - 1]
            if free[dst] < page:
                # swap: the coldest resident of dst drops into p's tier
                if free[tier] < page:
                    continue
                if dst not in victims:
                    victims[dst] = self._coldest_first(dst, hot_set)
                if not victims[dst]:
                    continue
                v = victims[dst].pop(0)
                regions[v] = Region(v, 1, dst, quota=1)
                moves.append(Move(v, dst, tier, "demote", page))
                free[tier] -= page
                free[dst] += page
            regions[p] = Region(p, 1, tier, quota=1)
            moves.append(Move(p, tier, dst, "promote", page))
            free[dst] -= page
            free[tier] += page
            budget -= page
        return MigrationPlan(moves=moves), regions

    def _coldest_first(self, tier: str, hot: set[int]) -> list[int]:
        """The tier's pages outside `hot`, by (retained count, page).  Counts
        are never negative, so the uncounted pages lead in page order."""
        pages = [p for p, t in enumerate(self.space.page_tier) if t == tier and p not in hot]
        counted = {p: c for p, c in self.counts.items() if c}
        return ([p for p in pages if p not in counted]
                + sorted((p for p in pages if p in counted), key=lambda p: (counted[p], p)))


class ThermostatSystem(System):
    """One random base page per fixed-size region, every access to it counted
    at a protection-fault premium; stops sampling when the budget runs dry.
    The counts are the interval's `page_counts()`, taken after its replay.
    A region's hotness is its count clipped to `num_scans`, the scale every
    system's hotness has; detection and planning both read it."""

    name = "thermostat"

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.region_pages = cfg.default_region_pages
        self.hotness: dict[int, int] = {}  # window start -> retained clipped count

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        space = self.space
        replay_plain(space, slc)
        replay_counts = slc.page_counts()
        budget = profiling_budget(self.cfg, app_prev)
        fault_cost = THERMOSTAT_COST_MULTIPLIER * space.cost_model.scan_cost
        spent = 0.0
        windows = list(range(0, space.num_pages, self.region_pages))
        self.rng.shuffle(windows)
        for w in windows:
            pages = space.mapped_pages(w, w + self.region_pages)
            if not pages:
                continue
            sample = pages[self.rng.randrange(len(pages))]
            count = replay_counts.get(sample, 0)
            cost = count * fault_cost
            if spent + cost > budget:
                break  # out of budget: remaining regions go unprofiled
            spent += cost
            self.hotness[w] = min(count, self.cfg.num_scans)
        space.ledger.profiling += spent

    def detected_pages(self) -> set[int]:
        hot: set[int] = set()
        for w, c in self.hotness.items():
            if c >= self.detect_threshold:
                hot.update(range(w, min(w + self.region_pages, self.space.num_pages)))
        return hot

    def plan(self):
        """Thermostat is profiling-only: migration reuses the shared planner."""
        regions: list[Region] = []
        for start, ln, tier in self.space.tier_runs(window=self.region_pages):
            w = start - start % self.region_pages
            score = float(self.hotness.get(w, 0))
            regions.append(Region(start, ln, tier, quota=1, hi=score, whi=score))
        plan = plan_interval(regions, self.space, self.policy)
        return plan, {r.id: r for r in regions}


@dataclass
class _DamonRegion:
    start: int
    length: int
    result: float = 0.0

    @property
    def end(self) -> int:
        return self.start + self.length


class DamonSystem(System):
    """Region monitor: one random sample per region, as many as the budget
    buys at the plain scan cost; merge near-equal neighbours, split every
    region randomly when the count falls below half the maximum."""

    name = "damon"

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.regions: list[_DamonRegion] = []

    def _init_regions(self) -> None:
        # one region per contiguous mapped run in the footprint
        for start, ln, _ in self.space.tier_runs():
            if self.regions and self.regions[-1].end == start:
                self.regions[-1].length += ln
            else:
                self.regions.append(_DamonRegion(start, ln))

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        space, cfg = self.space, self.cfg
        if not self.regions:
            replay_plain(space, slc)
            self._init_regions()
            return
        max_samples = affordable_samples(profiling_budget(cfg, app_prev),
                                         space.cost_model.scan_cost, cfg.num_scans)
        picks: list[tuple[_DamonRegion, int]] = []
        for reg in self.regions[:max_samples]:
            pages = space.mapped_pages(reg.start, reg.end)
            if pages:
                picks.append((reg, pages[self.rng.randrange(len(pages))]))
        hits = {id(reg): 0 for reg, _ in picks}
        for sub in slc.subwindows(cfg.num_scans):
            replay_plain(space, sub)
            for reg, page in picks:
                hits[id(reg)] += space.scan_pte(page)
        for reg, _ in picks:
            reg.result = float(hits[id(reg)])
        self._merge()
        self._split(max(2, max_samples))

    def _merge(self) -> None:
        threshold = DAMON_MERGE_FRACTION * self.cfg.num_scans
        out: list[_DamonRegion] = []
        for reg in sorted(self.regions, key=lambda r: r.start):
            if out and out[-1].end == reg.start and \
                    abs(out[-1].result - reg.result) < threshold:
                prev = out[-1]
                merged = _DamonRegion(
                    prev.start, prev.length + reg.length,
                    (prev.result * prev.length + reg.result * reg.length)
                    / (prev.length + reg.length))
                out[-1] = merged
                self.merges += 1
            else:
                out.append(reg)
        self.regions = out

    def _split(self, max_regions: int) -> None:
        if len(self.regions) >= max_regions / 2:
            return
        out: list[_DamonRegion] = []
        for reg in self.regions:
            if reg.length < 2:
                out.append(reg)
                continue
            cut = reg.start + self.rng.randrange(1, reg.length)
            out.append(_DamonRegion(reg.start, cut - reg.start, reg.result))
            out.append(_DamonRegion(cut, reg.end - cut, reg.result))
            self.splits += 1
        self.regions = out

    def detected_pages(self) -> set[int]:
        hot: set[int] = set()
        for reg in self.regions:
            if reg.result >= self.detect_threshold:
                hot.update(range(reg.start, reg.end))
        return hot

    def plan(self):
        regions: list[Region] = []
        for reg in self.regions:
            score = min(reg.result, float(self.cfg.num_scans))
            regions.extend(Region(start, ln, tier, quota=1, hi=score, whi=score)
                           for start, ln, tier in self.space.tier_runs(reg.start, reg.end))
        plan = plan_interval(regions, self.space, self.policy)
        return plan, {r.id: r for r in regions}


# every system a config can name, by name (RunConfig.system takes
# BASELINE_KINDS as its Literal)
SYSTEMS = {cls.name: cls for cls in (MtmSystem, MtmNoPebsSystem, FirstTouchSystem,
                                     AutonumaSystem, ThermostatSystem, DamonSystem)}
BASELINE_KINDS = tuple(SYSTEMS)


def make_system(name: str, space: MemoryState, cfg: ProfilerConfig,
                policy: PolicyConfig, seed: int, detect_threshold: float) -> System:
    """The system `name`; every system reports the pages whose hotness
    reaches detect_threshold as hot."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}")
    return SYSTEMS[name](space, cfg, policy, seed, detect_threshold)
