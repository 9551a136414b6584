"""Reference profiling/policy behaviour of the comparison systems, run under
the same simulator contract (same traces, topologies, cost models, budget).

Every system is a `System`, built from the memory state, the profiler and
policy configs, a seed and the detection threshold.  In each interval the
engine calls, in this order:

1. `run_profiling(slc, app_prev)` observes the slice the engine has just
   replayed, adding no access, at a cost of at most `profiling_budget(cfg,
   app_prev)`: app_prev is the last interval's app time (0 in interval 0).
2. `detected_pages()` gives its hot pages as a page mask, `num_pages`
   bytes of 0/1 that `metrics.detect_hot_pages` builds from its scores.
3. `plan()` gives the interval's moves, each naming the region it moves.
   The engine executes them with `migrator_mode`, unless the config names
   a mode.
4. `struct_counts()` gives the running totals of region merges and splits.
   The engine records each interval's difference, as it does for the cost
   ledgers, so reading the totals never resets them.

The base class holds only what every system shares.  `run_profiling`,
`plan` and `detected_pages` stay on each system class: the benchmark's
tracer (bench/tracing.py) times them by patching each class's own methods.
"""
from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable

from .memmodel import BASE_PAGE_BYTES, UNMAPPED, CapacityError, MemoryState, scan_samples
from .metrics import detect_hot_pages
from .profiler import (Profiler, ProfilerConfig, Region, affordable_samples,
                       profiling_budget)
from .policy import Move, PolicyConfig, plan_interval, update_ema
from .workload import TraceSlice

# share of memory the tiered-AutoNUMA profiler inspects per interval: the
# paper's 256 MiB window over its 1.5 TiB system
AUTONUMA_WINDOW_FRACTION = (256 * 1024 * 1024) / (1536 * 1024 ** 3)
THERMOSTAT_COST_MULTIPLIER = 2.5
DAMON_MERGE_FRACTION = 0.10


def group_first_touch(group_pages: int):
    """First-touch at allocation-extent granularity: touching a page maps its
    whole aligned group as base pages, spilling along the toucher's view.
    Each tier in turn takes as many of the group's next pages as it has room
    for, which is where mapping them one at a time into the first tier with
    room puts them.  Only this maps pages, so a group is never partly
    mapped: a mapped page in it raises `TiersimError`, and no room left in
    any tier `CapacityError`."""

    def alloc(space: MemoryState, vpage: int, node: int) -> None:
        g0 = (vpage // group_pages) * group_pages
        pages = range(g0, min(g0 + group_pages, space.num_pages))
        for tier_id in space.topology.views[node]:
            take = space.free[tier_id] // BASE_PAGE_BYTES
            space.map_pages(pages[:take], tier_id)
            pages = pages[take:]
        if pages:
            raise CapacityError("all tiers full")

    return alloc


def replay_plain(space: MemoryState, slc: TraceSlice) -> None:
    space.replay(slc)


def scored_regions(space: MemoryState, spans: Iterable[tuple[int, int, float]]) -> list[Region]:
    """The planner's regions for (start, end, score) spans: one per mapped
    tier run of each span, its `hi` and `whi` the span's score."""
    return [Region(start, ln, tier, hi=score, whi=score)
            for lo, hi, score in spans for start, ln, tier in space.tier_runs(lo, hi)]


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
        """Nothing to observe: first-touch never profiles."""

    def detected_pages(self) -> bytearray:
        return bytearray(self.space.num_pages)  # nothing scored, nothing hot

    def plan(self) -> list[Move]:
        return []


class MtmSystem(System):
    """The adaptive profiler plus the EMA planner."""

    name = "mtm"
    migrator_mode = "adaptive"
    pebs_assist = True

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.profiler = Profiler(cfg, space, self.rng, self.pebs_assist)

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        prof = self.profiler
        if not prof.initialized:  # interval 0: the counts hold only this slice
            prof.init_regions(slc, self.space.app_cost())
            return
        prof.set_budget(app_prev)
        prof.adopt_new_pages()
        prof.select_active(slc)
        for r in prof.profile_interval(slc):
            update_ema(r, r.hi, self.policy.alpha)
        prof.end_interval()

    def detected_pages(self) -> bytearray:
        return detect_hot_pages(((r.start_page, r.end_page, r.whi or 0.0)
                                 for r in self.profiler.regions),
                                self.detect_threshold, self.space.num_pages)

    def plan(self) -> list[Move]:
        return plan_interval(self.profiler.regions, self.space, self.policy)

    def struct_counts(self) -> tuple[int, int]:
        return (self.profiler.merges, self.profiler.splits)


class MtmNoPebsSystem(MtmSystem):
    """MTM without counter assistance: the slowest tier is profiled like any
    other (every region, one random sample)."""

    name = "mtm-no-pebs"
    pebs_assist = False


class AutonumaSystem(System):
    """Tiered-AutoNUMA style: one random window per interval, fault counting,
    one-level-per-interval migration along the canonical hierarchy.  `plan`
    reads the mask `detected_pages` kept this interval."""

    name = "autonuma"

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.counts: dict[int, int] = {}  # retained per-page fault counts
        self.hot = bytearray(space.num_pages)  # the last detection's page mask

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
        in_window = set(range(w0, w1)).__contains__  # cheaper per call than range's slot wrapper
        for sub in slc.subwindows(cfg.num_scans):
            # one fault per page the sub-window touched in the window, taken
            # in first-access order until the budget runs dry
            for p in dict.fromkeys(filter(in_window, sub.pages())):
                if spent + scan_cost > budget:
                    break
                spent += scan_cost
                fresh[p] = fresh.get(p, 0) + 1
        space.ledger.profiling += spent
        for p in range(w0, w1):
            self.counts[p] = fresh.get(p, 0)

    def detected_pages(self) -> bytearray:
        self.hot = detect_hot_pages(((p, p + 1, c) for p, c in self.counts.items()),
                                    self.detect_threshold, self.space.num_pages)
        return self.hot

    def plan(self) -> list[Move]:
        """Promote hot pages one level toward the fastest tier; the coldest
        residents drop one level when the target lacks room."""
        space, topo = self.space, self.space.topology
        order = topo.tier_ids  # fixed global hierarchy
        free = dict(space.free)
        budget = self.policy.promotion_budget(topo)
        page = BASE_PAGE_BYTES
        moves: list[Move] = []
        hot = self.hot
        victims: dict[str, list[int]] = {}  # per tier, built when first needed
        p = -1
        while (p := hot.find(1, p + 1)) != -1:  # the hot pages, in page order
            if budget < page:
                break
            rank = space.page_tier[p]  # the tier index is its canonical rank
            if rank == UNMAPPED or rank == 0:
                continue
            tier, dst = order[rank], order[rank - 1]
            if free[dst] < page:
                # swap: the coldest resident of dst drops into p's tier
                if free[tier] < page:
                    continue
                if dst not in victims:
                    victims[dst] = self._coldest_first(rank - 1, hot)
                if not victims[dst]:
                    continue
                v = victims[dst].pop(0)
                moves.append(Move(Region(v, 1, dst), dst, tier, "demote"))
                free[tier] -= page
                free[dst] += page
            moves.append(Move(Region(p, 1, tier), tier, dst, "promote"))
            free[dst] -= page
            free[tier] += page
            budget -= page
        return moves

    def _coldest_first(self, tier: int, hot: bytearray) -> list[int]:
        """The pages of tier index `tier` outside the page mask `hot`, by
        (retained count, page).  Counts are never negative, so the uncounted
        pages lead in page order."""
        pages = [p for p, t in enumerate(self.space.page_tier) if t == tier and not hot[p]]
        counted = {p: c for p, c in self.counts.items() if c}
        return ([p for p in pages if p not in counted]
                + sorted((p for p in pages if p in counted), key=lambda p: (counted[p], p)))


class ThermostatSystem(System):
    """One random base page per fixed-size region, every access to it counted
    at a protection-fault premium; stops sampling when the budget runs dry.
    The counts are the interval's, read from its replayed slice, and only of
    the pages it may sample: each mapped region's pick is drawn ahead on a copy
    of the random stream, and one C-level pass over the page column counts
    those picks.  The walk then draws the same picks on the stream itself,
    so it leaves the stream where it stops at the budget.  A region's
    hotness is its count clipped to `num_scans`, the scale every system's
    hotness has; detection and planning both read it."""

    name = "thermostat"

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.region_pages = cfg.default_region_pages
        self.hotness: dict[int, int] = {}  # window start -> retained clipped count

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        space = self.space
        budget = profiling_budget(self.cfg, app_prev)
        fault_cost = THERMOSTAT_COST_MULTIPLIER * space.cost_model.scan_cost
        spent = 0.0
        windows = list(range(0, space.num_pages, self.region_pages))
        self.rng.shuffle(windows)
        mapped = [(w, pages) for w in windows
                  if (pages := space.mapped_pages(w, w + self.region_pages))]
        ahead = random.Random()
        ahead.setstate(self.rng.getstate())
        wanted = {ahead.choice(pages) for _, pages in mapped}
        counts = Counter(filter(wanted.__contains__, slc.pages()))
        for w, pages in mapped:
            sample = self.rng.choice(pages)
            count = counts.get(sample, 0)
            cost = count * fault_cost
            if spent + cost > budget:
                break  # out of budget: remaining regions go unprofiled
            spent += cost
            self.hotness[w] = min(count, self.cfg.num_scans)
        space.ledger.profiling += spent

    def detected_pages(self) -> bytearray:
        size, n = self.region_pages, self.space.num_pages
        return detect_hot_pages(((w, min(w + size, n), c) for w, c in self.hotness.items()),
                                self.detect_threshold, n)

    def plan(self) -> list[Move]:
        """Profiling-only: the shared planner plans every window, an unprofiled one at 0."""
        size = self.region_pages
        spans = ((w, w + size, float(self.hotness.get(w, 0)))
                 for w in range(0, self.space.num_pages, size))
        return plan_interval(scored_regions(self.space, spans), self.space, self.policy)


class DamonSystem(System):
    """Region monitor: one random sample per region, as many as the budget
    buys at the plain scan cost; merge near-equal neighbours, split every
    region randomly when the count falls below half the maximum.  A pick's
    hits are `scan_samples`' count: it sees only this interval.  Its regions
    are its scored spans, (start, end, result) in page order and disjoint,
    which detection and the planner read as they are."""

    name = "damon"

    def __init__(self, space: MemoryState, cfg: ProfilerConfig,
                 policy: PolicyConfig, seed: int, detect_threshold: float):
        super().__init__(space, cfg, policy, seed, detect_threshold)
        self.regions: list[tuple[int, int, float]] = []

    def _init_regions(self) -> None:
        # one region per contiguous mapped run in the footprint
        regions = self.regions
        for start, ln, _ in self.space.tier_runs():
            if regions and regions[-1][1] == start:
                regions[-1] = (regions[-1][0], start + ln, 0.0)
            else:
                regions.append((start, start + ln, 0.0))

    def run_profiling(self, slc: TraceSlice, app_prev: float) -> None:
        space, cfg, regions = self.space, self.cfg, self.regions
        if not regions:
            self._init_regions()
            return
        max_samples = affordable_samples(profiling_budget(cfg, app_prev),
                                         space.cost_model.scan_cost, cfg.num_scans)
        picks: list[tuple[int, int]] = []  # (index in regions, sampled page)
        for i, (start, end, _) in enumerate(regions[:max_samples]):
            pages = space.mapped_pages(start, end)
            if pages:
                picks.append((i, self.rng.choice(pages)))
        hits = scan_samples(space, slc, [p for _, p in picks], cfg.num_scans)
        for (i, _), count in zip(picks, hits):
            start, end, _ = regions[i]
            regions[i] = (start, end, float(count))
        self._merge()
        self._split(max(2, max_samples))

    def _merge(self) -> None:
        threshold = DAMON_MERGE_FRACTION * self.cfg.num_scans
        out: list[tuple[int, int, float]] = []
        for start, end, result in self.regions:
            if out and out[-1][1] == start and abs(out[-1][2] - result) < threshold:
                s0, e0, r0 = out[-1]
                out[-1] = (s0, end, (r0 * (e0 - s0) + result * (end - start)) / (end - s0))
                self.merges += 1
            else:
                out.append((start, end, result))
        self.regions = out

    def _split(self, max_regions: int) -> None:
        if len(self.regions) >= max_regions / 2:
            return
        out: list[tuple[int, int, float]] = []
        for start, end, result in self.regions:
            if end - start < 2:
                out.append((start, end, result))
                continue
            cut = start + self.rng.randrange(1, end - start)
            out += [(start, cut, result), (cut, end, result)]
            self.splits += 1
        self.regions = out

    def detected_pages(self) -> bytearray:
        return detect_hot_pages(self.regions, self.detect_threshold, self.space.num_pages)

    def plan(self) -> list[Move]:
        return plan_interval(scored_regions(self.space, self.regions), self.space, self.policy)


# every system a config can name, by name (RunConfig.system takes
# BASELINE_KINDS as its Literal)
SYSTEMS = {cls.name: cls for cls in (MtmSystem, MtmNoPebsSystem, FirstTouchSystem,
                                     AutonumaSystem, ThermostatSystem, DamonSystem)}
BASELINE_KINDS = tuple(SYSTEMS)

