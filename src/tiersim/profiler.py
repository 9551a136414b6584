"""Adaptive region-based profiling under a hard per-interval scan budget."""
from __future__ import annotations

import logging
import math
import random
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter

from .memmodel import BASE_PAGE_BYTES, BudgetError, CostModel, MemoryState, require, scan_samples
from .workload import TraceSlice

log = logging.getLogger(__name__)

# how many of the highest-variance regions share out spare samples at a time
TOP_K_VARIANCE = 5
# with origin sampling, one scheduled scan in this many takes a hint fault
HINT_FAULT_PERIOD = 12
# the head share of an interval whose slowest-tier accesses PEBS samples
PEBS_WINDOW_FRACTION = 0.10


@dataclass
class ProfilerConfig:
    """Every system's profiling in interval i may cost overhead_constraint x app(i-1)."""
    overhead_constraint: float = 0.05
    num_scans: int = 3
    tau1: float | None = None                # merge threshold, default num_scans/3
    tau2: float | None = None                # split threshold, default 2*num_scans/3
    default_region_pages: int = 512
    origin_sampling: bool = False

    def __post_init__(self):
        require(0 < self.overhead_constraint < 1, "overhead_constraint",
                "must be in (0, 1)")
        require(self.num_scans >= 1, "num_scans", "must be >= 1")
        if self.tau1 is None:
            self.tau1 = self.num_scans / 3
        if self.tau2 is None:
            self.tau2 = 2 * self.num_scans / 3
        require(0 <= self.tau1 < self.tau2 <= self.num_scans, "tau1",
                "must satisfy 0 <= tau1 < tau2 <= num_scans")
        require(self.default_region_pages >= 1, "default_region_pages", "must be >= 1")


def effective_scan_cost(cfg: ProfilerConfig, cost: CostModel) -> float:
    """Per-scan cost including the amortized hint fault (one per
    HINT_FAULT_PERIOD scans) when origin sampling is on."""
    if cfg.origin_sampling:
        return cost.scan_cost * (1.0 + cost.hint_fault_multiplier / HINT_FAULT_PERIOD)
    return cost.scan_cost


def profiling_budget(cfg: ProfilerConfig, app_time: float) -> float:
    """What profiling may cost in an interval that follows one whose
    application time was `app_time`: the one budget every system keeps."""
    return cfg.overhead_constraint * app_time


def affordable_samples(budget: float, scan_cost: float, num_scans: int) -> int:
    """Samples, each scanned num_scans times at scan_cost, that `budget` buys."""
    return math.floor(budget / (scan_cost * num_scans))


def compute_budget(cfg: ProfilerConfig, cost: CostModel, app_time: float) -> int:
    """Page samples, each scanned num_scans times, that fit in
    profiling_budget(cfg, app_time)."""
    num_ps = affordable_samples(profiling_budget(cfg, app_time),
                                effective_scan_cost(cfg, cost), cfg.num_scans)
    if num_ps < 1:
        raise BudgetError("constraint infeasible")
    return num_ps


@dataclass
class Region:
    """A run of pages on one tier.  Its sample list is its share of the scan
    budget, so `quota` is len(samples)."""
    start_page: int
    len_pages: int
    tier: str
    samples: list[int] = field(default_factory=list)
    sample_counts: list[int] = field(default_factory=list)
    hi: float = 0.0
    hi_prev: float = 0.0
    whi: float | None = None
    origin_counts: dict[int, int] = field(default_factory=dict)

    @property
    def id(self) -> int:
        return self.start_page

    @property
    def quota(self) -> int:
        return len(self.samples)

    @property
    def end_page(self) -> int:
        return self.start_page + self.len_pages

    @property
    def bytes(self) -> int:
        return self.len_pages * BASE_PAGE_BYTES

    def variance_score(self) -> float:
        return abs(self.hi - self.hi_prev)


_start_page = attrgetter("start_page")


def owner_of(regions: list[Region], page: int) -> Region | None:
    """The region of `regions`, sorted by start and disjoint, holding `page`."""
    i = bisect_right(regions, page, key=_start_page)
    if i and page < regions[i - 1].end_page:
        return regions[i - 1]
    return None


def total_quota(regions: list[Region]) -> int:
    return sum(r.quota for r in regions)


def _interleave(a: list, b: list) -> list:
    out = []
    for i in range(max(len(a), len(b))):
        if i < len(a):
            out.append(a[i])
        if i < len(b):
            out.append(b[i])
    return out


def _merged(a: Region, b: Region) -> Region:
    """a and b, contiguous on one tier, as one region.  It keeps half their
    samples (at least one), taken alternately from each side, and sums their
    origin counts.  hi, hi_prev and whi are weighted by size, a whi not yet
    observed weighing in as its hi.  Every count of both is kept, uncut, so
    the merged region can hold more counts than samples, and split_pass
    then reads the spread of counts whose samples were dropped.  That is a
    known defect of stale counts, kept here: mending it changes which
    regions split, and so the outputs."""
    la, lb = a.len_pages, b.len_pages

    def weigh(x: float, y: float) -> float:
        return (x * la + y * lb) / (la + lb)

    origin = dict(a.origin_counts)
    for node, n in b.origin_counts.items():
        origin[node] = origin.get(node, 0) + n
    return Region(a.start_page, la + lb, a.tier,
                  samples=_interleave(a.samples, b.samples)[:max(1, (a.quota + b.quota) // 2)],
                  sample_counts=_interleave(a.sample_counts, b.sample_counts),
                  hi=weigh(a.hi, b.hi), hi_prev=weigh(a.hi_prev, b.hi_prev),
                  whi=weigh(a.hi if a.whi is None else a.whi,
                            b.hi if b.whi is None else b.whi),
                  origin_counts=origin)


def merge_pass(regions: list[Region], tau1: float) -> list[Region]:
    """Merge contiguous same-tier neighbours whose hotness differs by less
    than tau1 (`_merged`).  Sweeps until stable (merging shifts the weighted
    hotness, so new pairs can qualify), which makes an immediate second pass
    a no-op."""
    while True:
        out: list[Region] = []
        for reg in regions:
            if (out and out[-1].tier == reg.tier and out[-1].end_page == reg.start_page
                    and abs(out[-1].hi - reg.hi) < tau1):
                out[-1] = _merged(out[-1], reg)
            else:
                out.append(reg)
        if len(out) == len(regions):
            return out
        regions = out


def _resize_samples(reg: Region, quota: int, rng: random.Random) -> None:
    """Give reg `quota` samples, capped at its page count: drop trailing
    samples and their counts, or draw fresh random pages.

    A draw is the rng.randrange(free)-th of the region's `free` unsampled
    pages in page order, found by stepping past the samples at or below it
    until it stops moving: no pool of pages is built, so the work grows with
    the samples, not the pages.  The samples must be distinct pages of reg,
    as every routine here keeps them.  Shrinking draws nothing."""
    quota = min(quota, reg.len_pages)
    if len(reg.samples) > quota:
        del reg.samples[quota:]
        del reg.sample_counts[quota:]
        return
    taken = sorted(reg.samples)
    while len(taken) < quota:
        page = first = reg.start_page + rng.randrange(reg.len_pages - len(taken))
        while (past := first + bisect_right(taken, page)) != page:
            page = past
        insort(taken, page)
        reg.samples.append(page)


def split_pass(regions: list[Region], tau2: float,
               rng: random.Random) -> tuple[list[Region], int]:
    """Split regions whose per-sample counts spread beyond tau2 at their
    midpoint.  The halves share the region's samples, so a region needs two
    to split; each half keeps the samples that fall in it and draws fresh
    pages up to its share.  Returns (regions, splits)."""
    out: list[Region] = []
    splits = 0
    for reg in regions:
        counts = reg.sample_counts
        if reg.quota < 2 or not counts or max(counts) - min(counts) <= tau2:
            out.append(reg)
            continue
        mid = reg.start_page + reg.len_pages // 2
        pairs = list(zip(reg.samples, counts))
        for lo, hi, quota in ((reg.start_page, mid, reg.quota // 2),
                              (mid, reg.end_page, reg.quota - reg.quota // 2)):
            kept = [(s, c) for s, c in pairs if lo <= s < hi]
            half = Region(lo, hi - lo, reg.tier,
                          samples=[s for s, _ in kept], sample_counts=[c for _, c in kept],
                          hi=reg.hi, hi_prev=reg.hi_prev, whi=reg.whi,
                          origin_counts=dict(reg.origin_counts))
            _resize_samples(half, quota, rng)
            out.append(half)
        splits += 1
    return out, splits


def redistribute_quota(regions: list[Region], spare: int,
                       rng: random.Random) -> int:
    """Hand `spare` samples out, TOP_K_VARIANCE regions at a time, to the
    regions with the largest hotness swing between the last two intervals,
    moving on when those regions sample all of their pages.  Returns samples
    that could not be placed (every region already samples all of its pages)."""
    if spare <= 0 or not regions:
        return max(0, spare)
    order = sorted(regions, key=lambda r: (-r.variance_score(), r.id))
    remaining = spare
    idx = 0
    while remaining > 0 and idx < len(order):
        recipients = [r for r in order[idx:idx + TOP_K_VARIANCE]
                      if r.quota < r.len_pages]
        if not recipients:
            idx += TOP_K_VARIANCE
            continue
        # the first recipient always gains, so each round places quota
        base, extra = divmod(remaining, len(recipients))
        for i, r in enumerate(recipients):
            grant = min(base + (i < extra), r.len_pages - r.quota, remaining)
            if grant > 0:
                _resize_samples(r, r.quota + grant, rng)
                remaining -= grant
    return remaining


def rebalance_to_budget(regions: list[Region], num_ps: int,
                        rng: random.Random) -> None:
    """Force sum(quota) == num_ps: shave the richest regions or feed the
    highest-variance ones; the one place, after init_regions, that fits the
    sample total to the budget.  Shaving lowers the richest a level at a time,
    never below one sample, and cuts the lowest ids first on the last, partial
    level: the cuts of shaving one sample at a time, with no search per cut."""
    excess = total_quota(regions) - num_ps
    if excess <= 0:
        redistribute_quota(regions, -excess, rng)  # a no-op when balanced
        return
    rich = sorted((r for r in regions if r.quota > 1), key=lambda r: (-r.quota, r.id))
    levels = [r.quota for r in rich] + [1]  # the floor ends the descent
    level, top = levels[0], 0  # rich[:top] stand at level
    while excess > 0 and level > 1:
        while levels[top] == level:
            top += 1
        drop = min(level - levels[top], excess // top)
        if not drop:
            break
        level, excess = level - drop, excess - drop * top
    for i, r in enumerate(sorted(rich[:top], key=attrgetter("id"))):
        _resize_samples(r, max(1, level - (i < excess)), rng)  # cuts draw nothing


def _pebs_sampled_pages(space: MemoryState, slc: TraceSlice) -> list[int]:
    """Counter-sampled pages: every pebs_sample_period-th access that lands in
    the slowest tier during the head PEBS_WINDOW_FRACTION of the slice.
    Like `apply_access`, it requires every page `>= 0` (`AccessTrace`)."""
    period = space.cost_model.pebs_sample_period
    topology, page_tier = space.topology, space.page_tier
    slowest = topology.index[topology.slowest_tier]
    hits = 0
    pages = []
    for vpage in slc.head_fraction(PEBS_WINDOW_FRACTION).pages():
        if page_tier[vpage] == slowest:
            hits += 1
            if hits % period == 0:
                pages.append(vpage)
    return pages


class Profiler:
    """Owns the region set and runs the per-interval profiling pipeline.

    `regions` is a partition of the profiled pages: sorted by start_page,
    disjoint, and each region's pages on its tier.  Every method keeps it so
    and relies on it, so `owner_of` finds a page's region by one bisect."""

    def __init__(self, cfg: ProfilerConfig, space: MemoryState, rng: random.Random,
                 pebs_assist: bool = True):
        self.cfg = cfg
        self.space = space
        self.pebs_assist = pebs_assist  # counter nominations drive the slowest tier
        self.rng = rng
        self.num_ps = 0  # samples per scan round; set from measured app time
        self.regions: list[Region] = []
        self.active_ids: set[int] = set()
        self.merges = 0  # running totals, never reset
        self.splits = 0
        self.initialized = False

    # -- region formation ----------------------------------------------------

    def init_regions(self, first_slice: TraceSlice, app_time: float) -> None:
        """First-interval formation from the slice's app time: every window on the
        faster tiers; on the slowest tier, only counter-nominated windows with
        pebs_assist and every window without.  Spare samples are dealt one
        draw at a time, round-robin in page order, to regions with room."""
        self.set_budget(app_time)  # no regions yet: only sets num_ps
        self._add_uncovered()
        if self.pebs_assist:
            self._pebs_regions(_pebs_sampled_pages(self.space, first_slice))
        regions = self.regions
        surplus = min(self.num_ps - total_quota(regions),
                      sum(r.len_pages - r.quota for r in regions))
        i = 0
        while surplus > 0:
            reg = regions[i % len(regions)]
            if reg.quota < reg.len_pages:
                _resize_samples(reg, reg.quota + 1, self.rng)
                surplus -= 1
            i += 1
        self.initialized = True

    def _pebs_regions(self, pages: list[int]) -> list[Region]:
        """Add a region for each counter-sampled page that no region holds:
        the uncovered piece of the page's slowest-tier run in its window,
        with the page as its first sample.  Returns the regions added."""
        slowest = self.space.topology.slowest_tier
        window = self.cfg.default_region_pages
        new = []
        for page in pages:
            w0 = page - page % window
            piece = owner_of(self._uncovered_regions([slowest], w0, w0 + window), page)
            if piece is not None:
                piece.samples.append(page)
                insort(self.regions, piece, key=_start_page)
                new.append(piece)
        return new

    def set_budget(self, app_time: float) -> None:
        """Resize the quotas to the samples `app_time` affords."""
        self.num_ps = compute_budget(self.cfg, self.space.cost_model, app_time)
        rebalance_to_budget(self.regions, self.num_ps, self.rng)

    def _uncovered_regions(self, tiers: list[str], lo: int = 0,
                           hi: int | None = None) -> list[Region]:
        """Sample-less regions over the mapped window runs of `tiers` in
        [lo, hi) that no region covers, tier by tier in the order given."""
        regions = self.regions
        runs = self.space.tier_runs(lo, hi, window=self.cfg.default_region_pages)
        fresh = []
        for tier in tiers:
            for start, ln, run_tier in runs:
                if run_tier != tier:
                    continue
                run_lo, run_hi = start, start + ln
                first = max(0, bisect_right(regions, run_lo, key=_start_page) - 1)
                for r in islice(regions, first, None):
                    if r.start_page >= run_hi:
                        break
                    if r.start_page > run_lo:
                        fresh.append(Region(run_lo, r.start_page - run_lo, tier))
                    run_lo = max(run_lo, r.end_page)
                if run_lo < run_hi:
                    fresh.append(Region(run_lo, run_hi - run_lo, tier))
        return fresh

    def _add_uncovered(self) -> list[Region]:
        """Add a one-sample region over each mapped window run no region
        covers: the faster tiers in tier order, then the slowest tier unless
        pebs_assist leaves it to counter nominations.  Returns them."""
        slowest = self.space.topology.slowest_tier
        tiers = [t for t in self.space.topology.tier_ids if t != slowest]
        if not self.pebs_assist:
            tiers.append(slowest)
        fresh = self._uncovered_regions(tiers)
        for reg in fresh:
            _resize_samples(reg, 1, self.rng)
        self.regions.extend(fresh)
        self.regions.sort(key=_start_page)
        return fresh

    def adopt_new_pages(self) -> None:
        """Fold pages mapped since the last interval into fresh regions."""
        if self._add_uncovered():
            rebalance_to_budget(self.regions, self.num_ps, self.rng)

    def select_active(self, slc: TraceSlice) -> None:
        """Choose which regions are scanned this interval.  All faster-tier
        regions always are; slowest-tier regions need a counter nomination,
        whose first page becomes the region's first sample."""
        slowest = self.space.topology.slowest_tier
        if not self.pebs_assist:
            self.active_ids = {r.id for r in self.regions}
            return
        active = {r.id for r in self.regions if r.tier != slowest}
        nominated: dict[int, tuple[Region, int]] = {}
        fresh_pages = []
        for page in _pebs_sampled_pages(self.space, slc):
            owner = owner_of(self.regions, page)
            if owner is None:
                fresh_pages.append(page)
            else:
                nominated.setdefault(owner.id, (owner, page))
        new = self._pebs_regions(fresh_pages)
        if new:
            active.update(r.id for r in new)
            rebalance_to_budget(self.regions, self.num_ps, self.rng)
        for owner, page in nominated.values():
            active.add(owner.id)
            if page not in owner.samples:
                owner.samples[0] = page
                if owner.sample_counts:
                    owner.sample_counts[0] = 0
        self.active_ids = active

    # -- per-interval profiling ----------------------------------------------

    def profile_interval(self, slc: TraceSlice) -> list[Region]:
        """Scan the scheduled samples of active regions (`scan_samples`) over
        the replayed slice: a count and `hi` hold this interval's accesses
        only.  Returns the regions scanned, in region order; an active
        region the scan-budget clamp leaves no sample is not among them and
        keeps its old `hi`."""
        space, cfg = self.space, self.cfg
        eff = effective_scan_cost(cfg, space.cost_model)
        actives = [r for r in self.regions if r.id in self.active_ids]
        budget_left = self.num_ps
        scheduled = []
        clamped = 0
        for r in actives:
            take = min(r.quota, budget_left)
            clamped += take < r.quota
            if take > 0:
                scheduled.append((r, r.samples[:take]))
                budget_left -= take
        if clamped:
            log.warning("scan budget clamp: %d of %d active regions get fewer "
                        "samples than their quota", clamped, len(actives))
        pages = [page for _, samples in scheduled for page in samples]
        counts = iter(scan_samples(space, slc, pages, cfg.num_scans, eff))
        for r, samples in scheduled:
            row = list(islice(counts, len(samples)))
            r.sample_counts = row + [0] * (len(r.samples) - len(row))
            r.hi_prev = r.hi
            r.hi = sum(row) / len(row)
        if cfg.origin_sampling:
            sample_origin(self.regions, self.active_ids, slc, cfg)
        return [r for r, _ in scheduled]

    def end_interval(self) -> None:
        """Merge, split, then rebalance the sample lists to the budget:
        merging halves a pair's samples and splitting shares them, and
        rebalance_to_budget alone brings the total back to num_ps."""
        cfg = self.cfg
        regions = merge_pass(self.regions, cfg.tau1)
        self.merges += len(self.regions) - len(regions)
        regions, splits = split_pass(regions, cfg.tau2, self.rng)
        self.splits += splits
        rebalance_to_budget(regions, self.num_ps, self.rng)
        self.regions = regions


def sample_origin(regions: list[Region], active_ids: set[int], slc: TraceSlice,
                  cfg: ProfilerConfig) -> None:
    """Record accessor nodes: one hint-fault capture per HINT_FAULT_PERIOD
    scheduled scans, taking the region's first accesses in the slice."""
    want = {r.id: (r.quota * cfg.num_scans) // HINT_FAULT_PERIOD
            for r in regions if r.id in active_ids}
    pending = sum(want.values())
    for vpage, node in zip(slc.pages(), slc.nodes()):
        if not pending:
            break
        r = owner_of(regions, vpage)
        if r is not None and want.get(r.id):
            r.origin_counts[node] = r.origin_counts.get(node, 0) + 1
            want[r.id] -= 1
            pending -= 1


def snapshot_rows(interval: int, regions: list[Region]) -> list[list]:
    """Rows for the profiler CSV: interval,region_id,start_page,len_pages,tier,quota,hi,whi."""
    rows = []
    for r in regions:
        whi = r.whi if r.whi is not None else 0.0
        rows.append([interval, r.id, r.start_page, r.len_pages, r.tier,
                     r.quota, f"{r.hi:.6f}", f"{whi:.6f}"])
    return rows
