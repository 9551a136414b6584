"""Adaptive region-based profiling under a hard per-interval scan budget."""
from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field

from .memmodel import BASE_PAGE_BYTES, BudgetError, CostModel, MemoryState, require
from .workload import TraceSlice

log = logging.getLogger(__name__)

# how many of the highest-variance regions share out saved quota at a time
TOP_K_VARIANCE = 5


@dataclass
class ProfilerConfig:
    """Every system's profiling in interval i may cost overhead_constraint x app(i-1)."""
    overhead_constraint: float = 0.05
    num_scans: int = 3
    tau1: float | None = None                # merge threshold, default num_scans/3
    tau2: float | None = None                # split threshold, default 2*num_scans/3
    pebs_window_fraction: float = 0.10
    hint_fault_period: int = 12
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
        require(0 <= self.pebs_window_fraction <= 1, "pebs_window_fraction",
                "must be in [0, 1]")
        require(self.default_region_pages >= 1, "default_region_pages", "must be >= 1")
        require(self.hint_fault_period >= 1 or not self.origin_sampling,
                "hint_fault_period", "must be >= 1 with origin_sampling")


def effective_scan_cost(cfg: ProfilerConfig, cost: CostModel) -> float:
    """Per-scan cost including the amortized hint fault (one per
    hint_fault_period scans) when origin sampling is on."""
    if cfg.origin_sampling:
        return cost.scan_cost * (1.0 + cost.hint_fault_multiplier / cfg.hint_fault_period)
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
    start_page: int
    len_pages: int
    tier: str
    quota: int
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
    def end_page(self) -> int:
        return self.start_page + self.len_pages

    @property
    def bytes(self) -> int:
        return self.len_pages * BASE_PAGE_BYTES

    def variance_score(self) -> float:
        return abs(self.hi - self.hi_prev)

    def contains(self, page: int) -> bool:
        return self.start_page <= page < self.end_page


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


def _weighted(a: Region, b: Region, attr: str) -> float:
    va = getattr(a, attr)
    vb = getattr(b, attr)
    if attr == "whi":
        va = a.hi if va is None else va
        vb = b.hi if vb is None else vb
    return (va * a.len_pages + vb * b.len_pages) / (a.len_pages + b.len_pages)


def merge_pass(regions: list[Region], tau1: float) -> tuple[list[Region], int]:
    """Merge contiguous same-tier neighbours whose hotness differs by less
    than tau1.  Sweeps until stable (merging shifts the weighted hotness, so
    new pairs can qualify), which makes an immediate second pass a no-op."""
    total_saved = 0
    current = sorted(regions, key=lambda r: r.start_page)
    while True:
        current, saved, changed = _merge_sweep(current, tau1)
        total_saved += saved
        if not changed:
            return current, total_saved


def _merge_sweep(regions: list[Region], tau1: float) -> tuple[list[Region], int, bool]:
    saved = 0
    changed = False
    out: list[Region] = []
    for reg in regions:
        if out:
            prev = out[-1]
            if (prev.tier == reg.tier and prev.end_page == reg.start_page
                    and abs(prev.hi - reg.hi) < tau1):
                merged_quota = max(1, (prev.quota + reg.quota) // 2)
                saved += prev.quota + reg.quota - merged_quota
                samples = _interleave(prev.samples, reg.samples)
                counts = _interleave(prev.sample_counts, reg.sample_counts)
                origin = dict(prev.origin_counts)
                for n, c in reg.origin_counts.items():
                    origin[n] = origin.get(n, 0) + c
                merged = Region(
                    start_page=prev.start_page,
                    len_pages=prev.len_pages + reg.len_pages,
                    tier=prev.tier,
                    quota=merged_quota,
                    samples=samples[:merged_quota],
                    sample_counts=counts,
                    hi=_weighted(prev, reg, "hi"),
                    hi_prev=_weighted(prev, reg, "hi_prev"),
                    whi=_weighted(prev, reg, "whi"),
                    origin_counts=origin,
                )
                out[-1] = merged
                changed = True
                continue
        out.append(reg)
    return out, saved, changed


def _unsampled_pages(reg: Region) -> list[int]:
    have = set(reg.samples)
    return [p for p in range(reg.start_page, reg.end_page) if p not in have]


def _top_up_samples(reg: Region, rng: random.Random,
                    pool: list[int] | None = None) -> None:
    """Grow reg.samples to reg.quota with fresh random pages (capped at size).

    Picks are drawn from `pool`, the region's unsampled pages in page order,
    and popped from it.  Without a pool a fresh one is built.  A caller that
    tops the same region up repeatedly may pass the same list each time, as
    long as nothing else changes reg.samples in between: the draws are then
    exactly those of fresh calls."""
    reg.quota = min(reg.quota, reg.len_pages)
    if pool is None:
        pool = _unsampled_pages(reg)
    while len(reg.samples) < reg.quota and pool:
        pick = pool.pop(rng.randrange(len(pool)))
        reg.samples.append(pick)
    if len(reg.samples) > reg.quota:
        del reg.samples[reg.quota:]
        del reg.sample_counts[reg.quota:]


def split_pass(regions: list[Region], tau2: float, rng: random.Random,
               pool: int) -> tuple[list[Region], int, int]:
    """Split regions whose per-sample counts spread beyond tau2 at their
    midpoint.  Returns (regions, leftover pool, splits)."""
    out: list[Region] = []
    splits = 0
    for reg in sorted(regions, key=lambda r: r.start_page):
        counts = reg.sample_counts
        if len(counts) < 1 or reg.len_pages < 2:
            out.append(reg)
            continue
        if max(counts) - min(counts) <= tau2:
            out.append(reg)
            continue
        mid = reg.start_page + reg.len_pages // 2
        if reg.quota == 1:
            if pool < 1:
                out.append(reg)
                continue
            pool -= 1
            q_left, q_right = 1, 1
        else:
            q_left = reg.quota // 2
            q_right = reg.quota - q_left
        pairs = list(zip(reg.samples, reg.sample_counts))
        left_pairs = [(s, c) for s, c in pairs if s < mid]
        right_pairs = [(s, c) for s, c in pairs if s >= mid]
        halves = []
        for (s0, ln, q, prs) in (
                (reg.start_page, mid - reg.start_page, q_left, left_pairs),
                (mid, reg.end_page - mid, q_right, right_pairs)):
            half = Region(
                start_page=s0, len_pages=ln, tier=reg.tier, quota=q,
                samples=[s for s, _ in prs],
                sample_counts=[c for _, c in prs],
                hi=reg.hi, hi_prev=reg.hi_prev, whi=reg.whi,
                origin_counts=dict(reg.origin_counts),
            )
            _top_up_samples(half, rng)
            halves.append(half)
        # _top_up_samples can cap a half's quota at its page count; anything
        # the halves could not hold flows back into the pool.
        budget_in = reg.quota + (1 if reg.quota == 1 else 0)
        pool += budget_in - halves[0].quota - halves[1].quota
        out.extend(halves)
        splits += 1
    return out, pool, splits


def redistribute_quota(regions: list[Region], saved_quota: int,
                       rng: random.Random) -> int:
    """Hand saved quota out, TOP_K_VARIANCE regions at a time, to the regions
    with the largest hotness swing between the last two intervals, moving on
    when those regions sample all of their pages.  Returns quota that could
    not be placed (every region already samples all of its pages)."""
    if saved_quota <= 0 or not regions:
        return max(0, saved_quota)
    order = sorted(regions, key=lambda r: (-r.variance_score(), r.id))
    remaining = saved_quota
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
                r.quota += grant
                _top_up_samples(r, rng)
                remaining -= grant
    return remaining


def rebalance_to_budget(regions: list[Region], num_ps: int,
                        rng: random.Random) -> None:
    """Force sum(quota) == num_ps: shave the richest regions or feed the
    highest-variance ones.  No-op when the budget already balances."""
    excess = total_quota(regions) - num_ps
    while excess > 0:
        donor = max((r for r in regions if r.quota > 1),
                    key=lambda r: (r.quota, -r.id), default=None)
        if donor is None:
            break
        donor.quota -= 1
        del donor.samples[donor.quota:]
        del donor.sample_counts[donor.quota:]
        excess -= 1
    if excess < 0:
        redistribute_quota(regions, -excess, rng)


def enforce_budget(regions: list[Region], num_ps: int, cfg: ProfilerConfig,
                   rng: random.Random) -> tuple[list[Region], int, bool]:
    """Escalate the merge threshold until the region count fits the budget.

    tau1 rises one count unit per round, capped at tau2 - 1; the caller's
    configured tau1 is untouched (it applies again next interval).  Returns
    (regions, extra merges, coarsen_flag); the flag asks the caller to double
    the slowest-tier region granularity.
    """
    merges = 0
    if len(regions) <= num_ps:
        return regions, merges, False
    tau1 = cfg.tau1
    cap = cfg.tau2 - 1.0
    while len(regions) > num_ps and tau1 < cap:
        tau1 = min(cap, tau1 + 1.0)
        regions, saved = merge_pass(regions, tau1)
        if saved:
            merges += 1
        redistribute_quota(regions, saved, rng)
    coarsen = len(regions) > num_ps
    if coarsen:
        log.warning("budget escalation exhausted: %d regions > %d samples; "
                    "coarsening slowest-tier region granularity", len(regions), num_ps)
    return regions, merges, coarsen


def _pebs_sampled_pages(space: MemoryState, slc: TraceSlice,
                        cfg: ProfilerConfig) -> list[int]:
    """Counter-sampled pages: every pebs_sample_period-th access that lands in
    the slowest tier during the head fraction of the slice."""
    period = space.cost_model.pebs_sample_period
    slowest = space.topology.slowest_tier
    hits = 0
    pages = []
    for vpage, _, _ in slc.head_fraction(cfg.pebs_window_fraction).events():
        if space.page_tier[vpage] == slowest:
            hits += 1
            if hits % period == 0:
                pages.append(vpage)
    return pages


class Profiler:
    """Owns the region set and runs the per-interval profiling pipeline."""

    def __init__(self, cfg: ProfilerConfig, space: MemoryState, seed: int,
                 pebs_assist: bool = True):
        self.cfg = cfg
        self.space = space
        self.pebs_assist = pebs_assist  # counter nominations drive the slowest tier
        self.rng = random.Random(seed)
        self.num_ps = 0  # samples per scan round; set from measured app time
        self.regions: list[Region] = []
        self.active_ids: set[int] = set()
        self.slowest_region_pages = cfg.default_region_pages
        self.merges = 0  # running totals, never reset
        self.splits = 0
        self.initialized = False

    # -- region formation ----------------------------------------------------

    def init_regions(self, first_slice: TraceSlice, app_time: float) -> None:
        """First-interval formation from the slice's app time: every window on the
        faster tiers; on the slowest tier, only counter-nominated windows with
        pebs_assist and every window without."""
        space, cfg = self.space, self.cfg
        self.set_budget(app_time)  # no regions yet: only sets num_ps
        regions = self._uncovered_regions()
        if self.pebs_assist:
            regions.extend(self._pebs_regions(
                _pebs_sampled_pages(space, first_slice, cfg), regions))
        regions.sort(key=lambda r: r.start_page)
        surplus = self.num_ps - total_quota(regions)
        pools: list[list[int] | None] = [None] * len(regions)
        i = 0
        while surplus > 0 and regions:
            k = i % len(regions)
            reg = regions[k]
            if reg.quota < reg.len_pages:
                reg.quota += 1
                if pools[k] is None:
                    pools[k] = _unsampled_pages(reg)
                _top_up_samples(reg, self.rng, pools[k])
                surplus -= 1
            i += 1
            if i >= len(regions) and all(r.quota >= r.len_pages for r in regions):
                break
        regions, extra, coarsen = enforce_budget(regions, self.num_ps, cfg, self.rng)
        self.merges += extra
        if coarsen:
            self.slowest_region_pages *= 2
        self.regions = regions
        self.active_ids = {r.id for r in self.regions}
        self.initialized = True

    def _pebs_regions(self, pages: list[int], covered: list[Region]) -> list[Region]:
        """One region per slowest-tier window run holding a counter-sampled
        page that neither `covered` nor an earlier page's region contains;
        the page is the region's first sample."""
        space = self.space
        slowest = space.topology.slowest_tier
        window = self.slowest_region_pages
        new: dict[int, Region] = {}
        for page in pages:
            if any(r.contains(page) for r in covered) or \
                    any(r.contains(page) for r in new.values()):
                continue
            w0 = page - page % window
            for start, ln, tier in space.tier_runs(w0, w0 + window):
                if tier == slowest and start <= page < start + ln:
                    reg = Region(start, ln, slowest, quota=1, samples=[page])
                    new[reg.id] = reg
                    break
        return list(new.values())

    def set_budget(self, app_time: float) -> None:
        """Resize the quotas to the samples `app_time` affords."""
        self.num_ps = compute_budget(self.cfg, self.space.cost_model, app_time)
        rebalance_to_budget(self.regions, self.num_ps, self.rng)

    def _uncovered_regions(self) -> list[Region]:
        """Fresh quota-1 regions over the mapped window runs no region covers:
        the faster tiers in tier order, then the slowest tier unless
        pebs_assist leaves it to counter nominations."""
        space = self.space
        slowest = space.topology.slowest_tier
        tiers = [t for t in space.topology.tier_ids if t != slowest]
        if not self.pebs_assist:
            tiers.append(slowest)
        covered = sorted(self.regions, key=lambda r: r.start_page)
        runs = space.tier_runs(window=self.cfg.default_region_pages)
        fresh = []
        for tier in tiers:
            for start, ln, run_tier in runs:
                if run_tier != tier:
                    continue
                run_lo, run_hi = start, start + ln
                for r in covered:
                    if r.end_page <= run_lo or r.start_page >= run_hi:
                        continue
                    if r.start_page > run_lo:
                        fresh.append(Region(run_lo, r.start_page - run_lo, tier, quota=1))
                    run_lo = max(run_lo, r.end_page)
                    if run_lo >= run_hi:
                        break
                if run_lo < run_hi:
                    fresh.append(Region(run_lo, run_hi - run_lo, tier, quota=1))
        for reg in fresh:
            _top_up_samples(reg, self.rng)
        return fresh

    def adopt_new_pages(self) -> None:
        """Fold pages mapped since the last interval into fresh regions."""
        fresh = self._uncovered_regions()
        if fresh:
            self.regions.extend(fresh)
            self.regions.sort(key=lambda r: r.start_page)
            rebalance_to_budget(self.regions, self.num_ps, self.rng)

    def select_active(self, slc: TraceSlice) -> None:
        """Choose which regions are scanned this interval.  All faster-tier
        regions always are; slowest-tier regions need a counter nomination."""
        space = self.space
        slowest = space.topology.slowest_tier
        if not self.pebs_assist:
            self.active_ids = {r.id for r in self.regions}
            return
        sampled = _pebs_sampled_pages(space, slc, self.cfg)
        active = {r.id for r in self.regions if r.tier != slowest}
        retarget: dict[int, int] = {}
        fresh_pages = []
        for page in sampled:
            owner = next((r for r in self.regions if r.contains(page)), None)
            if owner is not None:
                active.add(owner.id)
                retarget.setdefault(owner.id, page)
            else:
                fresh_pages.append(page)
        if fresh_pages:
            new = self._pebs_regions(fresh_pages, self.regions)
            self.regions.extend(new)
            self.regions.sort(key=lambda r: r.start_page)
            active.update(r.id for r in new)
            rebalance_to_budget(self.regions, self.num_ps, self.rng)
        for r in self.regions:
            if r.tier == slowest and r.id in retarget and r.samples:
                page = retarget[r.id]
                if page not in r.samples:
                    r.samples[0] = page
                    if r.sample_counts:
                        r.sample_counts[0] = 0
        self.active_ids = active

    # -- per-interval profiling ----------------------------------------------

    def profile_interval(self, slc: TraceSlice) -> int:
        """Replay the slice in num_scans sub-windows through
        `MemoryState.replay`, scanning the sampled pages of active regions
        after each, so a page's count is the number of sub-windows that
        touched it.  Returns scans performed."""
        space, cfg = self.space, self.cfg
        eff = effective_scan_cost(cfg, space.cost_model)
        actives = [r for r in sorted(self.regions, key=lambda r: r.start_page)
                   if r.id in self.active_ids]
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
        counts = {r.id: [0] * len(samples) for r, samples in scheduled}
        scans = 0
        for sub in slc.subwindows(cfg.num_scans):
            space.replay(sub)
            for r, samples in scheduled:
                row = counts[r.id]
                for i, page in enumerate(samples):
                    if space.is_mapped(page):
                        row[i] += space.scan_pte(page, cost=eff)
                        scans += 1
        for r, samples in scheduled:
            row = counts[r.id]
            r.sample_counts = row + [0] * (len(r.samples) - len(row))
            r.hi_prev = r.hi
            r.hi = sum(row) / len(row) if row else 0.0
        if cfg.origin_sampling:
            sample_origin(self.regions, self.active_ids, slc, cfg)
        return scans

    def end_interval(self) -> None:
        """Merge, split, enforce the budget, then rebalance the quotas to it
        (which hands out any spare samples)."""
        cfg = self.cfg
        regions, saved = merge_pass(self.regions, cfg.tau1)
        self.merges += len(self.regions) - len(regions)
        regions, saved, splits = split_pass(regions, cfg.tau2, self.rng, saved)
        self.splits += splits
        regions, extra, coarsen = enforce_budget(regions, self.num_ps, cfg, self.rng)
        self.merges += extra
        if coarsen:
            self.slowest_region_pages *= 2
        rebalance_to_budget(regions, self.num_ps, self.rng)
        self.regions = regions


def sample_origin(regions: list[Region], active_ids: set[int], slc: TraceSlice,
                  cfg: ProfilerConfig) -> None:
    """Record accessor nodes: one hint-fault capture per hint_fault_period
    scheduled scans, taking the region's first accesses in the slice."""
    want: dict[int, int] = {}
    lookup: list[Region] = []
    for r in regions:
        if r.id not in active_ids:
            continue
        captures = (r.quota * cfg.num_scans) // cfg.hint_fault_period
        if captures > 0:
            want[r.id] = captures
            lookup.append(r)
    pending = sum(want.values())
    for vpage, _, node in slc.events():
        if not pending:
            break
        for r in lookup:
            if r.contains(vpage) and want[r.id] > 0:
                r.origin_counts[node] = r.origin_counts.get(node, 0) + 1
                want[r.id] -= 1
                pending -= 1
                break


def snapshot_rows(interval: int, regions: list[Region]) -> list[list]:
    """Rows for the profiler CSV: interval,region_id,start_page,len_pages,tier,quota,hi,whi."""
    rows = []
    for r in sorted(regions, key=lambda r: r.start_page):
        whi = r.whi if r.whi is not None else 0.0
        rows.append([interval, r.id, r.start_page, r.len_pages, r.tier,
                     r.quota, f"{r.hi:.6f}", f"{whi:.6f}"])
    return rows
