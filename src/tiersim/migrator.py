"""Plan execution under the four-step migration cost model.

A sync move exposes alloc+unmap+copy+map per page, an async move unmap+map
while alloc+copy run off the critical path in a copy window.  A write to the
region inside the window makes mode `async` move synchronously and mode
`adaptive` fall back, exposing len_pages x sync_page_cost plus step_copy for
each dirtied page whose background copy had already finished.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .memmodel import CostModel, MemoryState, TiersimError
from .policy import MigrationPlan
from .profiler import Region


class ProjectedWrites:
    """Writes as two columns, ascending in time: write k lands on page
    pages[k] at times[k].  Floats and ints are not tracked by the garbage
    collector, so a long projection costs no collections."""

    __slots__ = ("times", "pages")

    def __init__(self, times: list[float], pages: list[int]):
        self.times = times
        self.pages = pages

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class MoveReport:
    region_id: int
    src: str
    dst: str
    mechanism: str  # sync | async | async_fallback
    exposed_cost: float
    background_cost: float
    recopied_pages: int


@dataclass
class MigrationReport:
    entries: list[MoveReport] = field(default_factory=list)
    completed: bool = True


class PlanExecutionError(TiersimError):
    def __init__(self, message: str, report: MigrationReport):
        super().__init__(message)
        self.report = report


def copy_windows(plan: MigrationPlan, regions: dict[int, Region],
                 cost_model: CostModel, start_time: float) -> list[float]:
    """Where each move's copy window starts, laid back to back from
    start_time, followed by where the last one ends.  The same left-to-right
    sum as each window's own `start + len_pages * (alloc + copy)`, so the
    last entry equals the last window's end exactly."""
    per_page_bg = cost_model.step_alloc + cost_model.step_copy
    t = start_time
    out = [t]
    for mv in plan.moves:
        t += regions[mv.region_id].len_pages * per_page_bg
        out.append(t)
    return out


def project_write_times(space: MemoryState, slc, start_time: float,
                        until: float = math.inf) -> ProjectedWrites:
    """Timestamps for a slice's writes, projecting application cost against
    current placements (unmapped pages count at unit cost).  The result is
    ascending in time and holds only writes before `until` (pass the end of
    the plan's last copy window: no later write can land in any window)."""
    page_tier, num_pages = space.page_tier, space.num_pages
    cost = space.topology.cost
    t = start_time
    times, pages = [], []
    for vpage, is_write, node in slc.events():
        tier = page_tier[vpage] if 0 <= vpage < num_pages else None
        t += cost[node][tier] if tier is not None else 1.0
        if t >= until:
            break
        if is_write:
            times.append(t)
            pages.append(vpage)
    return ProjectedWrites(times, pages)


def migrate_region(space: MemoryState, region: Region, dst: str, mode: str,
                   writes: ProjectedWrites | None, start_time: float) -> MoveReport:
    """Move a region to `dst`, its copy window opening at `start_time`.

    `sync` never looks at the writes.  Otherwise the first write to the
    region inside the window decides: with none the move is async; with one,
    `async` moves synchronously and `adaptive` truncates the window there,
    exposing len_pages x sync_page_cost plus step_copy for each dirtied page
    already copied, and counting every page dirtied so far as recopied.
    """
    if mode not in ("sync", "async", "adaptive"):
        raise TiersimError(f"unknown migration mode {mode!r}")
    cm = space.cost_model
    per_page_bg = cm.step_alloc + cm.step_copy
    background = region.len_pages * per_page_bg
    first = None  # when the first write to the region lands in the window
    if mode != "sync" and writes:
        times, pages = writes.times, writes.pages
        lo = bisect_left(times, start_time)
        for k in range(lo, bisect_left(times, start_time + background, lo)):
            if region.contains(pages[k]):
                first = times[k]
                break
    mechanism, recopied = "async", 0
    if mode == "sync" or (mode == "async" and first is not None):
        mechanism, background = "sync", 0.0
        exposed = region.len_pages * cm.sync_page_cost()
    elif first is None:
        exposed = region.len_pages * (cm.step_unmap + cm.step_map)
    else:
        copied_end = region.start_page + min(
            region.len_pages, int(math.floor((first - start_time) / per_page_bg)))
        dirty = {pages[k] for k in range(lo, bisect_right(times, first, lo))
                 if region.contains(pages[k])}
        recopy_cost = sum(cm.step_copy for p in dirty if p < copied_end)
        mechanism, background, recopied = "async_fallback", 0.0, len(dirty)
        exposed = (region.len_pages * cm.sync_page_cost()) + recopy_cost
    src = region.tier
    space.move_pages(range(region.start_page, region.end_page), dst)
    space.ledger.migration_exposed += exposed
    space.ledger.migration_background += background
    region.tier = dst
    return MoveReport(region.id, src, dst, mechanism, exposed, background, recopied)


def execute_plan(space: MemoryState, plan: MigrationPlan, regions: dict[int, Region],
                 mode: str = "sync", writes: ProjectedWrites | None = None,
                 start_time: float | None = None) -> MigrationReport:
    """Run a plan's moves in order (demotions come first by construction).

    Copy windows are laid back to back (see `copy_windows`): each move's
    window starts where the previous one ended, whether or not it fell back
    early.  `writes` must hold every write that lands before the last
    window's end, as `project_write_times` gives it.  A failing move aborts
    the rest and surfaces the partial report.
    """
    report = MigrationReport()
    t0 = space.clock if start_time is None else start_time
    for mv, t in zip(plan.moves, copy_windows(plan, regions, space.cost_model, t0)):
        try:
            entry = migrate_region(space, regions[mv.region_id], mv.dst, mode, writes, t)
        except TiersimError as exc:
            report.completed = False
            raise PlanExecutionError(
                f"move of region {mv.region_id} to {mv.dst} failed: {exc}",
                report) from exc
        report.entries.append(entry)
    return report


def report_rows(interval: int, report: MigrationReport) -> list[list]:
    """Rows for the migration CSV:
    interval,region_id,src,dst,mechanism,exposed_cost,background_cost,recopied_pages."""
    return [[interval, e.region_id, e.src, e.dst, e.mechanism,
             f"{e.exposed_cost:.6f}", f"{e.background_cost:.6f}", e.recopied_pages]
            for e in report.entries]
