"""Plan execution under the four-step migration cost model.

Synchronous moves expose alloc+unmap+copy+map per page.  Asynchronous moves
expose only unmap+map while helper agents handle alloc+copy off the critical
path; a write landing inside the copy window forces a fallback to the
synchronous path for the remaining and dirtied pages.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

from .memmodel import CostModel, MemoryState, TiersimError
from .policy import MigrationPlan
from .profiler import Region


@dataclass(frozen=True)
class TimedWrite:
    t: float
    vpage: int


class ProjectedWrites(Sequence):
    """Writes held as two columns: item k is TimedWrite(times[k], pages[k]),
    built only when read.  Floats and ints are not tracked by the garbage
    collector, so a long projection costs no collections, and the copy
    windows scan the columns without building an object per write."""

    __slots__ = ("times", "pages")

    def __init__(self, times: list[float], pages: list[int]):
        self.times = times
        self.pages = pages

    @classmethod
    def of(cls, writes: Sequence[TimedWrite]) -> ProjectedWrites:
        """`writes` itself when it is a ProjectedWrites, else its columns."""
        if isinstance(writes, cls):
            return writes
        return cls([w.t for w in writes], [w.vpage for w in writes])

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k: int) -> TimedWrite:
        return TimedWrite(self.times[k], self.pages[k])

    def __iter__(self):
        return map(TimedWrite, self.times, self.pages)


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

    def exposed_total(self) -> float:
        return sum(e.exposed_cost for e in self.entries)


class PlanExecutionError(TiersimError):
    def __init__(self, message: str, report: MigrationReport, cause: Exception):
        super().__init__(message)
        self.report = report
        self.cause = cause


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
    ascending in `t` and holds only writes before `until` (pass the end of
    the plan's last copy window: no later write can land in any window)."""
    page_tier, num_pages = space.page_tier, space.num_pages
    access_cost = space.topology.access_cost
    t = start_time
    times, pages = [], []
    for vpage, is_write, node in slc.events():
        tier = page_tier[vpage] if 0 <= vpage < num_pages else None
        t += access_cost(node, tier) if tier is not None else 1.0
        if t >= until:
            break
        if is_write:
            times.append(t)
            pages.append(vpage)
    return ProjectedWrites(times, pages)


def migrate_region_sync(space: MemoryState, region: Region, dst: str) -> float:
    """Move every page on the critical path; returns the exposed cost."""
    cm = space.cost_model
    cost = region.len_pages * cm.sync_page_cost()
    space.move_pages(range(region.start_page, region.end_page), dst)
    space.ledger.migration_exposed += cost
    region.tier = dst
    return cost


def migrate_region_async(space: MemoryState, region: Region, dst: str,
                         concurrent: Sequence[TimedWrite], start_time: float):
    """Background alloc+copy, exposed unmap+map.  Returns (exposed,
    background) or the first in-window write (the fallback signal).
    `concurrent` must be ascending in `t`."""
    cm = space.cost_model
    per_page_bg = cm.step_alloc + cm.step_copy
    bg = region.len_pages * per_page_bg
    window_end = start_time + bg
    writes = ProjectedWrites.of(concurrent)
    times, pages = writes.times, writes.pages
    lo = bisect_left(times, start_time)
    for k in range(lo, bisect_left(times, window_end, lo)):
        if start_time <= times[k] < window_end and region.contains(pages[k]):
            return TimedWrite(times[k], pages[k])
    exposed = region.len_pages * (cm.step_unmap + cm.step_map)
    space.move_pages(range(region.start_page, region.end_page), dst)
    space.ledger.migration_exposed += exposed
    space.ledger.migration_background += bg
    region.tier = dst
    return exposed, bg


def migrate_region_adaptive(space: MemoryState, region: Region, dst: str,
                            concurrent: Sequence[TimedWrite],
                            start_time: float) -> MoveReport:
    """Try the async copy; on a concurrent write, truncate the window there,
    charge the spent background work plus a synchronous pass over the
    remaining and dirtied pages on the exposed ledger."""
    cm = space.cost_model
    src = region.tier
    writes = ProjectedWrites.of(concurrent)
    result = migrate_region_async(space, region, dst, writes, start_time)
    if isinstance(result, tuple):
        exposed, bg = result
        return MoveReport(region.id, src, dst, "async", exposed, bg, 0)
    first_write: TimedWrite = result
    per_page_bg = cm.step_alloc + cm.step_copy
    copied = min(region.len_pages,
                 int(math.floor((first_write.t - start_time) / per_page_bg)))
    # every page written inside the (truncated) window is recopied; only the
    # ones whose background copy had finished cost an extra copy step
    times, pages = writes.times, writes.pages
    lo = bisect_left(times, start_time)
    dirty = {pages[k] for k in range(lo, bisect_right(times, first_write.t, lo))
             if start_time <= times[k] <= first_write.t and region.contains(pages[k])}
    recopy_cost = sum(cm.step_copy for p in dirty if p < region.start_page + copied)
    exposed = (region.len_pages * cm.sync_page_cost()) + recopy_cost
    space.move_pages(range(region.start_page, region.end_page), dst)
    space.ledger.migration_exposed += exposed
    region.tier = dst
    return MoveReport(region.id, src, dst, "async_fallback", exposed, 0.0, len(dirty))


def _dispatch(space, region, dst, mode, concurrent, start_time) -> MoveReport:
    src = region.tier
    if mode == "sync":
        exposed = migrate_region_sync(space, region, dst)
        return MoveReport(region.id, src, dst, "sync", exposed, 0.0, 0)
    if mode == "async":
        result = migrate_region_async(space, region, dst, concurrent, start_time)
        if isinstance(result, tuple):
            return MoveReport(region.id, src, dst, "async", result[0], result[1], 0)
        # pure-async callers treat a fallback signal as a sync move
        exposed = migrate_region_sync(space, region, dst)
        return MoveReport(region.id, src, dst, "sync", exposed, 0.0, 0)
    if mode == "adaptive":
        return migrate_region_adaptive(space, region, dst, concurrent, start_time)
    raise TiersimError(f"unknown migration mode {mode!r}")


def execute_plan(space: MemoryState, plan: MigrationPlan, regions: dict[int, Region],
                 mode: str = "sync",
                 concurrent: Sequence[TimedWrite] | None = None,
                 start_time: float | None = None) -> MigrationReport:
    """Run a plan's moves in order (demotions come first by construction).

    Copy windows are laid back to back (see `copy_windows`): each move's
    window starts where the previous one ended, whether or not it fell back
    early.  `concurrent` must be ascending in `t` and hold every write that
    lands before the last window's end, as `project_write_times` gives it.
    A failing move aborts the rest and surfaces the partial report.
    """
    report = MigrationReport()
    concurrent = ProjectedWrites.of(concurrent or [])
    t0 = space.clock if start_time is None else start_time
    for mv, t in zip(plan.moves, copy_windows(plan, regions, space.cost_model, t0)):
        region = regions[mv.region_id]
        try:
            entry = _dispatch(space, region, mv.dst, mode, concurrent, t)
        except TiersimError as exc:
            report.completed = False
            raise PlanExecutionError(
                f"move of region {mv.region_id} to {mv.dst} failed: {exc}",
                report, exc) from exc
        report.entries.append(entry)
    return report


def report_rows(interval: int, report: MigrationReport) -> list[list]:
    """Rows for the migration CSV:
    interval,region_id,src,dst,mechanism,exposed_cost,background_cost,recopied_pages."""
    return [[interval, e.region_id, e.src, e.dst, e.mechanism,
             f"{e.exposed_cost:.6f}", f"{e.background_cost:.6f}", e.recopied_pages]
            for e in report.entries]
