"""Plan execution under the four-step migration cost model.

Synchronous moves expose alloc+unmap+copy+map per page.  Asynchronous moves
expose only unmap+map while helper agents handle alloc+copy off the critical
path; a write landing inside the copy window forces a fallback to the
synchronous path for the remaining and dirtied pages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .memmodel import MemoryState, TiersimError
from .policy import MigrationPlan
from .profiler import Region


@dataclass(frozen=True)
class TimedWrite:
    t: float
    vpage: int


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


def project_write_times(space: MemoryState, slc, start_time: float) -> list[TimedWrite]:
    """Timestamps for a slice's writes, projecting application cost against
    current placements (unmapped pages count at unit cost)."""
    t = start_time
    out = []
    for vpage, is_write, node in slc.events():
        tier = space.page_tier[vpage] if 0 <= vpage < space.num_pages else None
        t += space.topology.access_cost(node, tier) if tier is not None else 1.0
        if is_write:
            out.append(TimedWrite(t, vpage))
    return out


def migrate_region_sync(space: MemoryState, region: Region, dst: str) -> float:
    """Move every page on the critical path; returns the exposed cost."""
    cm = space.cost_model
    cost = region.len_pages * cm.sync_page_cost()
    space.move_pages(range(region.start_page, region.end_page), dst)
    space.ledger.migration_exposed += cost
    region.tier = dst
    return cost


def migrate_region_async(space: MemoryState, region: Region, dst: str,
                         concurrent: list[TimedWrite], start_time: float):
    """Background alloc+copy, exposed unmap+map.  Returns (exposed,
    background) or the first in-window write (the fallback signal)."""
    cm = space.cost_model
    per_page_bg = cm.step_alloc + cm.step_copy
    bg = region.len_pages * per_page_bg
    window_end = start_time + bg
    for w in concurrent:
        if w.t >= window_end:
            break
        if start_time <= w.t and region.contains(w.vpage):
            return w
    exposed = region.len_pages * (cm.step_unmap + cm.step_map)
    space.move_pages(range(region.start_page, region.end_page), dst)
    space.ledger.migration_exposed += exposed
    space.ledger.migration_background += bg
    region.tier = dst
    return exposed, bg


def migrate_region_adaptive(space: MemoryState, region: Region, dst: str,
                            concurrent: list[TimedWrite],
                            start_time: float) -> MoveReport:
    """Try the async copy; on a concurrent write, truncate the window there,
    charge the spent background work plus a synchronous pass over the
    remaining and dirtied pages on the exposed ledger."""
    cm = space.cost_model
    src = region.tier
    result = migrate_region_async(space, region, dst, concurrent, start_time)
    if isinstance(result, tuple):
        exposed, bg = result
        return MoveReport(region.id, src, dst, "async", exposed, bg, 0)
    first_write: TimedWrite = result
    per_page_bg = cm.step_alloc + cm.step_copy
    copied = min(region.len_pages,
                 int(math.floor((first_write.t - start_time) / per_page_bg)))
    # every page written inside the (truncated) window is recopied; only the
    # ones whose background copy had finished cost an extra copy step
    dirty = {w.vpage for w in concurrent
             if start_time <= w.t <= first_write.t and region.contains(w.vpage)}
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
                 mode: str = "sync", concurrent: list[TimedWrite] | None = None,
                 start_time: float | None = None) -> MigrationReport:
    """Run a plan's moves in order (demotions come first by construction).

    Copy windows are laid back to back: each move's window starts where the
    previous one ended, whether or not it fell back early.  A failing move
    aborts the rest and surfaces the partial report.
    """
    report = MigrationReport()
    concurrent = concurrent or []
    t = space.clock if start_time is None else start_time
    cm = space.cost_model
    for mv in plan.moves:
        region = regions[mv.region_id]
        try:
            entry = _dispatch(space, region, mv.dst, mode, concurrent, t)
        except TiersimError as exc:
            report.completed = False
            raise PlanExecutionError(
                f"move of region {mv.region_id} to {mv.dst} failed: {exc}",
                report, exc) from exc
        report.entries.append(entry)
        t += region.len_pages * (cm.step_alloc + cm.step_copy)
    return report


def report_rows(interval: int, report: MigrationReport) -> list[list]:
    """Rows for the migration CSV:
    interval,region_id,src,dst,mechanism,exposed_cost,background_cost,recopied_pages."""
    return [[interval, e.region_id, e.src, e.dst, e.mechanism,
             f"{e.exposed_cost:.6f}", f"{e.background_cost:.6f}", e.recopied_pages]
            for e in report.entries]
