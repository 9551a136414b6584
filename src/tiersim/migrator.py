"""Plan execution under the four-step migration cost model.

A sync move exposes alloc+unmap+copy+map per page, an async move unmap+map
while alloc+copy run off the critical path in a copy window.  A write to the
region inside the window makes mode `async` move synchronously and mode
`adaptive` fall back, exposing len_pages x sync_page_cost plus step_copy for
each dirtied page whose background copy had already finished.

`execute_plan` runs a plan, the list of moves that each name their region.
It lays the copy windows itself and projects the writes they may meet.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .memmodel import CostModel, MemoryState, TiersimError, UnmappedPageError
from .policy import Move
from .profiler import Region
from .workload import TraceSlice


class ProjectedWrites:
    """Writes as two columns, ascending in time: write k lands on page
    pages[k] at times[k].  `pages` is an array('I'), like the trace's page
    column, and `times` an array('d'): twelve bytes a write, with no boxed
    float or int.  `bisect` and the window scans read them as they would
    lists, boxing only the entries they touch."""

    __slots__ = ("times", "pages")

    def __init__(self, times: array, pages: array):
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


class PlanExecutionError(TiersimError):
    """A move failed; the moves after it did not run."""


def copy_windows(moves: list[Move], cost_model: CostModel,
                 start_time: float) -> list[float]:
    """Where each move's copy window starts, laid back to back from
    start_time, followed by where the last one ends.  The same left-to-right
    sum as each window's own `start + len_pages * (alloc + copy)`, so the
    last entry equals the last window's end exactly."""
    per_page_bg = cost_model.step_alloc + cost_model.step_copy
    t = start_time
    out = [t]
    for mv in moves:
        t += mv.region.len_pages * per_page_bg
        out.append(t)
    return out


def project_write_times(space: MemoryState, slc, start_time: float,
                        until: float = math.inf) -> ProjectedWrites:
    """Timestamps for a slice's writes, projecting application cost against
    current placements at one lookup an event: `topology.cost_rows` lists
    the nodes' cost rows by node id, padded so that UNMAPPED costs 1.0, and
    a page past the footprint raises UnmappedPageError, as in
    `apply_access`.  Each timestamp is `start_time` plus the costs of the
    events up to it, added left to right: a projection of accesses not yet
    made, which the clock (`MemoryState.app_cost`) never reads.  A trace's
    constant node is repeated, with no column read.  When every access
    writes, each event's time is kept and the written pages are the slice's
    leading pages, one slice of the page column, with no write flag tested:
    7.4-8.0 ms over one gups-big.cfg interval, where testing each event's
    flag took 10.0-10.1 ms (CPython 3.11).  The result is ascending in time
    and holds only writes before `until` (pass the end of the plan's last
    copy window: no later write can land in any window).
    Like `apply_access`, it requires every page `>= 0` (`AccessTrace`)."""
    page_tier, t, cost = space.page_tier, start_time, space.topology.cost_rows
    times = array("d")
    add_time = times.append
    try:
        if slc.trace.write:
            for vpage, node in zip(slc.pages(), slc.nodes()):
                t += cost[node][page_tier[vpage]]
                if t >= until:
                    break
                add_time(t)
            pages = slc.trace.vpages[slc.lo:slc.lo + len(times)]
        else:
            pages = array("I")
            add_page = pages.append
            for vpage, is_write, node in slc.events():
                t += cost[node][page_tier[vpage]]
                if t >= until:
                    break
                if is_write:
                    add_time(t)
                    add_page(vpage)
    except IndexError:
        raise UnmappedPageError(
            f"page {vpage} is outside the {space.num_pages}-page footprint") from None
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
    s0, s1 = region.start_page, region.end_page
    if mode != "sync" and writes:
        times, pages = writes.times, writes.pages
        lo = bisect_left(times, start_time)
        for k in range(lo, bisect_left(times, start_time + background, lo)):
            if s0 <= pages[k] < s1:
                first = times[k]
                break
    mechanism, recopied = "async", 0
    if mode == "sync" or (mode == "async" and first is not None):
        mechanism, background = "sync", 0.0
        exposed = region.len_pages * cm.sync_page_cost()
    elif first is None:
        exposed = region.len_pages * (cm.step_unmap + cm.step_map)
    else:
        copied_end = s0 + min(
            region.len_pages, int(math.floor((first - start_time) / per_page_bg)))
        dirty = {pages[k] for k in range(lo, bisect_right(times, first, lo))
                 if s0 <= pages[k] < s1}
        recopy_cost = sum(cm.step_copy for p in dirty if p < copied_end)
        mechanism, background, recopied = "async_fallback", 0.0, len(dirty)
        exposed = (region.len_pages * cm.sync_page_cost()) + recopy_cost
    src = region.tier
    space.move_pages(range(s0, s1), dst)
    space.ledger.migration_exposed += exposed
    space.ledger.migration_background += background
    region.tier = dst
    return MoveReport(region.id, src, dst, mechanism, exposed, background, recopied)


def execute_plan(space: MemoryState, moves: list[Move], mode: str = "sync",
                 next_slice: TraceSlice | None = None) -> list[MoveReport]:
    """Run the moves in order (demotions come first by construction) and
    report each.

    The copy windows are laid back to back from the app time so far,
    `space.app_cost()`, read once (see `copy_windows`): each move's window
    starts where the previous one ended, whether or not it fell back early.
    Outside mode `sync`, the writes of `next_slice` (the interval that runs
    while the copies do; None after the last) are projected from that time
    up to the last window's end.  A failing move aborts the rest with
    PlanExecutionError.
    """
    now = space.app_cost()
    starts = copy_windows(moves, space.cost_model, now)
    writes = None
    if mode != "sync" and next_slice is not None:
        writes = project_write_times(space, next_slice, now, starts[-1])
    reports = []
    for mv, t in zip(moves, starts):
        try:
            reports.append(migrate_region(space, mv.region, mv.dst, mode, writes, t))
        except TiersimError as exc:
            raise PlanExecutionError(
                f"move of region {mv.region_id} to {mv.dst} failed: {exc}") from exc
    return reports


def report_rows(interval: int, reports: list[MoveReport]) -> list[list]:
    """Rows for the migration CSV:
    interval,region_id,src,dst,mechanism,exposed_cost,background_cost,recopied_pages."""
    return [[interval, e.region_id, e.src, e.dst, e.mechanism,
             f"{e.exposed_cost:.6f}", f"{e.background_cost:.6f}", e.recopied_pages]
            for e in reports]
