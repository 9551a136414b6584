import math
import random
from array import array

import pytest

from tiersim.memmodel import (
    BASE_PAGE_BYTES, CostModel, MemoryState, TiersimError, UnmappedPageError,
    build_topology,
)
from tiersim.migrator import (
    MoveReport, PlanExecutionError, ProjectedWrites, copy_windows,
    execute_plan, migrate_region, project_write_times,
)
from tiersim.policy import Move
from tiersim.profiler import Region
from tiersim.workload import AccessTrace, gen_seq_microbench

from placement import tier_of
from test_memmodel import placed_bytes, tier_names


def make_space(num_pages=2048, caps=(4096, 4096, 4096), map_to="a"):
    ids = ["a", "b", "c"][:len(caps)]
    topo = build_topology({
        "tiers": [{"id": t, "capacity_bytes": c * BASE_PAGE_BYTES,
                   "access_cost": 1.0 + i}
                  for i, (t, c) in enumerate(zip(ids, caps))],
        "nodes": [0],
    })
    space = MemoryState(topo, CostModel(), num_pages)
    if map_to:
        for p in range(num_pages):
            space.map_pages((p,), map_to)
    return space


def reg(start, length, tier="a"):
    return Region(start, length, tier)


def cols(*writes):
    """ProjectedWrites from (time, page) pairs given in ascending time."""
    return ProjectedWrites(array("d", [t for t, _ in writes]),
                           array("I", [p for _, p in writes]))


NO_WRITES = cols()


def slice_of(*events):
    """One interval of (page, is_write) accesses from node 0."""
    pages = [p for p, _ in events]
    return AccessTrace(pages, [w for _, w in events], [0] * len(events),
                       max(1, len(events)), footprint=max(pages, default=-1) + 1
                       ).interval_slice(0)


class TestSync:
    def test_one_page_default_costs(self):
        space = make_space(num_pages=1)
        entry = migrate_region(space, reg(0, 1), "b", "sync", None, 0.0)
        assert entry.exposed_cost == 5.0  # alloc 1 + unmap 1 + copy 2 + map 1
        assert (entry.mechanism, entry.background_cost) == ("sync", 0.0)

    def test_copy_is_40_percent_of_total(self):
        cm = CostModel()
        total = cm.step_alloc + cm.step_unmap + cm.step_copy + cm.step_map
        assert cm.step_copy / total == pytest.approx(0.40)

    def test_moves_every_page_of_the_region(self):
        space = make_space(num_pages=8)
        space.apply_access(3, 0)
        migrate_region(space, reg(0, 8), "b", "sync", None, 0.0)
        assert tier_names(space, 0, 8) == ["b"] * 8

    def test_ignores_writes_in_the_window(self):
        space = make_space(num_pages=8)
        entry = migrate_region(space, reg(0, 8), "b", "sync", cols((1.0, 3)), 0.0)
        assert (entry.mechanism, entry.exposed_cost) == ("sync", 8 * 5.0)

    def test_insufficient_space_is_error(self):
        space = make_space(num_pages=16, caps=(32, 8, 32))
        with pytest.raises(TiersimError):
            migrate_region(space, reg(0, 16), "b", "sync", None, 0.0)

    def test_unknown_mode_is_error(self):
        space = make_space(num_pages=8)
        with pytest.raises(TiersimError, match="unknown migration mode"):
            migrate_region(space, reg(0, 8), "b", "eager", None, 0.0)
        assert tier_of(space, 0) == "a"


class TestAsync:
    def test_read_only_exposed_2_per_page(self):
        space = make_space(num_pages=8)
        entry = migrate_region(space, reg(0, 8), "b", "async", NO_WRITES, 0.0)
        assert entry.mechanism == "async"
        assert entry.exposed_cost == 8 * 2.0
        assert entry.background_cost == 8 * 3.0
        assert space.ledger.migration_background == 8 * 3.0

    def test_write_mid_window_moves_synchronously(self):
        space = make_space(num_pages=8)
        # window is [0, 24); a write to page 3 at t=10 lands inside it
        entry = migrate_region(space, reg(0, 8), "b", "async", cols((10.0, 3)), 0.0)
        assert (entry.mechanism, entry.exposed_cost) == ("sync", 8 * 5.0)
        assert (entry.background_cost, entry.recopied_pages) == (0.0, 0)
        assert space.ledger.migration_background == 0.0
        assert tier_of(space, 0) == "b"

    def test_write_outside_window_or_region_ignored(self):
        space = make_space(num_pages=64)
        writes = cols((5.0, 60), (25.0, 3))
        entry = migrate_region(space, reg(0, 8), "b", "async", writes, 0.0)
        assert entry.mechanism == "async"

    def test_empty_slice_never_falls_back(self):
        space = make_space(num_pages=8)
        for writes in (NO_WRITES, None):
            entry = migrate_region(space, reg(0, 8), "b", "async", writes, 0.0)
            assert entry.mechanism == "async"


class TestAdaptive:
    def test_read_only_records_async(self):
        space = make_space(num_pages=8)
        entry = migrate_region(space, reg(0, 8), "b", "adaptive", NO_WRITES, 0.0)
        assert entry.mechanism == "async"
        assert entry.recopied_pages == 0
        assert entry.exposed_cost == 16.0

    def test_single_mid_window_write_recopies_one(self):
        space = make_space(num_pages=8)
        # per-page background cost 3: page 4 has been copied by t=15
        writes = cols((13.0, 2))
        entry = migrate_region(space, reg(0, 8), "b", "adaptive", writes, 0.0)
        assert entry.mechanism == "async_fallback"
        assert entry.recopied_pages == 1
        # page 2 was already copied (4 pages done by t=13) -> one extra copy
        assert entry.exposed_cost == 8 * 5.0 + 2.0

    def test_uncopied_dirty_page_costs_nothing_extra(self):
        space = make_space(num_pages=8)
        writes = cols((1.0, 6))  # page 6 not yet copied at t=1
        entry = migrate_region(space, reg(0, 8), "b", "adaptive", writes, 0.0)
        assert entry.mechanism == "async_fallback"
        assert entry.recopied_pages == 1
        assert entry.exposed_cost == 8 * 5.0

    def test_write_only_stream_lands_near_sync(self):
        space = make_space(num_pages=64)
        trace = gen_seq_microbench("write_only", 64, passes=4)
        writes = project_write_times(space, trace.interval_slice(0), 0.0)
        entry = migrate_region(space, reg(0, 64), "b", "adaptive", writes, 0.0)
        sync_cost = 64 * 5.0
        assert entry.mechanism == "async_fallback"
        assert abs(entry.exposed_cost - sync_cost) / sync_cost <= 0.10

    def test_dominance_randomized(self):
        rng = random.Random(17)
        for _ in range(50):
            pages = rng.randrange(2, 40)
            space = make_space(num_pages=pages)
            writes = sorted((rng.uniform(0, pages * 3.5), rng.randrange(pages))
                            for _ in range(rng.randrange(0, 6)))
            entry = migrate_region(space, reg(0, pages), "b", "adaptive",
                                   cols(*writes), 0.0)
            sync_equiv = pages * 5.0
            cm = space.cost_model
            dirtied_prefix_bound = entry.recopied_pages * (cm.step_alloc + cm.step_copy)
            assert entry.exposed_cost <= sync_equiv + dirtied_prefix_bound
            if not writes:
                assert entry.exposed_cost < sync_equiv


class TestExecutePlan:
    def test_empty_plan_zero_report(self):
        space = make_space(num_pages=8)
        assert execute_plan(space, [], mode="sync") == []

    def test_demote_then_promote_keeps_free_nonnegative(self):
        space = make_space(num_pages=16, caps=(8, 16, 32), map_to=None)
        for p in range(8):
            space.map_pages((p,), "a")       # tier a completely full
        for p in range(8, 16):
            space.map_pages((p,), "b")
        low, high = reg(0, 8, "a"), reg(8, 8, "b")
        moves = [Move(low, "a", "b", "demote"), Move(high, "b", "a", "promote")]
        before = sum(placed_bytes(space).values())
        execute_plan(space, moves, mode="sync")
        placed = placed_bytes(space)
        assert sum(placed.values()) == before
        for t in space.topology.tiers:
            assert 0 <= space.free[t.id] <= t.capacity_bytes
            assert space.free[t.id] + placed[t.id] == t.capacity_bytes
        assert low.tier == "b" and high.tier == "a"

    def test_adaptive_mixed_mechanisms_recorded(self):
        space = make_space(num_pages=32)
        moves = [Move(reg(0, 16), "a", "b", "promote"),
                 Move(reg(16, 16), "a", "b", "promote")]
        # windows [0, 48) and [48, 96); at unit cost the write to page 4
        # lands at t=20, in the first region's window only
        reports = execute_plan(space, moves, mode="adaptive",
                               next_slice=slice_of(*[(0, False)] * 19, (4, True)))
        assert [e.mechanism for e in reports] == ["async_fallback", "async"]

    def test_failed_move_aborts_the_rest(self):
        space = make_space(num_pages=16, caps=(32, 4, 32))
        first, second = reg(0, 4), reg(4, 12)
        moves = [Move(first, "a", "b", "promote"), Move(second, "a", "b", "promote")]
        with pytest.raises(PlanExecutionError, match="move of region 4 to b"):
            execute_plan(space, moves, mode="sync")
        assert first.tier == "b" and second.tier == "a"
        assert tier_names(space, 0, 16) == ["b"] * 4 + ["a"] * 12

    def test_sync_mode_background_ledger_stays_zero(self):
        space = make_space(num_pages=16)
        execute_plan(space, [Move(reg(0, 16), "a", "b", "promote")], mode="sync",
                     next_slice=slice_of(*[(p, True) for p in range(16)]))
        assert space.ledger.migration_background == 0.0

    def test_conservation_randomized(self):
        rng = random.Random(8)
        for _ in range(30):
            space = make_space(num_pages=64, caps=(128, 128, 128))
            total = sum(placed_bytes(space).values())
            moves = []
            start = 0
            while start < 64:
                ln = rng.randrange(1, 9)
                ln = min(ln, 64 - start)
                moves.append(Move(reg(start, ln, "a"), "a", rng.choice(["b", "c"]),
                                  "demote"))
                start += ln
            mode = rng.choice(["sync", "async", "adaptive"])
            events = [(rng.randrange(64), rng.random() < 0.3) for _ in range(300)]
            execute_plan(space, moves, mode=mode, next_slice=slice_of(*events))
            assert sum(placed_bytes(space).values()) == total


class TestProjectWriteTimes:
    def test_timestamps_accumulate_access_costs(self):
        space = make_space(num_pages=4)
        trace = gen_seq_microbench("half_read", 2, passes=1)
        writes = project_write_times(space, trace.interval_slice(0), 100.0)
        # events R0 W0 R1 W1 at cost 1 each: writes at t=102 and t=104
        assert (writes.times, writes.pages) == (array("d", [102.0, 104.0]),
                                                 array("I", [0, 1]))

    def test_bound_excludes_writes_at_or_after_it(self):
        space = make_space(num_pages=4)
        slc = gen_seq_microbench("half_read", 2, passes=1).interval_slice(0)
        writes = project_write_times(space, slc, 100.0, 104.0)
        assert (writes.times, writes.pages) == (array("d", [102.0]), array("I", [0]))
        assert len(project_write_times(space, slc, 100.0, 102.0)) == 0

    def test_unmapped_pages_cost_one_and_a_page_past_the_footprint_is_refused(self):
        space = make_space(num_pages=4, map_to=None)
        space.map_pages((1,), "c")  # rank cost 3.0
        writes = project_write_times(space, slice_of((0, True), (1, True), (3, True)), 10.0)
        assert (writes.times, writes.pages) == (array("d", [11.0, 14.0, 15.0]),
                                                 array("I", [0, 1, 3]))
        with pytest.raises(UnmappedPageError, match="page 4 is outside the 4-page footprint"):
            project_write_times(space, slice_of((3, False), (4, True)), 0.0)

    def test_projection_is_two_columns_with_a_length(self):
        space = make_space(num_pages=8)
        slc = gen_seq_microbench("write_only", 8, passes=2).interval_slice(0)
        writes = project_write_times(space, slc, 0.0)
        assert len(writes) == len(writes.times) == len(writes.pages) == 16
        assert writes.times == array("d", range(1, 17))
        assert writes.pages == array("I", range(8)) * 2


def linear_reference(cm, region, dst, mode, writes, start_time):
    """Reference for an async or adaptive move by linear scans over every
    (time, page) write: (first in-window write or None, the MoveReport)."""
    per_page_bg = cm.step_alloc + cm.step_copy
    window_end = start_time + region.len_pages * per_page_bg
    s0, s1 = region.start_page, region.end_page
    first = next(((t, p) for t, p in writes if start_time <= t < window_end
                  and s0 <= p < s1), None)
    if first is None:
        return None, MoveReport(region.id, region.tier, dst, "async",
                                region.len_pages * (cm.step_unmap + cm.step_map),
                                region.len_pages * per_page_bg, 0)
    if mode == "async":
        return first, MoveReport(region.id, region.tier, dst, "sync",
                                 region.len_pages * cm.sync_page_cost(), 0.0, 0)
    first_t = first[0]
    copied = min(region.len_pages,
                 int(math.floor((first_t - start_time) / per_page_bg)))
    dirty = {p for t, p in writes if start_time <= t <= first_t and s0 <= p < s1}
    recopy = sum(cm.step_copy for p in dirty if p < s0 + copied)
    return first, MoveReport(region.id, region.tier, dst, "async_fallback",
                             region.len_pages * cm.sync_page_cost() + recopy,
                             0.0, len(dirty))


def random_window_case(rng):
    """A region, a start time and ascending (time, page) writes on an integer
    grid, so times repeat and land before, at and after the window's edges."""
    start = rng.randrange(0, 60)
    region = reg(start, rng.randrange(1, 64 - start + 1))
    start_time = float(rng.randrange(0, 50))
    window_end = start_time + region.len_pages * 3.0
    times = [float(rng.randrange(0, int(window_end) + 20))
             for _ in range(rng.choice([0, 1, 3, 10, 40]))]
    if rng.random() < 0.5:  # its start, the last float inside it, its end
        times += [start_time, math.nextafter(window_end, 0.0), window_end]
    pages = range(max(0, start - 4), min(64, region.end_page + 4))
    writes = [(t, rng.choice(pages)) for t in sorted(times)]
    return region, start_time, writes


class TestBisectedWindows:
    def test_async_and_adaptive_match_linear_scans(self):
        rng = random.Random(7)
        fallbacks = 0
        for _ in range(400):
            region, start_time, writes = random_window_case(rng)
            cm = CostModel()
            for mode in ("async", "adaptive"):
                moved = reg(region.start_page, region.len_pages)
                first, expected = linear_reference(cm, moved, "b", mode, writes,
                                                   start_time)
                space = make_space(num_pages=64)
                entry = migrate_region(space, moved, "b", mode, cols(*writes),
                                       start_time)
                assert entry == expected
                assert space.ledger.migration_exposed == expected.exposed_cost
                assert space.ledger.migration_background == expected.background_cost
                assert moved.tier == "b"
                assert tier_names(space, moved.start_page, moved.end_page) == \
                    ["b"] * moved.len_pages
            fallbacks += first is not None
        assert 50 < fallbacks < 350

    def test_bounded_projection_gives_the_same_report(self):
        """execute_plan, which projects writes only up to the last window's
        end, reports and costs what migrate_region over copy_windows does
        with every write of the slice projected."""
        rng = random.Random(11)
        mechanisms = set()
        for case in range(60):
            n = 64
            vpages = [rng.randrange(n) for _ in range(2000)]
            writes = [rng.random() < 0.3 for _ in vpages]
            slc = AccessTrace(vpages, writes, [0] * len(vpages), 2000,
                              footprint=n).interval_slice(0)
            mode = ("sync", "async", "adaptive")[case % 3]
            start_time = float(rng.randrange(0, 100))
            runs = []
            for bounded in (True, False):
                space = make_space(num_pages=n, caps=(128, 128, 128))
                for _ in range(int(start_time)):  # the app time the windows start from
                    space.apply_access(0, 0)  # page 0 is on "a", at cost 1.0
                assert space.app_cost() == start_time
                local = random.Random(case)
                moves, start = [], 0
                while start < n:
                    r = reg(start, min(local.randrange(1, 9), n - start))
                    moves.append(Move(r, "a", local.choice(["b", "c"]), "demote"))
                    start = r.end_page
                moves = local.sample(moves, local.randrange(1, 6))
                if bounded:
                    reports = execute_plan(space, moves, mode, slc)
                else:
                    starts = copy_windows(moves, space.cost_model, space.app_cost())
                    until = starts[-1]
                    full = project_write_times(space, slc, space.app_cost())
                    projected = project_write_times(space, slc, space.app_cost(), until)
                    k = len(projected)
                    assert projected.times == full.times[:k]
                    assert projected.pages == full.pages[:k]
                    assert full.times[k] >= until > projected.times[-1]
                    reports = [migrate_region(space, m.region, m.dst, mode, full, t)
                               for m, t in zip(moves, starts)]
                runs.append((reports, space.ledger.migration_exposed,
                             space.ledger.migration_background))
            assert runs[0] == runs[1]
            mechanisms |= {e.mechanism for e in runs[0][0]}
        assert mechanisms == {"sync", "async", "async_fallback"}
