import math
import random

import pytest

from tiersim.memmodel import (
    BASE_PAGE_BYTES, CostModel, MemoryState, TiersimError,
    build_topology,
)
from tiersim.migrator import (
    MoveReport, PlanExecutionError, ProjectedWrites, copy_windows,
    execute_plan, migrate_region, project_write_times,
)
from tiersim.policy import MigrationPlan, Move
from tiersim.profiler import Region
from tiersim.workload import AccessTrace, gen_seq_microbench


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
            space.map_page(p, map_to)
    return space


def reg(start, length, tier="a"):
    return Region(start, length, tier, quota=1)


def cols(*writes):
    """ProjectedWrites from (time, page) pairs given in ascending time."""
    return ProjectedWrites([t for t, _ in writes], [p for _, p in writes])


NO_WRITES = cols()


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

    def test_moves_pages_and_clears_bits(self):
        space = make_space(num_pages=8)
        space.apply_access(3, True, 0)
        migrate_region(space, reg(0, 8), "b", "sync", None, 0.0)
        assert all(space.page_tier[p] == "b" for p in range(8))
        assert space.access_bit[3] == 0 and space.dirty_bit[3] == 0

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
        assert space.page_tier[0] == "a"


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
        assert space.page_tier[0] == "b"

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
        report = execute_plan(space, MigrationPlan(), {}, mode="sync")
        assert report.entries == []

    def test_demote_then_promote_keeps_free_nonnegative(self):
        space = make_space(num_pages=16, caps=(8, 16, 32), map_to=None)
        for p in range(8):
            space.map_page(p, "a")       # tier a completely full
        for p in range(8, 16):
            space.map_page(p, "b")
        regions = {0: reg(0, 8, "a"), 8: reg(8, 8, "b")}
        plan = MigrationPlan(moves=[
            Move(0, "a", "b", "demote", 8 * BASE_PAGE_BYTES),
            Move(8, "b", "a", "promote", 8 * BASE_PAGE_BYTES),
        ])
        before = sum(space.placed_bytes().values())
        execute_plan(space, plan, regions, mode="sync")
        placed = space.placed_bytes()
        assert sum(placed.values()) == before
        for t in space.topology.tiers:
            assert 0 <= space.free[t.id] <= t.capacity_bytes
            assert space.free[t.id] + placed[t.id] == t.capacity_bytes
        assert regions[0].tier == "b" and regions[8].tier == "a"

    def test_adaptive_mixed_mechanisms_recorded(self):
        space = make_space(num_pages=32)
        regions = {0: reg(0, 16, "a"), 16: reg(16, 16, "a")}
        plan = MigrationPlan(moves=[
            Move(0, "a", "b", "promote", 16 * BASE_PAGE_BYTES),
            Move(16, "a", "b", "promote", 16 * BASE_PAGE_BYTES),
        ])
        # first region sees a write in its window, second does not
        report = execute_plan(space, plan, regions, mode="adaptive",
                              writes=cols((20.0, 4)), start_time=0.0)
        assert [e.mechanism for e in report.entries] == \
            ["async_fallback", "async"]

    def test_failed_move_aborts_with_partial_report(self):
        space = make_space(num_pages=16, caps=(32, 4, 32))
        regions = {0: reg(0, 4, "a"), 4: reg(4, 12, "a")}
        plan = MigrationPlan(moves=[
            Move(0, "a", "b", "promote", 4 * BASE_PAGE_BYTES),
            Move(4, "a", "b", "promote", 12 * BASE_PAGE_BYTES),
        ])
        with pytest.raises(PlanExecutionError) as info:
            execute_plan(space, plan, regions, mode="sync")
        assert len(info.value.report.entries) == 1
        assert not info.value.report.completed

    def test_sync_mode_background_ledger_stays_zero(self):
        space = make_space(num_pages=16)
        regions = {0: reg(0, 16, "a")}
        plan = MigrationPlan(moves=[Move(0, "a", "b", "promote",
                                         16 * BASE_PAGE_BYTES)])
        execute_plan(space, plan, regions, mode="sync")
        assert space.ledger.migration_background == 0.0

    def test_conservation_randomized(self):
        rng = random.Random(8)
        for _ in range(30):
            space = make_space(num_pages=64, caps=(128, 128, 128))
            total = sum(space.placed_bytes().values())
            regions = {}
            moves = []
            start = 0
            while start < 64:
                ln = rng.randrange(1, 9)
                ln = min(ln, 64 - start)
                r = reg(start, ln, "a")
                regions[r.id] = r
                dst = rng.choice(["b", "c"])
                moves.append(Move(r.id, "a", dst, "demote", r.bytes))
                start += ln
            mode = rng.choice(["sync", "async", "adaptive"])
            writes = sorted((rng.uniform(0, 300), rng.randrange(64))
                            for _ in range(4))
            execute_plan(space, MigrationPlan(moves=moves), regions, mode=mode,
                         writes=cols(*writes), start_time=0.0)
            assert sum(space.placed_bytes().values()) == total


class TestProjectWriteTimes:
    def test_timestamps_accumulate_access_costs(self):
        space = make_space(num_pages=4)
        trace = gen_seq_microbench("half_read", 2, passes=1)
        writes = project_write_times(space, trace.interval_slice(0), 100.0)
        # events R0 W0 R1 W1 at cost 1 each: writes at t=102 and t=104
        assert (writes.times, writes.pages) == ([102.0, 104.0], [0, 1])

    def test_bound_excludes_writes_at_or_after_it(self):
        space = make_space(num_pages=4)
        slc = gen_seq_microbench("half_read", 2, passes=1).interval_slice(0)
        writes = project_write_times(space, slc, 100.0, 104.0)
        assert (writes.times, writes.pages) == ([102.0], [0])
        assert len(project_write_times(space, slc, 100.0, 102.0)) == 0

    def test_projection_is_two_columns_with_a_length(self):
        space = make_space(num_pages=8)
        slc = gen_seq_microbench("write_only", 8, passes=2).interval_slice(0)
        writes = project_write_times(space, slc, 0.0)
        assert len(writes) == len(writes.times) == len(writes.pages) == 16
        assert writes.times == [float(t) for t in range(1, 17)]
        assert writes.pages == list(range(8)) * 2


def linear_reference(cm, region, dst, mode, writes, start_time):
    """Reference for an async or adaptive move by linear scans over every
    (time, page) write: (first in-window write or None, the MoveReport)."""
    per_page_bg = cm.step_alloc + cm.step_copy
    window_end = start_time + region.len_pages * per_page_bg
    first = next(((t, p) for t, p in writes if start_time <= t < window_end
                  and region.contains(p)), None)
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
    dirty = {p for t, p in writes
             if start_time <= t <= first_t and region.contains(p)}
    recopy = sum(cm.step_copy for p in dirty if p < region.start_page + copied)
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
                assert all(space.page_tier[p] == "b"
                           for p in range(moved.start_page, moved.end_page))
            fallbacks += first is not None
        assert 50 < fallbacks < 350

    def test_bounded_projection_gives_the_same_report(self):
        rng = random.Random(11)
        mechanisms = set()
        for case in range(60):
            n = 64
            vpages = [rng.randrange(n) for _ in range(2000)]
            writes = [rng.random() < 0.3 for _ in vpages]
            slc = AccessTrace(vpages, writes, [0] * len(vpages), 2000).interval_slice(0)
            mode = ("sync", "async", "adaptive")[case % 3]
            start_time = float(rng.randrange(0, 100))
            reports = []
            for bounded in (False, True):
                space = make_space(num_pages=n, caps=(128, 128, 128))
                local = random.Random(case)
                regions, moves, start = {}, [], 0
                while start < n:
                    r = reg(start, min(local.randrange(1, 9), n - start))
                    regions[r.id] = r
                    moves.append(Move(r.id, "a", local.choice(["b", "c"]),
                                      "demote", r.bytes))
                    start = r.end_page
                plan = MigrationPlan(moves=local.sample(moves, local.randrange(1, 6)))
                until = copy_windows(plan, regions, space.cost_model, start_time)[-1]
                full = project_write_times(space, slc, start_time)
                projected = (project_write_times(space, slc, start_time, until)
                             if bounded else full)
                if bounded:
                    k = len(projected)
                    assert projected.times == full.times[:k]
                    assert projected.pages == full.pages[:k]
                    assert full.times[k] >= until > projected.times[-1]
                report = execute_plan(space, plan, regions, mode=mode,
                                      writes=projected, start_time=start_time)
                reports.append((report, space.ledger.migration_exposed,
                                space.ledger.migration_background))
            assert reports[0] == reports[1]
            mechanisms |= {e.mechanism for e in reports[0][0].entries}
        assert mechanisms == {"sync", "async", "async_fallback"}
