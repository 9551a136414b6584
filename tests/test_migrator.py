import random

import pytest

from tiersim.memmodel import (
    BASE_PAGE_BYTES, CostModel, MemoryState, TiersimError,
    build_topology,
)
from tiersim.migrator import (
    MigrationReport, PlanExecutionError, TimedWrite, execute_plan,
    migrate_region_adaptive, migrate_region_async,
    migrate_region_sync, project_write_times,
)
from tiersim.policy import MigrationPlan, Move
from tiersim.profiler import Region
from tiersim.workload import gen_seq_microbench


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


class TestSync:
    def test_one_page_default_costs(self):
        space = make_space(num_pages=1)
        cost = migrate_region_sync(space, reg(0, 1), "b")
        assert cost == 5.0  # alloc 1 + unmap 1 + copy 2 + map 1

    def test_copy_is_40_percent_of_total(self):
        cm = CostModel()
        total = cm.step_alloc + cm.step_unmap + cm.step_copy + cm.step_map
        assert cm.step_copy / total == pytest.approx(0.40)

    def test_moves_pages_and_clears_bits(self):
        space = make_space(num_pages=8)
        space.apply_access(3, True, 0)
        migrate_region_sync(space, reg(0, 8), "b")
        assert all(space.page_tier[p] == "b" for p in range(8))
        assert space.access_bit[3] == 0 and space.dirty_bit[3] == 0

    def test_insufficient_space_is_error(self):
        space = make_space(num_pages=16, caps=(32, 8, 32))
        with pytest.raises(TiersimError):
            migrate_region_sync(space, reg(0, 16), "b")


class TestAsync:
    def test_read_only_exposed_2_per_page(self):
        space = make_space(num_pages=8)
        result = migrate_region_async(space, reg(0, 8), "b", [], start_time=0.0)
        exposed, background = result
        assert exposed == 8 * 2.0
        assert background == 8 * 3.0
        assert space.ledger.migration_background == 8 * 3.0

    def test_write_mid_window_signals_fallback(self):
        space = make_space(num_pages=8)
        # window is [0, 24); a write to page 3 at t=10 lands inside it
        writes = [TimedWrite(10.0, 3)]
        result = migrate_region_async(space, reg(0, 8), "b", writes, 0.0)
        assert isinstance(result, TimedWrite)
        assert space.page_tier[0] == "a"  # nothing moved on a signal

    def test_write_outside_window_or_region_ignored(self):
        space = make_space(num_pages=64)
        writes = [TimedWrite(25.0, 3), TimedWrite(5.0, 60)]
        result = migrate_region_async(space, reg(0, 8), "b", writes, 0.0)
        assert isinstance(result, tuple)

    def test_empty_slice_never_falls_back(self):
        space = make_space(num_pages=8)
        assert isinstance(
            migrate_region_async(space, reg(0, 8), "b", [], 0.0), tuple)


class TestAdaptive:
    def test_read_only_records_async(self):
        space = make_space(num_pages=8)
        entry = migrate_region_adaptive(space, reg(0, 8), "b", [], 0.0)
        assert entry.mechanism == "async"
        assert entry.recopied_pages == 0
        assert entry.exposed_cost == 16.0

    def test_single_mid_window_write_recopies_one(self):
        space = make_space(num_pages=8)
        # per-page background cost 3: page 4 has been copied by t=15
        writes = [TimedWrite(13.0, 2)]
        entry = migrate_region_adaptive(space, reg(0, 8), "b", writes, 0.0)
        assert entry.mechanism == "async_fallback"
        assert entry.recopied_pages == 1
        # page 2 was already copied (4 pages done by t=13) -> one extra copy
        assert entry.exposed_cost == 8 * 5.0 + 2.0

    def test_uncopied_dirty_page_costs_nothing_extra(self):
        space = make_space(num_pages=8)
        writes = [TimedWrite(1.0, 6)]  # page 6 not yet copied at t=1
        entry = migrate_region_adaptive(space, reg(0, 8), "b", writes, 0.0)
        assert entry.mechanism == "async_fallback"
        assert entry.recopied_pages == 1
        assert entry.exposed_cost == 8 * 5.0

    def test_write_only_stream_lands_near_sync(self):
        space = make_space(num_pages=64)
        trace = gen_seq_microbench("write_only", 64, passes=4)
        writes = project_write_times(space, trace.interval_slice(0), 0.0)
        entry = migrate_region_adaptive(space, reg(0, 64), "b", writes, 0.0)
        sync_cost = 64 * 5.0
        assert entry.mechanism == "async_fallback"
        assert abs(entry.exposed_cost - sync_cost) / sync_cost <= 0.10

    def test_dominance_randomized(self):
        rng = random.Random(17)
        for _ in range(50):
            pages = rng.randrange(2, 40)
            space = make_space(num_pages=pages)
            writes = sorted(
                (TimedWrite(rng.uniform(0, pages * 3.5), rng.randrange(pages))
                 for _ in range(rng.randrange(0, 6))), key=lambda w: w.t)
            entry = migrate_region_adaptive(space, reg(0, pages), "b",
                                            writes, 0.0)
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
        assert report.exposed_total() == 0.0

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
        assert sum(space.placed_bytes().values()) == before
        for t in space.topology.tiers:
            assert 0 <= t.free_bytes <= t.capacity_bytes
        assert regions[0].tier == "b" and regions[8].tier == "a"

    def test_adaptive_mixed_mechanisms_recorded(self):
        space = make_space(num_pages=32)
        regions = {0: reg(0, 16, "a"), 16: reg(16, 16, "a")}
        plan = MigrationPlan(moves=[
            Move(0, "a", "b", "promote", 16 * BASE_PAGE_BYTES),
            Move(16, "a", "b", "promote", 16 * BASE_PAGE_BYTES),
        ])
        # first region sees a write in its window, second does not
        writes = [TimedWrite(20.0, 4)]
        report = execute_plan(space, plan, regions, mode="adaptive",
                              concurrent=writes, start_time=0.0)
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
            writes = [TimedWrite(rng.uniform(0, 300), rng.randrange(64))
                      for _ in range(4)]
            writes.sort(key=lambda w: w.t)
            execute_plan(space, MigrationPlan(moves=moves), regions, mode=mode,
                         concurrent=writes, start_time=0.0)
            assert sum(space.placed_bytes().values()) == total


class TestProjectWriteTimes:
    def test_timestamps_accumulate_access_costs(self):
        space = make_space(num_pages=4)
        trace = gen_seq_microbench("half_read", 2, passes=1)
        writes = project_write_times(space, trace.interval_slice(0), 100.0)
        # events R0 W0 R1 W1 at cost 1 each: writes at t=102 and t=104
        assert [(w.t, w.vpage) for w in writes] == [(102.0, 0), (104.0, 1)]
