import random
from dataclasses import FrozenInstanceError

import pytest

from tiersim.baselines import group_first_touch
from tiersim.memmodel import (
    BASE_PAGE_BYTES, CapacityError, CostModel, MemoryState,
    TierSpec, TierTopology, TopologyError, UnmappedPageError, build_topology,
)
from tiersim.workload import AccessTrace, TraceSlice, gen_gups

MB = 1024 * 1024


def four_tier_spec(nodes=(0, 1)):
    return {
        "tiers": [
            {"id": "t1", "capacity_bytes": 64 * MB, "access_cost": 1.0},
            {"id": "t2", "capacity_bytes": 128 * MB, "access_cost": 1.8},
            {"id": "t3", "capacity_bytes": 512 * MB, "access_cost": 3.0},
            {"id": "t4", "capacity_bytes": 1024 * MB, "access_cost": 5.4},
        ],
        "nodes": list(nodes),
    }


def small_state(num_pages=64, tier_pages=(16, 16, 16, 64), nodes=(0,)):
    spec = {
        "tiers": [
            {"id": f"t{i+1}", "capacity_bytes": p * BASE_PAGE_BYTES,
             "access_cost": c}
            for i, (p, c) in enumerate(zip(tier_pages, (1.0, 1.8, 3.0, 5.4)))
        ],
        "nodes": list(nodes),
    }
    topo = build_topology(spec)
    return MemoryState(topo, CostModel(), num_pages)


class TestBuildTopology:
    def test_four_tiers_two_nodes_slowest_is_largest_cost(self):
        topo = build_topology(four_tier_spec())
        assert topo.slowest_tier == "t4"
        st = MemoryState(topo, CostModel(), 8)
        for t in topo.tiers:
            assert st.free[t.id] == t.capacity_bytes

    def test_single_tier_rejected(self):
        with pytest.raises(TopologyError):
            build_topology({"tiers": [{"id": "a", "capacity_bytes": MB}]})

    def test_optane_shape_with_swapped_views(self):
        spec = {
            "tiers": [
                {"id": "dram0", "capacity_bytes": 96 * MB, "access_cost": 1.0},
                {"id": "dram1", "capacity_bytes": 96 * MB, "access_cost": 1.8},
                {"id": "pm0", "capacity_bytes": 756 * MB, "access_cost": 3.0},
                {"id": "pm1", "capacity_bytes": 756 * MB, "access_cost": 5.4},
            ],
            "nodes": [0, 1],
            "views": {
                0: ["dram0", "dram1", "pm0", "pm1"],
                1: ["dram1", "dram0", "pm1", "pm0"],
            },
        }
        topo = build_topology(spec)
        # both views are permutations and rank costs apply per view position
        assert topo.access_cost(0, "dram0") == 1.0
        assert topo.access_cost(1, "dram0") == 1.8
        assert topo.access_cost(1, "dram1") == 1.0

    def test_duplicate_ids_rejected(self):
        spec = four_tier_spec()
        spec["tiers"][1]["id"] = "t1"
        with pytest.raises(TopologyError):
            build_topology(spec)

    def test_zero_capacity_rejected(self):
        spec = four_tier_spec()
        spec["tiers"][0]["capacity_bytes"] = 0
        with pytest.raises(TopologyError):
            build_topology(spec)

    def test_non_permutation_view_rejected(self):
        spec = four_tier_spec(nodes=(0,))
        spec["views"] = {0: ["t1", "t2", "t3", "t3"]}
        with pytest.raises(TopologyError):
            build_topology(spec)


class TestAccessAndScan:
    def test_read_sets_access_bit_and_returns_view_cost(self):
        st = small_state()
        st.map_page(3, "t1")
        cost = st.apply_access(3, is_write=False, node=0)
        assert cost == 1.0
        assert st.access_bit[3] == 1
        assert st.dirty_bit[3] == 0

    def test_write_sets_dirty_bit(self):
        st = small_state()
        st.map_page(3, "t1")
        st.apply_access(3, is_write=True, node=0)
        assert st.dirty_bit[3] == 1

    def test_costs_differ_per_node_view(self):
        # hand-evaluated cost table: node1's view swaps t1/t2, so the page in
        # t1 costs the rank-1 price (1.0) from node0 and rank-2 (1.8) from node1
        spec = four_tier_spec()
        spec["views"] = {
            0: ["t1", "t2", "t3", "t4"],
            1: ["t2", "t1", "t3", "t4"],
        }
        topo = build_topology(spec)
        st = MemoryState(topo, CostModel(), 8)
        st.map_page(0, "t1")
        assert st.apply_access(0, False, node=0) == 1.0
        assert st.apply_access(0, False, node=1) == 1.8

    def test_scan_returns_and_resets(self):
        st = small_state()
        st.map_page(5, "t1")
        st.apply_access(5, False, 0)
        assert st.scan_pte(5) == 1
        assert st.access_bit[5] == 0
        assert st.scan_pte(5) == 0  # no access in between

    def test_scan_accrues_profiling_cost(self):
        st = small_state()
        st.map_page(5, "t1")
        st.scan_pte(5)
        assert st.ledger.profiling == st.cost_model.scan_cost
        st.scan_pte(5, cost=4.0)
        assert st.ledger.profiling == st.cost_model.scan_cost + 4.0

    def test_unmapped_page_errors(self):
        st = small_state()
        with pytest.raises(UnmappedPageError):
            st.scan_pte(7)
        with pytest.raises(UnmappedPageError):
            st.apply_access(7, False, 0)

class TestFreeBytes:
    def test_empty_tier_reports_capacity(self):
        st = small_state()
        assert st.free["t1"] == 16 * BASE_PAGE_BYTES

    def test_after_placing_ten_pages(self):
        st = small_state()
        for p in range(10):
            st.map_page(p, "t1")
        assert st.free["t1"] == 6 * BASE_PAGE_BYTES

    def test_migrating_region_out_frees_its_bytes(self):
        st = small_state()
        for p in range(8):
            st.map_page(p, "t1")
        before = st.free["t1"]
        st.move_pages(range(0, 8), "t3")
        assert st.free["t1"] == before + 8 * BASE_PAGE_BYTES
        assert st.free["t3"] == (16 - 8) * BASE_PAGE_BYTES

    def test_states_on_one_topology_keep_independent_ledgers(self):
        topo = build_topology({"tiers": [
            {"id": "a", "capacity_bytes": 4 * BASE_PAGE_BYTES},
            {"id": "b", "capacity_bytes": 8 * BASE_PAGE_BYTES}]})
        first = MemoryState(topo, CostModel(), 4)
        second = MemoryState(topo, CostModel(), 4)
        for p in range(4):
            first.map_page(p, "a")
        assert first.free["a"] == 0
        second.map_page(0, "a")
        assert second.free["a"] == 3 * BASE_PAGE_BYTES

    def test_tier_spec_is_frozen(self):
        tier = build_topology(four_tier_spec()).tiers[0]
        with pytest.raises(FrozenInstanceError):
            tier.capacity_bytes = 0


class TestInvariants:
    def test_conservation_across_random_moves(self):
        rng = random.Random(7)
        st = small_state(num_pages=48, tier_pages=(48, 48, 48, 48))
        for p in range(48):
            st.map_page(p, "t1")
        total_before = sum(st.placed_bytes().values())
        for _ in range(200):
            a = rng.randrange(0, 44)
            b = a + rng.randrange(1, 4)
            dst = rng.choice(st.topology.tier_ids)
            try:
                st.move_pages(range(a, b), dst)
            except CapacityError:
                continue
            placed = st.placed_bytes()
            assert sum(placed.values()) == total_before
            for t in st.topology.tiers:
                assert 0 <= st.free[t.id] <= t.capacity_bytes
                assert st.free[t.id] + placed[t.id] == t.capacity_bytes

    def test_every_mapped_page_has_exactly_one_tier(self):
        st = small_state()
        for p in range(12):
            st.map_page(p, "t2")
        tiers = [st.page_tier[p] for p in range(12)]
        assert all(t == "t2" for t in tiers)

    def test_scan_reset_observations_bounded_by_accesses(self):
        rng = random.Random(3)
        st = small_state()
        st.map_page(0, "t1")
        accesses = 0
        ones = 0
        for _ in range(500):
            if rng.random() < 0.5:
                st.apply_access(0, False, 0)
                accesses += 1
            else:
                ones += st.scan_pte(0)
        assert ones <= accesses


def reference_runs(page_tier, lo, hi, window):
    """Per-page reference for MemoryState.tier_runs."""
    runs = []
    for p in range(lo, min(hi, len(page_tier))):
        tier = page_tier[p]
        if tier is None:
            continue
        last = runs[-1] if runs else None
        if (last and last[2] == tier and last[0] + last[1] == p
                and (window is None or p % window)):
            last[1] += 1
        else:
            runs.append([p, 1, tier])
    return [tuple(run) for run in runs]


class TestTierRuns:
    def test_matches_per_page_reference(self):
        rng = random.Random(11)
        for _ in range(400):
            num_tiers = rng.randint(2, 4)
            st = small_state(num_pages=rng.randint(1, 300),
                             tier_pages=(512,) * num_tiers)
            tiers = [None] + st.topology.tier_ids
            page_tier = []
            while len(page_tier) < st.num_pages:  # runs of random length
                page_tier += [rng.choice(tiers)] * rng.randint(1, 40)
            st.page_tier = page_tier[:st.num_pages]
            window = rng.choice([None, *range(1, 65)])
            lo = rng.randint(0, st.num_pages)
            hi = rng.choice([None, rng.randint(lo, st.num_pages + 70)])
            expected = reference_runs(st.page_tier, lo,
                                      st.num_pages if hi is None else hi, window)
            assert st.tier_runs(lo, hi, window) == expected

    def test_runs_cut_at_windows_and_holes(self):
        st = small_state(num_pages=10, tier_pages=(16, 16))
        st.page_tier = ["t1"] * 6 + [None, "t2", "t2", "t1"]
        assert st.tier_runs(window=4) == [(0, 4, "t1"), (4, 2, "t1"), (7, 1, "t2"),
                                          (8, 1, "t2"), (9, 1, "t1")]
        assert st.tier_runs(2, 8) == [(2, 4, "t1"), (7, 1, "t2")]
        # a window past the footprint is clamped to it
        assert st.tier_runs(8, 12, window=4) == [(8, 1, "t2"), (9, 1, "t1")]


class TestReplay:
    def test_matches_per_access_loop(self):
        trace, _ = gen_gups(96, 0.2, 0.8, 3000, [0, 1], seed=5,
                            accesses_per_interval=1000)
        twins = [small_state(num_pages=trace.footprint(), tier_pages=(16, 24, 32, 64),
                             nodes=(0, 1)) for _ in range(2)]
        for st in twins:
            st.allocator = group_first_touch(8)
        bulk, loop = twins
        for i in range(trace.num_intervals):
            slc = trace.interval_slice(i)
            bulk.replay(slc)
            for vpage, is_write, node in slc.events():
                loop.apply_access(vpage, is_write, node)
            assert bulk.ledger == loop.ledger
            assert bulk.clock == loop.clock
            assert bulk.access_bit == loop.access_bit
            assert bulk.dirty_bit == loop.dirty_bit
            assert bulk.tier_access_counts == loop.tier_access_counts
            assert bulk.page_tier == loop.page_tier
            assert bulk.placed_bytes() == loop.placed_bytes()
        assert sum(bulk.tier_access_counts.values()) == len(trace)


def test_page_counts_keyed_in_first_access_order():
    trace = AccessTrace([9, 5, 3, 5, 7, 3, 5, 2], [False] * 8, [0] * 8, 8)
    counts = TraceSlice(trace, 1, 7).page_counts()
    assert list(counts.items()) == [(5, 3), (3, 2), (7, 1)]
