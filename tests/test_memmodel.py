import random
from dataclasses import FrozenInstanceError

import pytest

from tiersim.baselines import group_first_touch
from tiersim.memmodel import (
    BASE_PAGE_BYTES, UNMAPPED, CapacityError, CostModel, MemoryState,
    TierSpec, TierTopology, TiersimError, TopologyError, UnmappedPageError,
    build_topology,
)
from tiersim.migrator import project_write_times
from tiersim.workload import AccessTrace, TraceSlice, gen_gups, gen_seq_microbench

from columns import node_column, write_column
from placement import tier_of

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


def placed_bytes(state):
    """Bytes of the pages mapped to each tier, counted from the page table."""
    out = {t.id: 0 for t in state.topology.tiers}
    for p in range(state.num_pages):
        tid = tier_of(state, p)
        if tid is not None:
            out[tid] += BASE_PAGE_BYTES
    return out


def tier_names(state, lo=0, hi=None):
    """The tier id of each page in [lo, hi), None where unmapped."""
    return [tier_of(state, p) for p in range(lo, state.num_pages if hi is None else hi)]


def place(state, names):
    """Write a page table given as one tier id, or None, per page."""
    state.page_tier = bytearray(UNMAPPED if t is None else state.topology.index[t]
                                for t in names)


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

    def test_more_tiers_than_a_byte_indexes_rejected(self):
        tiers = [{"id": f"t{i}", "capacity_bytes": MB} for i in range(UNMAPPED + 1)]
        assert build_topology({"tiers": tiers[:UNMAPPED]}).index["t254"] == 254
        with pytest.raises(TopologyError, match="got 256"):
            build_topology({"tiers": tiers})

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
        index = topo.index
        assert topo.cost[0][index["dram0"]] == 1.0
        assert topo.cost[1][index["dram0"]] == 1.8
        assert topo.cost[1][index["dram1"]] == 1.0

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
    def test_read_charges_view_cost_and_counts_its_tier(self):
        st = small_state()
        st.map_pages((3,), "t1")
        since = st.access_counts()
        st.apply_access(3, node=0)
        assert st.app_cost(since) == 1.0
        assert st.tier_access_counts == {"t1": 1, "t2": 0, "t3": 0, "t4": 0}

    def test_clock_is_the_exact_sum_of_count_times_cost(self):
        """Ten accesses at 1.8 and seven rounds at 1.0, 1.8 and 3.0: a sum
        taken access by access reads 18.000000000000004 and
        40.599999999999994."""
        st = small_state()
        st.map_pages((0,), "t2")
        for _ in range(10):
            st.apply_access(0, node=0)
        assert st.app_cost() == 18.0
        st = small_state()
        for page, tier in enumerate(("t1", "t2", "t3")):
            st.map_pages((page,), tier)
        for _ in range(7):
            for page in range(3):
                st.apply_access(page, node=0)
        assert st.app_cost() == 40.6
        assert st.tier_access_counts == {"t1": 7, "t2": 7, "t3": 7, "t4": 0}

    def test_app_cost_since_counts_only_later_accesses(self):
        st = small_state(nodes=(0, 2))
        st.map_pages((0,), "t2")
        for _ in range(10):
            st.apply_access(0, node=0)
        since = st.access_counts()
        for _ in range(10):
            st.apply_access(0, node=2)
        assert st.app_cost(since) == 18.0
        assert st.app_cost() == 36.0
        assert st.tier_access_counts == {"t1": 0, "t2": 20, "t3": 0, "t4": 0}

    def test_replay_ignores_the_write_flag(self):
        """A slice replayed as generated and with every write flag flipped
        leaves the same placement, ledger and tier counts:
        writes reach only the migrator's projection."""
        rng = random.Random(7)
        trace = gen_gups(96, 0.2, 0.8, 3000, [0, 1], seed=5, accesses_per_interval=1000)
        writes = bytearray(rng.getrandbits(1) for _ in range(len(trace)))
        flipped = bytearray(1 - w for w in writes)
        twins = []
        for column in (writes, flipped):
            st = small_state(num_pages=trace.footprint, tier_pages=(16, 24, 32, 64),
                             nodes=(0, 1))
            st.allocator = group_first_touch(8)
            st.replay(TraceSlice(AccessTrace(trace.vpages, column, trace.nodes, 1000,
                                             trace.footprint), 0, len(trace)))
            twins.append(st)
        given, other = twins
        assert given.page_tier == other.page_tier
        assert given.ledger == other.ledger
        assert given.app_cost() == other.app_cost()
        assert given.tier_access_counts == other.tier_access_counts
        assert sum(given.tier_access_counts.values()) == len(trace)

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
        st.map_pages((0,), "t1")
        charged = []
        for node in (0, 1):
            since = st.access_counts()
            st.apply_access(0, node=node)
            charged.append(st.app_cost(since))
        assert charged == [1.0, 1.8]

    def test_scan_reads_its_sub_window(self):
        """A scan reads whether its sub-window touched the page, whatever
        earlier sub-windows did."""
        st = small_state()
        st.map_pages((5,), "t1")
        st.apply_access(5, 0)
        assert st.scan_pte(5, {5}) == 1
        assert st.scan_pte(5, set()) == 0  # no access in between

    def test_scan_accrues_profiling_cost(self):
        st = small_state()
        st.map_pages((5,), "t1")
        st.scan_pte(5, set())
        assert st.ledger.profiling == st.cost_model.scan_cost
        st.scan_pte(5, {5}, cost=4.0)
        assert st.ledger.profiling == st.cost_model.scan_cost + 4.0

    def test_unmapped_page_errors(self):
        st = small_state()
        with pytest.raises(UnmappedPageError):
            st.scan_pte(7, {7})
        with pytest.raises(UnmappedPageError):
            st.apply_access(7, 0)

    @pytest.mark.parametrize("vpage", [-1, 16])
    def test_page_outside_the_footprint_is_refused(self, vpage):
        """Page -1 is refused only because nothing is mapped: `page_tier[-1]`
        reads UNMAPPED and reaches the footprint check.  On a mapped state it
        would count on page 15's tier; `apply_access` requires `0 <= vpage`,
        which `AccessTrace` enforces."""
        st = small_state(num_pages=16)
        st.allocator = group_first_touch(8)
        with pytest.raises(UnmappedPageError, match=f"page {vpage} "):
            st.apply_access(vpage, 0)
        assert tier_names(st) == [None] * 16
        assert st.app_cost() == 0.0
        assert sum(st.tier_access_counts.values()) == 0


def spy_allocator(calls):
    """group_first_touch(8), recording each (vpage, node) it is called with."""
    alloc = group_first_touch(8)

    def spy(state, vpage, node):
        calls.append((vpage, node))
        alloc(state, vpage, node)

    return spy


class TestMissPath:
    """A hit is one lookup.  UNMAPPED indexes past every count row, a page
    past the footprint past `page_tier`, and a node id past the rows past
    the count rows: all three raise IndexError, and the miss path tells
    them apart by rereading the tier."""

    @pytest.mark.parametrize("node", [1, 7])
    def test_a_mapped_page_from_a_node_past_the_rows_raises_and_maps_nothing(self, node):
        st = small_state(num_pages=16)
        calls = []
        st.allocator = spy_allocator(calls)
        st.map_pages((3,), "t2")
        with pytest.raises(IndexError):
            st.apply_access(3, node)
        assert calls == []
        assert tier_names(st) == [None] * 3 + ["t2"] + [None] * 12
        assert st.free == {"t1": 16 * BASE_PAGE_BYTES, "t2": 15 * BASE_PAGE_BYTES,
                           "t3": 16 * BASE_PAGE_BYTES, "t4": 64 * BASE_PAGE_BYTES}
        assert sum(st.tier_access_counts.values()) == 0

    @pytest.mark.parametrize("allocate", [False, True])
    @pytest.mark.parametrize("vpage", [16, 17, 1 << 20])
    def test_a_page_past_the_footprint_is_refused(self, vpage, allocate):
        st = small_state(num_pages=16)
        calls = []
        st.allocator = spy_allocator(calls) if allocate else None
        st.map_pages(range(16), "t1")
        with pytest.raises(UnmappedPageError, match="outside the 16-page footprint"):
            st.apply_access(vpage, 0)
        assert calls == []
        assert sum(st.tier_access_counts.values()) == 0

    def test_a_first_touch_maps_the_group_and_counts_once(self):
        st = small_state(num_pages=16)
        calls = []
        st.allocator = spy_allocator(calls)
        st.apply_access(5, 0)
        assert calls == [(5, 0)]
        assert tier_names(st) == ["t1"] * 8 + [None] * 8
        assert st.tier_access_counts == {"t1": 1, "t2": 0, "t3": 0, "t4": 0}
        assert st.app_cost() == 1.0
        st.apply_access(6, 0)  # a hit in the mapped group
        assert calls == [(5, 0)]
        assert st.tier_access_counts == {"t1": 2, "t2": 0, "t3": 0, "t4": 0}


class TestMapping:
    def test_map_pages_checks_room_once_for_the_group(self):
        st = small_state()
        with pytest.raises(CapacityError):
            st.map_pages(range(0, 17), "t1")  # t1 holds 16 pages
        assert st.mapped_pages(0, 64) == []
        assert st.free["t1"] == 16 * BASE_PAGE_BYTES
        st.map_pages(range(0, 16), "t1")
        assert st.free["t1"] == 0
        assert tier_names(st, 0, 17) == ["t1"] * 16 + [None]

    def test_map_pages_refuses_a_mapped_page(self):
        st = small_state()
        st.map_pages((5,), "t2")
        with pytest.raises(TiersimError, match="page 5 already mapped"):
            st.map_pages([4, 5, 6], "t1")
        assert st.mapped_pages(0, 64) == [5]
        assert st.free["t1"] == 16 * BASE_PAGE_BYTES

    def test_map_pages_takes_a_range_as_one_run(self):
        st = small_state(num_pages=40)
        st.map_pages(range(8, 16), "t2")
        assert tier_names(st, 6, 18) == [None] * 2 + ["t2"] * 8 + [None] * 2
        assert st.free["t2"] == 8 * BASE_PAGE_BYTES
        # a range over a mapped page, or past the footprint, maps nothing
        with pytest.raises(TiersimError, match="page 12 already mapped"):
            st.map_pages(range(12, 20), "t1")
        with pytest.raises(IndexError):
            st.map_pages(range(36, 44), "t1")
        assert st.free["t1"] == 16 * BASE_PAGE_BYTES
        assert tier_names(st).count("t1") == 0 and len(st.page_tier) == 40

    def test_group_first_touch_refuses_a_partly_mapped_group(self):
        """Only first touch maps pages, a whole group at a time, so no run
        leaves a group partly mapped: touching one raises, mapping nothing."""
        st = small_state(num_pages=16)
        st.allocator = group_first_touch(8)
        st.map_pages((3,), "t2")
        with pytest.raises(TiersimError, match="page 3 already mapped"):
            st.apply_access(5, 0)
        assert tier_names(st) == [None] * 3 + ["t2"] + [None] * 12
        assert st.free["t1"] == 16 * BASE_PAGE_BYTES
        assert sum(st.tier_access_counts.values()) == 0

    def test_mapped_pages_lists_a_range_clamped_to_the_footprint(self):
        st = small_state(num_pages=10)
        st.map_pages([1, 2, 7, 9], "t1")
        assert st.mapped_pages(0, 10) == [1, 2, 7, 9]
        assert st.mapped_pages(2, 8) == [2, 7]
        assert st.mapped_pages(8, 20) == [9]
        assert st.mapped_pages(3, 7) == []
        # a window with every page mapped is the range itself, clamped
        assert st.mapped_pages(1, 3) == range(1, 3)
        assert st.mapped_pages(9, 20) == range(9, 10)


class TestFreeBytes:
    def test_empty_tier_reports_capacity(self):
        st = small_state()
        assert st.free["t1"] == 16 * BASE_PAGE_BYTES

    def test_after_placing_ten_pages(self):
        st = small_state()
        for p in range(10):
            st.map_pages((p,), "t1")
        assert st.free["t1"] == 6 * BASE_PAGE_BYTES

    def test_migrating_region_out_frees_its_bytes(self):
        st = small_state()
        for p in range(8):
            st.map_pages((p,), "t1")
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
            first.map_pages((p,), "a")
        assert first.free["a"] == 0
        second.map_pages((0,), "a")
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
            st.map_pages((p,), "t1")
        total_before = sum(placed_bytes(st).values())
        for _ in range(200):
            a = rng.randrange(0, 44)
            b = a + rng.randrange(1, 4)
            dst = rng.choice(st.topology.tier_ids)
            try:
                st.move_pages(range(a, b), dst)
            except CapacityError:
                continue
            placed = placed_bytes(st)
            assert sum(placed.values()) == total_before
            for t in st.topology.tiers:
                assert 0 <= st.free[t.id] <= t.capacity_bytes
                assert st.free[t.id] + placed[t.id] == t.capacity_bytes

    def test_every_mapped_page_has_exactly_one_tier(self):
        st = small_state()
        for p in range(12):
            st.map_pages((p,), "t2")
        tiers = tier_names(st, 0, 12)
        assert all(t == "t2" for t in tiers)

    def test_scan_reset_observations_bounded_by_accesses(self):
        """Each scan sees the accesses since the one before it, so scans
        observe no more than the accesses made."""
        rng = random.Random(3)
        st = small_state()
        st.map_pages((0,), "t1")
        accesses = 0
        ones = 0
        window = []
        for _ in range(500):
            if rng.random() < 0.5:
                st.apply_access(0, 0)
                window.append(0)
                accesses += 1
            else:
                ones += st.scan_pte(0, {0}.intersection(window))
                window = []
        assert ones <= accesses


def reference_move(state, lo, hi, dst):
    """Per-page reference for MemoryState.move_pages on a copy of `state`'s
    placement: (free, page tiers) after the move, or the exception type it
    raises."""
    free, names = dict(state.free), tier_names(state)
    need = sum(BASE_PAGE_BYTES for p in range(lo, hi) if names[p] != dst)
    if free[dst] < need:
        return CapacityError
    if None in names[lo:hi]:
        return UnmappedPageError
    for p in range(lo, hi):
        free[names[p]] += BASE_PAGE_BYTES
        free[dst] -= BASE_PAGE_BYTES
        names[p] = dst
    return free, names


class TestMovePages:
    def test_matches_per_page_reference(self):
        """Random placements with holes and random runs, against a per-page
        loop; a failed move changes nothing."""
        rng = random.Random(13)
        for _ in range(300):
            st = small_state(num_pages=48, tier_pages=(12, 20, 24, 48))
            order = [None] + st.topology.tier_ids
            names = [rng.choice(order[1:] if rng.random() < 0.9 else order)
                     for _ in range(48)]
            for t in st.topology.tier_ids:  # no tier holds more than its room
                room = st.free[t] // BASE_PAGE_BYTES
                for p in [p for p, n in enumerate(names) if n == t][room:]:
                    names[p] = None
            place(st, names)
            for t in st.topology.tier_ids:
                st.free[t] -= BASE_PAGE_BYTES * names.count(t)
            lo = rng.randrange(48)
            hi = rng.randint(lo + 1, 48)
            dst = rng.choice(st.topology.tier_ids)
            expected = reference_move(st, lo, hi, dst)
            before = (dict(st.free), tier_names(st))
            if isinstance(expected, type):
                with pytest.raises(expected):
                    st.move_pages(range(lo, hi), dst)
                expected = before
            else:
                st.move_pages(range(lo, hi), dst)
            assert (st.free, tier_names(st)) == expected

    def test_a_run_past_the_footprint_is_refused_unchanged(self):
        st = small_state(num_pages=8)
        for p in range(8):
            st.map_pages((p,), "t1")
        with pytest.raises(UnmappedPageError, match="page 8 unmapped"):
            st.move_pages(range(4, 10), "t2")
        assert tier_names(st) == ["t1"] * 8 and len(st.page_tier) == 8
        assert st.free["t2"] == 16 * BASE_PAGE_BYTES


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
            page_tier = page_tier[:st.num_pages]
            place(st, page_tier)
            window = rng.choice([None, *range(1, 65)])
            lo = rng.randint(0, st.num_pages)
            hi = rng.choice([None, rng.randint(lo, st.num_pages + 70)])
            expected = reference_runs(page_tier, lo,
                                      st.num_pages if hi is None else hi, window)
            assert st.tier_runs(lo, hi, window) == expected

    def test_runs_cut_at_windows_and_holes(self):
        st = small_state(num_pages=10, tier_pages=(16, 16))
        place(st, ["t1"] * 6 + [None, "t2", "t2", "t1"])
        assert st.tier_runs(window=4) == [(0, 4, "t1"), (4, 2, "t1"), (7, 1, "t2"),
                                          (8, 1, "t2"), (9, 1, "t1")]
        assert st.tier_runs(2, 8) == [(2, 4, "t1"), (7, 1, "t2")]
        # a window past the footprint is clamped to it
        assert st.tier_runs(8, 12, window=4) == [(8, 1, "t2"), (9, 1, "t1")]

    @pytest.mark.parametrize("window", [None, 1, 3, 64])
    def test_alternating_and_holed_layouts(self, window):
        """A run per page, and runs broken by holes, with and without
        windows, against the per-page reference."""
        st = small_state(num_pages=2048, tier_pages=(2048,) * 4)
        alternating = ["t1", "t2"] * 1024
        holed = (["t3"] * 5 + [None] * 3 + ["t1"] + [None]) * 204 + [None] * 8
        for names in (alternating, holed, [None] * 2048):
            place(st, names)
            for lo, hi in ((0, None), (7, 1500), (5, 3000)):
                expected = reference_runs(names, lo, 2048 if hi is None else hi, window)
                assert st.tier_runs(lo, hi, window) == expected
        place(st, alternating)
        assert len(st.tier_runs()) == 2048


class TestReplay:
    def test_matches_per_access_loop(self):
        trace = gen_gups(96, 0.2, 0.8, 3000, [0, 1], seed=5, accesses_per_interval=1000)
        twins = [small_state(num_pages=trace.footprint, tier_pages=(16, 24, 32, 64),
                             nodes=(0, 1)) for _ in range(2)]
        for st in twins:
            st.allocator = group_first_touch(8)
        bulk, loop = twins
        for i in range(trace.num_intervals):
            slc = trace.interval_slice(i)
            bulk.replay(slc)
            for vpage, _, node in slc.events():
                loop.apply_access(vpage, node)
            assert bulk.ledger == loop.ledger
            assert bulk.app_cost() == loop.app_cost()
            assert bulk.tier_access_counts == loop.tier_access_counts
            assert bulk.page_tier == loop.page_tier
            assert placed_bytes(bulk) == placed_bytes(loop)
        assert sum(bulk.tier_access_counts.values()) == len(trace)

    @pytest.mark.parametrize("make", [
        lambda: gen_gups(96, 0.2, 0.8, 3000, [1], seed=5, accesses_per_interval=1000),
        lambda: gen_seq_microbench("half_read", 96, 3, node=1, accesses_per_interval=100),
    ], ids=["gups", "half_read"])
    def test_one_node_trace_replays_and_projects_like_its_column(self, make):
        """A one-node trace, which replay and write projection walk without
        a node column, and the same trace rebuilt from its `nodes` column
        leave equal states and project equal writes.  Node 1's view reverses
        the tiers, so charging any other node would change every cost."""
        given = make()
        rebuilt = AccessTrace(given.vpages, write_column(given), node_column(given),
                              given.accesses_per_interval, given.footprint)
        assert (given.node, rebuilt.node) == (1, None)
        spec = {"tiers": [{"id": f"t{i + 1}", "capacity_bytes": p * BASE_PAGE_BYTES,
                           "access_cost": c}
                          for i, (p, c) in enumerate(zip((16, 24, 32, 64),
                                                         (1.0, 1.8, 3.0, 5.4)))],
                "nodes": [0, 1],
                "views": {1: ["t4", "t3", "t2", "t1"]}}
        runs = []
        for trace in (given, rebuilt):
            st = MemoryState(build_topology(spec), CostModel(), trace.footprint,
                             allocator=group_first_touch(8))
            states, projected = [], []
            for i in range(trace.num_intervals):
                st.replay(trace.interval_slice(i))
                states.append((bytes(st.page_tier), st.tier_access_counts, st.app_cost()))
                if i + 1 < trace.num_intervals:
                    writes = project_write_times(st, trace.interval_slice(i + 1),
                                                 st.app_cost())
                    projected.append((writes.times, writes.pages))
            runs.append((states, projected))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) >= 2 and all(times for times, _ in runs[0][1])
