import random

import pytest

from tiersim.memmodel import (
    BASE_PAGE_BYTES, CapacityError, CostModel, MemoryState, build_topology,
)
from tiersim.policy import (
    PolicyConfig, plan_demotions, plan_interval, resolve_destination, update_ema,
)
from tiersim.profiler import Region


def region(start, length, tier, whi, origin=None):
    r = Region(start, length, tier, quota=1)
    r.whi = whi
    r.hi = whi
    if origin:
        r.origin_counts = dict(origin)
    return r


def space_pages(caps, nodes=(0,), views=None):
    """A state with no pages on tiers t1.. of `caps` pages; planning reads
    only its topology and free bytes."""
    spec = {
        "tiers": [{"id": f"t{i+1}", "capacity_bytes": c * BASE_PAGE_BYTES,
                   "access_cost": cost}
                  for i, (c, cost) in enumerate(zip(caps, (1.0, 1.8, 3.0, 5.4)))],
        "nodes": list(nodes),
    }
    if views:
        spec["views"] = views
    return MemoryState(build_topology(spec), CostModel(), 0)


def occupy(space, regions):
    """Charge each region's bytes against its tier so free space is honest."""
    for r in regions:
        space.free[r.tier] -= r.bytes


def coldest_first(regions):
    return sorted(regions, key=lambda r: (r.whi or 0.0, r.id))


def promotions(regions, space, n_bytes):
    """plan_interval's moves as (region_id, dst) under promotion budget n_bytes."""
    plan = plan_interval(regions, space, PolicyConfig(n_bytes=n_bytes))
    return [(m.region_id, m.dst) for m in plan.moves]


class TestUpdateEma:
    def test_substitution(self):
        r = region(0, 8, "t1", whi=2.0)
        assert update_ema(r, hi=3.0, alpha=0.5) == pytest.approx(2.5)

    def test_constant_hi_converges(self):
        r = region(0, 8, "t1", whi=0.0)
        for _ in range(60):
            update_ema(r, hi=1.75, alpha=0.5)
        assert r.whi == pytest.approx(1.75, abs=1e-9)

    def test_alpha_one_ignores_history(self):
        r = region(0, 8, "t1", whi=0.3)
        assert update_ema(r, hi=2.9, alpha=1.0) == 2.9

    def test_first_interval_seeds_directly(self):
        r = Region(0, 8, "t1", quota=1)
        assert r.whi is None
        assert update_ema(r, hi=1.2, alpha=0.5) == 1.2

    def test_closed_form_linearity(self):
        rng = random.Random(33)
        for _ in range(25):
            alpha = rng.uniform(0.05, 1.0)
            his = [rng.uniform(0, 3) for _ in range(50)]
            r = Region(0, 8, "t1", quota=1)
            update_ema(r, his[0], alpha)
            for h in his[1:]:
                update_ema(r, h, alpha)
            # closed form: alpha * sum (1-alpha)^j hi_{k-j} + (1-alpha)^k hi_0
            k = len(his) - 1
            expect = (1 - alpha) ** k * his[0]
            for j, h in enumerate(reversed(his[1:])):
                expect += alpha * (1 - alpha) ** j * h
            assert r.whi == pytest.approx(expect, abs=1e-9)


def brute_force_promotion_ids(regions, space, n_bytes, views):
    """Independent oracle: hottest-first by (whi desc, id asc), skip regions
    already best-placed or oversized for the remaining budget."""
    free = dict(space.free)
    budget = n_bytes
    picked = []
    for r in sorted(regions, key=lambda r: (-(r.whi or 0.0), r.id)):
        if (r.whi or 0.0) <= 0 or r.bytes > budget:
            continue
        order = resolve_destination(r, views)
        dst = next((t for t in order[:order.index(r.tier)]
                    if free.get(t, 0) >= r.bytes), None)
        if dst is None:
            continue
        picked.append((r.id, dst))
        free[dst] -= r.bytes
        free[r.tier] += r.bytes
        budget -= r.bytes
    return picked


class TestPlanPromotions:
    """plan_interval in scenarios where no resident of a target tier is
    strictly colder than the candidate, so nothing can be demoted and the
    plan must equal the promotion-only oracle."""

    def test_hottest_already_fastest_is_skipped(self):
        space = space_pages((64, 64, 64, 64))
        regs = [region(0, 8, "t1", 3.0), region(8, 8, "t3", 2.5)]
        occupy(space, regs)
        assert promotions(regs, space, 8 * BASE_PAGE_BYTES) == [(8, "t1")]

    def test_top_k_matches_brute_force(self):
        space = space_pages((64, 64, 64, 64))
        regs = [region(0, 8, "t3", 2.9), region(8, 8, "t3", 2.5),
                region(16, 8, "t4", 2.7)]
        occupy(space, regs)
        n = 16 * BASE_PAGE_BYTES  # room for exactly two regions
        got = promotions(regs, space, n)
        assert got == brute_force_promotion_ids(regs, space, n, space.topology.views)
        assert {rid for rid, _ in got} == {0, 16}

    def test_all_optimally_placed_empty_plan(self):
        space = space_pages((64, 64, 64, 64))
        regs = [region(0, 8, "t1", 3.0), region(8, 8, "t1", 2.0)]
        occupy(space, regs)
        assert promotions(regs, space, 4 * BASE_PAGE_BYTES) == []

    def test_overflow_to_second_fastest_when_fastest_full(self):
        space = space_pages((8, 64, 64, 64))
        # t1 is full with a region as hot as the hottest candidate: not
        # strictly colder, so it cannot be demoted to make room
        regs = [region(0, 8, "t1", 3.0), region(8, 8, "t4", 3.0),
                region(16, 8, "t4", 2.8)]
        occupy(space, regs)
        assert promotions(regs, space, 16 * BASE_PAGE_BYTES) == \
            [(8, "t2"), (16, "t2")]

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(99)
        for _ in range(60):
            caps = [rng.randrange(16, 128) for _ in range(4)]
            space = space_pages(caps)
            spans, start = [], 0
            for _ in range(rng.randrange(2, 24)):
                ln = rng.randrange(1, 6)
                spans.append((start, ln))
                start += ln
            # unique whi keeps the ordering unambiguous
            whis = [w / 1000 for w in rng.sample(range(1, 3000), len(spans))]
            # Placed hottest first, a region never sits in a faster tier than
            # a hotter one: every resident of a candidate's target tier is
            # hotter than the candidate.
            regs, rank = [], 0
            for (start, ln), whi in sorted(zip(spans, whis), key=lambda x: -x[1]):
                rank = min(3, rank + (rng.random() < 0.3))
                tier = space.topology.tier_ids[rank]
                if space.free[tier] >= ln * BASE_PAGE_BYTES:
                    r = region(start, ln, tier, whi)
                    regs.append(r)
                    space.free[tier] -= r.bytes
            n_bytes = rng.randrange(1, 64) * BASE_PAGE_BYTES
            assert promotions(regs, space, n_bytes) == \
                brute_force_promotion_ids(regs, space, n_bytes, space.topology.views)


class TestPlanDemotions:
    def test_coldest_demoted_one_level(self):
        space = space_pages((16, 64, 64, 64))
        regs = [region(0, 8, "t1", 3.0), region(8, 8, "t1", 0.2)]
        occupy(space, regs)
        moves = plan_demotions("t1", 8 * BASE_PAGE_BYTES, coldest_first(regs),
                               space.topology.views, dict(space.free), set())
        assert [(m.region_id, m.src, m.dst) for m in moves] == \
            [(8, "t1", "t2")]

    def test_cascade_two_levels(self):
        # t2 is full as well: making room in t1 demotes t2's coldest into t3
        space = space_pages((8, 8, 64, 64))
        regs = [region(0, 8, "t1", 2.0), region(8, 8, "t2", 0.5)]
        occupy(space, regs)
        planned_free, planned = dict(space.free), set()
        plan = plan_demotions("t1", 8 * BASE_PAGE_BYTES, coldest_first(regs),
                              space.topology.views, planned_free, planned)
        moves = [(m.region_id, m.src, m.dst) for m in plan]
        assert moves == [(8, "t2", "t3"), (0, "t1", "t2")]
        # space accounting: replay the plan against the ledgers
        free = dict(space.free)
        for m in plan:
            free[m.dst] -= m.bytes
            free[m.src] += m.bytes
            assert all(v >= 0 for v in free.values())
        # the planner applied the same moves to the ledger it was given
        assert planned_free == free
        assert planned == {0, 8}

    def test_zero_need_empty(self):
        space = space_pages((16, 16, 16, 16))
        assert plan_demotions("t1", 0, [], space.topology.views,
                              dict(space.free), set()) == []

    def test_memory_exhausted(self):
        space = space_pages((8, 8, 8, 8))
        regs = [region(0, 8, "t1", 1.0), region(8, 8, "t2", 0.9),
                region(16, 8, "t3", 0.8), region(24, 8, "t4", 0.7)]
        occupy(space, regs)  # every tier full
        free, planned = dict(space.free), {99}
        with pytest.raises(CapacityError):
            plan_demotions("t1", 8 * BASE_PAGE_BYTES, coldest_first(regs),
                           space.topology.views, free, planned)
        assert free == space.free
        assert planned == {99}

    def test_partial_progress_is_rolled_back(self):
        # the first t1 region fits in t2, the second finds every lower tier
        # full: t1 gains 8 of the 16 pages asked for, and the planner hands
        # back the ledger and planned set it was given
        space = space_pages((16, 8, 8, 8))
        regs = [region(0, 8, "t1", 0.1), region(8, 8, "t1", 0.2),
                region(16, 8, "t3", 0.8), region(24, 8, "t4", 0.7)]
        occupy(space, regs)
        free, planned = dict(space.free), set()
        with pytest.raises(CapacityError, match="could free only 32768 of 65536"):
            plan_demotions("t1", 16 * BASE_PAGE_BYTES, coldest_first(regs),
                           space.topology.views, free, planned)
        assert free == space.free
        assert planned == set()


class TestResolveDestination:
    views = {0: ["t1", "t2", "t3", "t4"], 1: ["t2", "t1", "t4", "t3"]}

    def test_argmax_wins(self):
        r = region(0, 8, "t3", 1.0, origin={0: 5, 1: 2})
        assert resolve_destination(r, self.views) == self.views[0]

    def test_tie_breaks_to_lower_node(self):
        r = region(0, 8, "t3", 1.0, origin={0: 4, 1: 4})
        assert resolve_destination(r, self.views) == self.views[0]

    def test_node1_dominant_uses_node1_view(self):
        r = region(0, 8, "t3", 1.0, origin={1: 7})
        assert resolve_destination(r, self.views) == self.views[1]

    def test_all_zero_defaults_to_node0(self):
        r = region(0, 8, "t3", 1.0)
        assert resolve_destination(r, self.views) == self.views[0]

    def test_argmax_scale_invariance(self):
        rng = random.Random(6)
        for _ in range(50):
            counts = {0: rng.randrange(0, 50), 1: rng.randrange(0, 50)}
            r1 = region(0, 8, "t3", 1.0, origin=counts)
            k = rng.randrange(2, 9)
            r2 = region(0, 8, "t3", 1.0,
                        origin={n: c * k for n, c in counts.items()})
            assert resolve_destination(r1, self.views) == \
                resolve_destination(r2, self.views)


class TestPlanInterval:
    def test_demotions_precede_promotions_and_fit(self):
        space = space_pages((16, 16, 64, 64))
        regs = [region(0, 16, "t1", 0.3), region(16, 8, "t4", 3.0),
                region(24, 8, "t3", 2.5)]
        occupy(space, regs)
        before = dict(space.free)
        policy = PolicyConfig(n_bytes=16 * BASE_PAGE_BYTES)
        plan = plan_interval(regs, space, policy)
        assert space.free == before  # planning changes only its own copy
        reasons = [m.reason for m in plan.moves]
        assert "demote" in reasons and "promote" in reasons
        assert reasons.index("demote") < reasons.index("promote")
        free = dict(space.free)
        for m in plan.moves:
            free[m.dst] -= m.bytes
            free[m.src] += m.bytes
            assert min(free.values()) >= 0
        assert sum(m.bytes for m in plan.moves if m.reason == "promote") <= policy.n_bytes


# plan_interval's input at the interval where mtm's plan stopped being
# executable: four tiers t0-t3 of 4/4/16/16 MiB, three nodes whose views
# disagree on the order of t0 and t1, GUPS on 2 048 pages in 8 intervals of
# 512 accesses, seed 31, origin sampling on, 16-page regions.  Each region is
# (start, pages, tier, whi, origin counts).
CASCADE_VIEWS = {0: ["t1", "t0", "t2", "t3"], 1: ["t0", "t1", "t3", "t2"],
                 2: ["t1", "t0", "t2", "t3"]}
CASCADE_FREE = {"t0": 131072, "t1": 790528, "t2": 16056320, "t3": 16580608}
CASCADE_REGIONS = [
    (0, 48, "t1", 0.049479166666666664, {0: 5, 1: 2, 2: 2}),
    (48, 48, "t3", 0.07291666666666667, {0: 1, 2: 1, 1: 2}),
    (96, 48, "t1", 0.12760416666666666, {1: 4, 0: 5, 2: 6}),
    (144, 144, "t0", 0.08246527777777778, {2: 9, 1: 15, 0: 8}),
    (288, 48, "t1", 0.078125, {2: 3, 0: 2, 1: 3}),
    (336, 176, "t0", 0.07954545454545454, {2: 11, 0: 6, 1: 21}),
    (512, 48, "t1", 0.08333333333333333, {2: 1, 1: 3, 0: 9}),
    (560, 80, "t0", 0.0765625, {1: 10, 0: 3, 2: 3}),
    (640, 160, "t1", 0.1015625, {1: 11, 2: 18, 0: 19}),
    (800, 96, "t0", 0.06380208333333333, {2: 6, 1: 7, 0: 5}),
    (896, 16, "t1", 0.0078125, {}),
    (912, 32, "t0", 0.046875, {0: 2, 1: 3, 2: 2}),
    (960, 208, "t0", 0.07872596153846154, {2: 12, 1: 17, 0: 18}),
    (1168, 16, "t2", 0.0625, {0: 1}),
    (1184, 64, "t0", 0.078125, {2: 3, 0: 5, 1: 6}),
    (1248, 48, "t1", 0.0625, {2: 1, 1: 4, 0: 2}),
    (1296, 32, "t0", 0.7890625, {0: 24, 1: 35, 2: 21}),
    (1328, 32, "t0", 0.7890625, {0: 24, 1: 35, 2: 21}),
    (1360, 32, "t1", 0.92578125, {0: 40, 2: 47, 1: 33}),
    (1392, 24, "t0", 0.9010416666666666, {2: 48, 1: 85, 0: 47}),
    (1416, 24, "t0", 0.9010416666666666, {2: 48, 1: 85, 0: 47}),
    (1440, 128, "t1", 0.9106445312500001, {2: 278, 1: 223, 0: 303}),
    (1568, 128, "t1", 0.9106445312500001, {2: 278, 1: 223, 0: 303}),
    (1696, 64, "t0", 0.314453125, {1: 19, 0: 15, 2: 17}),
    (1760, 64, "t1", 0.1015625, {2: 7, 0: 4, 1: 2}),
    (1824, 48, "t2", 0.07552083333333334, {2: 4, 0: 5, 1: 2}),
    (1872, 16, "t0", 0.1875, {}),
    (1888, 112, "t2", 0.09933035714285715, {2: 14, 1: 9, 0: 7}),
    (2000, 47, "t1", 0.08776595744680851, {2: 5, 0: 7, 1: 3}),
]


def test_cascade_never_overdraws_a_tier_it_frees():
    """Making room in t1 demotes a t1 region into t0; t0 must then not make
    its own room by cascading a region back into t1."""
    space = MemoryState(build_topology({
        "tiers": [{"id": t, "capacity_bytes": mib << 20}
                  for t, mib in (("t0", 4), ("t1", 4), ("t2", 16), ("t3", 16))],
        "nodes": [0, 1, 2], "views": CASCADE_VIEWS}), CostModel(), 0)
    space.free.update(CASCADE_FREE)
    regs = [region(s, ln, t, whi, origin) for s, ln, t, whi, origin in CASCADE_REGIONS]
    plan = plan_interval(regs, space, PolicyConfig())
    assert any(m.reason == "promote" for m in plan.moves)
    free = dict(CASCADE_FREE)
    for m in plan.moves:
        free[m.dst] -= m.bytes
        free[m.src] += m.bytes
        assert free[m.dst] >= 0, f"{m} overdraws {m.dst}"
