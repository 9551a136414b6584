import copy
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import profiler
from tiersim.memmodel import (
    BASE_PAGE_BYTES, BudgetError, CostModel, MemoryState,
    build_topology,
)
from tiersim.profiler import (
    Profiler, ProfilerConfig, Region, _pebs_sampled_pages, _resize_samples,
    compute_budget, effective_scan_cost, merge_pass, owner_of,
    rebalance_to_budget, redistribute_quota, sample_origin, split_pass,
    total_quota,
)
from tiersim.workload import AccessTrace

from placement import tier_of


def two_tier_space(num_pages=2048, cap_pages=(4096, 4096), period=10):
    topo = build_topology({
        "tiers": [
            {"id": "fast", "capacity_bytes": cap_pages[0] * BASE_PAGE_BYTES,
             "access_cost": 1.0},
            {"id": "slow", "capacity_bytes": cap_pages[1] * BASE_PAGE_BYTES,
             "access_cost": 3.0},
        ],
        "nodes": [0],
    })
    return MemoryState(topo, CostModel(pebs_sample_period=period), num_pages)


def region(start, length, tier="fast", quota=1, hi=0.0, hi_prev=0.0, whi=None,
           samples=None, counts=None):
    r = Region(start, length, tier, samples=samples if samples is not None
               else list(range(start, start + quota)))
    r.hi = hi
    r.hi_prev = hi_prev
    r.whi = whi
    r.sample_counts = counts if counts is not None else [0] * len(r.samples)
    return r


def trace_of(pages, writes=None, node=0, api=None):
    writes = writes or [False] * len(pages)
    return AccessTrace(list(pages), list(writes), [node] * len(pages),
                       accesses_per_interval=api or max(1, len(pages)),
                       footprint=max(pages, default=-1) + 1)


class TestComputeBudget:
    def test_direct_substitution(self):
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3)
        assert compute_budget(cfg, CostModel(scan_cost=2.0), app_time=1e6) == 8333

    def test_origin_sampling_doubles_scan_cost(self):
        cfg = ProfilerConfig(overhead_constraint=0.05,
                             num_scans=3, origin_sampling=True)
        # amortized hint fault, one every HINT_FAULT_PERIOD = 12 scans:
        # 2.0 * (1 + 12/12) = 4.0 per scan
        assert profiler.HINT_FAULT_PERIOD == 12
        cost = CostModel(scan_cost=2.0, hint_fault_multiplier=12.0)
        assert effective_scan_cost(cfg, cost) == 4.0
        assert compute_budget(cfg, cost, app_time=1e6) == 4166

    def test_infeasible_constraint(self):
        cfg = ProfilerConfig(overhead_constraint=0.01, num_scans=3)
        with pytest.raises(BudgetError):
            compute_budget(cfg, CostModel(scan_cost=1.0), app_time=10.0)

    def test_matches_arithmetic_oracle_randomized(self, monkeypatch):
        rng = random.Random(202)
        for _ in range(100):
            app_time = rng.uniform(1e3, 1e7)
            cfg = ProfilerConfig(
                overhead_constraint=rng.uniform(0.01, 0.3),
                num_scans=rng.randrange(1, 8),
                origin_sampling=rng.random() < 0.5)
            period = rng.randrange(1, 30)
            monkeypatch.setattr(profiler, "HINT_FAULT_PERIOD", period)
            scan_cost = rng.uniform(0.1, 5.0)
            mult = rng.uniform(1.0, 20.0)
            eff = scan_cost * (1 + mult / period) \
                if cfg.origin_sampling else scan_cost
            expect = int(app_time * cfg.overhead_constraint
                         // (eff * cfg.num_scans))
            try:
                got = compute_budget(cfg, CostModel(scan_cost=scan_cost,
                                                    hint_fault_multiplier=mult),
                                     app_time)
            except BudgetError:
                assert expect < 1
                continue
            assert got == expect


class TestMergePass:
    def test_merges_when_diff_below_tau1(self):
        regs = [region(0, 8, hi=2.0), region(8, 8, hi=2.4)]
        out = merge_pass(regs, tau1=1.0)
        assert len(out) == 1
        assert out[0].len_pages == 16

    def test_quota_halving(self):
        regs = [region(0, 8, quota=4, hi=1.0), region(8, 8, quota=2, hi=1.0)]
        out = merge_pass(regs, tau1=1.0)
        assert out[0].samples == [0, 8, 1]
        assert out[0].quota == 3

    def test_min_quota_one(self):
        regs = [region(0, 8, quota=1, hi=0.0), region(8, 8, quota=1, hi=0.0)]
        out = merge_pass(regs, tau1=1.0)
        assert out[0].samples == [0]
        assert out[0].quota == 1

    def test_no_merge_across_tiers_or_gaps(self):
        regs = [region(0, 8, tier="fast", hi=1.0),
                region(8, 8, tier="slow", hi=1.0),
                region(32, 8, tier="slow", hi=1.0)]
        out = merge_pass(regs, tau1=3.0)
        assert len(out) == 3

    def test_idempotent(self):
        rng = random.Random(5)
        regs = [region(i * 8, 8, quota=2, hi=rng.uniform(0, 3)) for i in range(20)]
        once = merge_pass(regs, tau1=1.0)
        twice = merge_pass(once, tau1=1.0)
        assert [(r.start_page, r.len_pages, r.samples) for r in twice] == \
            [(r.start_page, r.len_pages, r.samples) for r in once]

    def test_merged_whi_is_size_weighted(self):
        regs = [region(0, 8, hi=1.0, whi=1.0), region(8, 24, hi=1.2, whi=2.0)]
        out = merge_pass(regs, tau1=1.0)
        assert out[0].whi == pytest.approx((1.0 * 8 + 2.0 * 24) / 32)


class TestSplitPass:
    def test_splits_on_count_spread(self):
        regs = [region(0, 16, quota=2, samples=[1, 9], counts=[0, 3])]
        out, splits = split_pass(regs, tau2=2.0, rng=random.Random(1))
        assert splits == 1
        assert [r.start_page for r in out] == [0, 8]
        assert [r.len_pages for r in out] == [8, 8]
        assert all(r.quota == 1 for r in out)

    def test_no_split_when_spread_at_threshold(self):
        regs = [region(0, 16, quota=2, samples=[1, 9], counts=[2, 2])]
        out, splits = split_pass(regs, tau2=2.0, rng=random.Random(1))
        assert splits == 0
        assert len(out) == 1

    def test_one_sample_region_never_splits(self):
        # one sample cannot be shared by two halves, whatever its counts say
        # (counts left over from before a merge can spread beyond tau2)
        rng = random.Random(1)
        state = rng.getstate()
        reg = region(0, 16, quota=1, samples=[3], counts=[0, 3])
        out, splits = split_pass([reg], tau2=2.0, rng=rng)
        assert splits == 0
        assert out == [reg]
        assert reg.samples == [3]
        assert rng.getstate() == state

    def test_whi_copied_to_both_halves(self):
        regs = [region(0, 16, quota=2, samples=[1, 9], counts=[0, 3], whi=1.7)]
        out, _ = split_pass(regs, tau2=2.0, rng=random.Random(1))
        assert [r.whi for r in out] == [1.7, 1.7]


def ref_weighted(a, b, attr):
    va = getattr(a, attr)
    vb = getattr(b, attr)
    if attr == "whi":
        va = a.hi if va is None else va
        vb = b.hi if vb is None else vb
    return (va * a.len_pages + vb * b.len_pages) / (a.len_pages + b.len_pages)


def ref_merge_sweep(regions, tau1):
    changed = False
    out = []
    for reg in regions:
        if out:
            prev = out[-1]
            if (prev.tier == reg.tier and prev.end_page == reg.start_page
                    and abs(prev.hi - reg.hi) < tau1):
                merged_quota = max(1, (prev.quota + reg.quota) // 2)
                samples = profiler._interleave(prev.samples, reg.samples)
                counts = profiler._interleave(prev.sample_counts, reg.sample_counts)
                origin = dict(prev.origin_counts)
                for n, c in reg.origin_counts.items():
                    origin[n] = origin.get(n, 0) + c
                merged = Region(
                    start_page=prev.start_page,
                    len_pages=prev.len_pages + reg.len_pages,
                    tier=prev.tier,
                    samples=samples[:merged_quota],
                    sample_counts=counts,
                    hi=ref_weighted(prev, reg, "hi"),
                    hi_prev=ref_weighted(prev, reg, "hi_prev"),
                    whi=ref_weighted(prev, reg, "whi"),
                    origin_counts=origin,
                )
                out[-1] = merged
                changed = True
                continue
        out.append(reg)
    return out, changed


def ref_merge_pass(regions, tau1):
    """Reference for `merge_pass`: the sweep helper and the attribute-named
    weighting it was written with before `_merged`."""
    while True:
        regions, changed = ref_merge_sweep(regions, tau1)
        if not changed:
            return regions


def ref_split_pass(regions, tau2, rng):
    """Reference for `split_pass`: its two halves built from copied lists."""
    out = []
    splits = 0
    for reg in regions:
        counts = reg.sample_counts
        if reg.quota < 2 or not counts or max(counts) - min(counts) <= tau2:
            out.append(reg)
            continue
        mid = reg.start_page + reg.len_pages // 2
        q_left = reg.quota // 2
        q_right = reg.quota - q_left
        pairs = list(zip(reg.samples, reg.sample_counts))
        left_pairs = [(s, c) for s, c in pairs if s < mid]
        right_pairs = [(s, c) for s, c in pairs if s >= mid]
        halves = []
        for (s0, ln, q, prs) in (
                (reg.start_page, mid - reg.start_page, q_left, left_pairs),
                (mid, reg.end_page - mid, q_right, right_pairs)):
            half = Region(
                start_page=s0, len_pages=ln, tier=reg.tier,
                samples=[s for s, _ in prs],
                sample_counts=[c for _, c in prs],
                hi=reg.hi, hi_prev=reg.hi_prev, whi=reg.whi,
                origin_counts=dict(reg.origin_counts),
            )
            _resize_samples(half, q, rng)
            halves.append(half)
        out.extend(halves)
        splits += 1
    return out, splits


def region_fields(regions):
    """Every field of every region, origin counts in their key order."""
    return [(r.start_page, r.len_pages, r.tier, r.samples, r.sample_counts,
             r.hi, r.hi_prev, r.whi, list(r.origin_counts.items())) for r in regions]


# hotness on a 0.3 grid, so neighbours often sit within tau1 of each other
# and a merge often brings a neighbour it first missed within reach
HOTNESS = st.integers(0, 10).map(lambda k: k * 0.3)


@st.composite
def region_runs(draw):
    """Regions in page order, mostly contiguous on one tier, each with
    distinct in-region samples, counts that may outnumber them, a whi that
    may be unobserved, and origin counts."""
    regions, start = [], draw(st.integers(0, 50))
    for _ in range(draw(st.integers(1, 9))):
        start += draw(st.sampled_from([0, 0, 0, 0, 2]))
        length = draw(st.integers(1, 12))
        samples = draw(st.lists(st.integers(start, start + length - 1),
                                unique=True, max_size=min(length, 5)))
        regions.append(Region(
            start, length, draw(st.sampled_from(["fast"] * 5 + ["slow"])),
            samples=samples,
            sample_counts=draw(st.lists(st.integers(0, 3), max_size=len(samples) + 4)),
            hi=draw(HOTNESS), hi_prev=draw(HOTNESS),
            whi=draw(st.none() | HOTNESS),
            origin_counts=draw(st.dictionaries(st.integers(0, 3), st.integers(1, 5),
                                               max_size=3))))
        start += length
    return regions


class TestRestructureMatchesTheParentLoops:
    """`merge_pass` and `split_pass` against the loops they replaced."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(region_runs(), st.sampled_from([0.5, 1.0, 1.5]))
    def test_merge_pass(self, regions, tau1):
        ref = copy.deepcopy(regions)
        assert region_fields(merge_pass(regions, tau1)) == \
            region_fields(ref_merge_pass(ref, tau1))

    def test_a_merge_can_bring_a_missed_neighbour_within_reach(self):
        """The middle pair merges to hotness 0.7, which the first region,
        1.5 from the middle one, then merges with: two sweeps."""
        regs = [region(0, 1, hi=0.0), region(1, 1, hi=1.5), region(2, 8, hi=0.6)]
        assert len(ref_merge_sweep(regs, 1.0)[0]) == 2
        out = merge_pass(regs, 1.0)
        assert region_fields(out) == region_fields(ref_merge_pass(regs, 1.0))
        assert [(r.start_page, r.len_pages) for r in out] == [(0, 10)]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(region_runs(), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2**32 - 1))
    def test_split_pass(self, regions, tau2, seed):
        ref = copy.deepcopy(regions)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        out, splits = split_pass(regions, tau2, rng)
        ref_out, ref_splits = ref_split_pass(ref, tau2, ref_rng)
        assert (region_fields(out), splits) == (region_fields(ref_out), ref_splits)
        assert rng.getstate() == ref_rng.getstate()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(region_runs(), st.integers(0, 2**32 - 1))
    def test_merge_then_split(self, regions, seed):
        """As `end_interval` runs them: merged regions keep every count,
        so the split reads counts that outnumber the samples."""
        ref = copy.deepcopy(regions)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        out, splits = split_pass(merge_pass(regions, 1.0), 1.0, rng)
        ref_out, ref_splits = ref_split_pass(ref_merge_pass(ref, 1.0), 1.0, ref_rng)
        assert (region_fields(out), splits) == (region_fields(ref_out), ref_splits)
        assert rng.getstate() == ref_rng.getstate()


class TestRedistribute:
    def _five(self):
        regs = []
        scores = [3.0, 2.5, 2.0, 1.5, 1.0]
        for i, s in enumerate(scores):
            regs.append(region(i * 32, 32, quota=1, hi=s, hi_prev=0.0))
        return regs

    def test_even_split_across_five(self):
        regs = self._five()
        left = redistribute_quota(regs, 5, random.Random(1))
        assert left == 0
        assert [r.quota for r in regs] == [2, 2, 2, 2, 2]

    def test_remainder_to_highest_scores(self):
        regs = self._five()
        redistribute_quota(regs, 7, random.Random(1))
        # 7 = 1 each + remainder 2 to the two largest swings
        assert [r.quota for r in regs] == [3, 3, 2, 2, 2]

    def test_fewer_than_five_regions(self):
        regs = self._five()[:2]
        redistribute_quota(regs, 5, random.Random(1))
        assert [r.quota for r in regs] == [4, 3]

    def test_sample_lists_track_quota(self):
        regs = self._five()
        redistribute_quota(regs, 9, random.Random(1))
        for r in regs:
            assert len(r.samples) == r.quota
            assert all(r.start_page <= s < r.end_page for s in r.samples)

    def test_zero_saved_noop(self):
        regs = self._five()
        assert redistribute_quota(regs, 0, random.Random(1)) == 0
        assert [r.quota for r in regs] == [1] * 5

    def test_skips_a_block_that_samples_every_page(self):
        # the five largest swings already sample both of their pages, so the
        # spare samples go to the next block
        full = [region(i * 2, 2, quota=2, hi=10.0 - i) for i in range(5)]
        rest = [region(100, 32, quota=1, hi=1.0), region(200, 32, quota=1, hi=0.5)]
        assert redistribute_quota(full + rest, 3, random.Random(1)) == 0
        assert [r.samples for r in full] == [[i * 2, i * 2 + 1] for i in range(5)]
        assert [r.quota for r in rest] == [3, 2]


def shave_one_at_a_time(regions, num_ps, rng):
    """Reference for `rebalance_to_budget`: take one sample at a time from the
    richest region with more than one, the lowest id among equals."""
    excess = total_quota(regions) - num_ps
    while excess > 0:
        donor = max((r for r in regions if r.quota > 1),
                    key=lambda r: (r.quota, -r.id), default=None)
        if donor is None:
            break
        pool_resize(donor, donor.quota - 1, rng)
        excess -= 1
    if excess < 0:
        redistribute_quota(regions, -excess, rng)


@st.composite
def budgeted_regions(draw):
    """Regions in any order whose quotas tie often, some with counts longer
    than their samples, and a budget from zero to a little over their total."""
    quotas = draw(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    extra = draw(st.lists(st.integers(0, 3), min_size=len(quotas),
                          max_size=len(quotas)))
    regions = [Region(i * 8, 8, "fast", samples=list(range(i * 8, i * 8 + q)),
                      sample_counts=[1] * (q + e))
               for i, (q, e) in enumerate(zip(quotas, extra))]
    regions = draw(st.permutations(regions))
    return regions, draw(st.integers(0, sum(quotas) + 4))


class TestRebalance:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(budgeted_regions(), st.integers(0, 2**32 - 1))
    def test_shaves_what_one_at_a_time_shaves(self, case, seed):
        regions, num_ps = case
        ref = [Region(r.start_page, r.len_pages, r.tier, samples=list(r.samples),
                      sample_counts=list(r.sample_counts)) for r in regions]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        state, shaving = rng.getstate(), num_ps <= total_quota(regions)
        rebalance_to_budget(regions, num_ps, rng)
        shave_one_at_a_time(ref, num_ps, ref_rng)
        assert [(r.samples, r.sample_counts) for r in regions] == \
            [(r.samples, r.sample_counts) for r in ref]
        assert rng.getstate() == ref_rng.getstate()
        if shaving:
            assert rng.getstate() == state  # cuts draw nothing

    def test_the_partial_level_cuts_the_lowest_ids_first(self):
        regs = [region(64, 32, quota=4), region(0, 32, quota=4),
                region(32, 32, quota=4), region(96, 32, quota=2)]
        rebalance_to_budget(regs, 10, random.Random(1))
        assert {r.id: r.quota for r in regs} == {0: 2, 32: 3, 64: 3, 96: 2}

    def test_regions_outnumbering_the_budget_keep_one_sample_each(self):
        regs = [region(0, 32, quota=3), region(32, 32, quota=2),
                region(64, 32), region(96, 32)]
        rng = random.Random(1)
        state = rng.getstate()
        rebalance_to_budget(regs, 2, rng)
        assert [r.samples for r in regs] == [[0], [32], [64], [96]]
        assert total_quota(regs) == 4 > 2
        assert rng.getstate() == state


def interval_trace(page_hits: dict[int, list[int]], num_scans=3, filler_page=0):
    """Build a trace whose sub-window w contains pages p with w in hits[p]."""
    per_window = []
    for w in range(num_scans):
        window = [p for p, ws in page_hits.items() if w in ws]
        per_window.append(window or [filler_page])
    n = max(len(w) for w in per_window)
    pages = []
    for w in per_window:
        padded = list(w) + [filler_page] * (n - len(w))
        pages.extend(padded)
    return trace_of(pages)


class TestProfileInterval:
    def make_profiler(self, space, num_pages_mapped, budget_pages=32, **cfg_kw):
        for p in range(num_pages_mapped):
            space.map_pages((p,), "fast")
        defaults = dict(overhead_constraint=0.05, num_scans=3,
                        default_region_pages=16)
        defaults.update(cfg_kw)
        cfg = ProfilerConfig(**defaults)
        prof = Profiler(cfg, space, random.Random(9), pebs_assist=False)
        # the app time whose 5% buys budget_pages samples of 3 scans each
        self.app_time = budget_pages * 3.0 / 0.05
        prof.set_budget(self.app_time)
        return prof

    def test_sample_hit_every_subwindow_gives_hi_3(self):
        space = two_tier_space(num_pages=16)
        prof = self.make_profiler(space, 16, budget_pages=1)
        prof.regions = [region(0, 16, quota=1, samples=[4], counts=[0])]
        prof.active_ids = {0}
        prof.initialized = True
        trace = interval_trace({4: [0, 1, 2]})
        prof.profile_interval(trace.interval_slice(0))
        assert prof.regions[0].sample_counts == [3]
        assert prof.regions[0].hi == 3.0

    def test_mixed_counts_mean(self):
        space = two_tier_space(num_pages=16)
        prof = self.make_profiler(space, 16, budget_pages=2)
        prof.regions = [region(0, 16, quota=2, samples=[4, 9], counts=[0, 0])]
        prof.active_ids = {0}
        prof.initialized = True
        trace = interval_trace({9: [0, 1, 2]})  # page 4 never accessed
        prof.profile_interval(trace.interval_slice(0))
        assert sorted(prof.regions[0].sample_counts) == [0, 3]
        assert prof.regions[0].hi == 1.5

    def test_ledger_exactly_scans_times_cost_and_within_budget(self):
        space = two_tier_space(num_pages=64)
        prof = self.make_profiler(space, 64, budget_pages=8)
        prof.regions = [region(0, 32, quota=4), region(32, 32, quota=4)]
        prof.active_ids = {0, 32}
        prof.initialized = True
        trace = trace_of(list(range(60)))
        before = space.ledger.profiling
        scanned = prof.profile_interval(trace.interval_slice(0))
        spent = space.ledger.profiling - before
        assert scanned == prof.regions  # both, in region order
        scans = sum(len(r.sample_counts) for r in scanned) * prof.cfg.num_scans
        assert scans == 8 * 3
        assert spent == pytest.approx(scans * space.cost_model.scan_cost)
        assert spent <= self.app_time * prof.cfg.overhead_constraint

    def test_clamped_regions_warn_once_per_interval(self, caplog):
        space = two_tier_space(num_pages=64)
        prof = self.make_profiler(space, 64, budget_pages=2)
        prof.regions = [region(0, 16, quota=2), region(16, 16, quota=2),
                        region(32, 16, quota=2)]
        prof.active_ids = {0, 16, 32}
        prof.initialized = True
        with caplog.at_level(logging.WARNING):
            prof.profile_interval(trace_of(list(range(48))).interval_slice(0))
        clamps = [rec.getMessage() for rec in caplog.records
                  if "scan budget clamp" in rec.getMessage()]
        assert clamps == ["scan budget clamp: 2 of 3 active regions get fewer "
                          "samples than their quota"]

    def test_a_page_touched_only_before_its_draw_reads_0(self):
        """A page touched in interval 0 alone, then drawn as a sample, reads
        0 in interval 1: its scans see only interval 1's sub-windows."""
        space = two_tier_space(num_pages=16)
        prof = self.make_profiler(space, 16, budget_pages=1)
        trace = trace_of([4] * 3 + [9] * 3, api=3)
        space.replay(trace.interval_slice(0))
        prof.regions = [region(0, 16, quota=1, samples=[4], counts=[0])]
        prof.active_ids = {0}
        prof.initialized = True
        prof.profile_interval(trace.interval_slice(1))
        assert prof.regions[0].sample_counts == [0]
        assert prof.regions[0].hi == 0.0

    def test_hi_prev_rotates(self):
        space = two_tier_space(num_pages=16)
        prof = self.make_profiler(space, 16, budget_pages=1)
        reg = region(0, 16, quota=1, samples=[4], counts=[0], hi=2.0)
        prof.regions = [reg]
        prof.active_ids = {0}
        prof.initialized = True
        prof.profile_interval(interval_trace({4: [1]}).interval_slice(0))
        assert reg.hi_prev == 2.0
        assert reg.hi == 1.0


class TestInitRegions:
    def test_fast_tier_every_window_one_sample(self):
        space = two_tier_space(num_pages=64)
        for p in range(64):
            space.map_pages((p,), "fast")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=16)
        prof = Profiler(cfg, space, random.Random(1))
        prof.init_regions(trace_of([0, 1]).interval_slice(0), app_time=3000)
        fast = [r for r in prof.regions if r.tier == "fast"]
        assert [(r.start_page, r.len_pages) for r in fast] == \
            [(0, 16), (16, 16), (32, 16), (48, 16)]
        assert prof.num_ps == 50
        assert total_quota(prof.regions) == prof.num_ps

    def test_budget_beyond_every_page_samples_each_page_once(self):
        space = two_tier_space(num_pages=64)
        for p in range(64):
            space.map_pages((p,), "fast")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=16)
        prof = Profiler(cfg, space, random.Random(1))
        prof.init_regions(trace_of([0, 1]).interval_slice(0), app_time=6000)
        assert prof.num_ps == 100
        assert [sorted(r.samples) for r in prof.regions] == \
            [list(range(s, s + 16)) for s in range(0, 64, 16)]

    def test_slowest_without_counter_samples_has_no_regions(self):
        space = two_tier_space(num_pages=64)
        for p in range(32):
            space.map_pages((p,), "fast")
        for p in range(32, 64):
            space.map_pages((p,), "slow")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=16)
        prof = Profiler(cfg, space, random.Random(1))
        # trace touches only fast pages: the counters see nothing in `slow`
        prof.init_regions(trace_of(list(range(32)) * 4).interval_slice(0),
                          app_time=6000)
        assert all(r.tier != "slow" for r in prof.regions)

    def test_counter_identified_page_is_the_sample(self, monkeypatch):
        monkeypatch.setattr(profiler, "PEBS_WINDOW_FRACTION", 1.0)
        space = two_tier_space(num_pages=64, period=3)
        for p in range(16):
            space.map_pages((p,), "fast")
        for p in range(16, 64):
            space.map_pages((p,), "slow")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=16)
        prof = Profiler(cfg, space, random.Random(1))
        # every 3rd slow access is sampled: page 20 is the 3rd
        slc = trace_of([18, 19, 20, 18, 19, 18]).interval_slice(0)
        prof.init_regions(slc, app_time=6000)
        slow_regions = [r for r in prof.regions if r.tier == "slow"]
        assert len(slow_regions) == 1
        assert 20 in slow_regions[0].samples


class TestAdoptNewPages:
    @pytest.mark.parametrize("pebs_assist", [False, True])
    def test_mapped_pages_lie_in_one_region(self, pebs_assist):
        space = two_tier_space(num_pages=96)
        for p in range(16):
            space.map_pages((p,), "fast")
        for p in range(16, 32):
            space.map_pages((p,), "slow")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=16)
        prof = Profiler(cfg, space, random.Random(1), pebs_assist=pebs_assist)
        prof.init_regions(trace_of([0, 1]).interval_slice(0), app_time=600)
        for p in range(32, 64):
            space.map_pages((p,), "fast")
        for p in range(64, 96):
            space.map_pages((p,), "slow")
        prof.adopt_new_pages()
        owners = [sum(r.start_page <= p < r.end_page for r in prof.regions)
                  for p in range(96)]
        # with counter assistance the slowest tier waits for a nomination
        slow_owners = 0 if pebs_assist else 1
        assert owners == [1] * 16 + [slow_owners] * 16 + [1] * 32 + [slow_owners] * 32
        assert total_quota(prof.regions) == prof.num_ps


def pool_resize(reg, quota, rng):
    """Reference for `_resize_samples`: build the region's unsampled pages in
    page order and pop a random entry of that pool per new sample."""
    quota = min(quota, reg.len_pages)
    if len(reg.samples) > quota:
        del reg.samples[quota:]
        del reg.sample_counts[quota:]
        return
    have = set(reg.samples)
    pool = [p for p in range(reg.start_page, reg.end_page) if p not in have]
    while len(reg.samples) < quota and pool:
        reg.samples.append(pool.pop(rng.randrange(len(pool))))


@st.composite
def sampled_regions(draw):
    """A region with distinct in-region samples in any order, counts of any
    length, and the quotas it is resized to in turn."""
    start = draw(st.integers(0, 1000))
    length = draw(st.integers(1, 300))
    offsets = draw(st.lists(st.integers(0, length - 1), unique=True,
                            max_size=min(length, 40)))
    counts = draw(st.lists(st.integers(0, 3), max_size=len(offsets) + 3))
    quotas = draw(st.lists(st.integers(0, length + 2), min_size=1, max_size=4))
    return Region(start, length, "slow", samples=[start + o for o in offsets],
                  sample_counts=counts), quotas


class TestTopUpSamples:
    """`_resize_samples` tops a region up with fresh pages, and cuts it down
    without drawing."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(sampled_regions(), st.integers(0, 2**32 - 1))
    def test_draws_what_popping_a_pool_draws(self, case, seed):
        reg, quotas = case
        ref = Region(reg.start_page, reg.len_pages, reg.tier,
                     samples=list(reg.samples), sample_counts=list(reg.sample_counts))
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for quota in quotas:
            _resize_samples(reg, quota, rng)
            pool_resize(ref, quota, ref_rng)
            assert (reg.samples, reg.sample_counts) == (ref.samples, ref.sample_counts)
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("start, length, samples", [
        (0, 16, []), (32, 512, [40]), (100, 7, [103, 100]), (8, 1, [8])])
    def test_grows_one_at_a_time_like_a_popped_pool(self, start, length, samples):
        """init_regions' round-robin tops a region up one sample per call."""
        reg, ref = (Region(start, length, "slow", samples=list(samples)) for _ in "ab")
        rng, ref_rng = random.Random(start), random.Random(start)
        for _ in range(length + 2):  # runs past the page count
            _resize_samples(reg, reg.quota + 1, rng)
            pool_resize(ref, ref.quota + 1, ref_rng)
            assert reg.samples == ref.samples
        assert sorted(reg.samples) == list(range(start, start + length))
        assert rng.getstate() == ref_rng.getstate()

    def test_shrink_drops_trailing_samples_and_draws_nothing(self):
        reg = region(0, 16, quota=4, samples=[5, 1, 9, 2], counts=[3, 0, 2, 1])
        rng = random.Random(7)
        state = rng.getstate()
        _resize_samples(reg, 2, rng)
        assert (reg.samples, reg.sample_counts) == ([5, 1], [3, 0])
        assert rng.getstate() == state


class TestPebsAssist:
    @pytest.fixture(autouse=True)
    def _whole_interval_window(self, monkeypatch):
        monkeypatch.setattr(profiler, "PEBS_WINDOW_FRACTION", 1.0)

    def setup_profiler(self, period=2):
        space = two_tier_space(num_pages=96, period=period)
        for p in range(32):
            space.map_pages((p,), "fast")
        for p in range(32, 96):
            space.map_pages((p,), "slow")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=32)
        prof = Profiler(cfg, space, random.Random(1))
        prof.init_regions(trace_of([33, 34, 33, 34] * 2).interval_slice(0),
                          app_time=6000)
        prof.initialized = True
        return prof

    def test_no_slowest_accesses_skips_all_slowest_regions(self):
        prof = self.setup_profiler()
        slowest_ids = {r.id for r in prof.regions if r.tier == "slow"}
        assert slowest_ids
        prof.select_active(trace_of(list(range(16)) * 2).interval_slice(0))
        assert not (prof.active_ids & slowest_ids)

    def test_new_window_becomes_region(self):
        prof = self.setup_profiler()
        before = {r.id for r in prof.regions}
        # pages 64.. are a slow window with no region yet
        prof.select_active(trace_of([70, 71, 70, 71, 70, 71]).interval_slice(0))
        new = {r.id for r in prof.regions} - before
        assert new
        assert all(prof.regions and any(r.id == nid and r.tier == "slow"
                                        for r in prof.regions) for nid in new)

    def test_over_budget_start_keeps_the_nomination_window(self):
        """Regions outnumbering samples do not widen a nominated region
        beyond default_region_pages, however long its slowest-tier run."""
        space = two_tier_space(num_pages=128, period=1)
        for p in range(64):
            space.map_pages((p,), "fast")
        for p in range(64, 128):
            space.map_pages((p,), "slow")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=16)
        prof = Profiler(cfg, space, random.Random(1))
        prof.init_regions(trace_of(list(range(64))).interval_slice(0), app_time=120)
        assert len(prof.regions) == 4 > prof.num_ps == 2
        prof.select_active(trace_of([70]).interval_slice(0))
        nominated = [r for r in prof.regions if r.start_page <= 70 < r.end_page]
        assert [(r.start_page, r.len_pages, r.tier) for r in nominated] == \
            [(64, 16, "slow")]

    def test_nomination_beside_a_covered_region_takes_only_the_uncovered_piece(self):
        """A nominated page's new region is the piece of its window run that
        no region covers, so the regions stay disjoint."""
        space = two_tier_space(num_pages=96, period=1)
        for p in range(32):
            space.map_pages((p,), "fast")
        for p in range(32, 96):
            space.map_pages((p,), "slow")
        cfg = ProfilerConfig(overhead_constraint=0.05, num_scans=3,
                             default_region_pages=32)
        prof = Profiler(cfg, space, random.Random(1))
        prof.init_regions(trace_of([0, 1]).interval_slice(0), app_time=6000)
        assert [r.start_page for r in prof.regions] == [0]
        prof.regions.append(region(40, 8, tier="slow"))
        prof.select_active(trace_of([33]).interval_slice(0))
        assert [(r.start_page, r.len_pages, r.tier) for r in prof.regions] == \
            [(0, 32, "fast"), (32, 8, "slow"), (40, 8, "slow")]
        assert prof.regions[1].samples[0] == 33

    def test_matching_samples_keep_selection(self):
        prof = self.setup_profiler()
        slow_ids = {r.id for r in prof.regions if r.tier == "slow"}
        count_before = len(prof.regions)
        prof.select_active(trace_of([33, 34, 33, 34] * 2).interval_slice(0))
        assert slow_ids <= prof.active_ids
        assert len(prof.regions) == count_before


def reference_pebs(space, slc, fraction):
    """Per-access reference for _pebs_sampled_pages: every period-th access
    to the slowest tier in the head `fraction` of the slice."""
    period = space.cost_model.pebs_sample_period
    head = int(len(slc) * fraction)
    hits = [p for k, (p, _, _) in enumerate(slc.events())
            if k < head and tier_of(space, p) == "slow"]
    return [p for k, p in enumerate(hits, 1) if k % period == 0]


@pytest.mark.parametrize("fraction", [1.0, 0.5, 0.0])
def test_pebs_sampled_pages_match_per_access_reference(fraction, monkeypatch):
    """Every period from 1 to one past the slice's length, on two slices of
    a trace over pages that alternate in runs of 8 between the tiers."""
    rng = random.Random(5)
    trace = trace_of([rng.randrange(64) for _ in range(90)], api=60)
    monkeypatch.setattr(profiler, "PEBS_WINDOW_FRACTION", fraction)
    for slc in (trace.interval_slice(0), trace.interval_slice(1)):
        for period in range(1, len(slc) + 2):
            space = two_tier_space(num_pages=64, period=period)
            for p in range(64):
                space.map_pages((p,), "slow" if p // 8 % 2 else "fast")
            got = _pebs_sampled_pages(space, slc)
            assert got == reference_pebs(space, slc, fraction), period
            assert period > 1 or fraction == 0 or got


class TestOwnerOf:
    def test_finds_the_holder_or_none(self):
        regs = [region(0, 8), region(8, 4), region(16, 8)]
        assert [owner_of(regs, p) for p in (0, 7, 8, 11, 16, 23)] == \
            [regs[0], regs[0], regs[1], regs[1], regs[2], regs[2]]
        assert [owner_of(regs, p) for p in (12, 15, 24)] == [None] * 3
        assert owner_of([], 0) is None


class TestSampleOrigin:
    def test_period_gives_one_capture_per_12_scans(self):
        assert profiler.HINT_FAULT_PERIOD == 12
        cfg = ProfilerConfig(origin_sampling=True, num_scans=3)
        reg = region(0, 64, quota=8)  # 24 scheduled scans -> 2 captures
        trace = trace_of([1, 2, 3, 4], node=1)
        sample_origin([reg], {0}, trace.interval_slice(0), cfg)
        assert reg.origin_counts == {1: 2}

    def test_single_node_concentration(self, monkeypatch):
        monkeypatch.setattr(profiler, "HINT_FAULT_PERIOD", 3)
        cfg = ProfilerConfig(origin_sampling=True, num_scans=3)
        reg = region(0, 64, quota=4)
        trace = trace_of([5] * 10, node=0)
        sample_origin([reg], {0}, trace.interval_slice(0), cfg)
        assert set(reg.origin_counts) == {0}

    def test_untouched_region_unchanged(self, monkeypatch):
        monkeypatch.setattr(profiler, "HINT_FAULT_PERIOD", 3)
        cfg = ProfilerConfig(origin_sampling=True, num_scans=3)
        reg = region(100, 64, quota=4)
        trace = trace_of([5] * 10, node=0)
        sample_origin([reg], {100}, trace.interval_slice(0), cfg)
        assert reg.origin_counts == {}
