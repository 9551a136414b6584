import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import baselines, engine
from tiersim.baselines import (DAMON_MERGE_FRACTION, THERMOSTAT_COST_MULTIPLIER,
                               AutonumaSystem, DamonSystem, MtmNoPebsSystem, MtmSystem,
                               ThermostatSystem)
from tiersim.config import build_run_config, parse_config_text
from tiersim.memmodel import (BASE_PAGE_BYTES, UNMAPPED, CapacityError, CostModel,
                              MemoryState, build_topology)
from tiersim.policy import PolicyConfig
from tiersim.profiler import ProfilerConfig, Region, profiling_budget
from tiersim.workload import AccessTrace

from golden_cases import CONFIGS
from placement import tier_of


def test_autonuma_victims_are_coldest_first():
    """The swap queue equals sorting the tier's non-hot pages by
    (retained count, page), with absent counts read as 0."""
    rng = random.Random(5)
    topo = build_topology({"tiers": [
        {"id": "a", "capacity_bytes": 300 * BASE_PAGE_BYTES},
        {"id": "b", "capacity_bytes": 300 * BASE_PAGE_BYTES}]})
    space = MemoryState(topo, CostModel(), 400)
    for p in range(400):
        if rng.random() < 0.9:
            space.map_pages((p,), rng.choice(["a", "b"]))
    system = AutonumaSystem(space, ProfilerConfig(), PolicyConfig(), 1, 2.0)
    system.counts = {p: rng.choice([0, 0, 1, 2, 5]) for p in rng.sample(range(400), 150)}
    hot = set(rng.sample(range(400), 40))
    mask = bytearray(400)
    for p in hot:
        mask[p] = 1
    for tier in ("a", "b"):
        expected = sorted((p for p in range(400)
                           if tier_of(space, p) == tier and p not in hot),
                          key=lambda p: (system.counts.get(p, 0), p))
        assert expected
        assert system._coldest_first(topo.index[tier], mask) == expected


def test_autonuma_plan_walks_the_mask_its_detection_kept():
    """`plan` takes the hot pages of this interval's mask in page order: it
    skips one already on the fastest tier, promotes into free room, then
    swaps with the coldest non-hot resident until none is left."""
    topo = build_topology({"tiers": [
        {"id": "a", "capacity_bytes": 3 * BASE_PAGE_BYTES},
        {"id": "b", "capacity_bytes": 32 * BASE_PAGE_BYTES}]})
    space = MemoryState(topo, CostModel(), 16)
    space.map_pages(range(2), "a")
    space.map_pages(range(2, 16), "b")
    policy = PolicyConfig(n_bytes=8 * BASE_PAGE_BYTES)  # room for every hot page
    system = AutonumaSystem(space, ProfilerConfig(), policy, 1, 2.0)
    system.counts = {0: 1, 1: 2, 3: 2, 4: 2, 5: 3, 9: 2, 10: 1}
    assert [p for p, b in enumerate(system.detected_pages()) if b] == [1, 3, 4, 5, 9]
    assert [(m.region.start_page, m.src, m.dst, m.reason) for m in system.plan()] == [
        (3, "b", "a", "promote"), (0, "a", "b", "demote"), (4, "b", "a", "promote")]


def test_mtm_folds_only_the_regions_it_scanned():
    """A one-sample budget scans region 0 and clamps region 16 to no sample:
    region 16's `hi` of 3.0 is from an earlier interval, so its `whi`
    keeps 1.0, while region 0 folds this interval's 0.0."""
    topo = build_topology({"tiers": [
        {"id": "a", "capacity_bytes": 32 * BASE_PAGE_BYTES},
        {"id": "b", "capacity_bytes": 32 * BASE_PAGE_BYTES}]})
    space = MemoryState(topo, CostModel(), 32)
    space.map_pages(range(32), "a")
    cfg = ProfilerConfig(default_region_pages=16)
    system = MtmNoPebsSystem(space, cfg, PolicyConfig(), 1, 2.0)
    prof = system.profiler
    scanned, clamped = Region(0, 16, "a", samples=[1]), Region(16, 16, "a", samples=[20])
    clamped.hi, clamped.whi = 3.0, 1.0
    prof.regions, prof.initialized = [scanned, clamped], True
    # the app time whose overhead share buys 1.5 samples of num_scans scans
    app_prev = 1.5 * cfg.num_scans * space.cost_model.scan_cost / cfg.overhead_constraint
    trace = AccessTrace([5] * 6, [False] * 6, 0, 6, footprint=32)
    returned = []

    def profile_interval(slc, profile=prof.profile_interval):
        returned.append(profile(slc))
        return returned[-1]

    prof.profile_interval = profile_interval
    system.run_profiling(trace.interval_slice(0), app_prev)
    assert prof.num_ps == 1
    assert [(r.start_page, r.hi, r.whi) for r in prof.regions] == [(0, 0.0, 0.0),
                                                                  (16, 3.0, 1.0)]
    assert returned == [[scanned]]


def thermostat_reference(system: ThermostatSystem, slc, app_prev: float) -> None:
    """`ThermostatSystem.run_profiling` as it was when it counted every page
    of the interval and drew each sample as the walk reached its window.
    The slice is replayed already, as the engine does before profiling."""
    space = system.space
    replay_counts = Counter(slc.pages())
    budget = profiling_budget(system.cfg, app_prev)
    fault_cost = THERMOSTAT_COST_MULTIPLIER * space.cost_model.scan_cost
    spent = 0.0
    windows = list(range(0, space.num_pages, system.region_pages))
    system.rng.shuffle(windows)
    for w in windows:
        pages = space.mapped_pages(w, w + system.region_pages)
        if not pages:
            continue
        sample = pages[system.rng.randrange(len(pages))]
        count = replay_counts.get(sample, 0)
        cost = count * fault_cost
        if spent + cost > budget:
            break
        spent += cost
        system.hotness[w] = min(count, system.cfg.num_scans)
    space.ledger.profiling += spent


@pytest.mark.parametrize("seed", range(6))
def test_thermostat_budget_runs_out_mid_walk_like_the_reference(seed):
    """Sixteen 8-page windows, mapped with holes and one left empty, and a
    budget that stops each interval's walk partway: after two intervals the
    hotness, the charge, the app time and the random stream are the
    reference's.  Drawing the samples ahead on the stream itself, and not
    on a copy, leaves the stream and the picks elsewhere."""
    rng = random.Random(seed)
    topo = build_topology({"tiers": [
        {"id": "a", "capacity_bytes": 64 * BASE_PAGE_BYTES},
        {"id": "b", "capacity_bytes": 128 * BASE_PAGE_BYTES}]})
    layout = [None if p // 8 == 5 or rng.random() < 0.3 else rng.choice("ab")
              for p in range(128)]
    mapped = [p for p, tier in enumerate(layout) if tier]
    trace = AccessTrace([rng.choice(mapped[:20]) if rng.random() < 0.5 else rng.choice(mapped)
                         for _ in range(1200)], [False] * 1200, 0, 600, footprint=128)
    cfg = ProfilerConfig(default_region_pages=8)
    twins = []
    for run in (thermostat_reference, ThermostatSystem.run_profiling):
        space = MemoryState(topo, CostModel(), 128)
        for p in mapped:
            space.map_pages((p,), layout[p])
        system = ThermostatSystem(space, cfg, PolicyConfig(), seed, 2.0)
        walked = []
        for i in range(2):
            slc = trace.interval_slice(i)
            space.replay(slc)
            run(system, slc, 2000.0)
            walked.append(len(system.hotness))
        twins.append((system.hotness, space.ledger.profiling, system.rng.getstate(),
                      space.app_cost(), walked))
    assert twins[0] == twins[1]
    # each walk stops partway: the windows either interval profiled fall
    # short of the 15 with a mapped page
    assert 0 < twins[0][4][0] <= twins[0][4][1] < 15


def reference_detected(system) -> set[int]:
    """Each system's own detection loop, as written before every system
    passed its scored spans to `metrics.detect_hot_pages`."""
    threshold, hot = system.detect_threshold, set()
    if isinstance(system, MtmSystem):
        for r in system.profiler.regions:
            if (r.whi if r.whi is not None else 0.0) >= threshold:
                hot.update(range(r.start_page, r.end_page))
    elif isinstance(system, AutonumaSystem):
        hot = {p for p, c in system.counts.items() if c >= threshold}
    elif isinstance(system, ThermostatSystem):
        for w, c in system.hotness.items():
            if c >= threshold:
                hot.update(range(w, min(w + system.region_pages, system.space.num_pages)))
    else:
        for start, end, result in system.regions:
            if result >= threshold:
                hot.update(range(start, end))
    return hot


def reference_plan_regions(system) -> list[Region]:
    """The regions Thermostat and DAMON each built for the planner, as
    written before both passed their scored spans to `scored_regions`."""
    space, regions = system.space, []
    if isinstance(system, ThermostatSystem):
        for start, ln, tier in space.tier_runs(window=system.region_pages):
            score = float(system.hotness.get(start - start % system.region_pages, 0))
            regions.append(Region(start, ln, tier, hi=score, whi=score))
    else:
        for lo, hi, result in system.regions:
            regions.extend(Region(start, ln, tier, hi=result, whi=result)
                           for start, ln, tier in space.tier_runs(lo, hi))
    return regions


# the mid golden's GUPS spans its configured 16 384 pages, 32 whole 512-page
# windows, though page 16 383 is never drawn; an init pass touches every
# page first; a 16 383-page GUPS cuts the last window short by one page,
# and a 16 300-page one by 84
@pytest.mark.parametrize("extra, footprint", [
    ("", 16384), ("workload.init_pass = true\n", 16384),
    ("workload.footprint_pages = 16383\n", 16383),
    ("workload.footprint_pages = 16300\n", 16300)],
    ids=["mid", "init-pass", "16383", "16300"])
@pytest.mark.parametrize("threshold", [2.0, 0.0])
def test_detection_and_planner_regions_match_each_systems_own_loop(
        monkeypatch, extra, footprint, threshold):
    """On the `mid` golden config and three footprints beside it, at its
    threshold and at 0: after every interval, each system's page mask is
    one 0/1 byte per footprint page, and its hot pages and the regions
    Thermostat and DAMON plan over are what each system's own loop gave.
    Each system detects once an interval.  At threshold 0 every score
    qualifies, so a window Thermostat never profiled must still stay out,
    and a last window the footprint cuts short must stop at the last page."""
    text = (CONFIGS / "mid.cfg").read_text() + extra + f"detect_threshold = {threshold}\n"
    tree = parse_config_text(text)
    trace, oracle = engine.build_trace(build_run_config(tree))
    assert trace.footprint == footprint
    current, seen = [], {}

    def checked(detect):
        def detected_pages(self):
            current[:] = [self]
            mask = detect(self)
            assert len(mask) == footprint and mask.count(0) + mask.count(1) == footprint
            assert {p for p, b in enumerate(mask) if b} == reference_detected(self)
            seen.setdefault(self.name, []).append(
                (mask.count(1), set(getattr(self, "hotness", ()))))
            return mask
        return detected_pages

    def planned(regions, space, policy):
        system = current[0]
        if isinstance(system, MtmSystem):
            assert regions is system.profiler.regions
        else:
            assert regions == reference_plan_regions(system)
        return plan_interval(regions, space, policy)

    for cls in (MtmSystem, AutonumaSystem, ThermostatSystem, DamonSystem):
        monkeypatch.setattr(cls, "detected_pages", checked(cls.detected_pages))
    plan_interval = baselines.plan_interval
    monkeypatch.setattr(baselines, "plan_interval", planned)
    for name in ("mtm", "autonuma", "thermostat", "damon"):
        cfg = build_run_config(tree, overrides={"system": name})
        engine.run_simulation(cfg, trace=trace, oracle=oracle)
        # one detection an interval: AutoNUMA's plan reads the mask it kept
        assert len(seen[name]) == cfg.intervals
    # the cases the references tell apart happen: Thermostat detects some
    # pages, some interval leaves a window unprofiled, and the last window
    # (cut short on two footprints of the four) is profiled at least once
    windows = range(0, footprint, 512)
    profiled = [w for _, w in seen["thermostat"]]
    assert any(n for n, _ in seen["thermostat"])
    assert any(len(w) < len(windows) for w in profiled)
    assert any(windows[-1] in w for w in profiled)


@dataclass
class RefDamonRegion:
    """A DAMON region as it was kept before its regions were its spans."""
    start: int
    length: int
    result: float = 0.0

    @property
    def end(self) -> int:
        return self.start + self.length


def ref_damon_merge(system, regions):
    threshold = DAMON_MERGE_FRACTION * system.cfg.num_scans
    out = []
    for reg in regions:
        if out and out[-1].end == reg.start and \
                abs(out[-1].result - reg.result) < threshold:
            prev = out[-1]
            merged = RefDamonRegion(
                prev.start, prev.length + reg.length,
                (prev.result * prev.length + reg.result * reg.length)
                / (prev.length + reg.length))
            out[-1] = merged
            system.merges += 1
        else:
            out.append(reg)
    return out


def ref_damon_split(system, regions, max_regions):
    if len(regions) >= max_regions / 2:
        return regions
    out = []
    for reg in regions:
        if reg.length < 2:
            out.append(reg)
            continue
        cut = reg.start + system.rng.randrange(1, reg.length)
        out.append(RefDamonRegion(reg.start, cut - reg.start, reg.result))
        out.append(RefDamonRegion(cut, reg.end - cut, reg.result))
        system.splits += 1
    return out


@st.composite
def damon_spans(draw):
    """Disjoint spans in page order, mostly contiguous, with results that
    are counts or the size-weighted means merges leave."""
    spans, start = [], draw(st.integers(0, 20))
    for _ in range(draw(st.integers(0, 12))):
        start += draw(st.sampled_from([0, 0, 0, 3]))
        length = draw(st.integers(1, 9))
        result = draw(st.integers(0, 3).map(float) | st.floats(0, 3))
        spans.append((start, start + length, result))
        start += length
    return spans


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(damon_spans(), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_damon_merge_and_split_match_the_region_object_loops(spans, max_regions, seed):
    """DAMON's merge and split over (start, end, result) spans give the
    regions, float for float, the counters and the random stream that the
    loops over region objects gave."""
    space = MemoryState(build_topology({"tiers": [
        {"id": "a", "capacity_bytes": BASE_PAGE_BYTES},
        {"id": "b", "capacity_bytes": BASE_PAGE_BYTES}]}), CostModel(), 1)
    system, ref = (DamonSystem(space, ProfilerConfig(), PolicyConfig(), seed, 2.0)
                   for _ in "ab")
    system.regions = list(spans)
    ref_regions = [RefDamonRegion(s, e - s, r) for s, e, r in spans]
    system._merge()
    ref_regions = ref_damon_merge(ref, ref_regions)
    assert system.regions == [(r.start, r.end, r.result) for r in ref_regions]
    system._split(max_regions)
    ref_regions = ref_damon_split(ref, ref_regions, max_regions)
    assert system.regions == [(r.start, r.end, r.result) for r in ref_regions]
    assert (system.merges, system.splits) == (ref.merges, ref.splits)
    assert system.rng.getstate() == ref.rng.getstate()


def page_by_page_first_touch(group_pages):
    """Reference for `group_first_touch`: each page of the touched group, in
    page order, into the first tier in the toucher's view with room."""

    def alloc(space, vpage, node):
        g0 = (vpage // group_pages) * group_pages
        for p in range(g0, min(g0 + group_pages, space.num_pages)):
            for tier_id in space.topology.views[node]:
                if space.free[tier_id] >= BASE_PAGE_BYTES:
                    space.map_pages((p,), tier_id)
                    break
            else:
                raise CapacityError("all tiers full")

    return alloc


def test_first_touch_spills_tier_by_tier_like_page_by_page():
    """Random topologies of two or three tiers and two nodes with different
    views, some groups mapped whole beforehand, touched at random in the
    unmapped groups: each touch leaves the placement, the free space and any
    `CapacityError` that mapping page by page leaves."""
    rng = random.Random(11)
    spills = refusals = 0
    for _ in range(300):
        tiers = [{"id": f"t{i}", "capacity_bytes": rng.randrange(1, 24) * BASE_PAGE_BYTES}
                 for i in range(rng.choice([2, 3]))]
        ids = [t["id"] for t in tiers]
        topo = build_topology({"tiers": tiers, "nodes": [0, 1],
                               "views": {0: ids, 1: rng.sample(ids, len(ids))}})
        num_pages, group = rng.randrange(1, 60), rng.choice([1, 4, 8, 16])
        states = [MemoryState(topo, CostModel(), num_pages) for _ in "ab"]
        groups = range(0, num_pages, group)
        for g0 in rng.sample(groups, rng.randrange(len(groups) // 2 + 1)):
            pages, tier_id = range(g0, min(g0 + group, num_pages)), rng.choice(ids)
            if states[0].free[tier_id] >= len(pages) * BASE_PAGE_BYTES:
                for space in states:
                    space.map_pages(pages, tier_id)
        for _ in range(rng.randrange(1, 8)):
            vpage, node = rng.randrange(num_pages), rng.choice([0, 1])
            if states[0].page_tier[vpage] != UNMAPPED:
                continue
            outcomes = []
            for alloc, space in zip((baselines.group_first_touch(group),
                                     page_by_page_first_touch(group)), states):
                try:
                    alloc(space, vpage, node)
                    outcomes.append(None)
                except CapacityError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert states[0].page_tier == states[1].page_tier
            assert states[0].free == states[1].free
            g0 = vpage - vpage % group
            spills += len(set(states[0].page_tier[g0:g0 + group])) > 1
            refusals += outcomes[0] is not None
    assert spills > refusals > 0  # some groups spill, some run out of room


def test_first_touch_fills_the_fast_tier_before_spilling():
    """A 4-page fast tier and an 8-page group: the fast tier takes the
    group's first 4 pages and the next tier the other 4."""
    topo = build_topology({"tiers": [{"id": "fast", "capacity_bytes": 4 * BASE_PAGE_BYTES},
                                     {"id": "slow", "capacity_bytes": 64 * BASE_PAGE_BYTES}]})
    space = MemoryState(topo, CostModel(), 16)
    baselines.group_first_touch(8)(space, 13, 0)
    assert [tier_of(space, p) for p in range(16)] == [None] * 8 + ["fast"] * 4 + ["slow"] * 4
    assert space.free == {"fast": 0, "slow": 60 * BASE_PAGE_BYTES}
