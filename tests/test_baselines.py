import random

from tiersim.baselines import AutonumaSystem, MtmNoPebsSystem
from tiersim.memmodel import BASE_PAGE_BYTES, CostModel, MemoryState, build_topology
from tiersim.policy import PolicyConfig
from tiersim.profiler import ProfilerConfig, Region
from tiersim.workload import AccessTrace

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
            space.map_page(p, rng.choice(["a", "b"]))
    system = AutonumaSystem(space, ProfilerConfig(), PolicyConfig(), 1, 2.0)
    system.counts = {p: rng.choice([0, 0, 1, 2, 5]) for p in rng.sample(range(400), 150)}
    hot = set(rng.sample(range(400), 40))
    for tier in ("a", "b"):
        expected = sorted((p for p in range(400)
                           if tier_of(space, p) == tier and p not in hot),
                          key=lambda p: (system.counts.get(p, 0), p))
        assert expected
        assert system._coldest_first(topo.index[tier], hot) == expected


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
    system.run_profiling(AccessTrace([5] * 6, [False] * 6, 0, 6).interval_slice(0), app_prev)
    assert prof.num_ps == 1
    assert [(r.start_page, r.hi, r.whi) for r in prof.regions] == [(0, 0.0, 0.0),
                                                                  (16, 3.0, 1.0)]
    assert prof.scanned_ids == {scanned.id}
