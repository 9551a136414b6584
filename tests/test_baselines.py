import random

import pytest

from tiersim.baselines import (THERMOSTAT_COST_MULTIPLIER, AutonumaSystem, MtmNoPebsSystem,
                               ThermostatSystem)
from tiersim.memmodel import BASE_PAGE_BYTES, CostModel, MemoryState, build_topology
from tiersim.policy import PolicyConfig
from tiersim.profiler import ProfilerConfig, Region, profiling_budget
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


def thermostat_reference(system: ThermostatSystem, slc, app_prev: float) -> None:
    """`ThermostatSystem.run_profiling` as it was when it counted every page
    of the interval and drew each sample as the walk reached its window.
    The slice is replayed already, as the engine does before profiling."""
    space = system.space
    replay_counts = slc.page_counts()
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
    hotness, the charge, the clock and the random stream are the
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
                         for _ in range(1200)], [False] * 1200, 0, 600)
    cfg = ProfilerConfig(default_region_pages=8)
    twins = []
    for run in (thermostat_reference, ThermostatSystem.run_profiling):
        space = MemoryState(topo, CostModel(), 128)
        for p in mapped:
            space.map_page(p, layout[p])
        system = ThermostatSystem(space, cfg, PolicyConfig(), seed, 2.0)
        walked = []
        for i in range(2):
            slc = trace.interval_slice(i)
            space.replay(slc)
            run(system, slc, 2000.0)
            walked.append(len(system.hotness))
        twins.append((system.hotness, space.ledger.profiling, system.rng.getstate(),
                      space.clock, walked))
    assert twins[0] == twins[1]
    # each walk stops partway: the windows either interval profiled fall
    # short of the 15 with a mapped page
    assert 0 < twins[0][4][0] <= twins[0][4][1] < 15
