"""Invariants of the interval loop that hold for every system: each replayed
access is counted in exactly one tier, every planned move is executed and
reported, first-touch never profiles or migrates, profiling stays within the
budget the previous interval's app cost sets, and a (config, seed) always
gives the same run."""
from __future__ import annotations

import functools
from pathlib import Path

import pytest

from tiersim import engine
from tiersim.baselines import BASELINE_KINDS
from tiersim.config import build_run_config, parse_config_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "configs"
SMALL = GOLDEN / "small.cfg"
# small with a 2 MiB tier between dram and pmem, and a second node whose view
# ranks that tier first
THREE_TIERS_TWO_NODES = """
topology.tier1.id = cxl
topology.tier1.capacity_bytes = 2097152
topology.tier2.id = pmem
topology.tier2.capacity_bytes = 8388608
topology.nodes = 0, 1
topology.views.1 = cxl, dram, pmem
"""


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("TIERSIM_SEED", raising=False)


CONFIGS = {"three-tiers": SMALL.read_text() + THREE_TIERS_TWO_NODES,
           **{p.stem: p.read_text() for p in sorted(GOLDEN.glob("*.cfg"))}}


def run_every_system(text: str):
    """The trace of config `text` and, per system, its config and run."""
    tree = parse_config_text(text)
    cfgs = {name: build_run_config(tree, overrides={"system": name})
            for name in BASELINE_KINDS}
    trace, oracle = engine.build_trace(cfgs["first-touch"])
    return trace, {name: (cfg, engine.run_simulation(cfg, trace=trace, oracle=oracle))
                   for name, cfg in cfgs.items()}


@pytest.fixture(scope="module")
def runs_of():
    return functools.cache(run_every_system)


@pytest.fixture(scope="module")
def runs(runs_of):
    return runs_of(CONFIGS["three-tiers"])


@pytest.mark.parametrize("system", BASELINE_KINDS)
def test_interval_invariants(runs, system):
    trace, by_system = runs
    cfg, result = by_system[system]
    assert result.tier_ids == ["dram", "cxl", "pmem"]
    assert len(result.rows) == min(cfg.intervals, trace.num_intervals)
    for row in result.rows:
        assert sum(row.tier_access_counts.values()) == \
            len(trace.interval_slice(row.interval))
    assert len(result.plan_rows) == len(result.migration_rows)
    assert [row[:4] for row in result.plan_rows] == \
        [row[:4] for row in result.migration_rows]
    if system == "first-touch":
        assert all(row.profiling_cost == 0 and row.migration_exposed_cost == 0
                   for row in result.rows)
    # a fresh trace from the same (config, seed) gives the same run
    assert engine.run_simulation(cfg) == result


def test_some_system_migrates(runs):
    _, by_system = runs
    assert any(result.migration_rows for _, result in by_system.values())


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("system", BASELINE_KINDS)
def test_profiling_within_previous_app_budget(runs_of, config, system):
    _, by_system = runs_of(CONFIGS[config])
    cfg, result = by_system[system]
    c = cfg.profiler.overhead_constraint
    assert result.rows[0].profiling_cost == 0
    for prev, row in zip(result.rows, result.rows[1:]):
        assert row.profiling_cost <= c * prev.app_cost * (1 + 1e-9), row.interval


@pytest.mark.parametrize("system", ["autonuma", "thermostat", "damon"])
def test_detection_uses_the_configured_threshold(runs_of, system):
    """Above num_scans and above any one page's accesses in an interval (the
    count thermostat keeps), detect_threshold leaves nothing detected: every
    interval then has precision 1 and recall 0 against a non-empty oracle."""
    text = CONFIGS["small"]
    cfg, result = runs_of(text)[1][system]
    assert any(row.recall > 0 for row in result.rows[1:])
    unreachable = cfg.workload.accesses_per_interval + 1
    cfg = build_run_config(parse_config_text(text), overrides={
        "system": system, "detect_threshold": unreachable})
    trace, oracle = engine.build_trace(cfg)
    rows = engine.run_simulation(cfg, trace=trace, oracle=oracle).rows
    assert all(oracle.hot_pages(row.interval) for row in rows)
    assert all(row.precision == 1.0 and row.recall == 0.0 for row in rows)
