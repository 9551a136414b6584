"""Invariants of the interval loop that hold for every system: each replayed
access is counted in exactly one tier, every planned move is executed and
reported, first-touch never profiles or migrates, profiling stays within the
budget the previous interval's app cost sets, and a (config, seed) always
gives the same run."""
from __future__ import annotations

import functools
from collections import Counter
from pathlib import Path

import pytest

from tiersim import engine
from tiersim.baselines import BASELINE_KINDS
from tiersim.cli import EXIT_OK, main
from tiersim.config import build_run_config, load_config_file, parse_config_text
from tiersim.workload import AccessTrace, HotOracle

from columns import node_column, write_column
from golden_cases import files_under
from test_workload import traced_bytes

GOLDEN = Path(__file__).resolve().parent / "golden" / "configs"
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
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
COMMITTED_CONFIGS = sorted([*GOLDEN.glob("*.cfg"), *BENCH_CONFIGS.glob("*.cfg")])


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
    assert engine.run_simulation(cfg, *engine.build_trace(cfg)) == result


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
    """Every system keeps at most num_scans observations per page or region,
    so a detect_threshold above num_scans leaves nothing detected: every
    interval then has precision 1 and recall 0 against a non-empty oracle."""
    text = CONFIGS["small"]
    cfg, result = runs_of(text)[1][system]
    assert any(row.recall > 0 for row in result.rows[1:])
    cfg = build_run_config(parse_config_text(text), overrides={
        "system": system, "detect_threshold": cfg.profiler.num_scans + 1})
    trace, oracle = engine.build_trace(cfg)
    rows = engine.run_simulation(cfg, trace=trace, oracle=oracle).rows
    assert all(set(oracle.hot_sets[row.interval]) for row in rows)
    assert all(row.precision == 1.0 and row.recall == 0.0 for row in rows)


def test_profiler_covers_the_pages_touched_in_the_same_interval():
    """The engine replays a slice before the system profiles it, so MTM's
    regions take in the pages first touched in that interval.  half_read
    touches 512 new pages an interval until all 2 048 are mapped; with the
    counter nominations off, the regions cover every mapped page."""
    cfg = build_run_config(parse_config_text(CONFIGS["half_read"]),
                           overrides={"system": "mtm-no-pebs"})
    result = engine.run_simulation(cfg, *engine.build_trace(cfg))
    covered = Counter()
    for interval, _, _, len_pages, *_ in result.profiler_rows:
        covered[interval] += len_pages
    assert [covered[row.interval] for row in result.rows] == \
        [min(2048, 512 * (row.interval + 1)) for row in result.rows]


def test_compare_twice_in_one_process_writes_the_same_bytes(tmp_path):
    """Nothing one compare leaves behind in the process changes the next."""
    tree = parse_config_text(CONFIGS["mid"])
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        engine.compare_systems(tree, "mid", list(BASELINE_KINDS), out_dir=out)
    written = files_under(first)
    assert {name.split("/")[0] for name in written} >= set(BASELINE_KINDS)
    assert files_under(second) == written


def test_simulating_gups_big_allocates_at_most_one_and_three_quarter_bytes_an_access():
    """Above `gups-big.cfg`'s trace and oracle, MTM's run never has more
    than 1.75 bytes allocated an access at once: the write projection packs
    its times and pages, recall gathers the mask a bounded chunk at a time,
    and no interval's page column is copied."""
    cfg = build_run_config(load_config_file(str(BENCH_CONFIGS / "gups-big.cfg")),
                           overrides={"system": "mtm"})
    trace, oracle = engine.build_trace(cfg)
    _, _, peak = traced_bytes(lambda: engine.run_simulation(cfg, trace=trace,
                                                            oracle=oracle))
    assert peak / len(trace.vpages) <= 1.75, peak / len(trace.vpages)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("path", COMMITTED_CONFIGS, ids=lambda path: path.stem)
def test_each_committed_config_states_the_footprint_it_names(path, seed):
    """Every committed config's trace states the footprint the config names,
    `workload.array_pages` for a microbench and `workload.footprint_pages`
    otherwise, at every seed: the `mid` golden's GUPS never draws page
    16 383 at seed 1, and its run still simulates all 16 384 pages."""
    cfg = build_run_config(load_config_file(str(path)), overrides={"seed": seed})
    w = cfg.workload
    trace, _ = engine.build_trace(cfg)
    assert trace.footprint == (w.array_pages if w.kind == "microbench"
                               else w.footprint_pages)


def test_list_columns_run_like_the_generated_trace(runs_of):
    """A trace built from plain lists, as tests build them, and its oracle
    give every system the rows of the generator's compact trace.  Those rows
    are scored against mid's hot pages, not empty sets: they keep MTM's
    recall below 1 in some interval."""
    trace, by_system = runs_of(CONFIGS["mid"])
    assert any(row.recall < 1.0 for row in by_system["mtm"][1].rows)
    plain = AccessTrace(list(trace.vpages), [bool(w) for w in write_column(trace)],
                        list(node_column(trace)), trace.accesses_per_interval,
                        trace.footprint)
    oracle = HotOracle.from_trace(plain)
    for name, (cfg, result) in by_system.items():
        assert engine.run_simulation(cfg, trace=plain, oracle=oracle) == result, name


@pytest.mark.parametrize("param, values, builds", [
    ("alpha", ["0.2", "0.5", "0.9"], 1),
    ("seed", ["1", "2", "1"], 2),
    ("seed", ["1", "2", "3"], 3),
])
def test_sweep_builds_each_distinct_trace_once(monkeypatch, tmp_path, param, values,
                                               builds):
    """`build_trace` reads only the seed, the workload and the nodes: a sweep
    over alpha builds one trace, one over seed one per distinct seed, and
    each value's row is that of a run on a trace of its own.  `run` builds
    its one trace, and a six-system compare one for all its members."""
    tree = parse_config_text(CONFIGS["small"] + "system = mtm-no-pebs\n")
    want = [engine.sweep_parameter(tree, "small", param, [value])[0] for value in values]
    calls = []

    def counted(cfg):
        calls.append(cfg.seed)
        return build_trace(cfg)

    build_trace = engine.build_trace
    monkeypatch.setattr(engine, "build_trace", counted)
    assert engine.sweep_parameter(tree, "small", param, values) == want
    assert len(calls) == builds
    assert want[0] != want[1]  # the swept value changes the run
    for command in (["run"], ["compare", "--systems", ",".join(BASELINE_KINDS)]):
        calls.clear()
        argv = [*command, "-c", str(SMALL), "--out", str(tmp_path / command[0])]
        assert main(argv) == EXIT_OK
        assert len(calls) == 1, command
