"""Config loading: each misspelt, ill-typed or out-of-range input exits 2
naming its field before any simulation runs, only ConfigError escapes
build_run_config, and a JSON file loads like the dotted file of the same
tree."""
from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tiersim import cli, config, engine
from tiersim.cli import EXIT_CONFIG, main
from tiersim.config import (
    ConfigError, RunConfig, WorkloadConfig, build_run_config, load_config_file,
    parse_config_text,
)
from tiersim.memmodel import CostModel
from tiersim.policy import PolicyConfig
from tiersim.profiler import ProfilerConfig

CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"
SMALL = (CONFIGS / "small.cfg").read_text()
RUN = ["run"]


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("TIERSIM_SEED", raising=False)


def _no_run(*args, **kwargs):
    raise AssertionError("a simulation started")


# (config text, command, environment, text stderr must hold)
REJECTED = {
    "misspelt-key": (SMALL + "systme = damon\n", RUN, {}, "systme"),
    "float-int": (SMALL + "intervals = 2.7\n", RUN, {}, "intervals"),
    "misspelt-choice": (SMALL + "workload.bench = read_onyl\n", RUN, {},
                        "workload.bench"),
    "alpha-zero": (SMALL + "policy.alpha = 0\n", ["run", "--system", "mtm-no-pebs"],
                   {}, "policy.alpha"),
    "pebs-period-zero": (SMALL + "cost.pebs_sample_period = 0\n", RUN, {},
                         "cost.pebs_sample_period"),
    "region-pages-zero": (SMALL + "profiler.default_region_pages = 0\n", RUN, {},
                          "profiler.default_region_pages"),
    "alloc-group-zero": (SMALL + "alloc_group_pages = 0\n", RUN, {},
                         "alloc_group_pages"),
    "negative-n-bytes": (SMALL + "policy.n_bytes = -1\n", RUN, {}, "policy.n_bytes"),
    "negative-hint-cost": (SMALL + "cost.hint_fault_multiplier = -12\n", RUN, {},
                           "cost.hint_fault_multiplier"),
    "hotset-fraction": (SMALL + "workload.hotset_fraction = 1.5\n", RUN, {},
                        "workload: hotset_fraction"),
    "interval-length-zero": (SMALL + "workload.accesses_per_interval = 0\n", RUN, {},
                             "workload: accesses_per_interval"),
    "microbench-foreign-node": (SMALL + "workload.kind = microbench\nworkload.node = 5\n",
                                RUN, {}, "workload.node"),
    # a trace holds pages in four bytes each; the bad hot-set share is checked
    # right after the footprint, so without the page check this row fails at
    # once instead of building a 2**32-page pool
    "footprint-too-large": (SMALL + "workload.footprint_pages = 4294967297\n"
                            "workload.hotset_fraction = 1.5\n", RUN, {},
                            "workload: footprint_pages"),
    # every GUPS block of a phase_change trace takes the GUPS range checks
    "phase-change-hotset-fraction": (
        SMALL + "workload.kind = phase_change\nworkload.hotset_fraction = 1.5\n",
        RUN, {}, "workload: hotset_fraction"),
    "phase-change-hot-access-above-one": (
        SMALL + "workload.kind = phase_change\nworkload.hot_access_fraction = 2\n",
        RUN, {}, "workload: hot_access_fraction"),
    "phase-change-hot-access-zero": (
        SMALL + "workload.kind = phase_change\nworkload.hot_access_fraction = 0\n",
        RUN, {}, "workload: hot_access_fraction"),
    "phase-change-no-accesses": (
        SMALL + "workload.kind = phase_change\nworkload.accesses = 0\n",
        RUN, {}, "workload: accesses"),
    "microbench-interval-length-zero": (
        SMALL + "workload.kind = microbench\nworkload.accesses_per_interval = 0\n",
        RUN, {}, "workload: accesses_per_interval"),
    "microbench-no-passes": (
        SMALL + "workload.kind = microbench\nworkload.passes = 0\n",
        RUN, {}, "workload: passes must be >= 1"),
    "microbench-negative-passes": (
        SMALL + "workload.kind = microbench\nworkload.passes = -2\n",
        RUN, {}, "workload: passes must be >= 1"),
    "compare-no-system": (SMALL, ["compare", "--systems", ","], {},
                          "at least one system"),
    "compare-bogus-member": (SMALL, ["compare", "--systems", "first-touch,bogus"], {},
                             "(system bogus):system"),
    "sweep-bad-value": (SMALL, ["sweep", "--param", "num_scans", "--values", "2,abc"],
                        {}, "sweep num_scans=abc"),
    "sweep-alpha-zero": (SMALL, ["sweep", "--param", "alpha", "--values", "0.5,0"], {},
                         "sweep alpha=0"),
    "misspelt-tier-key": (SMALL + "topology.tier0.acess_cost = 3\n", RUN, {},
                          "topology.tier0.acess_cost"),
    "float-seed": (SMALL + "seed = 1.5\n", RUN, {}, "seed"),
    "text-float": (SMALL + "detect_threshold = x\n", RUN, {}, "detect_threshold"),
    "bad-bool": (SMALL + "profiler.origin_sampling = maybe\n", RUN, {},
                 "profiler.origin_sampling"),
    "misspelt-topology-key": (SMALL + "topology.nodez = 1\n", RUN, {}, "topology.nodez"),
    # a trace holds node ids in two bytes each
    "node-negative": (SMALL + "topology.nodes = -1\n", RUN, {}, "topology.nodes"),
    "node-too-large": (SMALL + "topology.nodes = 0, 65536\n", RUN, {}, "topology.nodes"),
    "retired-cost-field": (SMALL + "cost.inter_tier_factor = 2\n", RUN, {},
                           "cost.inter_tier_factor"),
    # the budget is measured from app time, not a nominal interval length
    "retired-interval-cost": (SMALL + "profiler.interval_cost = 1e6\n", RUN, {},
                              "profiler.interval_cost"),
    # system = mtm-no-pebs is the one way to turn counter assistance off
    "retired-pebs-assist": (SMALL + "profiler.pebs_assist = false\n", RUN, {},
                            "profiler.pebs_assist"),
    # N is policy.n_bytes alone, 5% of total capacity when unset
    "retired-n-fraction": (SMALL + "policy.n_fraction = 0.05\n", RUN, {},
                           "policy.n_fraction"),
    # five regions share out spare samples at a time, not a knob
    "retired-top-k-variance": (SMALL + "profiler.top_k_variance = 5\n", RUN, {},
                               "profiler.top_k_variance"),
    # the AutoNUMA window is the paper's 256 MiB of 1.5 TiB, not a knob
    "retired-autonuma-window": (SMALL + "autonuma_window_fraction = 0.5\n", RUN, {},
                                "autonuma_window_fraction"),
    # the paper's constants: a hint fault every 12 scans, a 10% PEBS window
    "retired-hint-fault-period": (SMALL + "profiler.hint_fault_period = 12\n", RUN, {},
                                  "profiler.hint_fault_period"),
    "retired-pebs-window-fraction": (SMALL + "profiler.pebs_window_fraction = 0.1\n",
                                     RUN, {}, "profiler.pebs_window_fraction"),
    # kind = phase_change is the one way to move the hot set
    "retired-rehash": (SMALL + "workload.rehash_hotset_every_n_passes = 0\n", RUN, {},
                       "workload.rehash_hotset_every_n_passes"),
    # the hot set is one contiguous run
    "retired-hotset-layout": (SMALL + "workload.hotset_layout = contiguous\n", RUN, {},
                              "workload.hotset_layout"),
    # first touch walks the node's view
    "retired-alloc-order": (SMALL + "topology.alloc_order.0 = dram, pmem\n", RUN, {},
                            "topology.alloc_order"),
    "env-seed": (SMALL, RUN, {"TIERSIM_SEED": "x"}, "TIERSIM_SEED"),
    "json-bool-seed": (json.dumps({"seed": True, "topology": {
        "tier0": {"capacity_bytes": 1048576}, "tier1": {"capacity_bytes": 8388608}}}),
        RUN, {}, "seed"),
    "view-not-permutation": (SMALL + "topology.views.0 = dram\n", RUN, {}, "topology"),
    "tier-capacity": (SMALL + "topology.tier0.capacity_bytes = 100\n", RUN, {},
                      "topology"),
    "scalar-section": (SMALL + "topology.views = dram\n", RUN, {}, "topology.views"),
    # pmem below dram's cost would make dram the "slowest tier"
    "cost-ladder-falls": (SMALL + "topology.tier1.access_cost = 0.5\n", RUN, {},
                          "topology.tier1.access_cost"),
    "json-cost-ladder-falls": (json.dumps({"seed": 1, "topology": {"tiers": [
        {"id": "a", "capacity_bytes": 1048576, "access_cost": 6},
        {"id": "b", "capacity_bytes": 8388608}]}}), RUN, {},
        "topology.tiers.1.access_cost"),
    # every float field is finite: these ran, or ended in a traceback
    "inf-access-cost": (SMALL + "topology.tier1.access_cost = inf\n", RUN, {},
                        "topology.tier1.access_cost"),
    "nan-threshold": (SMALL + "detect_threshold = nan\n", RUN, {}, "detect_threshold"),
    "inf-threshold": (SMALL + "detect_threshold = inf\n", RUN, {}, "detect_threshold"),
    "minus-inf-threshold": (SMALL + "detect_threshold = -inf\n", RUN, {},
                            "detect_threshold"),
    "overflowing-threshold": (SMALL + "detect_threshold = 1e400\n", RUN, {},
                              "detect_threshold"),
    "inf-scan-cost": (SMALL + "cost.scan_cost = inf\n", ["run", "--system", "damon"], {},
                      "cost.scan_cost"),
    # json.loads takes NaN and Infinity
    "json-nan-threshold": (json.dumps({"seed": 1, "detect_threshold": float("nan"),
                                       "topology": {"tier0": {"capacity_bytes": 1048576},
                                                    "tier1": {"capacity_bytes": 8388608}}}),
                           RUN, {}, "detect_threshold"),
    "json-inf-access-cost": (json.dumps({"seed": 1, "topology": {"tiers": [
        {"id": "a", "capacity_bytes": 1048576},
        {"id": "b", "capacity_bytes": 8388608, "access_cost": float("inf")}]}}), RUN, {},
        "topology.tiers.1.access_cost"),
    # no config gives an all-write sequential stream; tests build one
    "retired-write-only": (SMALL + "workload.kind = microbench\n"
                           "workload.bench = write_only\n", RUN, {}, "workload.bench"),
}


@pytest.mark.parametrize("text, command, env, expect", REJECTED.values(),
                         ids=REJECTED.keys())
def test_rejected_before_any_run(tmp_path, capsys, monkeypatch, text, command, env,
                                 expect):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(engine, "run_simulation", _no_run)
    path = tmp_path / "config"
    path.write_text(text)
    argv = [command[0], "-c", str(path), *command[1:], "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert expect in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_more_tiers_than_a_byte_indexes_exit_2(tmp_path, capsys, monkeypatch):
    """A page holds its tier index in one byte, and index 255 marks an
    unmapped page: 255 tiers build, 256 exit 2 naming the field before any
    topology is built."""
    tiers = [{"id": f"t{i}", "capacity_bytes": 4096} for i in range(256)]
    assert len(build_run_config({"seed": 1, "topology": {"tiers": tiers[:255]}})
               .topology["tiers"]) == 255
    monkeypatch.setattr(cli, "load_config_file",
                        lambda path: {"seed": 1, "topology": {"tiers": tiers}})
    monkeypatch.setattr(config, "build_topology", _no_run)
    monkeypatch.setattr(engine, "run_simulation", _no_run)
    assert main(["run", "-c", "<tree>", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "topology.tiers must number at most 255" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tier_sections_are_ordered_by_number():
    """`tier10` follows `tier9`, not `tier1`: twelve sections whose costs
    rise with their number build in that order, whatever the key order."""
    text = "seed = 1\n" + "".join(
        f"topology.tier{i}.capacity_bytes = 4096\ntopology.tier{i}.access_cost = {i + 1}\n"
        for i in reversed(range(12)))
    spec = build_run_config(parse_config_text(text)).topology
    assert [t["id"] for t in spec["tiers"]] == [f"tier{i}" for i in range(12)]
    assert [t["access_cost"] for t in spec["tiers"]] == [float(i + 1) for i in range(12)]


SECTIONS = {"workload": WorkloadConfig, "profiler": ProfilerConfig,
            "policy": PolicyConfig, "cost": CostModel}
KEYS = ([f.name for f in fields(RunConfig)]
        + [f"{s}.{f.name}" for s, cls in SECTIONS.items() for f in fields(cls)]
        + [f"topology.{k}" for k in ("tier0.id", "tier0.capacity_bytes",
                                      "tier1.access_cost", "tier2.capacity_bytes",
                                      "tiers", "nodes", "views.0", "views.1",
                                      "tier0")]
        + ["bogus", "policy.bogus", "policy.alpha.x"])
VALUES = ["0", "1", "-1", "2.7", "1e400", "nan", "abc", "true", "", ",", "dram",
          "pmem, dram", "0, 1", "4096", "mtm", "half_read"]


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(KEYS),
                          st.sampled_from(VALUES) | st.text(max_size=6)),
                min_size=1, max_size=4))
def test_only_config_errors_escape(lines):
    text = SMALL + "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        build_run_config(parse_config_text(text))
    except ConfigError:
        pass


def test_json_and_dotted_configs_agree(tmp_path):
    path = tmp_path / "phase_change.json"
    path.write_text(json.dumps({
        "seed": 1, "system": "mtm", "intervals": 16,
        "topology": {"tiers": [{"id": "dram", "capacity_bytes": 4194304},
                               {"id": "pmem", "capacity_bytes": 33554432}],
                     "nodes": [0, 1], "views": {"0": ["dram", "pmem"],
                                                "1": ["pmem", "dram"]}},
        "profiler": {"origin_sampling": True},
        "workload": {"kind": "phase_change", "footprint_pages": 4096, "phases": 2,
                     "accesses": 16384, "accesses_per_interval": 2048}}))
    tree = load_config_file(str(CONFIGS / "phase_change.cfg"))
    dotted = build_run_config(tree)
    assert build_run_config(load_config_file(str(path))) == dotted
    # __post_init__ runs again on replace, and must leave the config as built
    assert replace(dotted, system="damon") == build_run_config(
        tree, overrides={"system": "damon"})


def test_overrides_apply_before_validation():
    tree = parse_config_text(SMALL)
    derived = build_run_config(tree, overrides={"profiler.num_scans": "6"}).profiler
    assert (derived.tau1, derived.tau2) == (2.0, 4.0)
    tree["profiler"] = {"tau1": "0.5", "tau2": "1.5"}
    kept = build_run_config(tree, overrides={"profiler.num_scans": "6"}).profiler
    assert (kept.tau1, kept.tau2) == (0.5, 1.5)
    assert tree["profiler"] == {"tau1": "0.5", "tau2": "1.5"}
