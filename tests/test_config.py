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

from tiersim import engine
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
# compare builds the trace before any run, so workload errors show there
TRACE = ["compare", "--systems", "first-touch"]


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("TIERSIM_SEED", raising=False)


def _no_run(*args, **kwargs):
    raise AssertionError("a simulation started")


# (config text, command, environment, text stderr must hold)
REJECTED = {
    "misspelt-key": (SMALL + "systme = damon\n", RUN, {}, "systme"),
    "float-int": (SMALL + "intervals = 2.7\n", RUN, {}, "intervals"),
    "misspelt-choice": (SMALL + "workload.hotset_layout = scatterd\n", RUN, {},
                        "workload.hotset_layout"),
    "alpha-zero": (SMALL + "policy.alpha = 0\n", ["run", "--system", "mtm-no-pebs"],
                   {}, "policy.alpha"),
    "pebs-period-zero": (SMALL + "cost.pebs_sample_period = 0\n", RUN, {},
                         "cost.pebs_sample_period"),
    "region-pages-zero": (SMALL + "profiler.default_region_pages = 0\n", RUN, {},
                          "profiler.default_region_pages"),
    "hint-period-zero": (SMALL + "profiler.origin_sampling = true\n"
                         "profiler.hint_fault_period = 0\n", RUN, {},
                         "profiler.hint_fault_period"),
    "alloc-group-zero": (SMALL + "alloc_group_pages = 0\n", RUN, {},
                         "alloc_group_pages"),
    "pebs-window-above-one": (SMALL + "profiler.pebs_window_fraction = 3\n", RUN, {},
                              "profiler.pebs_window_fraction"),
    "negative-n-bytes": (SMALL + "policy.n_bytes = -1\n", RUN, {}, "policy.n_bytes"),
    "negative-hint-cost": (SMALL + "cost.hint_fault_multiplier = -12\n", RUN, {},
                           "cost.hint_fault_multiplier"),
    "hotset-fraction": (SMALL + "workload.hotset_fraction = 1.5\n", TRACE, {},
                        "workload: hotset_fraction"),
    "interval-length-zero": (SMALL + "workload.accesses_per_interval = 0\n", TRACE, {},
                             "workload: accesses_per_interval"),
    "microbench-foreign-node": (SMALL + "workload.kind = microbench\nworkload.node = 5\n",
                                RUN, {}, "workload.node"),
    "microbench-interval-length-zero": (
        SMALL + "workload.kind = microbench\nworkload.accesses_per_interval = 0\n",
        TRACE, {}, "workload: accesses_per_interval"),
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
    # five regions share out saved quota at a time, not a knob
    "retired-top-k-variance": (SMALL + "profiler.top_k_variance = 5\n", RUN, {},
                               "profiler.top_k_variance"),
    # the AutoNUMA window is the paper's 256 MiB of 1.5 TiB, not a knob
    "retired-autonuma-window": (SMALL + "autonuma_window_fraction = 0.5\n", RUN, {},
                                "autonuma_window_fraction"),
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


SECTIONS = {"workload": WorkloadConfig, "profiler": ProfilerConfig,
            "policy": PolicyConfig, "cost": CostModel}
KEYS = ([f.name for f in fields(RunConfig)]
        + [f"{s}.{f.name}" for s, cls in SECTIONS.items() for f in fields(cls)]
        + [f"topology.{k}" for k in ("tier0.id", "tier0.capacity_bytes",
                                      "tier1.access_cost", "tier2.capacity_bytes",
                                      "tiers", "nodes", "views.0", "views.1",
                                      "alloc_order.0", "tier0")]
        + ["bogus", "policy.bogus", "policy.alpha.x"])
VALUES = ["0", "1", "-1", "2.7", "1e400", "nan", "abc", "true", "", ",", "dram",
          "pmem, dram", "0, 1", "4096", "mtm", "scattered"]


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
