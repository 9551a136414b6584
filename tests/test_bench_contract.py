"""The names the benchmark's tracer patches, checked on every test run.

bench/tracing.py wraps tiersim functions and methods by their dotted paths.
A renamed function or a method moved to a base class would otherwise break
`bench/run.py --trace 1` only when the benchmark runs.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bench_digests import BENCH_DIGESTS
from tiersim import baselines, config, engine

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))  # rep.py imports tracing by name, as its script dir
import rep  # noqa: E402
import tracing  # noqa: E402
from workloads import CONFIG_DIR, WORKLOADS  # noqa: E402

SMALL = ROOT / "tests" / "golden" / "configs" / "small.cfg"
MID = ROOT / "tests" / "golden" / "configs" / "mid.cfg"
ALL_SYSTEMS = ["mtm", "mtm-no-pebs", "first-touch", "autonuma", "thermostat", "damon"]


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in tracing.FUNCTIONS])
def test_traced_function_resolves(module, path):
    owner, attr = tracing._owner(module, path)  # the lookup installed() patches
    assert attr in vars(owner), f"tiersim.{module}.{path} is not defined there"


@pytest.mark.parametrize("cls_name", tracing.SYSTEM_CLASSES)
def test_system_ops_defined_on_each_class(cls_name):
    cls = getattr(baselines, cls_name)
    missing = [op for op in tracing.SYSTEM_OPS if op not in vars(cls)]
    assert not missing, f"{cls_name} inherits or lacks {missing}"


def test_traced_compare_counts_every_replayed_access():
    tree = config.load_config_file(str(SMALL))
    tree["intervals"] = 2
    trace, _ = engine.build_trace(config.build_run_config(tree, str(SMALL)))
    replayed = sum(len(trace.interval_slice(i)) for i in range(2))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        engine.compare_systems(tree, str(SMALL), ALL_SYSTEMS)
    # the count bench/rep.py checks against the accesses it replayed
    assert rep.tracer_counts(tracer)["memmodel.accesses"] == replayed * len(ALL_SYSTEMS)
    for name in ALL_SYSTEMS:
        assert tracer.calls[f"baselines.{name}.run_profiling"] == 2
    # the patches are gone once the block ends
    assert not hasattr(vars(engine)["run_simulation"], "__wrapped__")


def test_traced_compare_sees_the_write_projection():
    """execute_plan must call project_write_times through the migrator
    module's global: called by an imported name, it would slip past the
    patch and `migrator.writes_projected` would silently read 0."""
    tree = config.load_config_file(str(MID))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        engine.compare_systems(tree, str(MID), ["first-touch", "mtm", "mtm-no-pebs"])
    # the mid golden's figures: 6 plans, each projected but the last interval's
    assert tracer.calls["migrator.project_write_times"] == 5
    assert tracer.counts["migrator.project_write_times"] == 24_775


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_outputs_are_pinned(name, tmp_path):
    workload = WORKLOADS[name]
    tree = config.load_config_file(str(CONFIG_DIR / workload.config))
    tree["seed"] = 1
    cfg = config.build_run_config(tree, origin=workload.config)
    trace, oracle = engine.build_trace(cfg)
    digests = {}
    for system in workload.systems:
        result = engine.run_simulation(replace(cfg, system=system),
                                       trace=trace, oracle=oracle)
        engine.write_run_outputs(result, tmp_path / system)
        digests[system] = rep.digest(tmp_path / system)
    assert digests == BENCH_DIGESTS[name]
