"""Golden outputs: every file `tiersim compare` and `tiersim sweep` write,
pinned byte for byte.

A change meant to keep behaviour must leave these files untouched.  After a
change meant to alter behaviour, rewrite them with

    python tests/test_golden.py

and review the diff under tests/golden/expected/.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from columns import node_column, write_column
from golden_cases import ALL_SYSTEMS, CASES, CONFIGS, EXPECTED, argv_for, files_under

SRC = Path(__file__).resolve().parents[1] / "src"


def produce(case: str, work: Path, out: Path) -> None:
    from tiersim.cli import main
    work.mkdir(parents=True, exist_ok=True)
    assert main(argv_for(case, work, out)) == 0


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("TIERSIM_SEED", raising=False)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    produce(case, tmp_path, tmp_path / "out")
    got = files_under(tmp_path / "out")
    want = files_under(EXPECTED / case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs from its golden"


def test_outputs_independent_of_hash_seed(tmp_path):
    """Each PYTHONHASHSEED gets a fresh interpreter; all write the same bytes."""
    env = {k: v for k, v in os.environ.items() if k != "TIERSIM_SEED"}
    env["PYTHONPATH"] = str(SRC)
    outputs = []
    for seed in ("0", "1", "2"):
        out = tmp_path / f"hash{seed}"
        env["PYTHONHASHSEED"] = seed
        subprocess.run([sys.executable, "-m", "tiersim.cli",
                        *argv_for("phase_change", tmp_path, out)],
                       check=True, env=env, capture_output=True)
        outputs.append(files_under(out))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0] == files_under(EXPECTED / "phase_change")


@pytest.mark.parametrize("config", ["small.cfg", "mid.cfg"])
def test_a_second_node_with_node_0s_view_changes_nothing(config, tmp_path):
    """A metamorphic relation over the per-node cost rows: a second accessor
    node whose view is node 0's pays node 0's cost for every tier, so every
    file `compare` writes for the six systems stays byte-identical."""
    from tiersim.cli import main
    base = (CONFIGS / config).read_text() + "profiler.origin_sampling = true\n"
    outputs = []
    for name, extra in (("one", ""),
                        ("two", "topology.nodes = 0, 1\ntopology.views.1 = dram, pmem\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(base + extra)
        out = tmp_path / name
        assert main(["compare", "-c", str(cfg), "--systems", ALL_SYSTEMS,
                     "--out", str(out)]) == 0
        outputs.append(files_under(out))
    assert {name.split("/")[0] for name in outputs[0]} == \
        {"compare.csv", *ALL_SYSTEMS.split(",")}
    assert outputs[0] == outputs[1]


def test_sync_outputs_ignore_the_write_column(tmp_path):
    """A metamorphic relation over the write column: only the migrator's
    projection reads it, and mode `sync` never looks at that projection, so
    each system writes the same files whether `mid`'s trace writes as
    generated, reads only or writes only."""
    from tiersim.config import build_run_config, parse_config_text
    from tiersim.engine import build_trace, run_simulation, write_run_outputs
    from tiersim.workload import AccessTrace
    tree = parse_config_text((CONFIGS / "mid.cfg").read_text() + "migrator_mode = sync\n")
    cfgs = [build_run_config(tree, "mid.cfg", {"system": name})
            for name in ALL_SYSTEMS.split(",")]
    trace, oracle = build_trace(cfgs[0])
    columns = {"given": write_column(trace), "reads": bytearray(len(trace)),
               "writes": bytearray(b"\x01") * len(trace)}
    for cfg in cfgs:
        outputs = []
        for label, writes in columns.items():
            variant = AccessTrace(trace.vpages, writes, node_column(trace),
                                  trace.accesses_per_interval, trace.footprint)
            out = tmp_path / cfg.system / label
            write_run_outputs(run_simulation(cfg, trace=variant, oracle=oracle), out)
            outputs.append(files_under(out))
        assert outputs[0] == outputs[1] == outputs[2], cfg.system


def test_nothing_moves_when_the_fast_tier_holds_everything(tmp_path):
    """A metamorphic relation over placement: with a DRAM tier as large as
    `mid`'s whole 64 MiB footprint, first touch puts every page there, so no
    system plans a move and every system's app cost is first-touch's."""
    from tiersim.config import parse_config_text
    from tiersim.engine import compare_systems
    text = (CONFIGS / "mid.cfg").read_text() + "topology.tier0.capacity_bytes = 67108864\n"
    systems = ALL_SYSTEMS.split(",")
    rows = compare_systems(parse_config_text(text), "mid.cfg", systems, tmp_path)
    assert [row["system"] for row in rows] == systems
    assert all(row["norm_app"] == 1.0 for row in rows), rows
    for name in systems:
        plans = (tmp_path / name / "plans.csv").read_text().splitlines()
        assert plans == ["interval,region_id,src_tier,dst_tier,reason,bytes"], name


def regenerate() -> None:
    import tempfile
    os.environ.pop("TIERSIM_SEED", None)
    with tempfile.TemporaryDirectory() as work:
        for case in sorted(CASES):
            shutil.rmtree(EXPECTED / case, ignore_errors=True)
            produce(case, Path(work), EXPECTED / case)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    regenerate()
