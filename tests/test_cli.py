"""Exit codes of the command-line front end: 0 success, 2 config error,
3 infeasible overhead constraint, 4 memory exhausted."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import tiersim
from tiersim.baselines import BASELINE_KINDS
from tiersim.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_MEMORY, EXIT_OK, main

SMALL = Path(__file__).resolve().parent / "golden" / "configs" / "small.cfg"


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("TIERSIM_SEED", raising=False)


def small_config(tmp_path, extra: str = "") -> str:
    """The small config with `extra` lines appended (later keys win)."""
    path = tmp_path / "small.cfg"
    path.write_text(SMALL.read_text() + extra)
    return str(path)


def test_module_entry_point_runs():
    """`python -m tiersim` reaches the same front end as the script."""
    src = Path(tiersim.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "tiersim", "--help"], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert "usage: tiersim" in done.stdout


@pytest.mark.parametrize("extra, code, message", [
    ("", EXIT_OK, None),
    ("policy.bogus = 1\n", EXIT_CONFIG, "'bogus'"),
    # the hotness histogram and its bucket width are gone
    ("policy.bucket_width = 0.1\n", EXIT_CONFIG, "'bucket_width'"),
    ("profiler.overhead_constraint = 0.000001\n", EXIT_BUDGET,
     "constraint infeasible"),
    # 4 096 pages cannot fit 1 MiB + 8 MiB of tiers
    ("workload.footprint_pages = 4096\n", EXIT_MEMORY, "all tiers full"),
], ids=["ok", "unknown-field", "retired-field", "infeasible-budget",
        "memory-exhausted"])
def test_run_exit_codes(tmp_path, capsys, extra, code, message):
    argv = ["run", "-c", small_config(tmp_path, extra), "--out", str(tmp_path / "out")]
    assert main(argv) == code
    if message is not None:
        assert message in capsys.readouterr().err
    else:
        assert (tmp_path / "out" / "summary.txt").is_file()


@pytest.mark.parametrize("text, message", [
    (None, "No such file"),
    ("{ not json\n", "bad JSON"),  # a leading brace reads the file as JSON
], ids=["missing-file", "bad-json"])
def test_unreadable_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    assert main(["run", "-c", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err and str(path) in err


# 1 324 pages leave a partial last 512-page window in pmem; mtm's counter
# nominations used to read past the footprint there (an IndexError, exit 1).
PARTIAL_LAST_WINDOW = ("workload.footprint_pages = 1324\n"
                       "workload.accesses = 81920\n"
                       "workload.accesses_per_interval = 4096\n")


@pytest.mark.parametrize("system", BASELINE_KINDS)
def test_partial_last_window_runs(tmp_path, system):
    argv = ["run", "-c", small_config(tmp_path, PARTIAL_LAST_WINDOW),
            "--system", system, "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("param, value, message", [
    ("tau1", "5", "tau1 < tau2"),
    ("overhead_constraint", "2", "overhead_constraint must be in (0, 1)"),
    ("num_scans", "0", "num_scans must be >= 1"),
    ("N", "abc", "sweep N=abc"),
])
def test_sweep_rejects_values_its_section_rejects(tmp_path, capsys, param, value,
                                                  message):
    argv = ["sweep", "-c", small_config(tmp_path), "--param", param,
            "--values", value, "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
