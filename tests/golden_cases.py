"""The golden cases: each committed config `tiersim compare` or `tiersim
sweep` runs for `test_golden.py`, the CLI arguments it runs with, and
`files_under`, which reads a run's outputs back.  `tests/table.py`,
`tests/reach.py` and `tests/pins.py` read them too, so this module imports
nothing beyond the standard library."""
from __future__ import annotations

from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = GOLDEN / "configs"
EXPECTED = GOLDEN / "expected"
ALL_SYSTEMS = "mtm,mtm-no-pebs,first-touch,autonuma,thermostat,damon"

# case name -> (config file, lines appended to it, CLI arguments after -c)
CASES = {
    "small": ("small.cfg", "", ["compare", "--systems", ALL_SYSTEMS]),
    "mid": ("mid.cfg", "", ["compare", "--systems", ALL_SYSTEMS]),
    "half_read": ("half_read.cfg", "", ["compare", "--systems", ALL_SYSTEMS]),
    # allocation groups smaller than the profiler window leave a window's
    # slowest-tier run partly covered, so a nomination takes only a piece of it
    "mid_group16": ("mid.cfg", "alloc_group_pages = 16\n",
                    ["compare", "--systems", "first-touch,mtm,mtm-no-pebs"]),
    "phase_change": ("phase_change.cfg", "",
                     ["compare", "--systems", ALL_SYSTEMS]),
    # MTM never plans on small (no counter nomination fires), so the sweeps
    # run systems whose outputs move with the swept value.
    "sweep-num_scans-damon": ("small.cfg", "system = damon\n",
                              ["sweep", "--param", "num_scans", "--values", "2,3,6"]),
    "sweep-num_scans-mtm-no-pebs": ("small.cfg", "system = mtm-no-pebs\n",
                                    ["sweep", "--param", "num_scans",
                                     "--values", "2,3,6"]),
    "sweep-N-damon": ("small.cfg", "system = damon\n",
                      ["sweep", "--param", "N", "--values", "4096,65536,1048576"]),
}


def files_under(root: Path) -> dict[str, bytes]:
    """Every file under `root` by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def argv_for(case: str, work: Path, out: Path, cases: dict = CASES) -> list[str]:
    """CLI arguments for a case of `cases`, its config written under `work`."""
    config, extra, args = cases[case]
    cfg = work / f"{case}.cfg"
    cfg.write_text((CONFIGS / config).read_text() + extra)
    return [args[0], "-c", str(cfg), *args[1:], "--out", str(out)]
