"""Every pinned output checked at once, without pytest.

    python tests/pins.py

Runs four checks and prints one line for each:

- golden: every case of `golden_cases.CASES` through `cli.main`, each file
  compared byte for byte with `tests/golden/expected/`;
- bench: every benchmark workload's systems at seed 1, each one's
  `bench/rep.py` digest compared with `bench_digests.BENCH_DIGESTS`;
- table: `tests/table.py --expect tests/table_expected.csv`;
- reach: `tests/reach.py --expect tests/reach_expected.txt`, on CPython 3.11
  only, the interpreter CI audits on: the line events the audit counts
  differ between interpreter versions.  On any other it says it skipped.

It exits 1 when any artifact differs, naming each: golden files, bench
digests before and after, and, on stderr, the table cells and reach lines
that moved.  It never rewrites anything; each artifact keeps its own route
for that.  All four take about 40 s on CPython 3.11, the reach audit 25 s
of it (2-CPU VM).
"""
from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))  # rep.py imports its siblings by name

import golden_cases  # noqa: E402  (a script's own directory is on sys.path)
import rep  # noqa: E402
from bench_digests import BENCH_DIGESTS  # noqa: E402
from tiersim import cli, config, engine  # noqa: E402
from workloads import CONFIG_DIR, WORKLOADS  # noqa: E402

REACH_PYTHON = (3, 11)


def golden(work: Path) -> list[str]:
    """The golden files a case writes differently, or not at all."""
    moved = []
    for case in sorted(golden_cases.CASES):
        out = work / "golden" / case
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(golden_cases.argv_for(case, work, out))
        if code != cli.EXIT_OK:
            moved.append(f"{case}: exited with {code}")
            continue
        got = golden_cases.files_under(out)
        want = golden_cases.files_under(golden_cases.EXPECTED / case)
        for name in sorted(set(got) | set(want)):
            if name not in got:
                moved.append(f"{case}/{name}: not written")
            elif name not in want:
                moved.append(f"{case}/{name}: written, not pinned")
            elif got[name] != want[name]:
                moved.append(f"{case}/{name}: differs")
    return moved


def bench(work: Path) -> list[str]:
    """The benchmark systems whose output digest is not the pinned one."""
    moved = []
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        tree = config.load_config_file(str(CONFIG_DIR / workload.config))
        tree["seed"] = 1
        cfg = config.build_run_config(tree, origin=workload.config)
        trace, oracle = engine.build_trace(cfg)
        for system in workload.systems:
            result = engine.run_simulation(replace(cfg, system=system),
                                           trace=trace, oracle=oracle)
            out = work / "bench" / name / system
            engine.write_run_outputs(result, out)
            got, want = rep.digest(out), BENCH_DIGESTS[name].get(system)
            if got != want:
                moved.append(f"{name}/{system}: expected {want}, got {got}")
    return moved


def gate(script: str, expect: str) -> list[str]:
    """Run `tests/<script> --expect tests/<expect>` in a fresh interpreter,
    its report dropped; it names on stderr what moved.  The reach audit
    needs the fresh process: a function that caches its result, run by an
    earlier check, would read as unreached."""
    run = subprocess.run([sys.executable, str(TESTS / script), "--expect",
                          str(TESTS / expect)], stdout=subprocess.DEVNULL)
    return [] if run.returncode == 0 else [f"exited with {run.returncode}"]


def main() -> int:
    os.environ.pop("TIERSIM_SEED", None)  # the pins are at each config's own seed
    version = ".".join(map(str, sys.version_info[:3]))
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        checks = [("golden", lambda: golden(work)), ("bench", lambda: bench(work)),
                  ("table", lambda: gate("table.py", "table_expected.csv"))]
        if sys.version_info[:2] == REACH_PYTHON:
            checks.append(("reach", lambda: gate("reach.py", "reach_expected.txt")))
        else:
            print(f"reach: skipped on CPython {version}; the audit runs on "
                  f"{'.'.join(map(str, REACH_PYTHON))}", flush=True)
        for name, check in checks:
            moved = check()
            for line in moved:
                print(f"{name}: {line}", flush=True)
            print(f"{name}: {'differs' if moved else 'identical'}", flush=True)
            if moved:
                differ.append(name)
    print(f"pins: CPython {version}: "
          + (f"differs in {', '.join(differ)}" if differ else "every artifact identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
