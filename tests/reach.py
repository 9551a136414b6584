"""Reach audit: the function-body lines of `src/tiersim` that no committed
config runs.

    python tests/reach.py [--expect tests/reach_expected.txt]

Runs the CLI under the stdlib line tracer (`trace.Trace(count=1)`) on every
committed config: each golden case of `golden_cases.CASES`, sweeps included,
with the arguments `golden_cases.argv_for` gives it, and the cases of
`REACH_CASES`, the same way: `tiersim compare` with all six systems on
`two-socket.cfg` with `workload.init_pass = true`, and CI's `tiersim run
--system damon` on `small.cfg`; then `tiersim compare` with the four
baselines on `gups-mid.cfg`, and with first-touch and mtm on `gups-big.cfg`
and `seq-rw-big.cfg`.  It then prints one line per run of
unexecuted statements: the module, the first and last statement line, the
enclosing function and the first statement's source, so that lists from
two versions can be diffed by everything after the line numbers.  A
statement counts as run when its first line ran.

With `--expect FILE`, a committed list of such lines, the audit is a gate:
it exits 1 when a line it prints is not in the list, or a listed line is
not printed (it is reached now, or gone), comparing lines on everything
after the line numbers, and names each such line on stderr.  The list
stays exact, so a line that becomes reached or is deleted leaves it.
pytest does not collect this file; the audit takes about 45 s.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import golden_cases  # noqa: E402  (a script's own directory is on sys.path)
from tiersim import cli  # noqa: E402

PACKAGE = ROOT / "src" / "tiersim"
BENCH = ROOT / "bench" / "configs"
# more cases in `golden_cases.CASES`' form: (config file, lines appended to
# it, CLI arguments after -c)
REACH_CASES = {
    # the one config with more than two tiers; the init pass touches every page
    "two-socket-init-pass": ("two-socket.cfg", "workload.init_pass = true\n",
                             ["compare", "--systems", golden_cases.ALL_SYSTEMS]),
    # CI's smoke run of the installed script
    "small-run-damon": ("small.cfg", "", ["run", "--system", "damon"]),
}
BENCH_RUNS = [
    (BENCH / "gups-mid.cfg", ("first-touch", "autonuma", "thermostat", "damon")),
    (BENCH / "gups-big.cfg", ("first-touch", "mtm")),
    (BENCH / "seq-rw-big.cfg", ("first-touch", "mtm")),
]


def body_statements(tree: ast.Module) -> dict[int, str]:
    """First line of every statement inside a function body, mapped to the
    qualified name of the innermost function; docstrings excluded."""
    lines: dict[int, str] = {}

    def visit(node: ast.AST, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_function:
                    lines[child.lineno] = scope
                inner = f"{scope}.{child.name}" if scope else child.name
                visit(child, inner, in_function or not isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.stmt) and in_function and not (
                    isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)):
                lines[child.lineno] = scope
            visit(child, scope, in_function)

    visit(tree, "", False)
    return lines


def run_all() -> dict[tuple[str, int], int]:
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix,
                                     sys.base_prefix, sys.base_exec_prefix])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = [(case, golden_cases.argv_for(case, work, work / case))
                for case in sorted(golden_cases.CASES)]
        runs += [(case, golden_cases.argv_for(case, work, work / case, REACH_CASES))
                 for case in REACH_CASES]
        runs += [(path.name, ["compare", "-c", str(path), "--systems", ",".join(systems),
                              "--out", str(work / path.stem)])
                 for path, systems in BENCH_RUNS]
        for name, argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.runfunc(cli.main, argv)
            if code != cli.EXIT_OK:
                raise SystemExit(f"reach: {argv[0]} on {name} exited with {code}")
    return tracer.results().counts


def unreached(counts: dict[tuple[str, int], int]) -> list[str]:
    ran = {(Path(f).resolve(), line) for f, line in counts}
    report = []
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text()
        text = source.splitlines()
        statements = body_statements(ast.parse(source))
        run: list[int] = []
        for line in sorted(statements) + [None]:
            if line is not None and (module, line) not in ran and (
                    not run or statements[run[0]] == statements[line]):
                run.append(line)
                continue
            if run:
                span = f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}"
                report.append(f"{module.name}:{span} {statements[run[0]]}: "
                              f"{text[run[0] - 1].strip()}")
            run = [line] if line is not None and (module, line) not in ran else []
    return report


def line_key(line: str) -> str:
    """An audit line without its line numbers: "module scope: source"."""
    module, rest = line.split(":", 1)
    return f"{module} {rest.split(' ', 1)[1]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="List the lines no committed config runs.")
    parser.add_argument("--expect", type=Path,
                        help="fail when a line is not in this committed list")
    args = parser.parse_args(argv)
    report = unreached(run_all())
    for line in report:
        print(line)
    if args.expect is None:
        return 0
    expected = {line_key(line) for line in args.expect.read_text().splitlines() if line}
    found = {line_key(line) for line in report}
    new = [line for line in report if line_key(line) not in expected]
    for line in new:
        print(f"reach: newly unreached: {line}", file=sys.stderr)
    gone = sorted(expected - found)
    for key in gone:
        print(f"reach: listed but now reached or gone: {key}", file=sys.stderr)
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
