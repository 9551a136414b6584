"""Results table: `norm_total` of every system on the committed configs,
beside an ideal-placement column.

    python tests/table.py [--expect tests/table_expected.csv] > table.csv

Runs `engine.compare_systems` with all six systems on each row: the five
golden compares of `golden_cases.CASES`, *big* (`bench/configs/gups-big.cfg`
run for 20 intervals) and `tests/golden/configs/two-socket.cfg` at seeds
1-4, with and without `workload.init_pass`.  It prints one CSV: a row's
`norm_total` per system (total cost over first-touch's), then `ideal_app`.
Each seed group ends with its min, median and max rows, column by column.

`ideal_app` places each interval's pages hottest first (most accesses, then
lowest page), each into the tier with room that is cheapest for its accesses
by node, and sums count x cost over the intervals the systems run, divided
by first-touch's total cost.  On one node that is the least app cost any
placement fixed within each interval reaches with migration free (`exact`
in the `ideal` column); on two nodes the greedy order makes it an
`estimate`.

With `--expect FILE`, a committed table, the run is a gate: it exits 1 when
any cell differs from the file's, naming each such cell on stderr, or when
a row is missing from either.  pytest does not collect this file; it takes
about 15 s.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from collections import Counter
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import golden_cases  # noqa: E402  (a script's own directory is on sys.path)
from tiersim import config, engine  # noqa: E402
from tiersim.memmodel import BASE_PAGE_BYTES, build_topology  # noqa: E402

SYSTEMS = ["first-touch", "autonuma", "damon", "thermostat", "mtm", "mtm-no-pebs"]
COMPARED = SYSTEMS[1:]
GOLDEN_ROWS = ["small", "mid", "mid_group16", "half_read", "phase_change"]
BIG = ROOT / "bench" / "configs" / "gups-big.cfg"
TWO_SOCKET = golden_cases.CONFIGS / "two-socket.cfg"
SEEDS = (1, 2, 3, 4)


def golden_tree(case: str) -> tuple[dict, str]:
    cfg_file, extra, _ = golden_cases.CASES[case]
    path = golden_cases.CONFIGS / cfg_file
    return config.parse_config_text(path.read_text() + extra, str(path)), str(path)


def with_keys(path: Path, keys: dict) -> tuple[dict, str]:
    tree = config.load_config_file(str(path))
    for key, value in keys.items():
        config.set_key(tree, key, str(value))
    return tree, str(path)


def ideal_app(cfg: config.RunConfig, trace) -> tuple[float, bool]:
    """The greedy per-interval placement's app cost, and whether it is exact
    (one accessor node)."""
    topology = build_topology(cfg.topology)
    ids = topology.tier_ids
    room = [t.capacity_bytes // BASE_PAGE_BYTES for t in topology.tiers]
    total = 0.0
    for i in range(min(cfg.intervals, trace.num_intervals)):
        slc = trace.interval_slice(i)
        by_node = Counter(zip(slc.pages(), slc.nodes()))
        mixes: dict[int, dict[int, int]] = {}
        for (page, node), count in by_node.items():
            mixes.setdefault(page, {})[node] = count
        left = list(room)
        for page, mix in sorted(mixes.items(), key=lambda kv: (-sum(kv[1].values()), kv[0])):
            costs = [sum(c * topology.cost[n][t] for n, c in mix.items())
                     for t in range(len(ids))]
            best = min((t for t in range(len(ids)) if left[t]), key=lambda t: (costs[t], t))
            left[best] -= 1
            total += costs[best]
    return total, len(topology.accessor_nodes) == 1


def table_row(tree: dict, origin: str) -> tuple[list[float], bool]:
    rows = {r["system"]: r for r in engine.compare_systems(tree, origin, SYSTEMS)}
    cfg = config.build_run_config(tree, origin)
    trace, _ = engine.build_trace(cfg)
    app, exact = ideal_app(cfg, trace)
    base = rows["first-touch"]["total_cost"]
    return [rows[s]["norm_total"] for s in COMPARED] + [app / base], exact


def differences(table: list[list[str]], expected: list[list[str]]) -> list[str]:
    """Each cell of `table` that differs from `expected`'s, as "row column:
    expected X, got Y", and each row only one of the two holds."""
    want = {row[0]: row for row in expected}
    have = {row[0]: row for row in table}
    out = []
    for label, row in have.items():
        if label not in want:
            out.append(f"{label}: not in the expected table")
            continue
        out += [f"{label} {column}: expected {old}, got {new}"
                for column, old, new in zip_longest(table[0], want[label], row, fillvalue="")
                if old != new]
    return out + [f"{label}: missing" for label in want if label not in have]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print the results table.")
    parser.add_argument("--expect", type=Path,
                        help="fail when any cell differs from this committed table")
    args = parser.parse_args(argv)
    out = [["row", *COMPARED, "ideal_app", "ideal"]]

    def emit(label, values, exact):
        out.append([label, *(f"{v:.3f}" for v in values),
                    "exact" if exact else "estimate"])

    for case in GOLDEN_ROWS:
        emit(case, *table_row(*golden_tree(case)))
    emit("big-20", *table_row(*with_keys(BIG, {"intervals": 20,
                                               "workload.accesses": 1310720})))
    for init_pass in ("false", "true"):
        group = "two-socket" + ("+init_pass" if init_pass == "true" else "")
        seeded = [table_row(*with_keys(TWO_SOCKET, {"seed": seed,
                                                    "workload.init_pass": init_pass}))
                  for seed in SEEDS]
        for seed, (values, exact) in zip(SEEDS, seeded):
            emit(f"{group} seed {seed}", values, exact)
        columns = list(zip(*(values for values, _ in seeded)))
        for name, stat in (("min", min), ("median", statistics.median), ("max", max)):
            emit(f"{group} {name}", [stat(c) for c in columns], exact)
    sys.stdout.write("".join(",".join(row) + "\n" for row in out))
    if args.expect is None:
        return 0
    expected = [line.split(",") for line in args.expect.read_text().splitlines() if line]
    diffs = differences(out, expected)
    for line in diffs:
        print(f"table: {line}", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
