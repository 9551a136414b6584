"""tiersim benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload gups-mtm --seed 1 --seconds 30 --trace 0

Repetitions run back to back, each in a fresh single-threaded process
(bench/rep.py), until --seconds have passed.  Host times are scaled to a
reference host speed gauged all through each repetition (bench/hostspeed.py).
With --trace 0 every
repetition is untraced and the metrics are BENCHMARK.json's end-to-end
metrics, medians over the repetitions.  With --trace 1 repetitions alternate
untraced and traced, and the metrics are its per-layer metrics.  Every metric
is printed by name with its unit, then a record of the environment and the
simulated-statistics fingerprint, then the result as one JSON line.  The
exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing
from workloads import SIM_STATS, SYSTEMS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170  # a run must end within 180 s


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(args) -> list[dict]:
    env = {k: v for k, v in os.environ.items() if k != "TIERSIM_SEED"}
    env["PYTHONHASHSEED"] = "0"
    # One output directory per run, so runs that share a checkout never
    # write over each other's files; removed however the run ends.
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        return _repeat(args, env, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _repeat(args, env: dict, out: Path) -> list[dict]:
    records: list[dict] = []
    t0 = perf_counter()
    while len(records) < 1 + args.trace or perf_counter() - t0 < args.seconds:
        traced = bool(args.trace) and len(records) % 2 == 1
        cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", args.workload,
               f"--seed={args.seed}", "--out", str(out)]
        try:
            proc = subprocess.run(cmd + ["--traced"] * traced, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - t0)))
        except subprocess.TimeoutExpired:
            sys.exit(f"bench: repetition {len(records)} passed the "
                     f"{RUN_LIMIT_S} s limit")
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            sys.exit(f"bench: repetition {len(records)} exited with "
                     f"code {proc.returncode}")
        records.append(json.loads(lines[-1]))
    return records


def judge(records: list[dict], systems) -> tuple[int, int, list[str]]:
    """Operations attempted and failed (one per system run), and problems.
    A run fails when it raised, failed a check, or wrote outputs whose digest
    differs from the first repetition's."""
    attempted, failed, problems = 0, 0, []
    reference: dict[str, str] = {}
    for i, rec in enumerate(records):
        for name in systems:
            entry = rec["systems"][name]
            issues = list(entry["problems"])
            if entry["error"]:
                issues.append(entry["error"])
            elif reference.setdefault(name, entry["digest"]) != entry["digest"]:
                issues.append("output digest differs from the first repetition")
            attempted += 1
            failed += bool(issues)
            problems += [f"repetition {i} {name}: {m}" for m in issues]
    for key in {k for rec in records for k in rec["counts"]}:
        seen = {rec["counts"][key] for rec in records if key in rec["counts"]}
        if len(seen) > 1:
            problems.append(f"count {key} differs between repetitions: {sorted(seen)}")
    return attempted, failed, problems


def end_to_end(records: list[dict]) -> dict:
    """Medians over the repetitions, host times at the reference speed."""
    return {
        "setup_s": median(r["setup_s"] for r in records),
        "sim_kacc_per_s": median(r["accesses"] / r["simulate_s"] / 1e3
                                 for r in records),
        "wall_s": median(r["wall_s"] for r in records),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in records),
    }


def per_layer(records: list[dict]) -> dict:
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    values = {f"{name}_s": median(r["spans"].get(name, 0.0) * r["scale"] for r in traced)
              for name in tracing.span_names(SYSTEMS)}
    values.update(traced[0]["counts"])
    for system in SYSTEMS:
        sim = traced[0]["systems"].get(system, {}).get("sim", {})
        values.update({f"sim.{system}.{stat}": sim.get(stat, 0.0) for stat in SIM_STATS})
    values["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                  - median(r["wall_s"] for r in plain))
    return values


def layer_shares(values: dict) -> dict:
    """Each module's share of the traced self time."""
    by_layer: dict[str, float] = {}
    for name, value in values.items():
        layer = name.split(".", 1)[0]
        if name.endswith("_s") and layer not in ("trace", "sim"):
            by_layer[layer] = by_layer.get(layer, 0.0) + value
    total = sum(by_layer.values())
    return {layer: round(v / total, 4) for layer, v in by_layer.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if "TIERSIM_SEED" in os.environ:
        sys.exit("bench: TIERSIM_SEED is set and would override the workload "
                 "seed; unset it and pass --seed instead")
    if not (ROOT / "src" / "tiersim" / "__init__.py").is_file():
        sys.exit(f"bench: no tiersim sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    records = collect(args)
    attempted, failed, problems = judge(records, workload.systems)
    if args.trace:
        declared, values = spec["per_layer"], per_layer(records)
    else:
        declared, values = spec["end_to_end"], end_to_end(records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for problem in problems:
        print(f"FAILED {problem}")
    first = records[0]
    record = {
        "workload": args.workload, "seed": args.seed, "why": workload.why,
        "config": f"bench/configs/{workload.config}", "systems": workload.systems,
        "repetitions": len(records),
        "per_repetition": {key: [r[key] for r in records] for key in
                           ("traced", "scale", "setup_s", "simulate_s", "output_s",
                            "wall_s", "raw_wall_s")},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "tiersim_version": first["tiersim_version"], "git_commit": git_commit(),
        "digests": {s: e["digest"] for s, e in first["systems"].items()},
        "sim": {s: e["sim"] for s, e in first["systems"].items()},
        "counts": max((r["counts"] for r in records), key=len),
    }
    if args.trace:
        record["layer_shares"] = layer_shares(values)
    print("record " + json.dumps(record))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
