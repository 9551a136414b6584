"""The benchmark's workloads: a committed config, the systems run on its
shared trace, and why the workload exists.  Importing this module does not
import tiersim."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    config: str            # file under bench/configs; its seed is replaced by --seed
    systems: tuple[str, ...]
    why: str


WORKLOADS = {
    "gups-mtm": Workload(
        "gups-big.cfg", ("mtm",),
        "MTM's profiler, planner and adaptive migrator do most of the work; "
        "every GUPS access writes, so most async moves fall back"),
    "gups-baselines": Workload(
        "gups-mid.cfg", ("first-touch", "autonuma", "thermostat", "damon"),
        "replay is nearly all the work; the MTM profiler and write projection "
        "never run, so MTM-side optimisations are bypassed"),
    "seq-rw-mtm": Workload(
        "seq-rw-big.cfg", ("mtm",),
        "MTM on half-read sequential passes: progressive first touch, few "
        "async moves and no fallbacks, so the read and allocation paths show"),
}

# Every system some workload runs, in report order.
SYSTEMS = tuple(dict.fromkeys(s for w in WORKLOADS.values() for s in w.systems))

# Simulated statistics recorded per system (the sim.<system>.<stat> metrics).
SIM_STATS = ("app_cost", "prof_cost", "mig_cost", "fast_tier_share",
             "mean_recall", "mean_precision", "norm_total")
