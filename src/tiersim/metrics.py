"""Profiling-quality and cost metrics against the oracle and ledgers."""
from __future__ import annotations

from dataclasses import dataclass, field

from .profiler import Region


@dataclass
class IntervalMetrics:
    interval: int
    recall: float
    precision: float
    app_cost: float
    profiling_cost: float
    migration_exposed_cost: float
    tier_access_counts: dict[str, int] = field(default_factory=dict)
    merges: int = 0
    splits: int = 0


def detect_hot_pages(regions: list[Region], threshold: float) -> set[int]:
    """All pages of regions whose smoothed hotness (0.0 before the first
    observation) reaches the threshold."""
    hot: set[int] = set()
    for r in regions:
        if (r.whi if r.whi is not None else 0.0) >= threshold:
            hot.update(range(r.start_page, r.end_page))
    return hot


def recall_precision(detected: set[int], oracle_set: set[int]) -> tuple[float, float]:
    correct = len(detected & oracle_set)
    recall = correct / len(oracle_set) if oracle_set else 1.0
    precision = correct / len(detected) if detected else 1.0
    return recall, precision


def time_breakdown(rows: list[IntervalMetrics]) -> tuple[float, float, float]:
    app = sum(r.app_cost for r in rows)
    prof = sum(r.profiling_cost for r in rows)
    mig = sum(r.migration_exposed_cost for r in rows)
    return app, prof, mig


def metrics_header(tier_ids: list[str]) -> list[str]:
    return (["interval", "recall", "precision", "app_cost", "prof_cost", "mig_cost"]
            + [f"t{i + 1}_acc" for i in range(len(tier_ids))]
            + ["merges", "splits"])


def metrics_row(m: IntervalMetrics, tier_ids: list[str]) -> list:
    return ([m.interval, f"{m.recall:.6f}", f"{m.precision:.6f}",
             f"{m.app_cost:.6f}", f"{m.profiling_cost:.6f}",
             f"{m.migration_exposed_cost:.6f}"]
            + [m.tier_access_counts.get(t, 0) for t in tier_ids]
            + [m.merges, m.splits])


def summary_text(system: str, rows: list[IntervalMetrics],
                 tier_ids: list[str]) -> str:
    app, prof, mig = time_breakdown(rows)
    n = len(rows)
    lines = [
        f"system: {system}",
        f"intervals: {n}",
        f"app_cost_total: {app:.6f}",
        f"profiling_cost_total: {prof:.6f}",
        f"migration_exposed_total: {mig:.6f}",
        f"profiling_fraction_of_app: {(prof / app if app else 0.0):.6f}",
    ]
    if n:
        lines.append(f"mean_recall: {sum(r.recall for r in rows) / n:.6f}")
        lines.append(f"mean_precision: {sum(r.precision for r in rows) / n:.6f}")
        tail = rows[-1]
        for i, t in enumerate(tier_ids):
            total = sum(r.tier_access_counts.get(t, 0) for r in rows)
            lines.append(f"t{i + 1}_accesses_total: {total}")
        lines.append(f"final_recall: {tail.recall:.6f}")
        lines.append(f"final_precision: {tail.precision:.6f}")
    return "\n".join(lines) + "\n"
