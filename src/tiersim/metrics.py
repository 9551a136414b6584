"""Profiling-quality and cost metrics against the oracle and ledgers."""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

RECALL_CHUNK = 2048  # hot pages gathered from the mask by one itemgetter call


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


def detect_hot_pages(spans: Iterable[tuple[int, int, float]], threshold: float,
                     num_pages: int) -> bytearray:
    """How every system's scores become the pages it takes as hot: a mask of
    `num_pages` bytes, 1 on every page of the (start, end, score) spans
    whose score reaches the threshold.  Spans lie inside [0, num_pages)."""
    mask = bytearray(num_pages)
    for start, end, score in spans:
        if score >= threshold:
            mask[start:end] = b"\x01" * (end - start)
    return mask


def recall_precision(mask: bytearray, hot: Sequence[int]) -> tuple[float, float]:
    """Recall and precision of a page mask against `hot`, the oracle's
    distinct hot pages, each a page of the mask (the engine passes its
    array).  The mask's bytes at those pages are gathered `RECALL_CHUNK`
    pages at a time, one C call a chunk, so at most one chunk's pages and
    bytes are boxed at once: gups-big.cfg's 65 536-access intervals scored
    as fast as in one gather of every hot page."""
    detected = mask.count(1)
    correct = 0
    if detected:
        for k in range(0, len(hot), RECALL_CHUNK):
            got = itemgetter(*hot[k:k + RECALL_CHUNK])(mask)
            # itemgetter of one page returns its byte, of more a tuple
            correct += got.count(1) if type(got) is tuple else got
    recall = correct / len(hot) if hot else 1.0
    precision = correct / detected if detected else 1.0
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
