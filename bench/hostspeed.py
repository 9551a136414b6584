"""Gauge how fast the host runs Python while a repetition runs.

A virtual machine shared with other tenants drifts between speed states
that last a few seconds, so two runs of identical work can differ by 1.5x
in wall time.  A gauge read only before and after a repetition misses the
states inside it.  This one interrupts the repetition every INTERVAL_S on a
timer signal and times a fixed loop in the signal handler, so the loop
samples the speed the repetition itself gets, all through it.  Each span of
the repetition is then reported at a reference speed: its wall time less the
loops run inside it, scaled by REFERENCE_S / the loop's mean time there.

The loop is shaped like tiersim's replay: a pseudo-random page, a frozen
dataclass event per step, byte and list indexing and a dict counter.  It
lives in the benchmark, not in tiersim, so no change to tiersim can move it.
"""
from __future__ import annotations

import signal
from dataclasses import dataclass
from time import perf_counter

# Seconds one loop takes at the reference speed.
REFERENCE_S = 0.001


@dataclass(frozen=True)
class _Event:
    seq: int
    page: int
    is_write: bool


class HostSpeed:
    """Context manager: samples the loop every INTERVAL_S while it is open."""

    INTERVAL_S = 0.05
    STEPS = 500
    PAGES = 4096

    def __init__(self):
        self.bits = bytearray(self.PAGES)
        self.tier = ["dram", "pmem"] * (self.PAGES // 2)
        self.counts = {"dram": 0, "pmem": 0}
        self.loops: list[tuple[float, float]] = []  # (start, end) of each loop
        self._saved = None

    def _loop(self, signum, frame) -> None:
        mask, x = self.PAGES - 1, 12345
        t0 = perf_counter()
        for k in range(self.STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            ev = _Event(k, x & mask, bool(k & 1))
            self.bits[ev.page] = 1
            self.counts[self.tier[ev.page]] += 1
        self.loops.append((t0, perf_counter()))

    def __enter__(self) -> HostSpeed:
        self._saved = signal.signal(signal.SIGALRM, self._loop)
        # The first loop runs at once, so even a short block has a sample.
        signal.setitimer(signal.ITIMER_REAL, 1e-6, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """REFERENCE_S / the mean loop time within [start, end], or over every
        loop when none ran there."""
        inside = self._inside(start, end) or self.loops
        return REFERENCE_S * len(inside) / sum(b - a for a, b in inside)

    def reference_s(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at the reference speed, without
        the loops run inside it."""
        own = (end - start) - sum(b - a for a, b in self._inside(start, end))
        return own * self.scale(start, end)

    def _inside(self, start: float, end: float) -> list[tuple[float, float]]:
        return [(a, b) for a, b in self.loops if start <= a and b <= end]
