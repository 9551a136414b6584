"""Synthetic access traces, and the per-interval hot-page oracle of a trace."""
from __future__ import annotations

import random
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, repeat
from zlib import crc32

HOT_THRESHOLD_ACCESSES = 2  # a page is hot in an interval iff accessed >= 2 times
NODE_ID_LIMIT = 1 << 16  # node ids are 0..65535, what the array('H') column holds
PAGE_LIMIT = 1 << 32  # pages are 0..2**32 - 1, what the array('I') column holds
GUPS_DRAW_CHUNK = 2048  # GUPS draws gathered in a list before they join the column


class WorkloadError(Exception):
    pass


class AccessTrace:
    """Time-ordered access stream, stored column-wise for cheap replay.
    A trace is never written after construction.

    - `vpages` is an array('I') of pages, four bytes per access, where a
      list would hold an 8-byte pointer per access plus a boxed int per
      distinct page.  Replay and the oracle box each page as they read it:
      a bare loop over an array slice costs up to about 10 ns an access
      more than over a list slice, small beside replay's 0.12-0.21 us an
      access (first-touch on gups-mid.cfg, one node, best of 5 replays in
      each of 6 processes, CPython 3.11, a 2-CPU VM whose speed drifts).
    - Two columns may be scalars.  `writes` is a bytearray of 0/1, one byte
      an access, and `nodes` the array('H') of accessor node ids, two bytes
      an access.  Pass a bool for `writes` when every access writes or every
      one reads, and an int for `nodes` when one node makes every access:
      the trace keeps the constant as `write` or `node`, stores no column
      (`writes` or `nodes` is None), and its slices repeat the constant.  A
      trace built from a column keeps it, and its `write` or `node` is None.
      Nothing expands a constant into a column: replay and write projection
      read none, and gups-big.cfg's all-write trace saves a byte an access.

    `footprint` is the number of pages the trace spans, kept as given.
    Whoever builds the trace states it, and it must exceed every page.  A
    generator states the footprint its parameters name, whether or not its
    top page is drawn: a GUPS trace its largest block's `footprint_pages`
    and a microbench its `array_pages`, so a run simulates the memory its
    config names.  The trace does not check it; the oracle and replay
    refuse a page at or past it.

    The generators build every column in its type, never as a full-length
    list.  Columns of other types (tests pass lists) are converted here, and
    the page conversion rejects a page outside 0..2**32 - 1.  This is where
    outside input enters, and the one place a negative page is refused:
    replay, write projection and counter sampling index `page_tier` by page
    and require `0 <= page` without testing it."""

    def __init__(self, vpages: array | list[int], writes: bytearray | list[bool] | bool,
                 nodes: array | list[int] | int, accesses_per_interval: int,
                 footprint: int):
        if isinstance(writes, bool):  # a constant, repeated when read
            self.write, self.writes = writes, None
        else:
            self.write = None
            self.writes = writes if isinstance(writes, bytearray) else bytearray(writes)
        if isinstance(nodes, int):  # a constant, repeated when read
            array("H", [nodes])  # refuses a node id that a column could not hold
            self.node, self.nodes = nodes, None
        else:
            self.node = None
            self.nodes = nodes if isinstance(nodes, array) else array("H", nodes)
        if any(col is not None and len(col) != len(vpages)
               for col in (self.writes, self.nodes)):
            raise WorkloadError("trace columns must have equal length")
        if accesses_per_interval < 1:
            raise WorkloadError("accesses_per_interval must be >= 1")
        if not (isinstance(vpages, array) and vpages.typecode == "I"):
            try:
                vpages = array("I", vpages)
            except OverflowError as exc:
                raise WorkloadError(f"trace pages must be in 0..{PAGE_LIMIT - 1}: "
                                    f"{exc}") from None
        self.vpages = vpages
        self.accesses_per_interval = accesses_per_interval
        self.footprint = footprint

    def __len__(self) -> int:
        """The access count; the benchmark's repetition reports it as `events`."""
        return len(self.vpages)

    @property
    def num_intervals(self) -> int:
        n = len(self.vpages)
        api = self.accesses_per_interval
        return (n + api - 1) // api

    def interval_bounds(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.num_intervals:
            raise IndexError(f"interval {index} out of range")
        lo = index * self.accesses_per_interval
        return lo, min(lo + self.accesses_per_interval, len(self.vpages))

    def interval_slice(self, index: int) -> "TraceSlice":
        lo, hi = self.interval_bounds(index)
        return TraceSlice(self, lo, hi)


class TraceSlice:
    """A half-open [lo, hi) window of a trace; what replay and profiling see."""

    def __init__(self, trace: AccessTrace, lo: int, hi: int):
        self.trace = trace
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def pages(self) -> array:
        """The window's page column, in access order: an array slice, a copy
        each call.  A memoryview would copy nothing, but a loop reads it
        about 7% slower an access, and replay over views cost `seq-rw-mtm`
        1.7% of its `sim_kacc_per_s` and `gups-mtm` 0.8% (6 alternating
        `bench/run.py` pairs, CPython 3.11, 2-CPU VM); only the oracle,
        which runs once, reads the column through a view."""
        return self.trace.vpages[self.lo:self.hi]

    def nodes(self) -> Iterable[int]:
        """The window's accessor nodes, in access order: a slice of the node
        column, or the one node repeated, which slices nothing."""
        node = self.trace.node
        return self.trace.nodes[self.lo:self.hi] if node is None else repeat(node, len(self))

    def events(self):
        """(vpage, is_write, node) for every access in the window, in order;
        a trace whose accesses all write or all read repeats its `write`."""
        write = self.trace.write
        writes = (self.trace.writes[self.lo:self.hi] if write is None
                  else repeat(write, len(self)))
        return zip(self.pages(), writes, self.nodes())

    def subwindows(self, count: int) -> list["TraceSlice"]:
        """Split into `count` near-equal consecutive sub-windows."""
        n = len(self)
        out = []
        start = self.lo
        for k in range(count):
            end = self.lo + (n * (k + 1)) // count
            out.append(TraceSlice(self.trace, start, end))
            start = end
        return out

    def head_fraction(self, fraction: float) -> "TraceSlice":
        cut = self.lo + int(len(self) * fraction)
        return TraceSlice(self.trace, self.lo, min(max(self.lo, cut), self.hi))


@dataclass
class HotOracle:
    """Per-interval ground-truth hot sets (pages accessed >= 2 times).

    `hot_sets[i]` is an array('I') of interval i's hot pages, each once, in
    the order they reach `HOT_THRESHOLD_ACCESSES` accesses: 4 bytes a page,
    where a set of 8 192 pages takes about 64 bytes a page.  The engine
    scores against the array itself, and every reader takes it as a set.

    Each interval is counted in its own footprint-sized bytearray, one byte
    a page, each count stopping at the threshold so that it fits: no page
    stays boxed as a dict key, where a `Counter` of a 65 536-access GUPS
    interval held about 3 MiB.

    Equal intervals share one array: `from_trace` keys each interval's page
    column by its crc32, and an interval whose column equals, access for
    access, that of the first interval with its key reuses that interval's
    array, so a periodic trace counts each distinct interval once.  Any
    other interval, a collision included, is counted.  No array is ever
    written, so a shared one reads the same to every interval.

    The key and the count read a memoryview of the column, which copies
    nothing; the equality test compares two array slices, which took 10 us
    per 16 384 pages where `memoryview ==` took 42 us (CPython 3.11)."""

    hot_sets: list[array] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace: AccessTrace) -> "HotOracle":
        hot_sets: list[array] = []
        first: dict[int, int] = {}  # crc32 of a page column -> first interval with it
        vpages = trace.vpages
        with memoryview(vpages) as view:
            for i in range(trace.num_intervals):
                lo, hi = trace.interval_bounds(i)
                j = first.setdefault(crc32(view[lo:hi]), i)
                if j < i and vpages[slice(*trace.interval_bounds(j))] == vpages[lo:hi]:
                    hot_sets.append(hot_sets[j])
                else:
                    hot_sets.append(_hot_pages(view[lo:hi], trace.footprint))
        return cls(hot_sets)


def _hot_pages(pages: memoryview, footprint: int) -> array:
    """The pages of `pages` accessed at least `HOT_THRESHOLD_ACCESSES`
    times, each once, in the order they reach it.  A page at or past
    `footprint` is a WorkloadError: the count array ends there."""
    hot = array("I")
    append, threshold = hot.append, HOT_THRESHOLD_ACCESSES
    below = threshold - 1
    counts = bytearray(footprint)
    # An access below the threshold's last step takes one test, any other
    # two: of three orders tried, the fastest on GUPS intervals and the only
    # one no slower than `Counter` on seq-rw-big.cfg's half-read intervals,
    # where each page comes twice.  The try is entered once, not per access.
    try:
        for p in pages:
            c = counts[p]
            if c < below:
                counts[p] = c + 1
            elif c == below:
                counts[p] = threshold
                append(p)
    except IndexError:
        raise WorkloadError(f"page {p} is at or past the trace's stated "
                            f"footprint of {footprint} pages") from None
    return hot


def _round_robin(node_ids: list[int], start: int, count: int) -> array:
    """The nodes of accesses start..start+count-1, taken round-robin."""
    k = start % len(node_ids)
    turn = array("H", node_ids[k:] + node_ids[:k])
    return (turn * (count // len(turn) + 1))[:count]


def _draw_gups_pages(rng: random.Random, vpages: array, lo: int, n_hot: int,
                     n_cold: int, hot_access_fraction: float, count: int) -> None:
    """Append `count` GUPS accesses to the page column, drawn as
    `_emit_gups_block` describes: the hot pages are lo..lo+n_hot-1, the cold
    pages the `n_cold` others, below and above them.  The draws gather in a
    list of at most `GUPS_DRAW_CHUNK`, which `fromlist` moves into the
    column: appending each draw to the array was slower than to a list, and
    a bounded chunk keeps a full-length list from ever existing.  Each draw
    in the list is an int of its own, about 40 bytes with its pointer, so
    the chunk is short: 2 048 draws hold 80 KiB and draw as fast as longer
    chunks."""
    uniform, getrandbits = rng.random, rng.getrandbits
    k_hot, k_cold = n_hot.bit_length(), n_cold.bit_length()
    chunk: list[int] = []
    append = chunk.append
    for done in range(0, count, GUPS_DRAW_CHUNK):
        for _ in range(min(GUPS_DRAW_CHUNK, count - done)):
            if uniform() < hot_access_fraction:
                r = getrandbits(k_hot)
                while r >= n_hot:
                    r = getrandbits(k_hot)
                append(lo + r)
            else:
                r = getrandbits(k_cold)
                while r >= n_cold:
                    r = getrandbits(k_cold)
                append(r if r < lo else r + n_hot)
        vpages.fromlist(chunk)
        chunk.clear()


@dataclass
class GupsPhase:
    footprint_pages: int
    hotset_fraction: float
    hot_access_fraction: float
    accesses: int
    init_pass: bool = False


def _emit_gups_block(rng: random.Random, phase: GupsPhase, vpages: array,
                     nodes: array | None, node_ids: list[int]) -> None:
    """Append the GUPS block `phase` describes, drawn from `rng`.  The block
    draws one contiguous hot set, then each access draws `random()` and,
    below hot_access_fraction, a uniform hot page, else a uniform cold page.
    With `init_pass` the block first touches every page once, in order.
    Accesses take `node_ids` round-robin into the node column; with one
    node, `nodes` is None and nothing is appended.

    The uniform page is `Random.choice`'s rejection sampling, inlined in
    `_draw_gups_pages` to save two Python calls per access: with `n` pages
    and `k = n.bit_length()`, draw `r = getrandbits(k)` and redraw while
    `r >= n`.  The page is computed from `r`, never read from a list of the
    pool's pages, which would hold a boxed int a page: it is the `r`-th hot
    page or the `r`-th cold page, in ascending order.  This consumes the
    Mersenne Twister word for word as `choice(hot)` / `choice(cold)` over
    those lists does on CPython >= 3.10, so traces are unchanged.
    `tests/test_workload.py`'s pinned trace digests and its differential
    tests against `Random.choice` guard this."""
    footprint_pages, accesses = phase.footprint_pages, phase.accesses
    if footprint_pages < 2:
        raise WorkloadError("a GUPS footprint needs a hot and a cold page")
    if footprint_pages > PAGE_LIMIT:
        raise WorkloadError(f"footprint_pages must be <= {PAGE_LIMIT}, "
                            f"the pages a trace can hold")
    if not 0 < phase.hotset_fraction < 1:
        raise WorkloadError("hotset_fraction must be in (0, 1)")
    if not 0 < phase.hot_access_fraction <= 1:
        raise WorkloadError("hot_access_fraction must be in (0, 1]")
    if accesses <= 0:
        raise WorkloadError("accesses must be positive")
    hot_count = min(footprint_pages - 1,
                    max(1, round(footprint_pages * phase.hotset_fraction)))
    touched = accesses + (footprint_pages if phase.init_pass else 0)
    if nodes is not None:
        nodes += _round_robin(node_ids, len(vpages), touched)
    if phase.init_pass:
        vpages.extend(range(footprint_pages))
    lo = rng.randrange(footprint_pages - hot_count + 1)
    _draw_gups_pages(rng, vpages, lo, hot_count, footprint_pages - hot_count,
                     phase.hot_access_fraction, accesses)


def _gups_trace(blocks: Iterable[tuple[random.Random, GupsPhase]], nodes: list[int],
                accesses_per_interval: int) -> AccessTrace:
    """The trace of the GUPS blocks, in order, each drawn from its own
    generator; its footprint is the largest block's `footprint_pages`,
    drawn or not.  GUPS performs updates, so every access writes."""
    node_ids = list(nodes) or [0]
    # one node is kept as an int, with no column
    node_col = array("H") if len(node_ids) > 1 else None
    vpages, footprint = array("I"), 0
    for rng, phase in blocks:
        _emit_gups_block(rng, phase, vpages, node_col, node_ids)
        footprint = max(footprint, phase.footprint_pages)
    return AccessTrace(vpages, True, node_ids[0] if node_col is None else node_col,
                       accesses_per_interval, footprint)


def gen_gups(footprint_pages: int, hotset_fraction: float, hot_access_fraction: float,
             accesses: int, nodes: list[int], seed: int,
             accesses_per_interval: int = 1024, init_pass: bool = False) -> AccessTrace:
    """GUPS-style workload: a seeded hotset receives hot_access_fraction of
    all accesses, the rest spread uniformly over the cold pages.  With
    `init_pass` every page is touched first, in order."""
    phase = GupsPhase(footprint_pages, hotset_fraction, hot_access_fraction, accesses,
                      init_pass)
    return _gups_trace([(random.Random(seed), phase)], nodes, accesses_per_interval)


def gen_phase_change(phases: list[GupsPhase], seed: int, nodes: list[int],
                     accesses_per_interval: int = 1024) -> AccessTrace:
    """Concatenated GUPS blocks; each phase draws a fresh hotset."""
    if len(phases) < 2:
        raise WorkloadError("need at least 2 phases")
    return _gups_trace(((random.Random(seed * 1000003 + i), ph)
                        for i, ph in enumerate(phases)), nodes, accesses_per_interval)


def gen_seq_microbench(kind: str, array_pages: int, passes: int,
                       accesses_per_interval: int, node: int = 0) -> AccessTrace:
    """Sequential microbenchmarks used to exercise migration mechanisms.
    Every access is from `node`, and every pass touches every page, so the
    trace states both."""
    if array_pages < 1:
        raise WorkloadError("array_pages must be >= 1")
    if passes < 1:
        raise WorkloadError("passes must be >= 1")
    if array_pages > PAGE_LIMIT:
        raise WorkloadError(f"array_pages must be <= {PAGE_LIMIT}, "
                            f"the pages a trace can hold")
    pages = range(array_pages)
    if kind == "read_only":
        vpages, writes = array("I", pages), False
    elif kind == "half_read":
        vpages = array("I", chain.from_iterable(zip(pages, pages)))
        writes = bytearray(b"\x00\x01") * array_pages * passes
    else:
        raise WorkloadError(f"unknown microbench kind {kind!r}")
    vpages = vpages * passes  # `*=` would resize in place, with 6% to spare
    return AccessTrace(vpages, writes, node, accesses_per_interval, footprint=array_pages)
