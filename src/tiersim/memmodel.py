"""Tier topology, page placement, access replay and page-table scans."""
from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

from .workload import TraceSlice

BASE_PAGE_BYTES = 4096

DEFAULT_RANK_COSTS = (1.0, 1.8, 3.0, 5.4)

# a page's tier index is one byte, and this byte marks a page on no tier,
# so a topology holds at most UNMAPPED tiers
UNMAPPED = 255


class TiersimError(Exception):
    pass


class TopologyError(TiersimError):
    pass


class UnmappedPageError(TiersimError):
    pass


class CapacityError(TiersimError):
    """Raised when no tier chain can absorb bytes ("memory exhausted")."""


class BudgetError(TiersimError):
    """Raised when the overhead constraint admits no samples ("constraint infeasible")."""


class ConfigError(ValueError):
    """A config value that is ill-typed or out of range.  `location` names
    where it came from: a file line, or the dotted field."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(f"{location}: {message}" if location else message)
        self.message = message
        self.location = location


def require(ok: bool, field: str, rule: str) -> None:
    """The range check of a config dataclass: unless `ok`, a ConfigError
    naming `field` of the dataclass being built."""
    if not ok:
        raise ConfigError(f"{field} {rule}", field)


@dataclass(frozen=True)
class TierSpec:
    id: str
    capacity_bytes: int
    access_cost: float

    def __post_init__(self):
        if self.capacity_bytes <= 0 or self.capacity_bytes % BASE_PAGE_BYTES != 0:
            raise TopologyError(
                f"tier {self.id}: capacity must be a positive multiple of "
                f"{BASE_PAGE_BYTES} bytes, got {self.capacity_bytes}")
        if self.access_cost <= 0:
            raise TopologyError(f"tier {self.id}: access_cost must be > 0")


@dataclass
class CostModel:
    scan_cost: float = 1.0
    hint_fault_multiplier: float = 12.0
    step_alloc: float = 1.0
    step_unmap: float = 1.0
    step_copy: float = 2.0
    step_map: float = 1.0
    pebs_sample_period: int = 200

    def __post_init__(self):
        for name in ("scan_cost", "step_alloc", "step_unmap", "step_copy", "step_map"):
            require(getattr(self, name) > 0, name, "must be > 0")
        require(self.hint_fault_multiplier >= 0, "hint_fault_multiplier", "must be >= 0")
        require(self.pebs_sample_period >= 1, "pebs_sample_period", "must be >= 1")

    def sync_page_cost(self) -> float:
        return self.step_alloc + self.step_unmap + self.step_copy + self.step_map


class TierTopology:
    """Ordered tiers plus per-accessor-node fastest-to-slowest views.
    Immutable: it describes the machine and is never written after
    construction.  A run's free space lives in its MemoryState, so any
    number of states can share one topology.

    A tier's index is its position in the canonical order, `index[tier id]`.
    That order defines a cost ladder: the cost a node pays for a tier,
    `cost[node][tier index]`, is the access_cost at the position that tier
    occupies in the node's view.  A remote node therefore sees its
    neighbour's local DRAM at the remote-DRAM rank cost.  First touch
    places a node's pages along its view, fastest first.

    `cost_rows` lists the same rows by node id, None for an id that is no
    accessor node, for the per-access paths that index them.  Each row is
    padded to UNMAPPED + 1 entries with 1.0, what the write projection
    charges an access to a page not yet mapped.
    """

    def __init__(self, tiers: list[TierSpec], accessor_nodes: list[int],
                 views: dict[int, list[str]]):
        if not 2 <= len(tiers) <= UNMAPPED:
            raise TopologyError(f"2 to {UNMAPPED} tiers required, got {len(tiers)}")
        ids = [t.id for t in tiers]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate tier ids")
        if not accessor_nodes:
            raise TopologyError("at least one accessor node required")
        for node in accessor_nodes:
            view = views.get(node)
            if view is None or sorted(view) != sorted(ids):
                raise TopologyError(f"node {node}: view must be a permutation of tier ids")
        self.tiers = tiers
        self.tier_ids = ids
        self.index = {tid: i for i, tid in enumerate(ids)}
        self.accessor_nodes = list(accessor_nodes)
        self.views = {n: list(views[n]) for n in accessor_nodes}
        rank_costs = [t.access_cost for t in tiers]
        self.cost = {n: [rank_costs[self.views[n].index(tid)] for tid in ids]
                     for n in accessor_nodes}
        pad = [1.0] * (UNMAPPED + 1 - len(ids))
        self.cost_rows = [None] * (max(accessor_nodes) + 1)
        for n in accessor_nodes:
            self.cost_rows[n] = self.cost[n] + pad
        avg = [sum(self.cost[n][i] for n in accessor_nodes) / len(accessor_nodes)
               for i in range(len(ids))]
        self.slowest_tier = ids[max(range(len(ids)), key=lambda i: (avg[i], i))]

    def total_capacity(self) -> int:
        return sum(t.capacity_bytes for t in self.tiers)


def build_topology(spec: dict) -> TierTopology:
    """Build a topology from a structured description.

    Expected keys: ``tiers`` (list of {id, capacity_bytes, access_cost}),
    ``nodes`` (list of node ids), optional ``views`` ({node: [tier ids]},
    default: canonical order for every node).
    """
    tiers = []
    for i, t in enumerate(spec.get("tiers") or []):
        cost = t.get("access_cost")
        if cost is None:
            cost = DEFAULT_RANK_COSTS[i] if i < len(DEFAULT_RANK_COSTS) else \
                DEFAULT_RANK_COSTS[-1] * (i - len(DEFAULT_RANK_COSTS) + 2)
        tiers.append(TierSpec(id=str(t["id"]), capacity_bytes=int(t["capacity_bytes"]),
                              access_cost=float(cost)))
    nodes = [int(n) for n in spec.get("nodes", [0])]
    views = {int(k): [str(x) for x in v] for k, v in (spec.get("views") or {}).items()}
    for n in nodes:
        views.setdefault(n, [t.id for t in tiers])
    return TierTopology(tiers, nodes, views)


@dataclass
class CostLedger:
    """The profiling and exposed migration costs charged so far.  App time
    is not a ledger entry: MemoryState derives it from its access counts.
    A move's background copy cost is in its `migrator.MoveReport` only."""
    profiling: float = 0.0
    migration_exposed: float = 0.0


class MemoryState:
    """Page placements, per-tier counters, and cost ledgers.  Every page is
    a base page of BASE_PAGE_BYTES.

    `page_tier` is the one placement record: a bytearray holding each page's
    tier index (`topology.index`), or UNMAPPED.  Tier names appear only at
    the edges: `tier_runs`, `free` and `tier_access_counts`.

    The state is the only owner of free space: `free[tier]` starts at the
    tier's capacity, and only `map_pages` and `move_pages` change it, so
    `free[t]` plus the bytes of the pages mapped to t is always t's capacity.

    The access counts are the only record of app work: `_counts[node][tier
    index]`, rows by node id laid out like `topology.cost_rows`, None for an
    id that is no accessor node.  An access adds one to its count and no
    cost.  App time, which places migration copy windows and bounds the
    profiling budget, has one name, `app_cost()`: the `math.fsum` of count
    x cost, worked out when read, so it is correctly rounded whatever the
    order or number of accesses and whatever the interpreter.

    It keeps no per-page access record: a scan reads the trace (`scan_pte`).
    `mapped_pages`, `map_pages`, `move_pages` and `tier_runs` search, count
    and assign `page_tier` a run at a time."""

    def __init__(self, topology: TierTopology, cost_model: CostModel,
                 num_pages: int, allocator=None):
        self.topology = topology
        self.cost_model = cost_model
        self.num_pages = num_pages
        self.page_tier = bytearray([UNMAPPED]) * num_pages
        self.free = {t.id: t.capacity_bytes for t in topology.tiers}
        self._counts = [row and [0] * len(topology.tiers) for row in topology.cost_rows]
        # tier_runs' matchers of a run of one byte, per tier index and UNMAPPED
        self._run_of = {t: re.compile(re.escape(bytes((t,))) + b"+").match
                        for t in (*range(len(topology.tiers)), UNMAPPED)}
        self.ledger = CostLedger()
        self.allocator = allocator  # callable(state, vpage, node) -> None

    def access_counts(self) -> list[list[int] | None]:
        """A copy of the access counts, to pass to `app_cost` later."""
        return [row and row[:] for row in self._counts]

    def app_cost(self, since: list[list[int] | None] | None = None) -> float:
        """The app time of the accesses made since `since`, a copy taken by
        `access_counts()`, or of every access: the `math.fsum` of count x
        cost over the counts in node-id then tier order."""
        cost_rows = self.topology.cost_rows
        return math.fsum(cost * (n - n0)
                         for node, row in enumerate(self._counts) if row
                         for n, n0, cost in zip(row, since[node] if since else repeat(0),
                                                cost_rows[node]))

    @property
    def tier_access_counts(self) -> dict[str, int]:
        """Accesses so far per tier id, the column sums of the counts; a
        fresh dict on every read."""
        columns = zip(*(row for row in self._counts if row))
        return dict(zip(self.topology.tier_ids, map(sum, columns)))

    # -- placement ---------------------------------------------------------

    def is_mapped(self, vpage: int) -> bool:
        return 0 <= vpage < self.num_pages and self.page_tier[vpage] != UNMAPPED

    def mapped_pages(self, lo: int, hi: int) -> Sequence[int]:
        """The mapped pages in [lo, hi), ascending; `hi` is clamped to the
        footprint.  A window with every page mapped comes back as
        `range(lo, hi)`, found by one search for UNMAPPED."""
        page_tier = self.page_tier
        hi = min(hi, self.num_pages)
        if page_tier.find(UNMAPPED, lo, hi) < 0:
            return range(lo, hi)
        return [p for p, tier in enumerate(page_tier[lo:hi], lo) if tier != UNMAPPED]

    def map_pages(self, pages: Sequence[int], tier_id: str) -> None:
        """Map unmapped pages of [0, num_pages) to one tier, checking its
        room once for all of them.  An unmapped range of step 1 is checked
        by one count and mapped by one slice assignment."""
        page_tier = self.page_tier
        run = (isinstance(pages, range) and pages.step == 1 and pages.start >= 0
               and page_tier.count(UNMAPPED, pages.start, pages.stop) == len(pages))
        mapped = () if run else [p for p in pages if page_tier[p] != UNMAPPED]
        if mapped:
            raise TiersimError(f"page {mapped[0]} already mapped")
        need = BASE_PAGE_BYTES * len(pages)
        if self.free[tier_id] < need:
            raise CapacityError(f"tier {tier_id} lacks space for {need} bytes")
        self.free[tier_id] -= need
        tier = self.topology.index[tier_id]
        if run:
            page_tier[pages.start:pages.stop] = bytes((tier,)) * len(pages)
        else:
            for p in pages:
                page_tier[p] = tier

    def move_pages(self, pages: range, dst: str) -> None:
        """Remap a contiguous run (a range of step 1) to dst, updating `free`.
        It checks that dst has room and that every page is mapped before it
        changes anything, so a failed move leaves the state as it was.  Cost
        accounting is the migrator's job."""
        free, ids = self.free, self.topology.tier_ids
        lo, hi, d = pages.start, pages.stop, self.topology.index[dst]
        span = self.page_tier[lo:hi]
        need = BASE_PAGE_BYTES * (len(pages) - span.count(d))
        if free[dst] < need:
            raise CapacityError(f"tier {dst} lacks space for {need} bytes")
        hole = span.find(UNMAPPED) if len(span) == len(pages) else len(span)
        if hole >= 0:
            raise UnmappedPageError(f"page {lo + hole} unmapped")
        for src in set(span) - {d}:
            free[ids[src]] += BASE_PAGE_BYTES * span.count(src)
        free[dst] -= need
        self.page_tier[lo:hi] = bytes((d,)) * len(span)

    def tier_runs(self, lo: int = 0, hi: int | None = None,
                  window: int | None = None) -> list[tuple[int, int, str]]:
        """Maximal (start, length, tier id) runs of mapped pages in [lo, hi),
        in page order and cut at every multiple of `window`.  `hi` is
        clamped to the footprint.  Each run is one C regex match."""
        ids, page_tier, run_of = self.topology.tier_ids, self.page_tier, self._run_of
        hi = self.num_pages if hi is None else min(hi, self.num_pages)
        runs = []
        start = lo
        while start < hi:
            end = hi if window is None else min((start // window + 1) * window, hi)
            tier = page_tier[start]
            stop = run_of[tier](page_tier, start, end).end()
            if tier != UNMAPPED:
                runs.append((start, stop - start, ids[tier]))
            start = stop
        return runs

    # -- access & scanning -------------------------------------------------

    def apply_access(self, vpage: int, node: int) -> None:
        """Touch a page from `node`, mapping it through the allocator on its
        first touch, and count the access.  A hit is one lookup and one
        integer increment, of the node's count for the page's tier index: it
        adds no cost, which `app_cost` derives when read, stores nothing per
        page and tests nothing.  UNMAPPED indexes past every count row, and
        a page past the footprint past `page_tier`, so both raise IndexError;
        the miss path tells them apart by rereading the tier.  A page past
        the footprint is refused.  A mapped page means the node id was past
        the rows: that error is raised again, with nothing allocated.
        Otherwise the allocator maps the page, or the page is refused when
        there is none, and the access is counted.  It requires `0 <= vpage`,
        which `AccessTrace` enforces where outside input enters: a negative
        page would index `page_tier` from its end, onto another page's tier.
        Writes are modelled only by `migrator.project_write_times`."""
        try:
            self._counts[node][self.page_tier[vpage]] += 1
        except IndexError:
            if not 0 <= vpage < self.num_pages:
                raise UnmappedPageError(
                    f"page {vpage} is outside the {self.num_pages}-page footprint") from None
            if self.page_tier[vpage] != UNMAPPED:
                raise
            if self.allocator is None:
                raise UnmappedPageError(f"page {vpage} unmapped") from None
            self.allocator(self, vpage, node)
            self._counts[node][self.page_tier[vpage]] += 1

    def replay(self, slc: TraceSlice) -> None:
        """Apply every access of the slice, in order, one `apply_access` call
        each; the engine calls it once an interval.  A call on a mapped page
        is its one lookup and increment; only a first touch takes the miss
        path.  It only counts: the app time the slice took is
        `app_cost(since)`, given the `access_counts()` from before it.  A
        one-node trace passes its node to every call; any other walks the
        node column alongside."""
        apply_access = self.apply_access
        node = slc.trace.node
        if node is None:
            for vpage, node in zip(slc.pages(), slc.nodes()):
                apply_access(vpage, node)
        else:
            for vpage in slc.pages():
                apply_access(vpage, node)

    def scan_pte(self, vpage: int, touched: set[int], cost: float | None = None) -> bool:
        """Scan a mapped page, charging the profiling ledger: whether it is
        in `touched`, the armed pages the scan's own sub-window touched
        (`scan_samples`).  ``cost`` overrides the plain scan cost so
        the profiler can fold in amortized hint-fault overhead."""
        if not self.is_mapped(vpage):
            raise UnmappedPageError(f"page {vpage} unmapped")
        self.ledger.profiling += self.cost_model.scan_cost if cost is None else cost
        return vpage in touched


def scan_samples(space: MemoryState, slc: TraceSlice, pages: list[int], num_scans: int,
                 cost: float | None = None) -> list[int]:
    """Each page's count of the slice's num_scans sub-windows that touched
    it.  The slice is already replayed; the pages are armed at no charge
    before the first scan, so a scan reads only its own sub-window's page
    column, never an earlier interval."""
    armed, scan = set(pages), space.scan_pte
    counts = [0] * len(pages)
    for sub in slc.subwindows(num_scans):
        touched = armed.intersection(sub.pages()) if armed else armed
        counts = [n + scan(page, touched, cost) for n, page in zip(counts, pages)]
    return counts
