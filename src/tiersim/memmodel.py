"""Tier topology, page placement, and the simulated access/dirty bits."""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

from .workload import TraceSlice

BASE_PAGE_BYTES = 4096

DEFAULT_RANK_COSTS = (1.0, 1.8, 3.0, 5.4)


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

    The canonical tier order defines a cost ladder: the cost a node pays for
    a tier, `cost[node][tier]`, is the access_cost at the position that tier
    occupies in the node's view.  A remote node therefore sees its
    neighbour's local DRAM at the remote-DRAM rank cost.
    """

    def __init__(self, tiers: list[TierSpec], accessor_nodes: list[int],
                 views: dict[int, list[str]],
                 alloc_orders: dict[int, list[str]] | None = None):
        if len(tiers) < 2:
            raise TopologyError("at least 2 tiers required")
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
        self.accessor_nodes = list(accessor_nodes)
        self.views = {n: list(views[n]) for n in accessor_nodes}
        self.alloc_orders = {}
        for n in accessor_nodes:
            order = (alloc_orders or {}).get(n, self.views[n])
            if sorted(order) != sorted(ids):
                raise TopologyError(f"node {n}: alloc order must be a permutation")
            self.alloc_orders[n] = list(order)
        rank_costs = [t.access_cost for t in tiers]
        self.cost = {
            n: {tid: rank_costs[rank] for rank, tid in enumerate(self.views[n])}
            for n in accessor_nodes
        }
        avg = {tid: sum(self.cost[n][tid] for n in accessor_nodes) / len(accessor_nodes)
               for tid in ids}
        self.slowest_tier = max(ids, key=lambda tid: (avg[tid], ids.index(tid)))

    def total_capacity(self) -> int:
        return sum(t.capacity_bytes for t in self.tiers)

    def alloc_order(self, node: int) -> list[str]:
        """First-touch placement order for a node (local-first by default)."""
        return self.alloc_orders[node]


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
    alloc_orders = {int(k): [str(x) for x in v]
                    for k, v in (spec.get("alloc_order") or {}).items()}
    return TierTopology(tiers, nodes, views, alloc_orders or None)


@dataclass
class CostLedger:
    app: float = 0.0
    profiling: float = 0.0
    migration_exposed: float = 0.0
    migration_background: float = 0.0


class MemoryState:
    """Page placements, per-page access/dirty bits, per-tier counters, and
    cost ledgers.  Every page is a base page of BASE_PAGE_BYTES.

    The state is the only owner of free space: `free[tier]` starts at the
    tier's capacity, and only `map_pages` and `move_pages` change it, so
    `free[t] + placed_bytes()[t]` is always t's capacity.

    `clock`, the application time that places migration copy windows, is
    `ledger.app` itself: every access adds its cost to both, in one order."""

    def __init__(self, topology: TierTopology, cost_model: CostModel,
                 num_pages: int, allocator=None):
        self.topology = topology
        self.cost_model = cost_model
        self.num_pages = num_pages
        self.page_tier: list[str | None] = [None] * num_pages
        self.free = {t.id: t.capacity_bytes for t in topology.tiers}
        self.access_bit = bytearray(num_pages)
        self.dirty_bit = bytearray(num_pages)
        self.tier_access_counts = {t.id: 0 for t in topology.tiers}
        self.ledger = CostLedger()
        self.allocator = allocator  # callable(state, vpage, node) -> None

    @property
    def clock(self) -> float:
        return self.ledger.app

    # -- placement ---------------------------------------------------------

    def is_mapped(self, vpage: int) -> bool:
        return 0 <= vpage < self.num_pages and self.page_tier[vpage] is not None

    def mapped_pages(self, lo: int, hi: int) -> list[int]:
        """The mapped pages in [lo, hi), ascending; `hi` is clamped to the
        footprint."""
        return [p for p, tier in enumerate(self.page_tier[lo:hi], lo) if tier is not None]

    def map_pages(self, pages: Sequence[int], tier_id: str) -> None:
        """Map unmapped pages of [0, num_pages) to one tier, checking its
        room once for all of them."""
        page_tier = self.page_tier
        mapped = [p for p in pages if page_tier[p] is not None]
        if mapped:
            raise TiersimError(f"page {mapped[0]} already mapped")
        need = BASE_PAGE_BYTES * len(pages)
        if self.free[tier_id] < need:
            raise CapacityError(f"tier {tier_id} lacks space for {need} bytes")
        self.free[tier_id] -= need
        for p in pages:
            page_tier[p] = tier_id

    def map_page(self, vpage: int, tier_id: str) -> None:
        self.map_pages((vpage,), tier_id)

    def move_pages(self, pages: range, dst: str) -> None:
        """Remap a contiguous run to dst, updating `free` and clearing
        access/dirty bits.  Cost accounting is the migrator's job."""
        free = self.free
        need = sum(BASE_PAGE_BYTES for p in pages if self.page_tier[p] != dst)
        if free[dst] < need:
            raise CapacityError(f"tier {dst} lacks space for {need} bytes")
        for p in pages:
            src = self.page_tier[p]
            if src is None:
                raise UnmappedPageError(f"page {p} unmapped")
            if src == dst:
                continue
            free[src] += BASE_PAGE_BYTES
            free[dst] -= BASE_PAGE_BYTES
            self.page_tier[p] = dst
        for p in pages:
            self.access_bit[p] = 0
            self.dirty_bit[p] = 0

    def placed_bytes(self) -> dict[str, int]:
        out = {t.id: 0 for t in self.topology.tiers}
        for tid in self.page_tier:
            if tid is not None:
                out[tid] += BASE_PAGE_BYTES
        return out

    def tier_runs(self, lo: int = 0, hi: int | None = None,
                  window: int | None = None) -> list[tuple[int, int, str]]:
        """Maximal (start, length, tier) runs of mapped pages in [lo, hi),
        in page order and cut at every multiple of `window`.  `hi` is
        clamped to the footprint."""
        hi = self.num_pages if hi is None else min(hi, self.num_pages)
        runs = []
        cut = lo
        while cut < hi:
            end = hi if window is None else min((cut // window + 1) * window, hi)
            start = cut
            for tier, group in groupby(self.page_tier[cut:end]):
                length = len(list(group))
                if tier is not None:
                    runs.append((start, length, tier))
                start += length
            cut = end
        return runs

    # -- access & scanning -------------------------------------------------

    def apply_access(self, vpage: int, is_write: bool, node: int) -> float:
        """Touch a page from `node`, mapping it through the allocator on its
        first touch, and charge the access to the app ledger.  A page past
        the footprint misses and is refused where misses are handled, so a
        hit pays for no range check; traces hold no page below 0."""
        try:
            tier = self.page_tier[vpage]
        except IndexError:
            tier = None
        if tier is None:
            if not 0 <= vpage < self.num_pages:
                raise UnmappedPageError(
                    f"page {vpage} is outside the {self.num_pages}-page footprint")
            if self.allocator is None:
                raise UnmappedPageError(f"page {vpage} unmapped")
            self.allocator(self, vpage, node)
            tier = self.page_tier[vpage]
        self.access_bit[vpage] = 1
        if is_write:
            self.dirty_bit[vpage] = 1
        cost = self.topology.cost[node][tier]
        self.ledger.app += cost
        self.tier_access_counts[tier] += 1
        return cost

    def replay(self, slc: TraceSlice) -> None:
        """Apply every access of the slice, in order, one `apply_access`
        call each.  Systems that need per-page counts take them from
        `slc.page_counts()`."""
        apply_access = self.apply_access
        for vpage, is_write, node in slc.events():
            apply_access(vpage, is_write, node)

    def scan_pte(self, vpage: int, cost: float | None = None) -> int:
        """Read and reset the page's access bit, charging the profiling ledger.

        ``cost`` overrides the plain scan cost so the profiler can fold in
        amortized hint-fault overhead.
        """
        if not self.is_mapped(vpage):
            raise UnmappedPageError(f"page {vpage} unmapped")
        observed = self.access_bit[vpage]
        self.access_bit[vpage] = 0
        self.ledger.profiling += self.cost_model.scan_cost if cost is None else cost
        return observed
