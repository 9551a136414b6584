"""EMA-driven migration planning: hottest-first promotion, coldest-first demotion."""
from __future__ import annotations

from dataclasses import dataclass, field

from .memmodel import CapacityError, MemoryState, TierTopology, require
from .profiler import Region

N_FRACTION = 0.05  # N as a share of total capacity when n_bytes is None


@dataclass
class PolicyConfig:
    alpha: float = 0.5
    n_bytes: int | None = None  # per-interval promotion budget N in bytes

    def __post_init__(self):
        require(0 < self.alpha <= 1, "alpha", "must be in (0, 1]")
        require(self.n_bytes is None or self.n_bytes >= 0, "n_bytes", "must be >= 0")

    def promotion_budget(self, topology: TierTopology) -> int:
        if self.n_bytes is not None:
            return self.n_bytes
        return int(topology.total_capacity() * N_FRACTION)


def update_ema(region: Region, hi: float, alpha: float) -> float:
    """Fold the interval's hotness into the region's running average.
    The first observation seeds the average directly."""
    if region.whi is None:
        region.whi = hi
    else:
        region.whi = alpha * hi + (1 - alpha) * region.whi
    return region.whi


@dataclass
class Move:
    region_id: int
    src: str
    dst: str
    reason: str  # promote | demote
    bytes: int


@dataclass
class MigrationPlan:
    moves: list[Move] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.moves)


def resolve_destination(region: Region, views: dict[int, list[str]]) -> list[str]:
    """Tier preference order for a region: the view of the node with the most
    recorded accesses (ties to the lower node id; no data means node 0)."""
    nodes = sorted(views)
    if region.origin_counts:
        best = max(nodes, key=lambda n: (region.origin_counts.get(n, 0), -n))
        if region.origin_counts.get(best, 0) > 0:
            return views[best]
    return views[nodes[0]]


def plan_demotions(tier: str, need_bytes: int, coldest: list[Region],
                   views: dict[int, list[str]], free: dict[str, int],
                   planned: set[int], colder_than: float | None = None,
                   stack: tuple[str, ...] = ()) -> list[Move]:
    """Free need_bytes in `tier` by demoting its coldest regions one level
    down their dominant view, cascading when the next tier is also full.
    `coldest` lists the candidate regions coldest first; regions in
    `planned` are already moving.  With colder_than set, only regions
    strictly below that hotness are eligible (room-making never evicts
    something hotter than the arrival).  `stack` holds the tiers the
    callers are freeing: nothing cascades into them, since views may
    disagree on which of two tiers is lower.

    Works in place: on success the returned moves are already applied to
    `free` and `planned`; on CapacityError both are as they were."""
    if need_bytes <= 0:
        return []
    snapshot = dict(free), set(planned)
    stack = (*stack, tier)
    start = free[tier]
    moves: list[Move] = []
    for region in coldest:
        if free[tier] - start >= need_bytes:
            break
        if region.id in planned or region.tier != tier:
            continue
        if colder_than is not None and (region.whi or 0.0) >= colder_than:
            continue
        order = resolve_destination(region, views)
        for lower in order[order.index(tier) + 1:]:
            if lower in stack:
                continue
            try:  # cascade space out of a full lower tier
                moves += plan_demotions(lower, region.bytes - free[lower], coldest,
                                        views, free, planned, colder_than, stack)
            except CapacityError:
                continue
            moves.append(Move(region.id, tier, lower, "demote", region.bytes))
            free[lower] -= region.bytes
            free[tier] += region.bytes
            planned.add(region.id)
            break
    freed = free[tier] - start
    if freed < need_bytes:
        free.clear(); free.update(snapshot[0])
        planned.clear(); planned.update(snapshot[1])
        raise CapacityError(
            f"memory exhausted: could free only {freed} of {need_bytes} bytes in {tier}")
    return moves


def plan_interval(regions: list[Region], space: MemoryState,
                  policy: PolicyConfig) -> MigrationPlan:
    """One planning pass, hottest candidate first, against a copy of the
    state's free bytes that every planned move updates in place.  Each
    candidate aims at the fastest tier of its view; if that tier is full
    of strictly colder regions, those are demoted (cascading) to make room,
    otherwise the candidate settles for the next tier in its view.  Demoted
    bytes do not consume the promotion budget N.  Ties in hotness go to the
    lower id."""
    views = space.topology.views
    hottest = sorted(regions, key=lambda r: (-(r.whi or 0.0), r.id))
    coldest = sorted(regions, key=lambda r: (r.whi or 0.0, r.id))
    budget = policy.promotion_budget(space.topology)
    free = dict(space.free)
    planned: set[int] = set()
    moves: list[Move] = []

    for cand in hottest:
        if budget <= 0 or (cand.whi or 0.0) <= 0.0:
            break
        if cand.id in planned or cand.bytes > budget:
            continue
        order = resolve_destination(cand, views)
        for dst in order[:order.index(cand.tier)]:
            try:
                moves += plan_demotions(dst, cand.bytes - free[dst], coldest, views,
                                        free, planned, colder_than=cand.whi)
            except CapacityError:
                continue
            moves.append(Move(cand.id, cand.tier, dst, "promote", cand.bytes))
            free[dst] -= cand.bytes
            free[cand.tier] += cand.bytes
            planned.add(cand.id)
            budget -= cand.bytes
            break
    return MigrationPlan(moves=moves)


def plan_rows(interval: int, plan: MigrationPlan) -> list[list]:
    """Rows for the plan CSV: interval,region_id,src_tier,dst_tier,reason,bytes."""
    return [[interval, m.region_id, m.src, m.dst, m.reason, m.bytes]
            for m in plan.moves]
