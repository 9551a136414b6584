"""EMA-driven migration planning: hottest-first promotion, coldest-first demotion."""
from __future__ import annotations

from dataclasses import dataclass, field

from .memmodel import CapacityError, TierTopology, require
from .profiler import Region


@dataclass
class PolicyConfig:
    alpha: float = 0.5
    # Per-interval promotion budget: fraction of total capacity, or absolute
    # bytes when n_bytes is set.
    n_fraction: float = 0.05
    n_bytes: int | None = None

    def __post_init__(self):
        require(0 < self.alpha <= 1, "alpha", "must be in (0, 1]")
        require(self.n_fraction >= 0, "n_fraction", "must be >= 0")
        require(self.n_bytes is None or self.n_bytes >= 0, "n_bytes", "must be >= 0")

    def promotion_budget(self, topology: TierTopology) -> int:
        if self.n_bytes is not None:
            return self.n_bytes
        return int(topology.total_capacity() * self.n_fraction)


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


def plan_demotions(topology: TierTopology, tier: str, need_bytes: int,
                   coldest: list[Region], views: dict[int, list[str]],
                   exclude: set[int] | None = None,
                   free_override: dict[str, int] | None = None,
                   colder_than: float | None = None) -> MigrationPlan:
    """Free need_bytes in `tier` by demoting its coldest regions one level
    down their dominant view, cascading when the next tier is also full.
    `coldest` lists the candidate regions coldest first.
    With colder_than set, only regions strictly below that hotness are
    eligible (room-making never evicts something hotter than the arrival)."""
    plan = MigrationPlan()
    if need_bytes <= 0:
        return plan
    free = dict(free_override) if free_override is not None else \
        {t.id: t.free_bytes for t in topology.tiers}
    planned = set(exclude or ())
    _demote_into(tier, need_bytes, coldest, views, plan, planned, free, (),
                 colder_than)
    return plan


def _demote_into(tier, need_bytes, coldest, views, plan, planned, free, stack,
                 colder_than):
    """Demote from `tier` until its free bytes have grown by need_bytes.
    `stack` holds the tiers the callers are freeing: nothing cascades into
    them, since views may disagree on which of two tiers is lower."""
    stack = (*stack, tier)
    start = free.get(tier, 0)
    for region in coldest:
        if free.get(tier, 0) - start >= need_bytes:
            break
        if region.id in planned or region.tier != tier:
            continue
        if colder_than is not None and (region.whi or 0.0) >= colder_than:
            continue
        order = resolve_destination(region, views)
        rank = order.index(tier)
        dst = None
        for lower in order[rank + 1:]:
            if lower in stack:
                continue
            if free.get(lower, 0) >= region.bytes:
                dst = lower
                break
            # next lower tier is full: try to cascade space out of it
            before_moves = len(plan.moves)
            before_free = dict(free)
            before_planned = set(planned)
            try:
                _demote_into(lower, region.bytes - free.get(lower, 0), coldest,
                             views, plan, planned, free, stack, colder_than)
            except CapacityError:
                del plan.moves[before_moves:]
                free.clear(); free.update(before_free)
                planned.clear(); planned.update(before_planned)
                continue
            if free.get(lower, 0) >= region.bytes:
                dst = lower
                break
            del plan.moves[before_moves:]
            free.clear(); free.update(before_free)
            planned.clear(); planned.update(before_planned)
        if dst is None:
            continue
        plan.moves.append(Move(region.id, region.tier, dst, "demote", region.bytes))
        free[dst] -= region.bytes
        free[tier] = free.get(tier, 0) + region.bytes
        planned.add(region.id)
    freed = free.get(tier, 0) - start
    if freed < need_bytes:
        raise CapacityError(
            f"memory exhausted: could free only {freed} of {need_bytes} bytes in {tier}")


def plan_interval(regions: list[Region], topology: TierTopology,
                  policy: PolicyConfig, views: dict[int, list[str]]) -> MigrationPlan:
    """One planning pass, hottest candidate first.  Each candidate aims at
    the fastest tier of its view; if that tier is full of strictly colder
    regions, those are demoted (cascading) to make room, otherwise the
    candidate settles for the next tier in its view.  Demoted bytes do not
    consume the promotion budget N.  Ties in hotness go to the lower id."""
    hottest = sorted(regions, key=lambda r: (-(r.whi or 0.0), r.id))
    coldest = sorted(regions, key=lambda r: (r.whi or 0.0, r.id))
    budget = policy.promotion_budget(topology)
    free = {t.id: t.free_bytes for t in topology.tiers}
    planned: set[int] = set()
    moves: list[Move] = []

    for cand in hottest:
        if budget <= 0:
            break
        if (cand.whi or 0.0) <= 0.0:
            break
        if cand.id in planned or cand.bytes > budget:
            continue
        order = resolve_destination(cand, views)
        rank_now = order.index(cand.tier)
        for dst in order[:rank_now]:
            if free.get(dst, 0) < cand.bytes:
                try:
                    part = plan_demotions(
                        topology, dst, cand.bytes - free.get(dst, 0), coldest,
                        views, exclude=planned, free_override=free,
                        colder_than=cand.whi)
                except CapacityError:
                    continue
                for m in part.moves:
                    free[m.dst] -= m.bytes
                    free[m.src] = free.get(m.src, 0) + m.bytes
                    planned.add(m.region_id)
                moves.extend(part.moves)
            moves.append(Move(cand.id, cand.tier, dst, "promote", cand.bytes))
            free[dst] -= cand.bytes
            free[cand.tier] = free.get(cand.tier, 0) + cand.bytes
            planned.add(cand.id)
            budget -= cand.bytes
            break
    return MigrationPlan(moves=moves)


def plan_rows(interval: int, plan: MigrationPlan) -> list[list]:
    """Rows for the plan CSV: interval,region_id,src_tier,dst_tier,reason,bytes."""
    return [[interval, m.region_id, m.src, m.dst, m.reason, m.bytes]
            for m in plan.moves]
