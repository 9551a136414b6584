import random

from tiersim.baselines import AutonumaSystem
from tiersim.memmodel import BASE_PAGE_BYTES, CostModel, MemoryState, build_topology
from tiersim.policy import PolicyConfig
from tiersim.profiler import ProfilerConfig


def test_autonuma_victims_are_coldest_first():
    """The swap queue equals sorting the tier's non-hot pages by
    (retained count, page), with absent counts read as 0."""
    rng = random.Random(5)
    topo = build_topology({"tiers": [
        {"id": "a", "capacity_bytes": 300 * BASE_PAGE_BYTES},
        {"id": "b", "capacity_bytes": 300 * BASE_PAGE_BYTES}]})
    space = MemoryState(topo, CostModel(), 400)
    for p in range(400):
        if rng.random() < 0.9:
            space.map_page(p, rng.choice(["a", "b"]))
    system = AutonumaSystem(space, ProfilerConfig(), PolicyConfig(), 1, 2.0)
    system.counts = {p: rng.choice([0, 0, 1, 2, 5]) for p in rng.sample(range(400), 150)}
    hot = set(rng.sample(range(400), 40))
    for tier in ("a", "b"):
        expected = sorted((p for p in range(400)
                           if space.tier_of(p) == tier and p not in hot),
                          key=lambda p: (system.counts.get(p, 0), p))
        assert expected
        assert system._coldest_first(topo.index[tier], hot) == expected
