"""Placement reads for tests."""
from tiersim.memmodel import UNMAPPED


def tier_of(space, vpage: int) -> str | None:
    """The id of the page's tier, or None while it is unmapped."""
    tier = space.page_tier[vpage]
    return None if tier == UNMAPPED else space.topology.tier_ids[tier]
