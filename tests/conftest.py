"""Shared instance builders and brute-force oracles."""
from __future__ import annotations

from cascade_auctions import (
    Ad,
    Allocation,
    AuctionInstance,
    SlotLadder,
    enumerate_all,
)


def two_ad_instance() -> AuctionInstance:
    """K=2, lambda_1=0.5; both ads have weighted value 1.

    Hand trace: SW([1,2]) = 1 + 1*0.5*0.8 = 1.4, SW([2,1]) = 1 + 0.5*0 = 1.0,
    any single ad gives 1.0, so the optimum is 1.4 at (1, 2).
    """
    return AuctionInstance(
        ads=(Ad(1, 1.0, 1.0, 0.8), Ad(2, 2.0, 0.5, 0.0)),
        ladder=SlotLadder.from_factors([0.5], 2),
    )


def blocker_tie_instance() -> AuctionInstance:
    """Three unit ads, ad 1 with continuation 0, flat ladder, K=2.

    Any allocation starting with ad 2 or 3 scores 2; starting with ad 1
    blocks the second slot and scores 1.  Optima: (2,1), (2,3), (3,1),
    (3,2); the lexicographically least is (2,1).
    """
    return AuctionInstance(
        ads=(Ad(1, 1.0, 1.0, 0.0), Ad(2, 1.0, 1.0, 1.0), Ad(3, 1.0, 1.0, 1.0)),
        ladder=SlotLadder.from_factors([1.0], 2),
    )


def brute_optimum(instance: AuctionInstance) -> float:
    return max(v for _, v in enumerate_all(instance))


def brute_best_lex(instance: AuctionInstance) -> tuple[Allocation, float]:
    """Max welfare and the lex-least slots tuple attaining it exactly."""
    best_v = brute_optimum(instance)
    slots = min(a.slots for a, v in enumerate_all(instance) if v == best_v)
    return Allocation(slots), best_v


def overflow_instance() -> AuctionInstance:
    """Sums past the largest float overflow to inf; ads with continuation
    0 then scale an inf predecessor by 0, a NaN candidate."""
    ads = [Ad(1, 1.5e308, 1.0, 1.0), Ad(2, 1.5e308, 1.0, 0.0), Ad(3, 1.5e308, 1.0, 1.0),
           Ad(4, 1.0, 0.5, 0.5), Ad(5, 1.5e308, 1.0, 0.0)]
    return AuctionInstance(ads, SlotLadder.from_factors([1.0, 1.0], 3))


def nan_pass_instances() -> tuple[AuctionInstance, AuctionInstance]:
    """Two instances whose color-coding passes are mostly NaN: a zero slot
    factor scales an overflowed suffix, inf * 0.  The optimum of each is
    1.5e308.  In 12 passes at seed 1, only pass 7 of the first is a
    number; one pass at seed 0 on the second is NaN."""
    first = AuctionInstance(
        [Ad(1, 1.5e308, 1.0, 0.5), Ad(2, 1.0, 1.0, 0.5), Ad(3, 1.5e308, 1.0, 0.5),
         Ad(4, 1.5e308, 1.0, 0.5), Ad(5, 1.5e308, 1.0, 0.0), Ad(6, 1.0, 1.0, 0.0)],
        SlotLadder.from_factors([0.0, 1.0, 1.0, 0.0]),
    )
    second = AuctionInstance(
        [Ad(1, 1.5e308, 1.0, 1.0), Ad(2, 1.5e308, 1.0, 1.0), Ad(3, 1.5e308, 1.0, 1.0), Ad(4, 1.0, 0.5, 0.5)],
        SlotLadder.from_factors([0.0, 1.0], 3),
    )
    return first, second
