"""Order-restricted winner determination in O(N*K) per order.

Fixing a total order over the ads and only considering allocations that
list ads in that order with no gaps makes the problem a simple
take-or-skip dynamic program.  With a constant slot factor the best such
allocation under *any* order recovers at least half the optimum, and
sorting by weighted value over (1 - continuation) is exactly optimal when
all slot factors are 1.

The random orders are a pure function of (ad count, order count, seed):
no value or bid enters them.  multi_order_approx therefore memoizes the
order matrix in a small cache.  A VCG mechanism reruns the allocator once
per bidder and once per deviation it checks, always with the same seed
and ad count, so those reruns share one matrix.  Sharing it is the same
bid-independence that keeps the mechanism truthful: the range of
allocations a seed can reach never depends on what anyone bids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .model import Allocation, AuctionInstance, AuctionError, InvalidAllocationError

__all__ = [
    "NoOrdersError",
    "AdOrder",
    "SortedDpResult",
    "natural_order",
    "reverse_natural_order",
    "random_order",
    "sorted_ads",
    "multi_order_approx",
]


class NoOrdersError(AuctionError):
    """multi_order_approx was asked to run with no orders at all."""


AdOrder = tuple[int, ...]


@dataclass(frozen=True)
class SortedDpResult:
    """Outcome of the order-restricted DP.

    Attributes:
        value: Welfare of the best order-respecting allocation found.
        alloc: The allocation itself (left-aligned, gap-free).
        order_index: For multi-order runs, the index of the winning order
            (random orders come first, extra orders after); None otherwise.
    """

    value: float
    alloc: Allocation
    order_index: int | None = None


def _order_key(ad_value: float, denominator: float) -> float:
    return math.inf if denominator <= 0.0 else ad_value / denominator


def natural_order(instance: AuctionInstance) -> AdOrder:
    """Ads by descending weighted_value / (1 - continuation).

    Ads with continuation 1 get an infinite key.  Ties break by ascending id.
    """
    keyed = sorted(
        instance.ads,
        key=lambda ad: (-_order_key(ad.weighted_value, 1.0 - ad.continuation), ad.id),
    )
    return tuple(ad.id for ad in keyed)


def reverse_natural_order(instance: AuctionInstance) -> AdOrder:
    return tuple(reversed(natural_order(instance)))


def random_order(instance: AuctionInstance, seed: int, index: int) -> AdOrder:
    """Uniform random permutation drawn from the stream (seed, index)."""
    rng = np.random.default_rng((seed, index))
    ids = np.array(instance.ids, dtype=np.int64)
    return tuple(int(x) for x in rng.permutation(ids))


# One VCG outcome alternates between the reported n-ad instance and its
# (n-1)-ad leave-one-out instances, which all share one key; two entries
# keep both warm across every rerun and every later deviation check.
_ORDER_CACHE_SIZE = 2


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _random_orders(n: int, order_count: int, seed: int) -> np.ndarray:
    """Read-only (order_count, n) matrix; row t indexes random_order(seed, t).

    permutation(n) applies the same shuffle as permutation(ids), so row t
    mapped through the instance's ids is random_order(instance, seed, t).
    """
    out = np.empty((order_count, n), dtype=np.int64)
    for t in range(order_count):
        out[t] = np.random.default_rng((seed, t)).permutation(n)
    out.flags.writeable = False
    return out


def _check_order(instance: AuctionInstance, order: Sequence[int]) -> None:
    if len(order) != instance.num_ads or set(order) != set(instance.ids):
        raise InvalidAllocationError("order must be a permutation of the instance's ad ids")


def _dp_table(wv: list[float], cont: list[float], lam: Sequence[float], k: int) -> list[list[float]]:
    """Take-or-skip table for ads listed in scan order, O(N*K).

    table[i][s-1] is the best value using ads i.. in slots s..K, with the
    prominence at slot s taken as 1; ``lam`` holds the slot factors.
    """
    n = len(wv)
    table = [[0.0] * (k + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = table[i]
        nxt = table[i + 1]
        w, c = wv[i], cont[i]
        skip = nxt[k - 1]
        row[k - 1] = w if w >= skip else skip  # the last slot: nothing below
        for s in range(k - 1, 0, -1):
            take = w + (c * lam[s - 1]) * nxt[s]
            skip = nxt[s - 1]
            row[s - 1] = take if take >= skip else skip
    return table


def sorted_ads(instance: AuctionInstance, order: Sequence[int]) -> SortedDpResult:
    """Best allocation that lists ads consistently with `order`, no gaps.

    Take-or-skip DP over (position in order, next free slot); O(N*K).
    Ties prefer taking the current ad.
    """
    _check_order(instance, order)
    n = instance.num_ads
    k = instance.num_slots
    lam = instance.ladder.effective_factors
    picked = [instance.ad(aid) for aid in order]
    wv = [ad.weighted_value for ad in picked]
    cont = [ad.continuation for ad in picked]
    table = _dp_table(wv, cont, lam, k)

    chosen: list[int] = []
    i, s = 0, 1
    while i < n and s <= k:
        if s == k:
            take = wv[i]
        else:
            take = wv[i] + (cont[i] * lam[s - 1]) * table[i + 1][s]
        if take >= table[i + 1][s - 1]:
            chosen.append(order[i])
            s += 1
        i += 1
    return SortedDpResult(value=table[0][0], alloc=Allocation(tuple(chosen)))


def _dp_values_batch(instance: AuctionInstance, orders: np.ndarray) -> np.ndarray:
    """DP values for many orders at once; orders is (T, N) of ad-array indices."""
    t, n = orders.shape
    k = instance.num_slots
    lam = np.array(instance.ladder.effective_factors, dtype=float)
    wv_all, cont_all = instance.arrays()
    wv = wv_all[orders]      # (T, N)
    cont = cont_all[orders]  # (T, N)

    nxt = np.zeros((t, k + 1), dtype=float)
    for i in range(n - 1, -1, -1):
        row = np.empty_like(nxt)
        row[:, k] = 0.0
        take_last = wv[:, i]
        row[:, k - 1] = np.maximum(take_last, nxt[:, k - 1])
        if k > 1:
            take = wv[:, i, None] + (cont[:, i, None] * lam[None, : k - 1]) * nxt[:, 1:k]
            row[:, : k - 1] = np.maximum(take, nxt[:, : k - 1])
        nxt = row
    return nxt[:, 0]


def multi_order_approx(
    instance: AuctionInstance,
    order_count: int | None = None,
    seed: int = 0,
    extra_orders: Iterable[Sequence[int]] = (),
    include_natural: bool = True,
) -> SortedDpResult:
    """Best sorted_ads result over random orders plus named/extra orders.

    Random orders use the streams (seed, 0..T-1); the default order count is
    2*K^3, and the order matrix is memoized (see the module docstring).
    The natural order is appended unless disabled (mechanisms built
    on this allocator must disable it: it depends on the reported values).
    Ties keep the lowest order index.
    """
    k = instance.num_slots
    if order_count is None:
        order_count = 2 * k**3
    if order_count < 0:
        raise NoOrdersError("order_count must be >= 0")

    order_mat = _random_orders(instance.num_ads, order_count, seed)
    named = list(extra_orders)
    for extra in named:
        _check_order(instance, extra)
    if include_natural:
        named.append(natural_order(instance))
    if named:
        id_to_idx = {aid: i for i, aid in enumerate(instance.ids)}
        named_mat = np.array([[id_to_idx[a] for a in o] for o in named], dtype=np.int64)
        order_mat = np.vstack([order_mat, named_mat])
    if not len(order_mat):
        raise NoOrdersError("no orders to evaluate: pass order_count > 0 or extra orders")

    values = _dp_values_batch(instance, order_mat)
    best = int(np.argmax(values))  # argmax keeps the first (lowest) index on ties
    ids = np.array(instance.ids, dtype=np.int64)
    result = sorted_ads(instance, tuple(int(x) for x in ids[order_mat[best]]))
    return SortedDpResult(value=result.value, alloc=result.alloc, order_index=best)
