"""Order-restricted winner determination in O(N*K) per order.

Fixing a total order over the ads and only considering allocations that
list ads in that order with no gaps makes the problem a simple
take-or-skip dynamic program.  With a constant slot factor the best such
allocation under *any* order recovers at least half the optimum, and
the value-density order is exactly optimal when all slot factors are 1.

The value-density order at a factor lambda lists ads by descending
wv / (1 - lambda * c), ads with no positive denominator first, ties by
ascending id.  One kernel, _density_order, serves natural_order, the
natural row of multi_order_approx and exact's value pass (lambda = 1), and
the constant-lambda prune bound (lambda_max).

One kernel, _dp_rows, serves sorted_ads, the batch of orders (also run on
the orders of every instance that drops one ad, for a VCG outcome's
prices) and the constant-lambda prune bound.  best_s[i], the best value of
ads i.. in slots s..K with the prominence at slot s taken as 1, is filled
slot by slot from the bottom: take_s[i] = wv_i + (c_i * lambda_s) *
best_{s+1}[i+1] (take_K[i] = wv_i), and best_s is the running maximum of
take_s from the right, ties taking the ad.  Each take is the float
expression of a scan that fills one ad at a time, and max is exact, so
every entry equals that scan's (kept in the tests as the reference) bit
for bit, in any batch.

The random orders are a pure function of (ad count, order count, seed):
no value or bid enters them.  multi_order_approx therefore memoizes the
order matrix in a small cache.  A VCG mechanism reruns the allocator once
per bidder and once per deviation it checks, always with the same seed
and ad count, so those reruns share one matrix.  Sharing it is the same
bid-independence that keeps the mechanism truthful: the range of
allocations a seed can reach never depends on what anyone bids.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .model import (
    Allocation,
    AuctionInstance,
    AuctionError,
    InvalidAllocationError,
    _leave_one_out_context,
)

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


def _density_order(instance: AuctionInstance, lam: float) -> np.ndarray:
    """Ad-array indices in the value-density order at ``lam`` (module docstring)."""
    wv, cont = instance.arrays()
    denom = 1.0 - lam * cont
    live = denom > 0.0
    key = np.where(live, -(wv / np.where(live, denom, 1.0)), -np.inf)
    return np.lexsort((instance.id_array, key))


def natural_order(instance: AuctionInstance) -> AdOrder:
    """Ad ids in the value-density order at lambda = 1 (module docstring)."""
    ids = instance.ids
    return tuple(ids[i] for i in _density_order(instance, 1.0).tolist())


def reverse_natural_order(instance: AuctionInstance) -> AdOrder:
    return tuple(reversed(natural_order(instance)))


def random_order(instance: AuctionInstance, seed: int, index: int) -> AdOrder:
    """Uniform random permutation drawn from the stream (seed, index)."""
    rng = np.random.default_rng((seed, index))
    return tuple(int(x) for x in rng.permutation(instance.id_array))


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


def _order_indices(instance: AuctionInstance, order: Sequence[int]) -> np.ndarray:
    """Ad-array index of each id in ``order``, which must list every ad once."""
    idx = instance.indices(order)
    if len(idx) != instance.num_ads or len(set(idx)) != len(idx):
        raise InvalidAllocationError("order must be a permutation of the instance's ad ids")
    return np.array(idx, dtype=np.int64)


def _dp_rows(wv: np.ndarray, cont: np.ndarray, lam: Sequence[float]) -> np.ndarray:
    """Table ``best[s-1, i]`` = best_s[i] (module docstring) for ads along axis 0.

    ``lam`` holds the K-1 factors of slots with a slot below them; trailing
    axes of ``wv`` and ``cont`` hold independent orders.  Row K is 0.
    """
    k = len(lam) + 1
    best = np.zeros((k + 1, wv.shape[0] + 1) + wv.shape[1:])
    for s in range(k, 0, -1):
        take = wv if s == k else wv + (cont * lam[s - 1]) * best[s, 1:]
        # maximum returns its second argument on a tie, so ties take the ad
        np.maximum.accumulate(take[::-1], axis=0, out=best[s - 1, -2::-1])
    return best


def sorted_ads(instance: AuctionInstance, order: Sequence[int]) -> SortedDpResult:
    """Best allocation that lists ads consistently with `order`, no gaps.

    Take-or-skip DP over (position in order, next free slot); O(N*K).
    Ties prefer taking the current ad.
    """
    idx = _order_indices(instance, order)
    lam = instance.ladder.effective_factors  # the last factor is 0.0
    wv, cont = (a[idx] for a in instance.arrays())
    best = _dp_rows(wv, cont, lam[:-1])
    # slot s takes ad i when take_s[i] >= best_s[i+1].  In the last row this
    # computes wv + (c * 0.0) * 0.0 for take_K = wv: at most the sign of a
    # zero differs, which no comparison sees.
    takes = wv + (cont * np.array(lam)[:, None]) * best[1:, 1:] >= best[:-1, 1:]
    chosen: list[int] = []
    pos = 0
    while pos < len(order) and len(chosen) < len(lam):
        pos += int(np.argmax(takes[len(chosen), pos:]))  # the first ad from pos on
        chosen.append(order[pos])
        pos += 1
    return SortedDpResult(value=float(best[0, 0]), alloc=Allocation(tuple(chosen)))


# table entries per block of orders in _dp_values_batch: 1 MB at any T
_BATCH_BLOCK = 1 << 17


def _dp_values_batch(instance: AuctionInstance, orders: np.ndarray) -> np.ndarray:
    """DP values for many orders at once; orders is (T, N) of ad-array indices."""
    t, n = orders.shape
    lam = instance.ladder.effective_factors[:-1]
    wv_all, cont_all = instance.arrays()
    rows = max(1, _BATCH_BLOCK // ((instance.num_slots + 1) * (n + 1)))
    values = np.empty(t)
    for start in range(0, t, rows):
        block = orders[start : start + rows].T  # (N, rows): ads along axis 0
        values[start : start + rows] = _dp_rows(wv_all[block], cont_all[block], lam)[0, 0]
    return values


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
    named = [_order_indices(instance, extra) for extra in extra_orders]
    if include_natural:
        named.append(_density_order(instance, 1.0))
    if named:
        order_mat = np.vstack([order_mat, *named])
    if not len(order_mat):
        raise NoOrdersError("no orders to evaluate: pass order_count > 0 or extra orders")

    values = _dp_values_batch(instance, order_mat)
    best = int(np.argmax(values))  # argmax keeps the first (lowest) index on ties
    result = sorted_ads(instance, tuple(instance.id_array[order_mat[best]].tolist()))
    return SortedDpResult(value=result.value, alloc=result.alloc, order_index=best)


def _leave_one_out_values(
    instance: AuctionInstance, order_count: int | None = None, seed: int = 0
) -> np.ndarray:
    """Value of multi_order_approx without each ad, for every ad at once.

    Entry j equals ``multi_order_approx(reduced, order_count, seed,
    include_natural=False).value`` by repr, where ``reduced`` drops the
    ad at index j (see model._leave_one_out_context); it is 0.0 when no ad
    remains.  Row t of ``_random_orders(n-1, T, seed)`` lists the reduced
    instance's ad indices; adding 1 to those at or past j maps them onto
    this instance, so every row reads the same ads in the same order and
    the kernel gives the same floats in this batch.  The value is taken at
    the first maximal row, as multi_order_approx's argmax does.  The
    orders of several j's are stacked per call, at most about
    _BATCH_BLOCK entries of them.
    """
    n = instance.num_ads
    if n == 1:
        return np.zeros(1)
    context = _leave_one_out_context(instance)
    if order_count is None:
        order_count = 2 * context.num_slots**3
    if order_count <= 0:
        raise NoOrdersError("order_count must be > 0")
    base = _random_orders(n - 1, order_count, seed)
    group = max(1, _BATCH_BLOCK // base.size)
    values = np.empty(n)
    for start in range(0, n, group):
        drop = np.arange(start, min(start + group, n))
        orders = base + (base >= drop[:, None, None])  # (group, T, n-1)
        batch = _dp_values_batch(context, orders.reshape(-1, n - 1)).reshape(len(drop), -1)
        values[drop] = batch[np.arange(len(drop)), batch.argmax(axis=1)]
    return values
