"""Exact winner determination by branch and bound.

Slots are filled top-down; a partial allocation is scored incrementally and
extended only while an admissible bound on the remaining slots can still
reach the incumbent.  Two prunings keep the tree small without losing any
optimum: the per-slot decoupling bound, and a pairwise-dominance constraint
(an ad may only be placed once all ads dominating it are already placed;
every optimal allocation can be rewritten to satisfy this).

Ties are broken toward the lexicographically smallest ad-id sequence: one
depth-first pass in id order, started from an incumbent where there is one,
returns the first optimal leaf it meets (``_ExactSearch`` says why).

The bounds, masks and orders are set up once per instance
(``_ExactSearch``); the same set-up also solves the instance without any
one of its ads, at every K, which is how exact VCG pricing reruns every
winner.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .model import Allocation, AuctionInstance, InstanceTooLargeError, social_welfare
from .prune import _dominance_matrix, _min_params, decouple_bounds
from .sorted_dp import _density_order, _sorted_indices

__all__ = ["OracleResult", "enumerate_all", "solve_exact"]

_ENUMERATION_CAP = 10
_SELF_SEED_CAP = 14  # above this many ads the search seeds its incumbent with the sorted DP
_UNBUDGETED_CAP = 20  # ads of the instance searched (for VCG, the reported one) allowed without a budget


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact search.

    ``complete`` is False when the node budget ran out; ``best_alloc`` and
    ``best_value`` are then the incumbent, a valid lower bound only.
    """

    best_alloc: Allocation
    best_value: float
    nodes_explored: int
    complete: bool


def enumerate_all(instance: AuctionInstance) -> Iterator[tuple[Allocation, float]]:
    """Yields every allocation (all lengths up to K) with its welfare.

    Intended as an independent oracle for tests; refuses instances with
    more than 10 ads.
    """
    if instance.num_ads > _ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"enumeration over {instance.num_ads} ads is not tractable"
        )
    ids = sorted(instance.ids)
    for length in range(instance.num_slots + 1):
        for perm in permutations(ids, length):
            alloc = Allocation(perm)
            yield alloc, social_welfare(instance, alloc)


def _dominator_masks(dom: np.ndarray) -> list[int]:
    """Column j of the boolean matrix as an int: bit i is set when dom[i, j]."""
    packed = np.packbits(dom, axis=0, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed.T]


class _ExactSearch:
    """The set-up of an exact search on one instance, and the search itself.

    Built once: the (weighted value, continuation) columns, prominences,
    the per-slot bounds ``ub = decouple_bounds``, the dominator masks on
    the rectangle of ``_min_params``, the id order and, on first use, the
    value-density order.  ``solve()`` searches the instance;
    ``solve(drop=j)`` searches it without ad j by starting with j's bit
    already set in ``used``, so j is never placed and never blocks the ads
    it dominates; its ``warm_start`` must not hold j.  Exact VCG pricing
    sets up one search and runs every winner's leave-one-out solve on it.

    The search is one depth-first pass in id order from an incumbent
    ``best``, the better of a caller's ``warm_start`` and, above 14 ads
    (not counting ``drop``), the sorted DP's allocation in value-density
    order.  It prunes a node whose bound is below ``best``, or equal to it
    once the pass has recorded a leaf; it records a leaf that beats
    ``best``, or ties it while none is recorded.  So it returns the first
    optimal leaf in id order, the lexicographically smallest optimal id
    sequence: with V the optimum, no node above that leaf has a bound
    below V (the bound is admissible) or below ``best`` (never above V),
    and none is pruned on a tie, as no leaf of value V is recorded before
    it.  No later leaf beats it, and a tie no longer replaces it.
    Incumbents are scored by ``social_welfare``, which sums in the
    search's float order, so a leaf equal to one reads the same float;
    equal outputs rest on that.  With no incumbent, ``best`` is -inf
    until the first leaf and the pass keeps a leaf only on a strict
    ``>``.  An exhausted budget returns the incumbent with
    ``complete=False``: above 14 ads, at least the sorted DP's allocation.

    Why ``solve(drop=j)`` gives the value a search set up on the instance
    without j gives: it fills min(K, n-1) slots, as that search does, and
    keeps this ladder, whose first K-1 prominences are the same floats as
    those of the ladder cut when K = n.  So lambda_max here is no smaller,
    and B is no smaller (both the constant-lambda optimum and UB(1) are
    maxima over more ads and factors).  A margin positive at the corners
    of the larger rectangle is positive at those of the smaller one (at a
    fixed lambda the margin is monotone in B, in floats too), so the masks
    here are a subset of that search's: no leaf it reaches is excluded
    here.  The bounds here are no smaller (more ads and factors), so they
    stay admissible and only prune less.  The pass returns the first
    optimal leaf in id order; its value is the optimum, which the
    dominance constraint never removes, and ``social_welfare`` scores it
    on this instance to the same float as on the smaller one.  Only
    ``nodes_explored`` may differ, so a node budget can run out at a
    different count.  With one ad the rerun reaches the empty leaf, value
    0.0.
    """

    def __init__(self, instance: AuctionInstance, budget: int | None = None) -> None:
        if budget is None and instance.num_ads > _UNBUDGETED_CAP:
            raise InstanceTooLargeError(
                f"{instance.num_ads} ads without a node budget; pass budget= to override"
            )
        self.instance = instance
        self.budget = budget
        _, _, self.cont, self.wv = instance._lists  # floats: the search reads them one at a time
        self.prom = instance.ladder.prominences
        ub = decouple_bounds(instance)
        self.ub = ub.tolist()
        self.dominator_mask = _dominator_masks(_dominance_matrix(instance, _min_params(instance, ub)))
        self.by_id = sorted(range(instance.num_ads), key=instance.ids.__getitem__)

    @cached_property
    def by_density(self) -> np.ndarray:
        return _density_order(self.instance, 1.0)

    def solve(self, drop: int | None = None, warm_start: Sequence[int] | None = None) -> OracleResult:
        """Optimal allocation of the instance, without ad ``drop`` if given (see ``solve_exact``)."""
        instance, budget = self.instance, self.budget
        wv, cont, prom, ub, dominator_mask, by_id = (
            self.wv, self.cont, self.prom, self.ub, self.dominator_mask, self.by_id)
        n = instance.num_ads
        k = instance.num_slots
        used0 = 0
        if drop is not None:
            (j,) = instance.indices((drop,))
            used0 = 1 << j
            n -= 1
            k = min(k, n)

        seeds = [] if warm_start is None else [tuple(warm_start)]
        if n > _SELF_SEED_CAP:
            density = self.by_density if drop is None else self.by_density[self.by_density != j]
            seeds.append(tuple(instance.id_array[_sorted_indices(instance, density)[1]].tolist()))
        best_value, best_seq = float("-inf"), None
        for slots in seeds:
            # an unknown id, a repeat or too many ads is an InvalidAllocationError here
            value = social_welfare(instance, Allocation(slots))
            if value > best_value:
                best_value, best_seq = value, instance.indices(slots)

        nodes = 0
        exhausted = False
        found = False  # a leaf of the search itself is recorded
        path: list[int] = []

        def rec(depth: int, used: int, value: float, cprod: float) -> None:
            nonlocal best_value, best_seq, nodes, exhausted, found
            if depth == k:
                if value >= best_value and (value > best_value or not found):
                    best_value, best_seq, found = value, path.copy(), True
                return
            slot_weight = prom[depth] * cprod
            bound = value + slot_weight * ub[depth]
            if bound <= best_value and (bound < best_value or found):
                return
            for i in by_id:
                bit = 1 << i
                if used & bit or (dominator_mask[i] & ~used):
                    continue
                if budget is not None and nodes >= budget:
                    exhausted = True
                    return
                nodes += 1
                path.append(i)
                rec(depth + 1, used | bit, value + wv[i] * slot_weight, cprod * cont[i])
                path.pop()
                if exhausted:
                    return

        rec(0, used0, 0.0, 1.0)

        if best_seq is None:
            return OracleResult(Allocation(()), 0.0, nodes, complete=False)
        ids = instance.ids
        alloc = Allocation(tuple(ids[i] for i in best_seq))
        value = social_welfare(instance, alloc)
        return OracleResult(alloc, value, nodes, complete=not exhausted)


def solve_exact(
    instance: AuctionInstance,
    budget: int | None = None,
    warm_start: Sequence[int] | None = None,
) -> OracleResult:
    """Optimal allocation, its welfare, and search statistics.

    Without an explicit node ``budget``, instances above 20 ads are
    rejected rather than silently running for hours.  ``warm_start``
    (an allocation's id sequence) seeds the incumbent; its value is
    recomputed here so the bound arithmetic stays consistent, and an
    unknown id raises InvalidAllocationError.  Above 14 ads the sorted
    DP seeds one too.  Whatever the incumbent, one pass in id order
    returns the lexicographically smallest optimal id sequence
    (``_ExactSearch``); out of budget, it returns the incumbent with
    ``complete=False``.
    """
    return _ExactSearch(instance, budget).solve(warm_start=warm_start)
