"""Exact winner determination by branch and bound.

Slots are filled top-down; a partial allocation is scored incrementally and
extended only while an admissible bound on the remaining slots can still
beat the incumbent.  Two prunings keep the tree small without losing any
optimum: the per-slot decoupling bound, and a pairwise-dominance constraint
(an ad may only be placed once all ads dominating it are already placed;
every optimal allocation can be rewritten to satisfy this).

Ties are broken toward the lexicographically smallest ad-id sequence.  For
small instances a single pass in id order yields that directly; larger ones
run a value-finding pass with a heuristic child order first and then a
second lexicographic pass that stops at the first allocation matching the
optimum.

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

from .model import (
    Allocation,
    AuctionInstance,
    InstanceTooLargeError,
    social_welfare,
)
from .prune import _dominance_matrix, _min_params, decouple_bounds
from .sorted_dp import _density_order

__all__ = ["OracleResult", "enumerate_all", "solve_exact"]

_ENUMERATION_CAP = 10
_SINGLE_PASS_CAP = 14
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
    it dominates.  Exact VCG pricing sets up one search and runs every
    winner's leave-one-out solve on it.

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
    stay admissible and only prune less.  The search runs in id order and
    keeps a leaf only on a strict ``>``, so it returns the first maximal
    leaf; its value is the optimum, which the dominance constraint never
    removes, and ``social_welfare`` scores it on this instance to the same
    float as on the smaller one.  Only ``nodes_explored`` may differ, so a
    node budget can run out at a different count.  With one ad the rerun
    reaches the empty leaf, value 0.0.
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
    def by_density(self) -> list[int]:
        return _density_order(self.instance, 1.0).tolist()

    def solve(self, drop: int | None = None, warm_start: Sequence[int] | None = None) -> OracleResult:
        """Optimal allocation of the instance, without ad ``drop`` if given (see ``solve_exact``)."""
        instance, budget = self.instance, self.budget
        wv, cont, prom, ub, dominator_mask = self.wv, self.cont, self.prom, self.ub, self.dominator_mask
        n = instance.num_ads
        k = instance.num_slots
        used0 = 0
        if drop is not None:
            (j,) = instance.indices((drop,))
            used0 = 1 << j
            n -= 1
            k = min(k, n)

        best_value = float("-inf")
        best_seq: list[int] | None = None
        if warm_start is not None:
            # social_welfare rejects an unknown id, a repeat or too many ads
            best_value = social_welfare(instance, Allocation(tuple(warm_start)))
            best_seq = instance.indices(warm_start)

        nodes = 0
        exhausted = False

        def search(order: list[int], target: float | None) -> list[int] | None:
            """DFS over dominance-consistent sequences.

            Without a ``target`` this is the value search: the bound prunes on
            <= incumbent.  With one, the bound prunes on < target and the
            first full allocation hitting it exactly is returned
            (lexicographic search).
            """
            nonlocal best_value, best_seq, nodes, exhausted
            path: list[int] = []

            def rec(depth: int, used: int, value: float, cprod: float) -> list[int] | None:
                nonlocal best_value, best_seq, nodes, exhausted
                if depth == k:
                    if target is None:
                        if value > best_value:
                            best_value = value
                            best_seq = path.copy()
                        return None
                    return path.copy() if value == target else None
                slot_weight = prom[depth] * cprod
                bound = value + slot_weight * ub[depth]
                if target is None:
                    if bound <= best_value:
                        return None
                elif bound < target:
                    return None
                for i in order:
                    bit = 1 << i
                    if used & bit or (dominator_mask[i] & ~used):
                        continue
                    if budget is not None and nodes >= budget:
                        exhausted = True
                        return None
                    nodes += 1
                    path.append(i)
                    hit = rec(depth + 1, used | bit, value + wv[i] * slot_weight, cprod * cont[i])
                    path.pop()
                    if hit is not None:
                        return hit
                    if exhausted:
                        return None
                return None

            return rec(0, used0, 0.0, 1.0)

        if n <= _SINGLE_PASS_CAP and warm_start is None:
            search(self.by_id, target=None)
        else:
            search(self.by_density, target=None)
            if not exhausted and best_seq is not None:
                hit = search(self.by_id, target=best_value)
                if hit is not None:
                    best_seq = hit

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
    unknown id raises InvalidAllocationError.
    """
    return _ExactSearch(instance, budget).solve(warm_start=warm_start)
