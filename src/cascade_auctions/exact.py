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
"""
from __future__ import annotations

from dataclasses import dataclass
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


def solve_exact(
    instance: AuctionInstance,
    budget: int | None = None,
    hard_cap: int = 20,
    warm_start: Sequence[int] | None = None,
) -> OracleResult:
    """Optimal allocation, its welfare, and search statistics.

    Without an explicit node ``budget``, instances above ``hard_cap`` ads
    are rejected rather than silently running for hours.  ``warm_start``
    (an allocation's id sequence) seeds the incumbent; its value is
    recomputed here so the bound arithmetic stays consistent, and an
    unknown id raises InvalidAllocationError.
    """
    n = instance.num_ads
    k = instance.num_slots
    if budget is None and n > hard_cap:
        raise InstanceTooLargeError(
            f"{n} ads without a node budget; pass budget= to override"
        )

    wv, cont = instance.arrays()
    prom = instance.ladder.prominences
    ub = decouple_bounds(instance)
    ids = instance.ids

    dominator_mask = _dominator_masks(_dominance_matrix(instance, _min_params(instance, ub)))

    by_id = sorted(range(n), key=lambda i: ids[i])

    best_value = float("-inf")
    best_seq: list[int] | None = None
    if warm_start is not None:
        # social_welfare rejects an unknown id, a repeat or too many ads
        best_value = social_welfare(instance, Allocation(tuple(warm_start)))
        best_seq = [instance._index[aid] for aid in warm_start]

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

        return rec(0, 0, 0.0, 1.0)

    if n <= _SINGLE_PASS_CAP and warm_start is None:
        search(by_id, target=None)
    else:
        search(_density_order(instance, 1.0).tolist(), target=None)
        if not exhausted and best_seq is not None:
            hit = search(by_id, target=best_value)
            if hit is not None:
                best_seq = hit

    if best_seq is None:
        return OracleResult(Allocation(()), 0.0, nodes, complete=False)
    alloc = Allocation(tuple(ids[i] for i in best_seq))
    value = social_welfare(instance, alloc)
    return OracleResult(alloc, value, nodes, complete=not exhausted)
