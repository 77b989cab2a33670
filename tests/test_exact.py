"""Branch-and-bound oracle: enumeration, optimality, budgets, tie-breaks."""
from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest

from cascade_auctions import (
    Ad,
    Allocation,
    AuctionInstance,
    InstanceTooLargeError,
    InvalidAllocationError,
    SlotLadder,
    enumerate_all,
    social_welfare,
    solve_exact,
)
from cascade_auctions.exact import _dominator_masks
from cascade_auctions.harness import GeneratorConfig, generate_instance
from conftest import blocker_tie_instance, brute_best_lex, brute_optimum, two_ad_instance


def padded_instance(base: AuctionInstance, extra: int) -> AuctionInstance:
    """Append `extra` worthless ads (v=q=c=0, ids from 100) to `base`."""
    junk = tuple(Ad(100 + i, 0.0, 0.0, 0.0) for i in range(extra))
    return AuctionInstance(base.ads + junk, base.ladder)


def test_enumerate_counts_all_lengths():
    inst = two_ad_instance()
    allocs = list(enumerate_all(inst))
    # lengths 0, 1, 2 over two ads: 1 + 2 + 2
    assert len(allocs) == 5
    assert {a.slots for a, _ in allocs} == {(), (1,), (2,), (1, 2), (2, 1)}


def test_enumerate_counts_three_ads_two_slots():
    inst = blocker_tie_instance()
    allocs = list(enumerate_all(inst))
    assert len(allocs) == 1 + 3 + 6
    assert len({a.slots for a, _ in allocs}) == 10


def test_enumerate_values_are_social_welfare():
    inst = two_ad_instance()
    for alloc, value in enumerate_all(inst):
        assert value == social_welfare(inst, alloc)


def test_enumerate_refuses_large_instances():
    inst = padded_instance(two_ad_instance(), extra=9)  # 11 ads
    with pytest.raises(InstanceTooLargeError):
        next(enumerate_all(inst))


def test_solve_exact_hand_instance():
    res = solve_exact(two_ad_instance())
    assert res.best_alloc.slots == (1, 2)
    assert res.best_value == pytest.approx(1.4)
    assert res.complete
    assert 0 < res.nodes_explored <= 4


def test_solve_exact_breaks_ties_lexicographically():
    res = solve_exact(blocker_tie_instance())
    assert res.best_alloc.slots == (2, 1)
    assert res.best_value == 2.0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("num_ads,num_slots", [(4, 2), (6, 3), (8, 4), (8, 8)])
def test_solve_exact_matches_enumeration(num_ads, num_slots, seed):
    inst = generate_instance(GeneratorConfig(num_ads=num_ads, num_slots=num_slots, seed=seed))
    want_alloc, want_value = brute_best_lex(inst)
    res = solve_exact(inst)
    assert res.complete
    assert res.best_value == want_value
    assert res.best_alloc == want_alloc


def test_solve_exact_requires_budget_above_hard_cap():
    inst = generate_instance(GeneratorConfig(num_ads=21, num_slots=2, seed=0))
    with pytest.raises(InstanceTooLargeError, match="21 ads"):
        solve_exact(inst)
    # a budget lifts the cap; brute_optimum refuses 21 ads, so the 420
    # two-ad allocations are enumerated here
    res = solve_exact(inst, budget=10_000_000)
    assert res.complete
    assert res.best_value == max(social_welfare(inst, Allocation(p)) for p in permutations(inst.ids, 2))


def test_solve_exact_budget_exhaustion_keeps_valid_incumbent():
    inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=3, seed=1))
    res = solve_exact(inst, budget=5)
    assert not res.complete
    assert res.nodes_explored <= 5
    # the incumbent is a real allocation scored correctly, just maybe not optimal
    assert res.best_value == social_welfare(inst, res.best_alloc)
    assert res.best_value <= brute_optimum(inst)


def test_solve_exact_zero_budget_returns_empty():
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=2, seed=2))
    res = solve_exact(inst, budget=0)
    assert not res.complete
    assert res.best_alloc.slots == ()
    assert res.best_value == 0.0
    assert res.nodes_explored == 0


@pytest.mark.parametrize("n", [1, 3, 8, 9, 40, 100])
def test_dominator_masks_match_bit_loop(n):
    dom = np.random.default_rng(n).random((n, n)) < 0.3
    expected = [sum(1 << i for i in range(n) if dom[i, j]) for j in range(n)]
    assert _dominator_masks(dom) == expected


def test_solve_exact_two_phase_path_matches_small_oracle():
    # 15 ads forces the heuristic-then-lexicographic pass structure; the
    # nine worthless ads cannot improve anything, so the answer must equal
    # the brute result on the six real ads.
    base = generate_instance(GeneratorConfig(num_ads=6, num_slots=3, seed=3))
    inst = padded_instance(base, extra=9)
    want_alloc, want_value = brute_best_lex(base)
    res = solve_exact(inst)
    assert res.complete
    assert res.best_value == want_value
    assert res.best_alloc == want_alloc


def test_solve_exact_warm_start_agrees_with_cold():
    inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=4, seed=4))
    cold = solve_exact(inst)
    for start in (cold.best_alloc.slots, tuple(sorted(inst.ids)[:4])):
        warm = solve_exact(inst, warm_start=start)
        assert warm.complete
        assert warm.best_value == cold.best_value
        assert warm.best_alloc == cold.best_alloc


def test_solve_exact_warm_start_value_is_recomputed():
    # with no nodes to spend, the result is exactly the warm start, scored
    # by the same welfare function callers see
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=3, seed=5))
    start = tuple(sorted(inst.ids)[:3])
    res = solve_exact(inst, budget=0, warm_start=start)
    assert not res.complete
    assert res.best_alloc.slots == start
    assert res.best_value == social_welfare(inst, Allocation(start))


@pytest.mark.parametrize("start", [(999,), (1, 999), (1, 1), (1, 2, 3, 4)])
def test_solve_exact_rejects_a_bad_warm_start(start):
    # an unknown id is named in the error; a repeat or too many ads are
    # rejected the same way
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=3, seed=5))
    assert {1, 2, 3, 4} <= set(inst.ids) and 999 not in inst.ids
    with pytest.raises(InvalidAllocationError, match="999" if 999 in start else None):
        solve_exact(inst, warm_start=start)


def test_solve_exact_budget_suffices_eventually():
    inst = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=6))
    want = brute_optimum(inst)
    full = solve_exact(inst)
    assert full.complete
    budget = full.nodes_explored
    res = solve_exact(inst, budget=budget)
    assert res.complete
    assert res.best_value == want


def test_solve_exact_explores_fewer_nodes_than_enumeration():
    inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=4, seed=7))
    res = solve_exact(inst)
    # 8*7*6*5 length-4 sequences alone; bounding must beat the full tree
    total_nodes = sum(
        math.perm(inst.num_ads, depth + 1) for depth in range(inst.num_slots)
    )
    assert res.complete
    assert 0 < res.nodes_explored < total_nodes
