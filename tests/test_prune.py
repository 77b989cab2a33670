"""Dominance pruning: margins, bounds, counting, instance reduction."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_auctions import (
    Ad,
    AuctionInstance,
    DominanceParams,
    DominanceTieError,
    SlotLadder,
    choose_bound,
    const_lambda_bound,
    count_dominators_naive,
    decouple_bounds,
    dominates,
    prune_instance,
    social_welfare,
    solve_exact,
    w_value,
)
from cascade_auctions.model import Allocation
from cascade_auctions.prune import _PlaneCounter, _fast_counts, rank_vectors
from cascade_auctions.sorted_dp import _density_order
from cascade_auctions.harness import GeneratorConfig, generate_instance
from conftest import brute_optimum, overflow_instance, two_ad_instance


AD_A = Ad(1, 1.0, 1.0, 0.5)   # wv = 1.0
AD_B = Ad(2, 0.6, 0.5, 0.9)   # wv = 0.3


def test_w_value_hand_corners():
    # w(x, y) = x*(0.3*0.5 - 1*0.9) + y*(0.5 - 0.9) + (1 - 0.3)
    #         = -0.75x - 0.4y + 0.7
    assert w_value(AD_A, AD_B, 0.0, 0.0) == pytest.approx(0.7)
    assert w_value(AD_A, AD_B, 0.4, 0.0) == pytest.approx(0.4)
    assert w_value(AD_A, AD_B, 0.0, 0.25) == pytest.approx(0.6)
    assert w_value(AD_A, AD_B, 0.4, 0.25) == pytest.approx(0.3)


def test_w_value_antisymmetric():
    assert w_value(AD_B, AD_A, 0.4, 0.25) == pytest.approx(-0.3)


def test_dominates_depends_on_rectangle():
    assert dominates(AD_A, AD_B, DominanceParams(0.4, 0.25))
    # the (0.8, 1.0) corner gives 0.7 - 0.6 - 0.4 < 0
    assert not dominates(AD_A, AD_B, DominanceParams(0.8, 1.0))
    assert not dominates(AD_B, AD_A, DominanceParams(0.4, 0.25))
    # equal ads never dominate each other (strictness at w == 0)
    assert not dominates(AD_A, AD_A, DominanceParams(0.4, 0.25))


def swap_prefix(instance, prefix):
    through = 1.0
    for aid in prefix:
        through *= instance.ad(aid).continuation
    return through


@settings(max_examples=60)
@given(seed=st.integers(0, 10_000), s=st.integers(0, 2))
def test_adjacent_swap_margin_identity(seed, s):
    """SW(..a,b..) - SW(..b,a..) == C_prefix * prom_s * w(a, b, lambda_s, 0)."""
    inst = generate_instance(GeneratorConfig(num_ads=5, num_slots=4, seed=seed))
    ids = list(inst.ids)
    a, b = ids[3], ids[4]
    prefix = tuple(ids[:s])
    fwd = social_welfare(inst, Allocation(prefix + (a, b)))
    rev = social_welfare(inst, Allocation(prefix + (b, a)))
    lam = inst.ladder.effective_factors
    prom = inst.ladder.prominences
    expected = (
        swap_prefix(inst, prefix)
        * prom[s]
        * w_value(inst.ad(a), inst.ad(b), lam[s], 0.0)
    )
    assert fwd - rev == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60)
@given(seed=st.integers(0, 10_000))
def test_replacement_margin_identity(seed):
    """Replacing b by a above a fixed tail moves welfare by w(a, b, 0, D)."""
    inst = generate_instance(GeneratorConfig(num_ads=5, num_slots=4, seed=seed))
    ids = list(inst.ids)
    a, b, tail = ids[0], ids[1], tuple(ids[2:4])
    with_a = social_welfare(inst, Allocation((a,) + tail))
    with_b = social_welfare(inst, Allocation((b,) + tail))
    prom = inst.ladder.prominences
    # downstream value D, measured relative to slot 1
    d = 0.0
    through = 1.0
    for pos, aid in enumerate(tail, start=2):
        d += inst.ad(aid).weighted_value * prom[pos - 1] * through
        through *= inst.ad(aid).continuation
    assert with_a - with_b == pytest.approx(
        w_value(inst.ad(a), inst.ad(b), 0.0, d), abs=1e-12
    )


def test_const_lambda_bound_hand_value():
    # relaxing both factors to 0.5 leaves the instance unchanged: bound 1.4
    assert const_lambda_bound(two_ad_instance()) == pytest.approx(1.4)


def test_const_lambda_bound_is_a_relaxation():
    for seed in range(15):
        inst = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=seed))
        assert const_lambda_bound(inst) >= brute_optimum(inst) - 1e-9


def test_decouple_bounds_hand_values():
    # UB(2) = top weighted value; UB(1) adds the second one discounted
    # by the top continuation and the first factor: 1 + 1*0.8*0.5
    ub = decouple_bounds(two_ad_instance())
    assert ub == pytest.approx([1.4, 1.0])


def test_overflow_instance_bounds_prunes_and_solves_without_a_warning():
    # warnings are errors in this suite: summing the bound in NumPy scalars
    # warned on overflow, and an infinite bound times a zero y coefficient
    # is a NaN margin, which counts no dominance
    inst = overflow_instance()
    assert decouple_bounds(inst).tolist() == [math.inf, math.inf, 1.5e308]
    assert choose_bound(inst) == DominanceParams(1.0, math.inf)
    res = solve_exact(inst)
    assert res.complete and res.best_value == math.inf
    pruned, report = prune_instance(inst)
    assert pruned.ids == inst.ids and report.dom_counts == {1: 0, 2: 0, 3: 0, 4: 2, 5: 0}
    assert count_dominators_naive(inst, choose_bound(inst)) == report.dom_counts


def test_decouple_bounds_dominate_suffix_optima():
    # UB(j) bounds the welfare of the best right-aligned allocation of
    # slots j..K for every j
    from cascade_auctions import enumerate_all
    from itertools import permutations

    for seed in range(10):
        inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=3, seed=seed))
        ub = decouple_bounds(inst)
        k = inst.num_slots
        for j in range(1, k + 1):
            best = 0.0
            for size in range(k - j + 2):
                for perm in permutations(inst.ids, size):
                    alloc = Allocation(perm)
                    # score as if the sequence started at slot j
                    prom = inst.ladder.prominences
                    through, total = 1.0, 0.0
                    for off, aid in enumerate(perm):
                        if j + off > k:
                            break
                        total += (
                            inst.ad(aid).weighted_value
                            * (prom[j + off - 1] / prom[j - 1])
                            * through
                        )
                        through *= inst.ad(aid).continuation
                    best = max(best, total)
            assert ub[j - 1] >= best - 1e-9


def direct_decouple(inst, k):
    wv = np.sort([ad.weighted_value for ad in inst.ads])[::-1][:k]
    cs = np.sort([ad.continuation for ad in inst.ads])[::-1][:k]
    lam = inst.ladder.effective_factors
    want = []
    for start in range(1, k + 1):
        total, coef = wv[0], 1.0
        for t in range(1, k - start + 1):
            coef *= cs[t - 1] * lam[start + t - 2]
            total += wv[t] * coef
        want.append(total)
    return np.array(want)


def random_wide_instance(rng, k, factors):
    ads = tuple(
        Ad(i + 1, float(v), float(q), float(c))
        for i, (v, q, c) in enumerate(
            zip(rng.uniform(0, 5, 120), rng.uniform(0, 1, 120), rng.uniform(0, 1, 120))
        )
    )
    return AuctionInstance(ads, SlotLadder.from_factors(factors, k))


def test_decouple_fft_path_matches_direct():
    # K = 96 on a near-flat ladder once took an FFT branch; the direct
    # summation now serves every K and must match the definition bit for bit
    rng = np.random.default_rng(0)
    k = 96
    inst = random_wide_instance(rng, k, rng.uniform(0.995, 1.0, k - 1))
    np.testing.assert_array_equal(decouple_bounds(inst), direct_decouple(inst, k))


def test_decouple_decaying_ladder_uses_exact_path():
    # a decaying ladder drives prominences far below 1; the direct
    # summation must match the definition bit for bit
    rng = np.random.default_rng(1)
    k = 80
    inst = random_wide_instance(rng, k, rng.uniform(0.3, 1.0, k - 1))
    np.testing.assert_array_equal(decouple_bounds(inst), direct_decouple(inst, k))


def test_choose_bound_strategies():
    # one rule: the smaller of the constant-lambda and decoupled bounds,
    # both 1.4 here
    params = choose_bound(two_ad_instance())
    assert params.bound == pytest.approx(1.4)
    assert params.lambda_max == 0.5


# Bound rule and prune outputs recorded while choose_bound still took a
# strategy argument (its default, "min", is the rule that stayed).  Each
# case: generator (N, K, seed), discard_threshold, then repr of the bound
# and of lambda_max from choose_bound, the survivors and the round count.
PRUNE_GOLDEN = {
    "n1000-k5": (
        (1000, 5, 1), None, "7.744391251139759", "1.0",
        (23, 68, 208, 274, 295, 316, 338, 353, 362, 371, 393, 427, 487, 502, 539,
         559, 574, 613, 628, 771, 772, 782, 790, 854, 861, 890, 897, 899, 985, 990),
        2,
    ),
    "n300-k7": (
        (300, 7, 2), None, "5.033882399876104", "1.0",
        (8, 12, 19, 33, 43, 50, 52, 57, 59, 71, 75, 78, 109, 124, 125, 126,
         130, 137, 175, 176, 180, 181, 182, 184, 186, 205, 218, 221, 224, 232, 257, 275),
        2,
    ),
    "n60-k4": (
        (60, 4, 3), None, "2.620779274848936", "1.0",
        (1, 3, 8, 10, 15, 19, 21, 24, 27, 33, 43, 44, 47, 48, 50, 51, 59),
        2,
    ),
    "n1000-k5-threshold-k+1": (
        (1000, 5, 1), 6, "7.744391251139759", "1.0",
        (23, 68, 205, 208, 274, 295, 316, 338, 353, 362, 371, 393, 427, 487, 502, 539,
         559, 574, 613, 628, 768, 771, 772, 782, 790, 854, 861, 890, 897, 899, 985, 990),
        2,
    ),
}


@pytest.mark.parametrize("case", PRUNE_GOLDEN)
def test_bound_and_prune_match_recorded_values(case):
    (n, k, seed), discard_threshold, bound, lambda_max, surviving, iterations = PRUNE_GOLDEN[case]
    inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=k, seed=seed))
    params = choose_bound(inst)
    assert (repr(params.bound), repr(params.lambda_max)) == (bound, lambda_max)
    _, report = prune_instance(inst, discard_threshold=discard_threshold)
    assert (report.surviving, report.iterations) == (surviving, iterations)


def brute_counts(instance, params):
    counts = {}
    for b in instance.ads:
        counts[b.id] = sum(
            1 for a in instance.ads if a.id != b.id and dominates(a, b, params)
        )
    return counts


@pytest.mark.parametrize("seed", range(6))
def test_naive_counts_match_pairwise_definition(seed):
    inst = generate_instance(GeneratorConfig(num_ads=40, num_slots=4, seed=seed))
    params = choose_bound(inst)
    assert count_dominators_naive(inst, params) == brute_counts(inst, params)


@pytest.mark.parametrize("seed", range(6))
def test_dominance_is_transitive(seed):
    inst = generate_instance(GeneratorConfig(num_ads=25, num_slots=4, seed=seed))
    params = choose_bound(inst)
    ads = inst.ads
    for a in ads:
        for b in ads:
            if a is b or not dominates(a, b, params):
                continue
            for c in ads:
                if c is a or c is b:
                    continue
                if dominates(b, c, params):
                    assert dominates(a, c, params)


def test_plane_counter_against_sets():
    rng = np.random.default_rng(3)
    n = 40
    r1 = rng.permutation(n) + 1
    r2 = rng.permutation(n) + 1
    points = list(zip(r1.tolist(), r2.tolist()))
    counter = _PlaneCounter(points, active=True)
    active = set(points)
    for step in range(120):
        p = points[int(rng.integers(n))]
        if p in active:
            counter.erase(*p)
            active.remove(p)
        else:
            counter.insert(*p)
            active.add(p)
        q = points[int(rng.integers(n))]
        want = sum(1 for (u, v) in active if u < q[0] and v < q[1])
        assert counter.count_below(*q) == want


def test_rank_vectors_order_most_dominant_first():
    # chain: higher weighted value, same continuation -> strictly better
    inst = AuctionInstance(
        ads=(Ad(1, 3.0, 1.0, 0.5), Ad(2, 2.0, 1.0, 0.5), Ad(3, 1.0, 1.0, 0.5)),
        ladder=SlotLadder.from_factors([0.5], 2),
    )
    ranks = rank_vectors(inst, DominanceParams(0.5, 2.0))
    assert ranks.shape == (3, 4)
    np.testing.assert_array_equal(ranks, [[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]])


def test_fast_counts_raise_on_ties():
    inst = AuctionInstance(
        ads=(Ad(1, 1.0, 1.0, 0.5), Ad(2, 1.0, 1.0, 0.5), Ad(3, 2.0, 1.0, 0.1)),
        ladder=SlotLadder.from_factors([0.5], 2),
    )
    params = choose_bound(inst)
    with pytest.raises(DominanceTieError):
        _fast_counts(inst, params)


@pytest.mark.parametrize("seed", range(10))
def test_fast_equals_naive(seed):
    inst = generate_instance(GeneratorConfig(num_ads=120, num_slots=5, seed=seed))
    params = choose_bound(inst)
    fast = dict(zip(inst.ids, _fast_counts(inst, params).tolist()))
    assert fast == count_dominators_naive(inst, params)


def test_prune_drops_dominated_ad():
    # K=1: b has half the weighted value at equal continuation, so a
    # dominates it everywhere and it is discarded
    inst = AuctionInstance(
        ads=(Ad(1, 1.0, 1.0, 0.5), Ad(2, 0.5, 1.0, 0.5)),
        ladder=SlotLadder.from_factors([0.4], 1),
    )
    pruned, report = prune_instance(inst)
    assert pruned.ids == (1,)
    assert report.discarded == (2,)
    assert report.dom_counts[2] >= 1
    assert report.iterations >= 2  # the drop triggers one recheck round


def test_prune_threshold_validation():
    inst = two_ad_instance()
    with pytest.raises(ValueError):
        prune_instance(inst, discard_threshold=1)
    # threshold above K is allowed (more conservative)
    pruned, _ = prune_instance(inst, discard_threshold=3)
    assert pruned.num_ads == 2


@pytest.mark.parametrize("use_fast", [False, True])
def test_prune_preserves_optimum(use_fast):
    for seed in range(12):
        inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=3, seed=seed))
        pruned, report = prune_instance(inst, use_fast=use_fast)
        assert brute_optimum(pruned) == brute_optimum(inst)  # exact float equality
        assert set(report.surviving) | set(report.discarded) == set(inst.ids)
        # use_fast is inert: the other setting prunes identically
        other, other_report = prune_instance(inst, use_fast=not use_fast)
        assert other == pruned
        assert other_report == report


def test_prune_is_idempotent():
    inst = generate_instance(GeneratorConfig(num_ads=60, num_slots=4, seed=2))
    once, _ = prune_instance(inst)
    twice, report = prune_instance(once)
    assert twice.ids == once.ids
    assert report.iterations == 1


def naive_prune_reference(inst, threshold):
    """choose_bound, all-pairs count, drop ads at or above the threshold,
    until a round drops nothing.  Returns the survivors, their final-round
    counts, each discarded ad's count in the round that dropped it and the
    number of rounds."""
    current = inst
    dropped_at = {}
    rounds = 0
    while True:
        rounds += 1
        counts = count_dominators_naive(current, choose_bound(current))
        keep = [aid for aid in current.ids if counts[aid] < threshold]
        dropped_at.update((aid, c) for aid, c in counts.items() if c >= threshold)
        if len(keep) == current.num_ads:
            return current.ids, counts, dropped_at, rounds
        current = current.restricted_to(keep)


def tied_instance():
    # duplicates of generated ads, plus ads with the same wv but another
    # continuation (v * q is exact for these values): the rank counter
    # cannot order them
    base = generate_instance(GeneratorConfig(num_ads=120, num_slots=4, seed=5))
    ads = list(base.ads)
    for i, ad in enumerate(base.ads[:30]):
        ads.append(Ad(1000 + i, ad.value, ad.quality, ad.continuation))
    for i in range(10):
        c = 0.1 * i
        ads.append(Ad(2000 + i, 2.0, 0.5, c))
        ads.append(Ad(3000 + i, 1.0, 1.0, c))
    return AuctionInstance(tuple(ads), base.ladder)


def all_ties_instance():
    ads = tuple(Ad(i, 1.5, 0.5, 0.4) for i in range(50))
    return AuctionInstance(ads, SlotLadder.from_factors([0.9, 0.8], 3))


def incomparable_instance():
    # wv rises while the continuation falls: at corner (lambda_max, 0) the
    # lower-wv ad of any pair wins, so no ad dominates another, every ad is
    # in the skyband and none leaves the scan early
    n = 300
    ads = tuple(Ad(i + 1, 0.1 + 0.01 * i, 1.0, 0.99 - 0.003 * i) for i in range(n))
    return AuctionInstance(ads, SlotLadder.from_factors([1.0, 0.8, 0.6, 0.4], 5))


def late_joiner_instance():
    # one ad with the lowest wv and continuation 1.0: under lambda_max = 1
    # nothing dominates it, so it joins the skyband in the last block,
    # long after the dominated ads ahead of it in the scan were dropped
    base = generate_instance(GeneratorConfig(num_ads=600, num_slots=4, seed=47))
    assert base.ladder.max_factor == 1.0
    low = min(ad.weighted_value for ad in base.ads) / 2.0
    return AuctionInstance(base.ads + (Ad(10_000, low, 1.0, 1.0),), base.ladder)


PRUNE_CASES = {
    "n1500-k5": (lambda: generate_instance(GeneratorConfig(num_ads=1500, num_slots=5, seed=41)), None),
    "n300-k7": (lambda: generate_instance(GeneratorConfig(num_ads=300, num_slots=7, seed=42)), None),
    "k1": (lambda: generate_instance(GeneratorConfig(num_ads=200, num_slots=1, seed=43)), None),
    "threshold-k+1": (lambda: generate_instance(GeneratorConfig(num_ads=500, num_slots=5, seed=44)), 6),
    "duplicates": (tied_instance, None),
    "all-ties": (all_ties_instance, None),
    "incomparable": (incomparable_instance, None),
    "one-block": (lambda: generate_instance(GeneratorConfig(num_ads=50, num_slots=3, seed=45)), None),
    "two-blocks-plus-one": (lambda: generate_instance(GeneratorConfig(num_ads=129, num_slots=4, seed=46)), None),
    "late-joiner": (late_joiner_instance, None),
}


@pytest.mark.parametrize("case", sorted(PRUNE_CASES))
def test_skyband_prune_matches_naive_oracle(case):
    make, discard_threshold = PRUNE_CASES[case]
    inst = make()
    threshold = inst.num_slots if discard_threshold is None else discard_threshold
    want_ids, final_counts, dropped_at, rounds = naive_prune_reference(inst, threshold)

    pruned, report = prune_instance(inst, discard_threshold=discard_threshold)
    assert pruned.ids == want_ids
    assert report.surviving == want_ids
    assert set(report.discarded) == set(dropped_at)
    assert report.iterations == rounds
    assert report.fallbacks == 0
    for aid in want_ids:
        assert report.dom_counts[aid] == final_counts[aid]
    for aid in report.discarded:
        # a lower bound on the count at discard time, never below threshold
        assert threshold <= report.dom_counts[aid] <= dropped_at[aid]


def test_naive_counter_never_builds_the_pair_matrix():
    n = 8000  # an n x n bool matrix alone would take 64 MB
    inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=5, seed=8))
    params = choose_bound(inst)
    tracemalloc.start()
    try:
        counts = count_dominators_naive(inst, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) == n
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_skyband_scan_stays_chunked():
    # counting each new skyband member against every pending ad must go
    # chunk by chunk: one float (64, N) block of margins alone would take
    # 51 MB here.  The bound and the scan together peak at about 9 MB.
    n = 10**5
    inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=5, seed=7))
    inst.arrays()
    tracemalloc.start()
    try:
        pruned, report = prune_instance(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.dom_counts) == n
    assert pruned.num_ads < 100
    assert peak < 11 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_const_lambda_order_matches_sort_key():
    # a continuation of 1 under a factor of 1 leaves no positive
    # denominator; repeated ads tie on the primary key
    base = generate_instance(GeneratorConfig(num_ads=60, num_slots=4, seed=9))
    ads = list(base.ads)
    ads += [Ad(500 + i, ad.value, ad.quality, ad.continuation) for i, ad in enumerate(base.ads[:10])]
    ads += [Ad(600 + i, 1.0 + i % 3, 0.5, 1.0) for i in range(6)]
    inst = AuctionInstance(tuple(ads), SlotLadder.from_factors([1.0, 0.7, 0.5], 4))
    lam = inst.ladder.max_factor

    def key(ad):
        denom = 1.0 - lam * ad.continuation
        if denom <= 0.0:
            return (-np.inf, ad.id)
        return (-(ad.weighted_value / denom), ad.id)

    want = tuple(ad.id for ad in sorted(inst.ads, key=key))
    order = _density_order(inst, lam)
    assert tuple(np.array(inst.ids)[order].tolist()) == want
