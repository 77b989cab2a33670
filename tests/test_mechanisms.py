"""Mechanisms: GSP, declared-model VCG, full-model VCG, Nash grid checks."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from cascade_auctions import (
    Ad,
    AuctionInstance,
    IncompleteSolveError,
    InstanceTooLargeError,
    NaNPassesError,
    NashCheck,
    SlotLadder,
    gsp_outcome,
    is_nash,
    social_welfare,
    solve_exact,
    truthful_profile,
    vcg_apdc_outcome,
    vcg_pdc_outcome,
)
from cascade_auctions import coloring, exact, sorted_dp
from cascade_auctions.mechanisms import _rank_deviations
from cascade_auctions.coloring import colored_ads
from cascade_auctions.model import _ctrs, _leave_one_out_context
from cascade_auctions.harness import DEFAULT_SLOT_FACTORS, GeneratorConfig, generate_instance
from cascade_auctions.sorted_dp import multi_order_approx
from conftest import nan_pass_instances, overflow_instance, two_ad_instance


def gsp_instance() -> AuctionInstance:
    return AuctionInstance(
        ads=(Ad(1, 4.0, 0.5, 0.5), Ad(2, 3.0, 1.0, 0.8), Ad(3, 1.0, 1.0, 0.2)),
        ladder=SlotLadder.from_factors([0.5], 2),
    )


def test_truthful_profile_maps_ids_to_values():
    inst = gsp_instance()
    assert truthful_profile(inst) == {1: 4.0, 2: 3.0, 3: 1.0}


def test_gsp_hand_instance_rank_by_bid():
    inst = gsp_instance()
    out = gsp_outcome(inst, truthful_profile(inst))
    assert out.mechanism == "gsp"
    assert out.allocator is None
    assert out.alloc.slots == (1, 2)
    # slot s pays the quality-weighted bid of rank s+1, per impression
    assert out.payments == {1: 3.0, 2: 1.0, 3: 0.0}
    assert out.utilities[1] == pytest.approx(4 * 0.5 - 3.0)    # ctr q=0.5
    assert out.utilities[2] == pytest.approx(3 * 0.25 - 1.0)   # ctr 0.5*0.5
    assert out.utilities[3] == 0.0
    assert out.revenue == pytest.approx(4.0)
    assert out.social_welfare == pytest.approx(social_welfare(inst, out.alloc))


def test_gsp_hand_instance_rank_by_quality():
    inst = gsp_instance()
    out = gsp_outcome(inst, truthful_profile(inst), rank_by_quality=True)
    assert out.alloc.slots == (2, 1)
    assert out.payments == {2: 2.0, 1: 1.0, 3: 0.0}
    assert out.utilities[2] == pytest.approx(1.0)
    assert out.utilities[1] == pytest.approx(4 * 0.2 - 1.0)    # ctr 0.5*0.5*0.8
    assert out.revenue == pytest.approx(3.0)


def test_gsp_breaks_bid_ties_by_id():
    inst = AuctionInstance(
        ads=(Ad(1, 2.0, 1.0, 0.5), Ad(2, 2.0, 1.0, 0.5), Ad(3, 1.0, 1.0, 0.5)),
        ladder=SlotLadder.from_factors([1.0], 2),
    )
    out = gsp_outcome(inst, truthful_profile(inst))
    assert out.alloc.slots == (1, 2)


def test_gsp_last_rank_pays_zero():
    inst = two_ad_instance()
    out = gsp_outcome(inst, {1: 1.0, 2: 2.0})
    assert out.alloc.slots == (2, 1)
    assert out.payments[1] == 0.0


@pytest.mark.parametrize("bids,message", [
    ({1: 4.0, 2: 3.0}, "missing"),
    ({1: 4.0, 2: 3.0, 3: -0.5}, "nonnegative"),
    ({1: 4.0, 2: 3.0, 3: 1.0, 9: 1.0}, "unknown"),
    ({1: True, 2: 3.0, 3: 1.0}, "ad 1 must be a number"),
    ({1: 4.0, 2: "0.5", 3: 1.0}, "ad 2 must be a number"),
    ({1: 4.0, 2: 3.0, 3: None}, "ad 3 must be a number"),
    ({1: 10**400, 2: 3.0, 3: 1.0}, "ad 1 must be a number that fits a float"),
    ({1: 4.0, 2: math.inf, 3: 1.0}, "ad 2 must be finite"),
    ({1: 4.0, 2: 3.0, 3: math.nan}, "ad 3 must be finite and nonnegative"),
])
def test_bid_profile_validation(bids, message):
    # messages stay short: a huge int is not printed digit by digit
    inst = gsp_instance()
    for outcome in (gsp_outcome, vcg_pdc_outcome, vcg_apdc_outcome):
        with pytest.raises(ValueError, match=message) as exc:
            outcome(inst, bids)
        assert len(str(exc.value)) < 200


def pdc_instance(continuations=(0.9, 0.1, 0.5)) -> AuctionInstance:
    return AuctionInstance(
        ads=(
            Ad(1, 4.0, 1.0, continuations[0]),
            Ad(2, 3.0, 1.0, continuations[1]),
            Ad(3, 2.0, 1.0, continuations[2]),
        ),
        ladder=SlotLadder.from_factors([0.5], 2),
    )


def test_vcg_pdc_hand_instance():
    inst = pdc_instance()
    out = vcg_pdc_outcome(inst, truthful_profile(inst))
    assert out.mechanism == "vcg-pdc"
    assert out.alloc.slots == (1, 2)
    # Clarke in the declared model: pay1 = 3*(1-.5) + 2*.5, pay2 = 2*.5
    assert out.payments[1] == pytest.approx(2.5)
    assert out.payments[2] == pytest.approx(1.0)
    assert out.payments[3] == 0.0
    assert out.utilities[1] == pytest.approx(4.0 - 2.5)
    assert out.utilities[2] == pytest.approx(3 * 0.5 * 0.9 - 1.0)
    assert out.revenue == pytest.approx(3.5)


def test_vcg_pdc_payments_ignore_continuations():
    base = vcg_pdc_outcome(pdc_instance(), truthful_profile(pdc_instance()))
    other_inst = pdc_instance(continuations=(0.2, 0.7, 0.9))
    other = vcg_pdc_outcome(other_inst, truthful_profile(other_inst))
    assert base.alloc == other.alloc
    assert base.payments == other.payments
    assert base.utilities != other.utilities


def test_vcg_pdc_can_charge_above_true_utility():
    # a strong blocker above makes the declared payment exceed real clicks
    inst = pdc_instance(continuations=(0.0, 0.5, 0.5))
    out = vcg_pdc_outcome(inst, truthful_profile(inst))
    assert out.alloc.slots == (1, 2)
    assert out.utilities[2] < 0.0


@pytest.mark.parametrize("bid", [2.0, 1e3, 1e16])
def test_vcg_pdc_payments_ignore_the_winners_own_bid(bid):
    # the slots above a winner are the same with and without it; summing
    # them too lost the small terms next to a bid of 1e16
    inst = AuctionInstance([Ad(i, 1.0, 1.0, 1.0) for i in (1, 2, 3)], SlotLadder.from_factors([0.5], 2))
    out = vcg_pdc_outcome(inst, {1: bid, 2: 1.0, 3: 1.0})
    assert out.payments == {1: 1.0, 2: 0.5, 3: 0.0}


def test_vcg_apdc_hand_instance():
    inst = two_ad_instance()
    out = vcg_apdc_outcome(inst, truthful_profile(inst))
    assert out.mechanism == "vcg-apdc"
    assert out.allocator == "exact"
    assert out.alloc.slots == (1, 2)
    # dropping either ad leaves a one-slot market worth 1.0
    assert out.payments[1] == pytest.approx(0.6)
    assert out.payments[2] == pytest.approx(0.0, abs=1e-12)
    assert out.utilities[1] == pytest.approx(0.4)
    assert out.utilities[2] == pytest.approx(0.4)
    assert out.revenue == pytest.approx(0.6)
    assert out.social_welfare == pytest.approx(1.4)


def test_vcg_apdc_single_ad_pays_nothing():
    inst = AuctionInstance(
        ads=(Ad(1, 2.0, 0.5, 0.3),), ladder=SlotLadder.from_factors([1.0], 1)
    )
    out = vcg_apdc_outcome(inst, {1: 2.0})
    assert out.payments == {1: 0.0}
    assert out.utilities[1] == pytest.approx(1.0)


def test_vcg_apdc_rejects_unknown_allocator():
    inst = two_ad_instance()
    with pytest.raises(ValueError, match="allocator"):
        vcg_apdc_outcome(inst, truthful_profile(inst), allocator="bogus")


@pytest.mark.parametrize("seed", range(8))
def test_vcg_apdc_exact_is_individually_rational_truthful(seed):
    inst = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=seed))
    out = vcg_apdc_outcome(inst, truthful_profile(inst))
    for aid in inst.ids:
        assert out.utilities[aid] >= -1e-9
        assert out.payments[aid] >= -1e-9


@pytest.mark.parametrize("seed", range(1, 6))
def test_vcg_apdc_exact_losers_pay_exactly_zero(seed):
    # a loser's Clarke payment is zero; a leave-one-out solve minus the
    # reported one gives -4.44e-16 for every loser at seed 2
    inst = generate_instance(GeneratorConfig(num_ads=60, num_slots=5, seed=seed))
    out = vcg_apdc_outcome(inst, truthful_profile(inst), budget=2_000_000)
    winners = set(out.alloc.slots)
    for aid, pay in out.payments.items():
        if aid in winners:
            assert pay > 0.0
        else:
            assert repr(pay) == "0.0"


@pytest.mark.parametrize("mechanism", [
    gsp_outcome,
    vcg_pdc_outcome,
    vcg_apdc_outcome,
    lambda i, b: vcg_apdc_outcome(i, b, allocator="sorted", seed=5),
    lambda i, b: vcg_apdc_outcome(i, b, allocator="colored", seed=5, iterations=8),
])
def test_budget_balance_identity(mechanism):
    # utilities + revenue must add up to realized welfare, always
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=3, seed=21))
    out = mechanism(inst, truthful_profile(inst))
    assert sum(out.utilities.values()) + out.revenue == pytest.approx(
        out.social_welfare, abs=1e-9
    )
    assert out.social_welfare == pytest.approx(social_welfare(inst, out.alloc))


@pytest.mark.parametrize("mechanism", [
    gsp_outcome,
    vcg_pdc_outcome,
    vcg_apdc_outcome,
    lambda i, b: vcg_apdc_outcome(i, b, allocator="sorted", order_count=4),
    lambda i, b: vcg_apdc_outcome(i, b, allocator="colored", iterations=4),
], ids=["gsp", "vcg-pdc", "vcg-apdc-exact", "vcg-apdc-sorted", "vcg-apdc-colored"])
def test_negative_zero_bids_pay_and_earn_positive_zeros(mechanism):
    inst = generate_instance(GeneratorConfig(num_ads=4, num_slots=2, seed=3))
    out = mechanism(inst, dict.fromkeys(inst.ids, -0.0))
    amounts = [*out.payments.values(), *out.utilities.values(), out.revenue]
    assert not np.signbit(amounts).any(), out


@pytest.mark.parametrize("mechanism", [
    gsp_outcome,
    vcg_pdc_outcome,
    vcg_apdc_outcome,
    lambda i, b: vcg_apdc_outcome(i, b, allocator="sorted", order_count=4),
    lambda i, b: vcg_apdc_outcome(i, b, allocator="colored", iterations=4),
], ids=["gsp", "vcg-pdc", "vcg-apdc-exact", "vcg-apdc-sorted", "vcg-apdc-colored"])
def test_negative_zero_slot_factor_pays_and_earns_positive_zeros(mechanism):
    # a -0.0 factor made slot 2's click rate -0.0, and ad 2's utility there -0.0
    ads = (Ad(1, 1.0, 1.0, 0.5), Ad(2, 2.0, 0.5, 0.5), Ad(3, 0.5, 1.0, 1.0))
    inst = AuctionInstance(ads, SlotLadder.from_factors([-0.0], 2))
    out = mechanism(inst, truthful_profile(inst))
    amounts = np.array([*out.payments.values(), *out.utilities.values(), out.revenue, out.social_welfare])
    assert not np.signbit(amounts[amounts == 0.0]).any(), out  # GSP's utility of ad 1 is below 0


@pytest.mark.parametrize("allocator", ["colored", "sorted"])
def test_vcg_apdc_approximate_allocators_are_seeded(allocator):
    inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=3, seed=22))
    bids = truthful_profile(inst)
    a = vcg_apdc_outcome(inst, bids, allocator=allocator, seed=3, iterations=10)
    b = vcg_apdc_outcome(inst, bids, allocator=allocator, seed=3, iterations=10)
    assert a == b
    assert a.allocator == allocator
    assert len(a.alloc.slots) == inst.num_slots


# VCG-APDC outcomes recorded before the allocators memoized their seeded
# draws; sharing the draws across reruns must not move them by a bit.
# Criterion-06-shape instances (seed 606, trial t, mechanism seed t) under a
# misreport scaling each bid by APDC_BID_SCALE.  Each case: allocation slots,
# repr of every payment by ad id, repr of the true social welfare.
APDC_BID_SCALE = (1.5, 0.5, 1.0, 0.8, 1.25, 0.3)
APDC_GOLDEN = {
    (0, 5, 4, "colored"): (
        (3, 5, 2, 1),
        {1: "0.004461379558603595", 2: "0.088291887464711", 3: "0.07942285412805328",
         4: "1.1102230246251565e-16", 5: "0.10256716203775035"},
        "0.6077501034437471",
    ),
    (0, 5, 4, "sorted"): (
        (3, 5, 2),
        {1: "1.1102230246251565e-16", 2: "0.09121042460694478", 3: "0.08318591974094991",
         4: "-0.028263534342126584", 5: "0.10755350191345808"},
        "0.604425876859942",
    ),
    # K = n: every leave-one-out instance has one slot fewer
    (9, 3, 3, "colored"): (
        (3, 1, 2),
        {1: "0.012342273935819159", 2: "0.0", 3: "0.22219157914553733"},
        "0.6473965248141527",
    ),
    (9, 3, 3, "sorted"): (
        (3, 1, 2),
        {1: "0.012342273935819159", 2: "0.0", 3: "0.22219157914553733"},
        "0.6473965248141527",
    ),
    (11, 6, 2, "colored"): (
        (5, 3),
        {1: "0.0", 2: "0.0", 3: "0.09163702386961137", 4: "0.0",
         5: "0.4423692450752065", 6: "0.0"},
        "1.1324495525075824",
    ),
    (11, 6, 2, "sorted"): (
        (5, 3),
        {1: "0.0", 2: "0.0", 3: "0.09163702386961137", 4: "0.0",
         5: "0.4423692450752065", 6: "0.0"},
        "1.1324495525075824",
    ),
}


@pytest.mark.parametrize("case", APDC_GOLDEN, ids=lambda c: f"trial{c[0]}-{c[3]}")
def test_vcg_apdc_outputs_match_recorded_values(case):
    trial, n, k, allocator = case
    inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=k, seed=606), trial)
    assert (inst.num_ads, inst.num_slots) == (n, k)
    bids = {ad.id: ad.value * s for ad, s in zip(inst.ads, APDC_BID_SCALE)}
    kwargs = {"iterations": 12} if allocator == "colored" else {"order_count": 8}
    # twice: the second outcome runs on warm caches
    for _ in range(2):
        out = vcg_apdc_outcome(inst, bids, allocator=allocator, seed=trial, **kwargs)
        got = (
            out.alloc.slots,
            {aid: repr(p) for aid, p in sorted(out.payments.items())},
            repr(out.social_welfare),
        )
        assert got == APDC_GOLDEN[case]


def _dropped(instance, aid):
    """The instance without one ad, built ad by ad, on the first min(K, n-1)
    slots; None when no ad remains."""
    ads = tuple(ad for ad in instance.ads if ad.id != aid)
    if not ads:
        return None
    return AuctionInstance(ads, SlotLadder(instance.ladder.factors[: min(instance.num_slots, len(ads))]))


def _rerun_values(reported, allocator, seed, kwargs):
    """The allocator's value on each leave-one-out instance, one full call each."""
    values = []
    for aid in reported.ids:
        reduced = _dropped(reported, aid)
        if reduced is None:
            values.append(0.0)
        elif allocator == "colored":
            values.append(colored_ads(reduced, seed=seed, **kwargs).value)
        else:
            values.append(multi_order_approx(reduced, seed=seed, include_natural=False, **kwargs).value)
    return [repr(v) for v in values]


def _batched_values(reported, allocator, seed, kwargs):
    module = coloring if allocator == "colored" else sorted_dp
    values = module._leave_one_out_values(reported, seed=seed, **kwargs)
    assert values.shape == (reported.num_ads,)
    return [repr(v) for v in values.tolist()]


# zero bids, one of them -0.0, tie orders and passes
LOO_BID_SCALE = (1.5, 0.0, 1.0, 0.8, -0.0, 0.3)


def _loo_reported(n, k, trial):
    factors = DEFAULT_SLOT_FACTORS + (0.42, 0.41)
    inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=k, seed=707, slot_factors=factors), trial)
    scale = LOO_BID_SCALE * (n // len(LOO_BID_SCALE) + 1)
    return inst.with_values({ad.id: ad.value * s for ad, s in zip(inst.ads, scale)})


@pytest.mark.parametrize("allocator", ["colored", "sorted"])
def test_leave_one_out_values_match_reruns(allocator):
    # every K from 1 to n, K = n included (each leave-one-out instance then
    # loses a slot); where K is small, 12 passes in chunks of 5 (three
    # batches) and the default pass or order count too
    for n in range(1, 13):
        for k in range(1, n + 1):
            reported = _loo_reported(n, k, trial=n * 13 + k)
            runs = [{"iterations": 12} if allocator == "colored" else {"order_count": 8}]
            if k <= 3:
                runs.append({})
            if k <= 5 and allocator == "colored":
                runs.append({"iterations": 12, "chunk": 5})
            for kwargs in runs:
                want = _rerun_values(reported, allocator, n + k, kwargs)
                assert _batched_values(reported, allocator, n + k, kwargs) == want, (n, k, kwargs)


@pytest.mark.parametrize("allocator,kwargs,groups", [
    ("colored", {"iterations": 12}, coloring._leave_one_out_group(150, 3, 12)),
    ("sorted", {"order_count": 8}, sorted_dp._BATCH_BLOCK // (8 * 149)),
])
def test_leave_one_out_values_match_reruns_across_groups(allocator, kwargs, groups):
    # at n = 150 the leave-one-out columns take more than one kernel call
    assert 1 <= groups < 150
    reported = _loo_reported(150, 3, trial=0)
    assert _batched_values(reported, allocator, 4, kwargs) == _rerun_values(reported, allocator, 4, kwargs)


@pytest.mark.parametrize("allocator", ["sorted", "colored"])
def test_vcg_apdc_approximate_pricing_memory_stays_small(allocator):
    # an unblocked batch of all leave-one-out columns took hundreds of MB at
    # this size; single calls on 300 and 299 ads make the memoized draws first
    inst = generate_instance(GeneratorConfig(num_ads=300, num_slots=5, seed=1))
    for ads in (inst, inst.without(inst.ids[0])):
        if allocator == "colored":
            colored_ads(ads, seed=3)
        else:
            multi_order_approx(ads, seed=3, include_natural=False)
    tracemalloc.start()
    try:
        out = vcg_apdc_outcome(inst, truthful_profile(inst), allocator=allocator, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.payments) == 300
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_vcg_apdc_incomplete_exact_solve_is_an_error():
    inst = generate_instance(GeneratorConfig(num_ads=30, num_slots=4, seed=1))
    bids = truthful_profile(inst)
    # too small for the reported instance itself
    with pytest.raises(IncompleteSolveError) as info:
        vcg_apdc_outcome(inst, bids, budget=10)
    assert info.value.ad_ids == inst.ids and info.value.budget == 10
    assert "budget of 10" in str(info.value)
    # enough for the reported instance, not for a leave-one-out rerun
    with pytest.raises(IncompleteSolveError) as info:
        vcg_apdc_outcome(inst, bids, budget=100)
    assert len(info.value.ad_ids) == inst.num_ads - 1
    # a budget that suffices prices all 30 ads, past the 20-ad cap
    out = vcg_apdc_outcome(inst, bids, budget=100_000)
    assert len(out.alloc.slots) == inst.num_slots
    assert min(out.utilities.values()) >= -1e-9


def _reference_exact_outcome(instance, bids, budget=None):
    """Exact VCG-APDC with one full ``solve_exact`` per solve: the reported
    instance, then each winner's leave-one-out instance built on its own."""
    reported = instance.with_values(bids)
    alloc = solve_exact(reported, budget=budget).best_alloc
    clicks = _ctrs(reported, alloc)
    total = sum(bids[aid] * clicks[aid] for aid in alloc.slots)
    payments = dict.fromkeys(instance.ids, 0.0)
    for aid in reported.ids:
        if aid in clicks:
            if reported.num_ads == 1:
                without = 0.0
            else:
                res = solve_exact(_leave_one_out_context(reported).without(aid), budget=budget)
                assert res.complete
                without = res.best_value
            payments[aid] = without - (total - bids[aid] * clicks[aid])
    true_clicks = _ctrs(instance, alloc)
    utilities = {ad.id: ad.value * true_clicks.get(ad.id, 0.0) - payments[ad.id] for ad in instance.ads}
    return alloc, payments, utilities


def _assert_exact_matches_reference(instance, bids, budget=None):
    out = vcg_apdc_outcome(instance, bids, budget=budget)
    alloc, payments, utilities = _reference_exact_outcome(instance, bids, budget)
    assert repr(out.alloc) == repr(alloc)
    assert repr(out.payments) == repr(payments)
    assert repr(out.utilities) == repr(utilities)


def test_vcg_apdc_exact_matches_per_winner_reruns_on_generated_instances():
    # every K from 1 to n, K = n included (each rerun then loses a slot).
    # Up to 12 ads the bids include zeros; above 14 ads the solves take two
    # passes, and continuations of at most 0.5 keep those searches short
    for n in range(1, 21):
        for k in range(1, n + 1):
            if n <= 12:
                inst = _loo_reported(n, k, trial=n * 21 + k)
            else:
                config = GeneratorConfig(num_ads=n, num_slots=k, seed=707, slot_factors=(0.7,) * 20, continuation_high=0.5)
                inst = generate_instance(config, n * 21 + k)
            _assert_exact_matches_reference(inst, truthful_profile(inst))


@pytest.mark.parametrize("fields,factors", [
    # a zero factor mid-ladder: the slots below it are worth nothing
    ([(2.0, 0.5, 0.9), (1.5, 0.8, 0.7), (1.0, 1.0, 1.0), (3.0, 0.2, 0.5), (0.5, 0.9, 0.2)], (0.8, 0.0, 0.6, 0.5)),
    ([(2.0, 0.5, 0.9), (1.5, 0.8, 0.7), (1.0, 1.0, 1.0), (3.0, 0.2, 0.5)], (0.0, 0.9)),
    # zero continuations: nothing below such an ad is seen
    ([(2.0, 0.5, 0.0), (1.5, 0.8, 0.0), (1.0, 1.0, 0.3), (3.0, 0.2, 0.0), (0.7, 0.6, 1.0)], (0.9, 0.8, 0.7)),
    ([(1.0, 1.0, 0.0)] * 3 + [(1.0, 1.0, 1.0)] * 2, (1.0, 1.0)),
    # identical ads: the tie-break toward the smallest ids decides
    ([(1.0, 0.5, 0.5)] * 6, (0.7, 0.6, 0.5)),
    ([(1.0, 0.5, 0.5)] * 3 + [(2.0, 0.25, 0.5)] * 3 + [(0.5, 1.0, 0.5)] * 2, (1.0, 1.0, 1.0)),
    ([(1.0, 1.0, 1.0)] * 4, (1.0, 1.0, 1.0, 1.0)),
    ([(0.0, 0.5, 0.5)] * 5, (0.5, 0.5)),
    # K = n: every rerun fills the n-1 slots left
    ([(2.0, 0.5, 0.9), (1.5, 0.8, 0.0), (1.0, 1.0, 1.0)], (0.8, 0.0, 0.6)),
    ([(0.0, 0.5, 0.5)] * 3, (0.5, 0.5, 0.5)),
])
def test_vcg_apdc_exact_matches_per_winner_reruns_on_hand_ladders(fields, factors):
    inst = AuctionInstance([Ad(i + 1, *f) for i, f in enumerate(fields)], SlotLadder(factors))
    for scale in ((1.0,) * len(fields), LOO_BID_SCALE * 2):
        bids = {ad.id: ad.value * s for ad, s in zip(inst.ads, scale)}
        _assert_exact_matches_reference(inst, bids)


def test_vcg_apdc_exact_matches_per_winner_reruns_under_a_budget():
    inst = generate_instance(GeneratorConfig(num_ads=30, num_slots=4, seed=1))
    _assert_exact_matches_reference(inst, truthful_profile(inst), budget=100_000)


def test_vcg_apdc_exact_refuses_21_ads_without_a_budget():
    inst = generate_instance(GeneratorConfig(num_ads=21, num_slots=3, seed=1))
    with pytest.raises(InstanceTooLargeError, match="21 ads"):
        vcg_apdc_outcome(inst, truthful_profile(inst))


@pytest.mark.parametrize("n,k", [(6, 3), (5, 1), (12, 4), (1, 1), (3, 3), (6, 6)])
def test_vcg_apdc_exact_sets_up_one_search_per_outcome(monkeypatch, n, k):
    # at every K the reported solve and every winner's rerun share one set-up
    calls = {"decouple_bounds": 0, "_dominance_matrix": 0}
    for name in calls:
        real = getattr(exact, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(exact, name, counted)
    inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=k, seed=3))
    out = vcg_apdc_outcome(inst, truthful_profile(inst))
    assert len(out.alloc.slots) == k
    assert calls == {"decouple_bounds": 1, "_dominance_matrix": 1}


@pytest.mark.parametrize("n,k,iterations,calls", [
    (5, 3, None, 1), (4, 1, None, 1), (6, 5, None, 1), (8, 4, None, 1),
    # K = n: each leave-one-out instance loses a slot, so two calls stay
    (3, 3, None, 2), (6, 6, None, 2), (1, 1, None, 1),
    # several memory groups: one call per group
    (150, 3, 12, None),
])
def test_vcg_apdc_colored_runs_one_kernel_call_per_group(monkeypatch, n, k, iterations, calls):
    # below K = n the reported passes ride in the kernel calls of the
    # leave-one-out ones, one per batch and memory group
    seen = []
    real = coloring._pass_memo
    monkeypatch.setattr(coloring, "_pass_memo", lambda *args: seen.append(args[1].shape) or real(*args))
    inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=k, seed=3))
    out = vcg_apdc_outcome(inst, truthful_profile(inst), allocator="colored", seed=2, iterations=iterations)
    assert len(out.payments) == n
    if calls is None:
        calls = -(-(n + 1) // coloring._leave_one_out_group(n, k, iterations))
        assert calls > 1
    assert len(seen) == calls, seen


def test_colored_one_call_pricing_matches_separate_calls():
    # every K <= n <= 8, several batches (chunk=5), and overflow to inf
    cases = [(_loo_reported(n, k, trial=n * 13 + k), n + k) for n in range(1, 9) for k in range(1, n + 1)]
    cases.append((overflow_instance(), 1))
    for reported, seed in cases:
        for kwargs in ({"iterations": 12}, {"iterations": 12, "chunk": 5}, {}):
            res, values = coloring._pricing(reported, seed=seed, **kwargs)
            want = colored_ads(reported, seed=seed, **kwargs), coloring._leave_one_out_values(reported, seed=seed, **kwargs)
            assert (repr(res), repr(values.tolist())) == (repr(want[0]), repr(want[1].tolist())), (reported, kwargs)


def test_colored_pricing_names_nan_passes():
    # a leave-one-out instance of each has only NaN passes, as has the
    # second one at one pass and seed 0; the sorted allocator prices both
    first, second = nan_pass_instances()
    for inst, iterations, seed in ((first, 12, 1), (second, 12, 1), (second, 1, 0)):
        for run in (coloring._pricing, coloring._leave_one_out_values):
            with pytest.raises(NaNPassesError):
                run(inst, iterations, seed)
        with pytest.raises(NaNPassesError):
            vcg_apdc_outcome(inst, truthful_profile(inst), allocator="colored", seed=seed, iterations=iterations)
        out = vcg_apdc_outcome(inst, truthful_profile(inst), allocator="sorted", seed=seed, order_count=8)
        assert out.social_welfare == 1.5e308


@pytest.mark.parametrize("allocator,kwargs,message", [
    ("colored", {"iterations": 0}, "need at least one pass"),
    ("colored", {"iterations": -1}, "need at least one pass"),
    ("sorted", {"order_count": 0}, "no orders to evaluate"),
    ("sorted", {"order_count": -2}, "order_count must be >= 0"),
])
def test_vcg_apdc_approximate_count_errors_are_the_allocators(allocator, kwargs, message):
    # below K = n a count the allocator rejects raises the same error in the
    # outcome as in a separate allocator call
    inst = generate_instance(GeneratorConfig(num_ads=5, num_slots=3, seed=3))
    error = coloring.NoColoringsError if allocator == "colored" else sorted_dp.NoOrdersError
    with pytest.raises(error, match=message):
        vcg_apdc_outcome(inst, truthful_profile(inst), allocator=allocator, **kwargs)


def value_grid(ad: Ad, points: int = 11) -> np.ndarray:
    return np.linspace(0.0, 2.0 * ad.value, points)


@pytest.mark.parametrize("seed", range(3))
def test_vcg_apdc_exact_truthful_is_nash_on_grid(seed):
    inst = generate_instance(GeneratorConfig(num_ads=5, num_slots=2, seed=seed))
    grids = {ad.id: value_grid(ad) for ad in inst.ads}
    check = is_nash(inst, truthful_profile(inst), vcg_apdc_outcome, grids)
    assert check == NashCheck(True)


@pytest.mark.parametrize("allocator,kwargs", [
    ("sorted", {"order_count": 6}),
    ("colored", {"iterations": 6}),
])
def test_vcg_apdc_approximate_truthful_is_nash_on_grid(allocator, kwargs):
    inst = generate_instance(GeneratorConfig(num_ads=5, num_slots=2, seed=30))
    grids = {ad.id: value_grid(ad) for ad in inst.ads}

    def mech(i, b):
        return vcg_apdc_outcome(i, b, allocator=allocator, seed=7, **kwargs)

    assert is_nash(inst, truthful_profile(inst), mech, grids).is_equilibrium


def overbid_trap_instance() -> AuctionInstance:
    return AuctionInstance(
        ads=(Ad(1, 10.0, 1.0, 1.0), Ad(2, 9.0, 1.0, 1.0)),
        ladder=SlotLadder.from_factors([0.5], 2),
    )


def test_is_nash_finds_profitable_gsp_deviation():
    # underbidding drops ad 1 to the cheap slot: 10 * 0.5 beats 10 - 9
    inst = overbid_trap_instance()
    check = is_nash(
        inst,
        truthful_profile(inst),
        gsp_outcome,
        grids={1: [0.5, 10.0, 20.0], 2: [20.0]},
    )
    assert not check.is_equilibrium
    assert check.agent == 1
    assert check.bid == 0.5
    assert check.gain == pytest.approx(4.0)


def test_is_nash_eps_tolerates_small_gains():
    inst = overbid_trap_instance()
    check = is_nash(
        inst,
        truthful_profile(inst),
        gsp_outcome,
        grids={1: [0.5], 2: []},
        eps=5.0,
    )
    assert check.is_equilibrium


def test_is_nash_accepts_stable_gsp_profile():
    inst = AuctionInstance(
        ads=(Ad(1, 2.0, 1.0, 0.5), Ad(2, 1.0, 1.0, 0.5)),
        ladder=SlotLadder.from_factors([1.0], 1),
    )
    grids = {1: [0.5, 2.0, 3.0], 2: [0.5, 1.0, 3.0]}
    assert is_nash(inst, truthful_profile(inst), gsp_outcome, grids).is_equilibrium


def test_rank_deviations_find_the_underbid_a_sparse_grid_misses():
    inst = overbid_trap_instance()
    bids = truthful_profile(inst)
    assert is_nash(inst, bids, gsp_outcome, grids={1: [10.0, 20.0], 2: [20.0]}).is_equilibrium
    deviations = {aid: _rank_deviations(inst, bids, aid) for aid in inst.ids}
    check = is_nash(inst, bids, gsp_outcome, deviations)
    assert not check.is_equilibrium
    assert check.agent == 1
    assert check.bid < 9.0
    assert check.gain == pytest.approx(4.0)


RANK_MECHANISMS = {
    "gsp": gsp_outcome,
    "gsp-by-quality": lambda inst, bids: gsp_outcome(inst, bids, rank_by_quality=True),
    "vcg-pdc": vcg_pdc_outcome,
}


def _rank_trial_instance(trial: int) -> tuple[AuctionInstance, dict[int, float]]:
    # non-unit qualities, one zero-quality ad, bids on a 0.1 lattice to force
    # ties, and the first and last ads tied under both rankings, so an agent
    # whose id lies between theirs has a rank that only an equal score reaches
    rng = np.random.default_rng(1600 + trial)
    n = int(rng.integers(3, 7))
    k = int(rng.integers(1, n + 1))
    quality = rng.uniform(0.05, 1.0, n).round(2)
    quality[rng.integers(1, n - 1)] = 0.0
    quality[-1] = quality[0]
    ads = tuple(
        Ad(i + 1, float(v), float(q), float(c))
        for i, (v, q, c) in enumerate(zip(rng.uniform(0.0, 2.0, n), quality, rng.uniform(0.0, 1.0, n)))
    )
    ladder = SlotLadder.from_factors(rng.uniform(0.3, 1.0, k - 1).tolist(), num_slots=k)
    bids = {i + 1: float(b) for i, b in enumerate(rng.uniform(0.0, 2.0, n).round(1))}
    bids[n] = bids[1]
    return AuctionInstance(ads, ladder), bids


@pytest.mark.parametrize("trial", range(10))
@pytest.mark.parametrize("name", sorted(RANK_MECHANISMS))
def test_rank_deviations_reach_every_outcome_a_fine_grid_reaches(name, trial):
    mech = RANK_MECHANISMS[name]
    inst, bids = _rank_trial_instance(trial)
    for agent in inst.ids:
        q = inst.ad(agent).quality
        ties = [bids[j] for j in inst.ids if j != agent]
        ties += [inst.ad(j).quality * bids[j] / q for j in inst.ids if j != agent and q > 0.0]
        reference = [*np.linspace(0.0, 1.25 * max(ties + [1.0]), 801).tolist(), *ties]
        for cap in (None, inst.ad(agent).value):
            deviations = _rank_deviations(inst, bids, agent, cap)
            assert deviations == sorted(set(deviations))
            if cap is not None:
                assert max(deviations) <= cap
            reached: dict[tuple[int, ...], list[float]] = {}
            for b in deviations:
                out = mech(inst, {**bids, agent: b})
                reached.setdefault(out.alloc.slots, []).append(out.utilities[agent])
            for b in reference:
                if cap is None or b <= cap:
                    out = mech(inst, {**bids, agent: b})
                    utilities = reached.get(out.alloc.slots, [])
                    assert any(abs(u - out.utilities[agent]) <= 1e-9 for u in utilities), (agent, b, cap)


SEEDED_ENTRY_POINTS = {
    "multi_order_approx": lambda inst, seed: multi_order_approx(inst, order_count=8, seed=seed),
    "colored_ads": lambda inst, seed: colored_ads(inst, iterations=12, seed=seed),
    "sorted_dp-leave-one-out": lambda inst, seed: sorted_dp._leave_one_out_values(inst, order_count=8, seed=seed),
    "coloring-leave-one-out": lambda inst, seed: coloring._leave_one_out_values(inst, iterations=12, seed=seed),
    "vcg_apdc-sorted": lambda inst, seed: vcg_apdc_outcome(
        inst, truthful_profile(inst), allocator="sorted", seed=seed, order_count=8),
    "vcg_apdc-colored": lambda inst, seed: vcg_apdc_outcome(
        inst, truthful_profile(inst), allocator="colored", seed=seed, iterations=12),
}


def _clear_draw_caches():
    sorted_dp._random_orders.cache_clear()
    coloring._seeded_block.cache_clear()


@pytest.mark.parametrize("name", sorted(SEEDED_ENTRY_POINTS))
def test_float_seed_rejected_cold_and_warm_alike(name):
    # the draw caches are lru_caches with typed=False: a float seed must
    # not reach them, or 1.0 would read the entry of 1
    run = SEEDED_ENTRY_POINTS[name]
    inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=3, seed=5))
    _clear_draw_caches()
    with pytest.raises(TypeError):
        run(inst, 1.0)
    run(inst, 1)
    with pytest.raises(TypeError):
        run(inst, 1.0)
    # a NumPy integer seed is the same seed, cold or warm
    results = []
    for seed in (np.int64(3), 3):
        _clear_draw_caches()
        results.append(repr(run(inst, seed)))
    assert repr(run(inst, np.int64(3))) == results[0] == results[1]
