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
    NashCheck,
    SlotLadder,
    gsp_outcome,
    is_nash,
    social_welfare,
    truthful_profile,
    vcg_apdc_outcome,
    vcg_pdc_outcome,
)
from cascade_auctions import coloring, sorted_dp
from cascade_auctions.coloring import colored_ads
from cascade_auctions.harness import DEFAULT_SLOT_FACTORS, GeneratorConfig, generate_instance
from cascade_auctions.sorted_dp import multi_order_approx
from conftest import two_ad_instance


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
