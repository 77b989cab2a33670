"""Core model: ads, ladders, allocations, welfare, JSON round trips."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascade_auctions import (
    Ad,
    Allocation,
    AuctionInstance,
    InstanceFormatError,
    InvalidAllocationError,
    NotAllocatedError,
    SlotLadder,
    ctr,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    slot_positions,
    social_welfare,
)
from conftest import two_ad_instance


def test_ad_weighted_value():
    assert Ad(1, 2.0, 0.5, 0.3).weighted_value == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(value=-0.1, quality=0.5, continuation=0.5),
        dict(value=math.nan, quality=0.5, continuation=0.5),
        dict(value=math.inf, quality=0.5, continuation=0.5),
        dict(value=1.0, quality=1.5, continuation=0.5),
        dict(value=1.0, quality=-0.1, continuation=0.5),
        dict(value=1.0, quality=0.5, continuation=1.1),
        dict(value=1.0, quality=0.5, continuation=-0.5),
        dict(value=10**400, quality=0.5, continuation=0.5),
        dict(value=1.0, quality="0.5", continuation=0.5),
        dict(value=1.0, quality=0.5, continuation=None),
        dict(value=1.0, quality=10**400, continuation=0.5),
        dict(value=1.0, quality=0.5, continuation=10**400),
        dict(value=1.0, quality=True, continuation=0.5),
        dict(value=1.0, quality=0.5, continuation=False),
    ],
)
def test_ad_validation(kwargs):
    # each row spoils one field of a valid ad; the message names it, and
    # a huge int is not printed digit by digit
    valid = dict(value=1.0, quality=0.5, continuation=0.5)
    (field,) = (name for name in valid if kwargs[name] != valid[name])
    with pytest.raises(InstanceFormatError, match=f"^ad 1: {field} ") as exc:
        Ad(1, **kwargs)
    assert len(str(exc.value)) < 200


def test_ladder_from_k_minus_one_factors():
    ladder = SlotLadder.from_factors([0.7, 0.6], 3)
    assert ladder.factors == (0.7, 0.6, 0.0)
    assert ladder.num_slots == 3


def test_ladder_last_factor_is_ignored():
    # the stored last factor never influences computations
    a = SlotLadder.from_factors([0.7, 0.9], 2)
    b = SlotLadder.from_factors([0.7, 0.0], 2)
    assert a.effective_factors == b.effective_factors == (0.7, 0.0)
    assert a.prominences == b.prominences == (1.0, 0.7)


def test_ladder_prominences_are_prefix_products():
    ladder = SlotLadder.from_factors([0.5, 0.4, 0.3], 3)
    assert ladder.prominences == (1.0, 0.5, 0.2)


def test_ladder_max_factor():
    assert SlotLadder.from_factors([0.3, 0.9, 0.1], 3).max_factor == 0.9
    # a K=1 ladder has no slot below its only slot
    assert SlotLadder.from_factors([0.9], 1).max_factor == 0.0


@pytest.mark.parametrize(
    "factors", [[], [1.2], [-0.1], [math.nan], [0.5, 10**400], [0.5, "x"], [0.5, None], [10**400]]
)
def test_ladder_validation(factors):
    # the last factor is the bad one; the message names it and stays short
    path = rf"^lambdas\[{len(factors) - 1}\]: " if factors else "^lambdas: "
    for build in (SlotLadder.from_factors, SlotLadder):
        with pytest.raises(InstanceFormatError, match=path) as exc:
            build(tuple(factors))
        assert len(str(exc.value)) < 200


def test_ladder_factor_count_mismatch():
    with pytest.raises(InstanceFormatError):
        SlotLadder.from_factors([0.5], 3)


def test_instance_requires_enough_ads():
    with pytest.raises(InstanceFormatError):
        AuctionInstance(
            ads=(Ad(1, 1.0, 1.0, 0.5),),
            ladder=SlotLadder.from_factors([0.5], 2),
        )


def test_instance_rejects_duplicate_ids():
    with pytest.raises(InstanceFormatError):
        AuctionInstance(
            ads=(Ad(1, 1.0, 1.0, 0.5), Ad(1, 2.0, 1.0, 0.5)),
            ladder=SlotLadder.from_factors([], 1),
        )


def test_instance_lookup_and_views():
    inst = two_ad_instance()
    assert inst.num_ads == 2
    assert inst.num_slots == 2
    assert inst.ids == (1, 2)
    assert inst.ad(2).value == 2.0
    assert 1 in inst and 3 not in inst
    with pytest.raises(InvalidAllocationError):
        inst.ad(3)

    wv, cont = inst.arrays()
    assert wv.tolist() == [1.0, 1.0]
    assert cont.tolist() == [0.8, 0.0]


def test_instance_arrays_built_once_and_read_only():
    inst = load_instance(dump_instance(two_ad_instance()))
    # neither loading nor replacing values builds Ad objects
    assert "ads" not in vars(inst)
    assert "ads" not in vars(inst.with_values({1: 3.0}))
    before = repr(inst)
    wv, cont = inst.arrays()
    again = inst.arrays()
    assert again[0] is wv and again[1] is cont
    for arr in (wv, cont):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0
    # the cache is not part of the instance's identity
    assert repr(inst) == before
    fresh = load_instance(dump_instance(inst))
    assert inst == fresh and hash(inst) == hash(fresh)


def test_instance_without_and_restricted():
    inst = AuctionInstance(
        ads=(Ad(1, 1.0, 1.0, 0.5), Ad(2, 2.0, 0.5, 0.0), Ad(3, 1.0, 0.5, 0.5)),
        ladder=SlotLadder.from_factors([0.5], 2),
    )
    assert inst.without(1).ids == (2, 3)
    assert inst.restricted_to([3, 2]).ids == (2, 3)  # keeps original ad order
    with pytest.raises(InvalidAllocationError):
        inst.without(9)
    # dropping below the slot count violates the shape invariant
    with pytest.raises(InstanceFormatError):
        inst.restricted_to([2])


def test_instance_with_values():
    inst = two_ad_instance()
    reported = inst.with_values({1: 3.0})
    assert reported.ad(1).value == 3.0
    assert reported.ad(1).quality == 1.0
    assert reported.ad(2).value == 2.0  # missing ids keep their value
    assert inst.ad(1).value == 1.0  # original untouched
    # a bad value is an error naming the ad and the field, as Ad's own check
    # is, also where np.fromiter would convert it (a str, a bool) or overflow
    for bad in (-1.0, -math.inf, math.nan, math.inf, 10**400, "1.0", True, False, np.True_, None):
        with pytest.raises(InstanceFormatError, match="^ad 2: value must be a finite number >= 0") as exc:
            inst.with_values({1: 3.0, 2: bad})
        assert len(str(exc.value)) < 200
        with pytest.raises(InstanceFormatError, match="^ad 2: value "):
            Ad(2, bad, 0.5, 0.5)
    # numpy numbers pass the same check and are stored as floats
    assert inst.with_values({1: np.float64(3.0), 2: np.int64(4)}).value.tolist() == [3.0, 4.0]


def test_allocation_rejects_repeats():
    with pytest.raises(InvalidAllocationError):
        Allocation((1, 1))


def test_slot_positions_left_and_right_aligned():
    inst = two_ad_instance()
    assert slot_positions(inst, Allocation((1, 2))) == (1, 2)
    assert slot_positions(inst, Allocation((2,))) == (1,)
    assert slot_positions(inst, Allocation((2,), right_aligned=True)) == (2,)
    with pytest.raises(InvalidAllocationError):
        slot_positions(inst, Allocation((1, 2, 3)))


def test_ctr_hand_values():
    inst = two_ad_instance()
    top = Allocation((1, 2))
    # slot 1: quality * prominence 1; slot 2: 0.5 * 0.5 * c_1
    assert ctr(inst, top, 1) == 1.0
    assert ctr(inst, top, 2) == pytest.approx(0.5 * 0.5 * 0.8)
    # ad 2 on top blocks the scan entirely (c = 0)
    assert ctr(inst, Allocation((2, 1)), 1) == 0.0
    with pytest.raises(NotAllocatedError):
        ctr(inst, Allocation((1,)), 2)


def test_social_welfare_hand_values():
    inst = two_ad_instance()
    assert social_welfare(inst, Allocation(())) == 0.0
    assert social_welfare(inst, Allocation((1,))) == 1.0
    assert social_welfare(inst, Allocation((1, 2))) == pytest.approx(1.4)
    assert social_welfare(inst, Allocation((2, 1))) == pytest.approx(1.0)
    # right-aligned single ad sits in slot 2 with prominence 0.5
    assert social_welfare(inst, Allocation((2,), right_aligned=True)) == pytest.approx(0.5)


def _scalar_ctr(instance, alloc, ad_id):
    """The click-through rate as one ad-by-ad scan computes it."""
    prom = instance.ladder.prominences
    through = 1.0
    for pos, aid in zip(slot_positions(instance, alloc), alloc.slots):
        ad = instance.ad(aid)
        if aid == ad_id:
            return ad.quality * prom[pos - 1] * through
        through *= ad.continuation
    raise AssertionError(ad_id)


def test_ctrs_match_the_scan_by_repr():
    from cascade_auctions.harness import GeneratorConfig, generate_instance
    from cascade_auctions.model import _ctrs

    for seed in range(10):
        inst = generate_instance(GeneratorConfig(num_ads=9, num_slots=5, seed=seed))
        for alloc in (Allocation(inst.ids[4:9]), Allocation(inst.ids[seed % 4 : 3], right_aligned=True)):
            clicks = _ctrs(inst, alloc)
            assert list(clicks) == list(alloc.slots)
            for aid in alloc.slots:
                assert repr(clicks[aid]) == repr(ctr(inst, alloc, aid)) == repr(_scalar_ctr(inst, alloc, aid))


def test_ids_and_ladder_tables_are_built_once():
    inst = two_ad_instance()
    assert isinstance(inst.ids, tuple) and inst.ids is inst.ids
    ids = inst.id_array
    assert ids.dtype == np.int64 and ids.tolist() == [1, 2] and ids is inst.id_array
    for column in (ids, inst.value, inst.quality, inst.continuation, inst.wv):
        assert len(column) == inst.num_ads
        with pytest.raises(ValueError):
            column[0] = 5
    ladder = inst.ladder
    assert ladder.prominences is ladder.prominences
    assert ladder.effective_factors is ladder.effective_factors
    # the cached tables are not fields: equality and hashing are unchanged
    assert ladder == SlotLadder(ladder.factors) and hash(ladder) == hash(SlotLadder(ladder.factors))


def test_social_welfare_is_sum_of_value_times_ctr():
    inst = two_ad_instance()
    alloc = Allocation((1, 2))
    total = sum(inst.ad(a).value * ctr(inst, alloc, a) for a in alloc.slots)
    assert social_welfare(inst, alloc) == pytest.approx(total)


ads_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=2,
    max_size=6,
)


@given(
    ads=ads_strategy,
    factors=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
)
def test_welfare_sum_identity_random(ads, factors):
    k = min(len(factors), len(ads))
    inst = AuctionInstance(
        ads=tuple(Ad(i + 1, v, q, c) for i, (v, q, c) in enumerate(ads)),
        ladder=SlotLadder.from_factors(factors[: k - 1], k),
    )
    alloc = Allocation(tuple(range(1, k + 1)))
    total = sum(inst.ad(a).value * ctr(inst, alloc, a) for a in alloc.slots)
    assert social_welfare(inst, alloc) == pytest.approx(total, abs=1e-12)


def test_json_round_trip():
    inst = two_ad_instance()
    text = dump_instance(inst)
    again = load_instance(text)
    assert again == inst
    # dict round trip too
    assert instance_from_dict(instance_to_dict(inst)) == inst


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"K": 1,', "invalid JSON at line 1"),
        ('{"K": 1' + "0" * 5000 + "}", "invalid JSON"),  # past the int digit limit
    ],
)
def test_load_instance_rejects_bad_json(text, message):
    with pytest.raises(InstanceFormatError, match=message):
        load_instance(text)


def test_json_schema_shape():
    doc = json.loads(dump_instance(two_ad_instance()))
    assert doc["K"] == 2
    assert doc["lambdas"] == [0.5, 0.0]
    assert doc["ads"][0] == {"id": 1, "v": 1.0, "q": 1.0, "c": 0.8}


def valid_doc() -> dict:
    return {
        "K": 2,
        "lambdas": [0.5, 0.0],
        "ads": [
            {"id": 1, "v": 1.0, "q": 0.5, "c": 0.5},
            {"id": 2, "v": 2.0, "q": 1.0, "c": 0.8},
        ],
    }


MISSING = object()


def doc_with(key, value):
    """valid_doc() with one top-level field replaced, or dropped if MISSING."""
    doc = valid_doc()
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value
    return doc


def ad_with(field, value, i=0):
    """valid_doc() with one field of ads[i] replaced, or dropped if MISSING."""
    doc = valid_doc()
    if value is MISSING:
        del doc["ads"][i][field]
    else:
        doc["ads"][i][field] = value
    return doc


HUGE = 10**400  # a JSON integer literal too large for a float


MALFORMED = [
    ({}, "K:"),
    ({"K": 2, "ads": []}, "lambdas:"),
    ({"K": 0, "lambdas": [], "ads": []}, "K:"),
    ({"K": 1, "lambdas": [0.5], "ads": [{"id": 1, "v": 1.0, "q": 0.5}]}, "ads[0].c:"),
    ({"K": 1, "lambdas": [0.5], "ads": "nope"}, "ads:"),
    # document shape
    ([], "top-level document"),
    (doc_with("K", MISSING), "K:"),
    (doc_with("ads", MISSING), "ads:"),
    (doc_with("K", "2"), "K:"),
    (doc_with("K", 2.0), "K:"),
    (doc_with("K", True), "K:"),
    (doc_with("K", -1), "K:"),
    (doc_with("lambdas", "0.5"), "lambdas:"),
    (doc_with("lambdas", {"0": 0.5}), "lambdas:"),
    (doc_with("ads", {"0": {}}), "ads:"),
    # slot factors
    (doc_with("lambdas", ["0.5", 0.0]), "lambdas[0]:"),
    (doc_with("lambdas", [0.5, True]), "lambdas[1]:"),
    (doc_with("lambdas", [None, 0.0]), "lambdas[0]:"),
    (doc_with("lambdas", [1.5, 0.0]), "lambdas[0]:"),
    (doc_with("lambdas", [0.5, -0.1]), "lambdas[1]:"),
    (doc_with("lambdas", [math.nan, 0.0]), "lambdas[0]:"),
    (doc_with("lambdas", [math.inf, 0.0]), "lambdas[0]:"),
    (doc_with("lambdas", [HUGE, 0.0]), "lambdas[0]:"),
    (doc_with("lambdas", [0.5, 0.5, 0.5]), "lambdas:"),
    (doc_with("lambdas", []), "lambdas:"),
    # ads: shape and types
    (doc_with("ads", [[1, 1.0, 0.5, 0.5], [2, 2.0, 1.0, 0.8]]), "ads[0]:"),
    (doc_with("ads", [{"id": 1, "v": 1.0, "q": 0.5, "c": 0.5}, None]), "ads[1]:"),
    (ad_with("id", MISSING), "ads[0].id:"),
    (ad_with("v", MISSING), "ads[0].v:"),
    (ad_with("q", MISSING, i=1), "ads[1].q:"),
    (ad_with("c", MISSING), "ads[0].c:"),
    (ad_with("id", "1"), "ads[0].id:"),
    (ad_with("id", 1.0), "ads[0].id:"),
    (ad_with("id", True), "ads[0].id:"),
    (ad_with("v", "1.0"), "ads[0].v:"),
    (ad_with("v", True), "ads[0].v:"),
    (ad_with("v", None), "ads[0].v:"),
    (ad_with("v", [1.0]), "ads[0].v:"),
    (ad_with("q", "0.5"), "ads[0].q:"),
    (ad_with("q", False), "ads[0].q:"),
    (ad_with("c", "0.5", i=1), "ads[1].c:"),
    (ad_with("c", True), "ads[0].c:"),
    (ad_with("v", HUGE), "ads[0].v:"),
    (ad_with("q", -HUGE), "ads[0].q:"),
    # ads: values, checked by Ad and reported with the ad's path
    (ad_with("v", -1.0), "ads[0]:"),
    (ad_with("v", math.nan), "ads[0]:"),
    (ad_with("v", math.inf), "ads[0]:"),
    (ad_with("q", 1.5, i=1), "ads[1]:"),
    (ad_with("q", -0.1), "ads[0]:"),
    (ad_with("q", math.nan), "ads[0]:"),
    (ad_with("c", 1.5), "ads[0]:"),
    (ad_with("c", -0.5), "ads[0]:"),
    (ad_with("c", math.nan), "ads[0]:"),
    # ads: the set, checked by AuctionInstance
    (ad_with("id", 1, i=1), "ads:"),
    ({"K": 2, "lambdas": [0.5], "ads": [{"id": 1, "v": 1.0, "q": 0.5, "c": 0.5}]}, "ads:"),
    # ads: ids must fit the int64 id column
    ({"K": 2, "lambdas": [0.5], "ads": [{"id": 2**70, "v": 1.0, "q": 0.5, "c": 0.5},
                                       {"id": 2, "v": 2.0, "q": 1.0, "c": 0.8}]}, "ads[0].id:"),
    (ad_with("id", 2**63), "ads[0].id:"),
    (ad_with("id", -(2**63) - 1), "ads[0].id:"),
    (ad_with("id", HUGE, i=1), "ads[1].id:"),
    # the largest and smallest int64 ids pass, so the error is the next ad's
    ({"K": 2, "lambdas": [0.5], "ads": [{"id": 2**63 - 1, "v": 1.0, "q": 0.5, "c": 0.5},
                                       {"id": 2**63, "v": 2.0, "q": 1.0, "c": 0.8}]}, "ads[1].id:"),
    ({"K": 2, "lambdas": [0.5], "ads": [{"id": -(2**63), "v": 1.0, "q": 0.5, "c": 0.5},
                                       {"id": -(2**63) - 1, "v": 2.0, "q": 1.0, "c": 0.8}]}, "ads[1].id:"),
]


@pytest.mark.parametrize("doc,path_prefix", MALFORMED, ids=[f"doc{i}" for i in range(len(MALFORMED))])
def test_json_rejects_malformed(doc, path_prefix):
    with pytest.raises(InstanceFormatError) as excinfo:
        instance_from_dict(doc)
    assert str(excinfo.value).startswith(path_prefix)


def test_ids_at_the_int64_bounds_round_trip():
    doc = valid_doc()
    doc["ads"][0]["id"], doc["ads"][1]["id"] = 2**63 - 1, -(2**63)
    inst = instance_from_dict(doc)
    assert inst.ids == (2**63 - 1, -(2**63)) and inst.id_array.dtype == np.int64
    assert json.loads(dump_instance(inst)) == doc


@pytest.mark.parametrize("bad", [2**63, 2**70, -(2**63) - 1, 1.5, "7"])
def test_instance_rejects_an_id_outside_int64(bad):
    ads = (Ad(1, 1.0, 0.5, 0.5), Ad(bad, 1.0, 0.5, 0.5))
    with pytest.raises(InstanceFormatError, match=f"^ad {bad!r}: id must be an integer within 64 bits"):
        AuctionInstance(ads, SlotLadder.from_factors([], 1))


def test_derived_instances_reject_unknown_ids():
    inst = AuctionInstance(
        ads=(Ad(1, 1.0, 1.0, 0.5), Ad(2, 2.0, 0.5, 0.0), Ad(3, 1.0, 0.5, 0.5)),
        ladder=SlotLadder.from_factors([0.5], 2),
    )
    for derive in (lambda: inst.with_values({999: 5.0}), lambda: inst.with_values({2: 1.0, 999: 5.0}),
                   lambda: inst.restricted_to([3, 2, 999]), lambda: inst.without(999)):
        with pytest.raises(InvalidAllocationError, match="999"):
            derive()
    # a partial map replaces only the values it names
    assert [ad.value for ad in inst.with_values({2: 5.0}).ads] == [1.0, 5.0, 1.0]


def _same_instance(got, ads, ladder):
    """``got`` equals, hashes and prints as the instance built from the Ad tuple."""
    want = AuctionInstance(tuple(ads), ladder)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and dump_instance(got) == dump_instance(want)


def test_derived_instances_match_instances_built_from_ads():
    from cascade_auctions.model import _leave_one_out_context

    # int fields and signed zeros; ints are stored as floats
    ads = (Ad(1, 10, 1, 0), Ad(2, -0.0, 0.5, 0.5), Ad(3, 2.5, -0.0, 1), Ad(4, 3, 0.25, -0.0))
    ladder = SlotLadder.from_factors([0.5, 0.25], 3)
    inst = AuctionInstance(ads, ladder)
    _same_instance(inst, ads, ladder)
    assert repr(inst.ad(1)) == "Ad(id=1, value=10.0, quality=1.0, continuation=0.0)"
    assert '"v":10.0' in dump_instance(inst)
    _same_instance(inst.with_values({1: 7, 3: -0.0}),
                   (Ad(1, 7, 1, 0), ads[1], Ad(3, -0.0, -0.0, 1), ads[3]), ladder)
    _same_instance(inst.with_values({}), ads, ladder)
    _same_instance(inst.restricted_to([4, 2, 1]), (ads[0], ads[1], ads[3]), ladder)
    _same_instance(inst.without(3), (ads[0], ads[1], ads[3]), ladder)
    _same_instance(_leave_one_out_context(inst), ads, ladder)  # n-1 = K: no slot is cut
    three = inst.without(4)
    _same_instance(_leave_one_out_context(three), ads[:3], SlotLadder(ladder.factors[:2]))
    # a signed zero equals the unsigned one, as floats do
    zero = inst.with_values({2: 0.0})
    assert zero == inst and hash(zero) == hash(inst) and repr(zero) != repr(inst)


# sha256 of dump_instance, recorded before the instance became columnar:
# the columns must not change a byte of a generated or catalog instance
DUMP_SHA256 = {
    "generated": "b3f7e340416a1cb5a440ccc244768a35c4288bf1be53aacc249f6e2bd2d65ff7",
    "gsp-not-ir": "28f80c90bffec77dc2ec697828d845e2f015a2d1505d99e4f99021067e44ac86",
    "gsp-sw-poa-ovb": "027038d5cd8c2726713f90341a88dd98cf5ec1e648df9c782787ab588197b7b9",
    "gsp-sw-poa-noovb": "c2787c65d976d7cf6b637e266950f620faec1a38df51e43f72c2d650d271af81",
    "gsp-rev-poa": "2c749bfa779b908991852a1fc9e652219408adaf87d7db316d379466f2402639",
    "gsp-sw-pos": "fa6aad05a7ce2acd42da20a3b7f51f73cc1ede27f5f2666dd09f7949525b6be2",
    "gsp-rev-pos": "934a232cbddbdb1dccafdf1d885b971e98f14343f8ed252da55e00278ac169b2",
    "vcgpd-not-ir": "28f80c90bffec77dc2ec697828d845e2f015a2d1505d99e4f99021067e44ac86",
    "vcgpd-sw-poa-ovb": "dd7f9200e34c4087efe58671f2b525c8e4be5475189a7df85b888e9143223cf8",
    "vcgpd-sw-poa-noovb": "c2787c65d976d7cf6b637e266950f620faec1a38df51e43f72c2d650d271af81",
    "vcgpd-rev-poa": "9bd8c2290985a1c82dbaa10e501dda3b6474c11d58bbcb4411f79895108a4afa",
    "vcgpd-sw-pos": "fa6aad05a7ce2acd42da20a3b7f51f73cc1ede27f5f2666dd09f7949525b6be2",
    "vcgpd-rev-pos-ovb": "d199838801f5701d9af3a2cfb753d8cc8435a6337c53caa1c13c05972fbf1a28",
    "vcgpd-rev-pos-noovb": "0b8bd3f85c01c3a61e6e993116f76e76e7cf501a09d79ae23876d46f2f807992",
}


def test_dump_bytes_are_pinned():
    import hashlib

    from cascade_auctions.counterexamples import catalog_names, lemma_instance
    from cascade_auctions.harness import GeneratorConfig, generate_instance

    assert sorted(catalog_names()) == sorted(set(DUMP_SHA256) - {"generated"})
    instances = {name: lemma_instance(name).instance for name in catalog_names()}
    instances["generated"] = generate_instance(GeneratorConfig(num_ads=1000, num_slots=5, seed=1))
    for name, inst in instances.items():
        text = dump_instance(inst)
        assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[name], name
        assert dump_instance(load_instance(text)) == text


def test_no_ad_objects_on_the_hot_paths(monkeypatch):
    from cascade_auctions import (
        colored_ads,
        multi_order_approx,
        prune_instance,
        solve_exact,
        truthful_profile,
        vcg_apdc_outcome,
    )
    from cascade_auctions.harness import GeneratorConfig, generate_instance

    text = dump_instance(generate_instance(GeneratorConfig(num_ads=1000, num_slots=5, seed=1)))
    small = generate_instance(GeneratorConfig(num_ads=6, num_slots=3, seed=2))
    built = []
    check = Ad.__post_init__

    def counting(ad):
        built.append(ad.id)
        check(ad)

    monkeypatch.setattr(Ad, "__post_init__", counting)
    Ad(1, 1.0, 0.5, 0.5)
    assert built == [1]  # the counter sees every Ad built
    built.clear()
    pruned, _ = prune_instance(load_instance(text))
    warm = multi_order_approx(pruned, seed=1, include_natural=False)
    assert solve_exact(pruned, budget=10**7, warm_start=warm.alloc.slots).complete
    colored_ads(pruned, seed=1)
    assert built == []
    profile = truthful_profile(small)
    for allocator in ("exact", "colored", "sorted"):
        vcg_apdc_outcome(small, profile, allocator=allocator, seed=1)
        assert built == [], allocator
