"""Witness catalog: every entry re-derives its numbers through the mechanisms."""
from __future__ import annotations

import dataclasses

import pytest

from cascade_auctions import (
    catalog_names,
    gsp_outcome,
    is_nash,
    lemma_instance,
    vcg_apdc_outcome,
    vcg_pdc_outcome,
    verify,
)
from cascade_auctions.mechanisms import _rank_deviations

ALL_NAMES = (
    "gsp-not-ir",
    "gsp-sw-poa-ovb",
    "gsp-sw-poa-noovb",
    "gsp-rev-poa",
    "gsp-sw-pos",
    "gsp-rev-pos",
    "vcgpd-not-ir",
    "vcgpd-sw-poa-ovb",
    "vcgpd-sw-poa-noovb",
    "vcgpd-rev-poa",
    "vcgpd-sw-pos",
    "vcgpd-rev-pos-ovb",
    "vcgpd-rev-pos-noovb",
)

EPS_ENTRIES = ("gsp-sw-poa-ovb", "gsp-rev-poa")
SLOT_ENTRIES = (
    "gsp-sw-poa-noovb",
    "gsp-rev-poa",
    "vcgpd-sw-poa-noovb",
    "vcgpd-rev-poa",
    "vcgpd-rev-pos-noovb",
)


def assert_all_green(entry):
    checks = verify(entry)
    failed = [c for c in checks if not c.passed]
    assert not failed, "\n".join(
        f"{c.label}: expected {c.expected}, got {c.actual}" for c in failed
    )


def test_catalog_names_frozen():
    assert catalog_names() == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
def test_entry_verifies_at_defaults(name):
    assert_all_green(lemma_instance(name))


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("name", EPS_ENTRIES)
def test_eps_parameterized_entries(name, eps):
    assert_all_green(lemma_instance(name, eps=eps))


@pytest.mark.parametrize("num_slots", [2, 3, 4, 5])
@pytest.mark.parametrize("name", SLOT_ENTRIES)
def test_slot_parameterized_entries(name, num_slots):
    assert_all_green(lemma_instance(name, num_slots=num_slots))


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown catalog entry"):
        lemma_instance("no-such-entry")


def test_inapplicable_parameters_rejected():
    with pytest.raises(ValueError, match="does not take parameters"):
        lemma_instance("gsp-not-ir", eps=0.1)
    with pytest.raises(ValueError, match="does not take parameters"):
        lemma_instance("gsp-sw-poa-ovb", num_slots=3)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, "0.1", 0.1j])
def test_eps_bounds_rejected(eps):
    with pytest.raises(ValueError, match="eps"):
        lemma_instance("gsp-sw-poa-ovb", eps=eps)


def test_gsp_sw_poa_ovb_rejects_eps_where_equilibrium_is_optimal():
    # from eps = (sqrt(5) - 1) / 2 on, 2 eps >= 1 + eps (1 - eps): the
    # equilibrium allocation is then optimal and the expectations would lie
    for eps in (0.7, 0.9):
        with pytest.raises(ValueError, match=f"eps.*{eps}"):
            lemma_instance("gsp-sw-poa-ovb", eps=eps)
    assert_all_green(lemma_instance("gsp-sw-poa-ovb", eps=0.6))


def test_slot_bounds_rejected():
    for num_slots in (1, 2.5, "3"):
        with pytest.raises(ValueError, match="slots"):
            lemma_instance("gsp-sw-poa-noovb", num_slots=num_slots)


def test_spot_values_gsp_not_ir():
    entry = lemma_instance("gsp-not-ir")
    out = gsp_outcome(entry.instance, entry.bids)
    assert out.utilities[2] == -1.0
    assert out.payments[2] == 1.0


def test_spot_values_vcgpd_rev_pos_ovb():
    entry = lemma_instance("vcgpd-rev-pos-ovb")
    assert entry.expectations["u_1"] == 0.75
    assert entry.expectations["revenue"] == 0.25
    # the comparative claim: truthful full-model VCG collects nothing here
    truthful = {ad.id: ad.value for ad in entry.instance.ads}
    apdc = vcg_apdc_outcome(entry.instance, truthful, allocator="exact")
    assert apdc.revenue == pytest.approx(0.0, abs=1e-12)


def test_welfare_ratio_degrades_with_eps():
    ratios = [
        lemma_instance("gsp-sw-poa-ovb", eps=e).expectations["welfare_ratio"]
        for e in (0.5, 0.1, 0.01)
    ]
    assert ratios[0] > ratios[1] > ratios[2]


def test_welfare_ratio_degrades_with_slots():
    ratios = [
        lemma_instance("gsp-sw-poa-noovb", num_slots=k).expectations["welfare_ratio"]
        for k in (2, 3, 5)
    ]
    assert ratios == [0.5, 1.0 / 3.0, 0.2]


def test_verify_flags_wrong_expectations():
    entry = lemma_instance("gsp-sw-pos")
    broken = dataclasses.replace(
        entry, expectations={**entry.expectations, "sw": 99.0}
    )
    checks = verify(broken)
    by_label = {c.label: c for c in checks}
    assert not by_label["sw"].passed
    assert by_label["revenue"].passed
    assert isinstance(by_label["sw"].expected, str)
    assert isinstance(by_label["sw"].actual, str)


def test_verify_tolerance_is_threaded():
    entry = lemma_instance("gsp-sw-pos")
    nudged = dataclasses.replace(
        entry, expectations={**entry.expectations, "sw": 2.0 + 1e-6}
    )
    assert any(not c.passed for c in verify(nudged))
    assert all(c.passed for c in verify(nudged, tol=1e-3))


def test_gsp_not_ir_reports_the_zero_bid():
    (nash,) = [c for c in verify(lemma_instance("gsp-not-ir")) if c.label == "nash"]
    assert nash.passed
    assert nash.actual == "deviation agent=2 bid=0.0 gain=1"


def test_noovb_claim_rests_on_the_value_cap():
    # uncapped, agent 2 overbids ad 1 into the top slot and gains
    entry = lemma_instance("vcgpd-sw-poa-noovb")
    deviations = {aid: _rank_deviations(entry.instance, entry.bids, aid) for aid in entry.instance.ids}
    check = is_nash(entry.instance, entry.bids, vcg_pdc_outcome, deviations)
    assert not check.is_equilibrium
    assert check.agent == 2
    assert check.bid > entry.instance.ad(2).value
    assert_all_green(entry)
