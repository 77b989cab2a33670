"""Hand-built witness instances for equilibrium, revenue, and rationality claims.

Each catalog entry packages an instance, a bid profile, and the numbers the
construction is supposed to produce: utilities, payments, welfare and
revenue (including the truthful full-model VCG revenue where the claim is
comparative), plus whether the profile is a Nash equilibrium.  verify()
recomputes everything through the public mechanism code and reports each
assertion separately.

Names ending in -ovb rely on an overbidding equilibrium; -noovb entries
stay within no-overbidding profiles, so their deviations are capped at
the deviator's true value.  poa entries exhibit a bad equilibrium (the
ratio degrades with the parameter), pos entries a good one.

The Nash claim is checked exactly: both mechanisms see a bid only through
its rank, so verify() tries the bids just below, at and just above every
score the deviator's can meet (mechanisms._rank_deviations).
"""
from __future__ import annotations

import functools
import inspect
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

from .exact import solve_exact
from .mechanisms import (
    _rank_deviations,
    gsp_outcome,
    is_nash,
    truthful_profile,
    vcg_apdc_outcome,
    vcg_pdc_outcome,
)
from .model import Ad, AuctionInstance, SlotLadder

__all__ = ["LemmaInstance", "CheckResult", "catalog_names", "lemma_instance", "verify"]


@dataclass(frozen=True)
class LemmaInstance:
    """A witness instance with machine-checkable expected outcomes.

    ``expectations`` maps assertion keys to expected numbers: "sw",
    "revenue", "optimal" (full-model optimum), "welfare_ratio",
    "apdc_revenue" (truthful full-model VCG revenue), "u_<id>", "p_<id>".
    ``nash_expected`` is None when the entry makes no equilibrium claim;
    otherwise it says whether any unilateral deviation gains, checked at
    every rank breakpoint and, for -noovb entries, up to the true value.
    """

    name: str
    claim: str
    mechanism: str
    instance: AuctionInstance
    bids: dict[int, float]
    expectations: dict[str, float]
    expected_alloc: tuple[int, ...] | None = None
    alloc_is_optimal: bool | None = None
    nash_expected: bool | None = None


@dataclass(frozen=True)
class CheckResult:
    label: str
    expected: str
    actual: str
    passed: bool


def _uniform_ads(values, qualities, continuations) -> tuple[Ad, ...]:
    return tuple(
        Ad(id=i + 1, value=v, quality=q, continuation=c)
        for i, (v, q, c) in enumerate(zip(values, qualities, continuations))
    )


def _ladder(num_slots: int, factor: float = 1.0) -> SlotLadder:
    """num_slots slots, each seen by a factor of those who saw the one above."""
    return SlotLadder.from_factors([factor] * (num_slots - 1), num_slots=num_slots)


def _check_eps(eps: float) -> float:
    if not isinstance(eps, numbers.Real) or not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be a real number strictly inside (0, 1), got {eps!r}")
    return float(eps)


def _check_slots(num_slots: int) -> int:
    try:
        k = operator.index(num_slots)
    except TypeError:
        raise ValueError(f"num_slots must be an integer, got {num_slots!r}") from None
    if k < 2:
        raise ValueError(f"need at least 2 slots, got {k}")
    return k


def _gsp_not_ir() -> LemmaInstance:
    ads = _uniform_ads([1.0] * 3, [1.0] * 3, [0.0] * 3)
    inst = AuctionInstance(ads, _ladder(2))
    return LemmaInstance(
        name="gsp-not-ir",
        claim="second-price charges a zero-CTR slot: truthful bidder loses money",
        mechanism="gsp",
        instance=inst,
        bids=truthful_profile(inst),
        expectations={
            "u_1": 0.0,
            "u_2": -1.0,
            "p_1": 1.0,
            "p_2": 1.0,
            "sw": 1.0,
            "revenue": 2.0,
        },
        expected_alloc=(1, 2),
        nash_expected=False,
    )


def _gsp_sw_poa_ovb(eps: float = 0.1) -> LemmaInstance:
    eps = _check_eps(eps)
    optimal = 1.0 + eps * (1.0 - eps)
    if 2.0 * eps >= optimal:
        raise ValueError(
            f"eps must be below (sqrt(5) - 1) / 2 for gsp-sw-poa-ovb, got {eps!r}: "
            "from there on the equilibrium allocation is itself optimal"
        )
    ads = _uniform_ads([eps, 1.0], [1.0, 1.0], [eps, 1.0 - eps])
    inst = AuctionInstance(ads, _ladder(2))
    return LemmaInstance(
        name="gsp-sw-poa-ovb",
        claim="an overbidding equilibrium drives welfare to a 2e/(1+e(1-e)) fraction",
        mechanism="gsp",
        instance=inst,
        bids={1: 10.0, 2: eps * eps / 2.0},
        expectations={
            "sw": 2.0 * eps,
            "optimal": optimal,
            "welfare_ratio": 2.0 * eps / optimal,
            "p_1": eps * eps / 2.0,
            "p_2": 0.0,
            "u_1": eps - eps * eps / 2.0,
            "u_2": eps,
            "revenue": eps * eps / 2.0,
        },
        expected_alloc=(1, 2),
        nash_expected=True,
    )


def _blocked_cascade_instance(num_slots: int, tail_value: float) -> AuctionInstance:
    """One zero-continuation ad plus num_slots cascade-friendly ads."""
    n = num_slots + 1
    values = [1.0] + [tail_value] * (n - 1)
    continuations = [0.0] + [1.0] * (n - 1)
    ads = _uniform_ads(values, [1.0] * n, continuations)
    return AuctionInstance(ads, _ladder(num_slots))


def _gsp_sw_poa_noovb(num_slots: int = 4) -> LemmaInstance:
    k = _check_slots(num_slots)
    inst = _blocked_cascade_instance(k, 1.0)
    exp: dict[str, float] = {
        "sw": 1.0,
        "optimal": float(k),
        "welfare_ratio": 1.0 / k,
        "revenue": 0.0,
        "u_1": 1.0,
    }
    for a in range(2, k + 2):
        exp[f"u_{a}"] = 0.0
        exp[f"p_{a}"] = 0.0
    return LemmaInstance(
        name="gsp-sw-poa-noovb",
        claim="a no-overbid equilibrium stuck behind a cascade blocker: welfare 1 of K",
        mechanism="gsp",
        instance=inst,
        bids={1: 1.0, **{a: 0.0 for a in range(2, k + 2)}},
        expectations=exp,
        expected_alloc=tuple(range(1, k + 1)),
        nash_expected=True,
    )


def _gsp_rev_poa(eps: float = 0.1, num_slots: int = 4) -> LemmaInstance:
    eps = _check_eps(eps)
    k = _check_slots(num_slots)
    inst = _blocked_cascade_instance(k, 1.0 - eps)
    return LemmaInstance(
        name="gsp-rev-poa",
        claim="equilibrium revenue 0 while truthful full-model VCG collects K(1-e)",
        mechanism="gsp",
        instance=inst,
        bids={1: 1.0, **{a: 0.0 for a in range(2, k + 2)}},
        expectations={
            "revenue": 0.0,
            "apdc_revenue": k * (1.0 - eps),
            "sw": 1.0,
            "optimal": (k - 1) * (1.0 - eps) + 1.0,
            "u_1": 1.0,
        },
        expected_alloc=tuple(range(1, k + 1)),
        nash_expected=True,
    )


def _gsp_sw_pos() -> LemmaInstance:
    ads = _uniform_ads([1.0] * 3, [1.0] * 3, [1.0] * 3)
    inst = AuctionInstance(ads, _ladder(2))
    return LemmaInstance(
        name="gsp-sw-pos",
        claim="truthful profile is an efficient equilibrium: welfare matches the optimum",
        mechanism="gsp",
        instance=inst,
        bids=truthful_profile(inst),
        expectations={
            "sw": 2.0,
            "optimal": 2.0,
            "welfare_ratio": 1.0,
            "p_1": 1.0,
            "p_2": 1.0,
            "revenue": 2.0,
            "u_1": 0.0,
            "u_2": 0.0,
            "u_3": 0.0,
        },
        expected_alloc=(1, 2),
        alloc_is_optimal=True,
        nash_expected=True,
    )


def _gsp_rev_pos() -> LemmaInstance:
    third = 1.0 / 3.0
    ads = _uniform_ads([1.0, third], [1.0, 1.0], [1.0, 0.5])
    inst = AuctionInstance(ads, _ladder(2))
    return LemmaInstance(
        name="gsp-rev-pos",
        claim="truthful equilibrium collects 1/3 where full-model VCG collects nothing",
        mechanism="gsp",
        instance=inst,
        bids=truthful_profile(inst),
        expectations={
            "p_1": third,
            "p_2": 0.0,
            "revenue": third,
            "apdc_revenue": 0.0,
            "sw": 1.0 + third,
            "optimal": 1.0 + third,
            "u_1": 1.0 - third,
            "u_2": third,
        },
        expected_alloc=(1, 2),
        nash_expected=True,
    )


def _vcgpd_not_ir() -> LemmaInstance:
    ads = _uniform_ads([1.0] * 3, [1.0] * 3, [0.0] * 3)
    inst = AuctionInstance(ads, _ladder(2))
    return LemmaInstance(
        name="vcgpd-not-ir",
        claim="declared-model VCG still charges a zero-CTR slot: truthful bidder loses",
        mechanism="vcg-pdc",
        instance=inst,
        bids=truthful_profile(inst),
        expectations={
            "p_1": 1.0,
            "p_2": 1.0,
            "u_1": 0.0,
            "u_2": -1.0,
            "sw": 1.0,
            "revenue": 2.0,
        },
        expected_alloc=(1, 2),
    )


def _vcgpd_sw_poa_ovb() -> LemmaInstance:
    ads = _uniform_ads([0.0, 1.0], [1.0, 1.0], [0.0, 1.0])
    inst = AuctionInstance(ads, _ladder(2, 0.5))
    return LemmaInstance(
        name="vcgpd-sw-poa-ovb",
        claim="a worthless overbidder wins the top slot and zeroes out welfare",
        mechanism="vcg-pdc",
        instance=inst,
        bids={1: 4.0, 2: 0.0},
        expectations={
            "sw": 0.0,
            "optimal": 1.0,
            "welfare_ratio": 0.0,
            "p_1": 0.0,
            "p_2": 0.0,
            "u_1": 0.0,
            "u_2": 0.0,
            "revenue": 0.0,
        },
        expected_alloc=(1, 2),
        nash_expected=True,
    )


def _vcgpd_sw_poa_noovb(num_slots: int = 4) -> LemmaInstance:
    k = _check_slots(num_slots)
    inst = _blocked_cascade_instance(k, 1.0)
    exp: dict[str, float] = {
        "sw": 1.0,
        "optimal": float(k),
        "welfare_ratio": 1.0 / k,
        "revenue": 0.0,
        "u_1": 1.0,
        "p_1": 0.0,
    }
    for a in range(2, k + 2):
        exp[f"u_{a}"] = 0.0
        exp[f"p_{a}"] = 0.0
    return LemmaInstance(
        name="vcgpd-sw-poa-noovb",
        claim="declared-model VCG shares the blocked-cascade equilibrium: welfare 1 of K",
        mechanism="vcg-pdc",
        instance=inst,
        bids={1: 1.0, **{a: 0.0 for a in range(2, k + 2)}},
        expectations=exp,
        expected_alloc=tuple(range(1, k + 1)),
        nash_expected=True,
    )


def _vcgpd_rev_poa(num_slots: int = 4) -> LemmaInstance:
    k = _check_slots(num_slots)
    ads = _uniform_ads([1.0] * k, [1.0] * k, [1.0] * k)
    inst = AuctionInstance(ads, _ladder(k, 0.5))
    prom = inst.ladder.prominences
    total = sum(prom)
    last = prom[-1]
    exp: dict[str, float] = {
        "sw": total,
        "optimal": total,
        "welfare_ratio": 1.0,
        "revenue": total - k * last,
        "apdc_revenue": total - k * last,
    }
    for s in range(k):
        exp[f"p_{s + 1}"] = prom[s] - last
        exp[f"u_{s + 1}"] = last
    return LemmaInstance(
        name="vcgpd-rev-poa",
        claim="with full continuation both declared models price identically (no revenue gap)",
        mechanism="vcg-pdc",
        instance=inst,
        bids=truthful_profile(inst),
        expectations=exp,
        expected_alloc=tuple(range(1, k + 1)),
        nash_expected=True,
    )


def _vcgpd_sw_pos() -> LemmaInstance:
    ads = _uniform_ads([1.0] * 3, [1.0] * 3, [1.0] * 3)
    inst = AuctionInstance(ads, _ladder(2))
    return LemmaInstance(
        name="vcgpd-sw-pos",
        claim="truthful declared-model VCG is efficient here: welfare matches the optimum",
        mechanism="vcg-pdc",
        instance=inst,
        bids=truthful_profile(inst),
        expectations={
            "sw": 2.0,
            "optimal": 2.0,
            "welfare_ratio": 1.0,
            "p_1": 1.0,
            "p_2": 1.0,
            "revenue": 2.0,
            "u_1": 0.0,
            "u_2": 0.0,
            "u_3": 0.0,
        },
        expected_alloc=(1, 2),
        alloc_is_optimal=True,
        nash_expected=True,
    )


def _vcgpd_rev_pos_ovb() -> LemmaInstance:
    ads = _uniform_ads([1.0, 0.0], [1.0, 1.0], [1.0, 0.5])
    inst = AuctionInstance(ads, _ladder(2, 0.5))
    return LemmaInstance(
        name="vcgpd-rev-pos-ovb",
        claim="an overbidding equilibrium yields revenue 1/4 against 0 truthful full-model revenue",
        mechanism="vcg-pdc",
        instance=inst,
        bids={1: 1.0, 2: 0.5},
        expectations={
            "p_1": 0.25,
            "p_2": 0.0,
            "u_1": 0.75,
            "u_2": 0.0,
            "revenue": 0.25,
            "apdc_revenue": 0.0,
            "sw": 1.0,
            "optimal": 1.0,
        },
        expected_alloc=(1, 2),
        nash_expected=True,
    )


def _vcgpd_rev_pos_noovb(num_slots: int = 4) -> LemmaInstance:
    k = _check_slots(num_slots)
    n = k + 1
    ads = _uniform_ads([1.0] * n, [1.0] * n, [1.0] * n)
    inst = AuctionInstance(ads, _ladder(k, 0.5))
    prom = inst.ladder.prominences
    total = sum(prom)
    exp: dict[str, float] = {
        "sw": total,
        "optimal": total,
        "welfare_ratio": 1.0,
        "revenue": total,
        "apdc_revenue": total,
        f"p_{n}": 0.0,
        f"u_{n}": 0.0,
    }
    for s in range(k):
        exp[f"p_{s + 1}"] = prom[s]
        exp[f"u_{s + 1}"] = 0.0
    return LemmaInstance(
        name="vcgpd-rev-pos-noovb",
        claim="a competitive no-overbid equilibrium where both declared models earn the full welfare",
        mechanism="vcg-pdc",
        instance=inst,
        bids=truthful_profile(inst),
        expectations=exp,
        expected_alloc=tuple(range(1, k + 1)),
        nash_expected=True,
    )


_CATALOG: dict[str, Callable[..., LemmaInstance]] = {
    "gsp-not-ir": _gsp_not_ir,
    "gsp-sw-poa-ovb": _gsp_sw_poa_ovb,
    "gsp-sw-poa-noovb": _gsp_sw_poa_noovb,
    "gsp-rev-poa": _gsp_rev_poa,
    "gsp-sw-pos": _gsp_sw_pos,
    "gsp-rev-pos": _gsp_rev_pos,
    "vcgpd-not-ir": _vcgpd_not_ir,
    "vcgpd-sw-poa-ovb": _vcgpd_sw_poa_ovb,
    "vcgpd-sw-poa-noovb": _vcgpd_sw_poa_noovb,
    "vcgpd-rev-poa": _vcgpd_rev_poa,
    "vcgpd-sw-pos": _vcgpd_sw_pos,
    "vcgpd-rev-pos-ovb": _vcgpd_rev_pos_ovb,
    "vcgpd-rev-pos-noovb": _vcgpd_rev_pos_noovb,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def lemma_instance(
    name: str, eps: float | None = None, num_slots: int | None = None
) -> LemmaInstance:
    """Builds a catalog entry; params apply only where the entry uses them."""
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog entry {name!r}; known: {sorted(_CATALOG)}")
    kwargs = {key: value for key, value in (("eps", eps), ("num_slots", num_slots)) if value is not None}
    if set(kwargs) - set(inspect.signature(_CATALOG[name]).parameters):
        raise ValueError(f"entry {name!r} does not take parameters {sorted(kwargs)}")
    return _CATALOG[name](**kwargs)


_MECHANISMS = {"gsp": gsp_outcome, "vcg-pdc": vcg_pdc_outcome}


def verify(entry: LemmaInstance, tol: float = 1e-9) -> list[CheckResult]:
    """Recomputes every encoded assertion through the mechanism code."""
    mech = _MECHANISMS[entry.mechanism]
    outcome = mech(entry.instance, entry.bids)
    checks: list[CheckResult] = []
    exact_result = functools.cache(lambda: solve_exact(entry.instance))

    def actual_for(key: str) -> float:
        if key == "sw":
            return outcome.social_welfare
        if key == "revenue":
            return outcome.revenue
        if key == "optimal":
            return exact_result().best_value
        if key == "welfare_ratio":
            return outcome.social_welfare / exact_result().best_value
        if key == "apdc_revenue":
            truthful = truthful_profile(entry.instance)
            return vcg_apdc_outcome(entry.instance, truthful, allocator="exact").revenue
        if key.startswith("u_"):
            return outcome.utilities[int(key[2:])]
        if key.startswith("p_"):
            return outcome.payments[int(key[2:])]
        raise ValueError(f"unknown expectation key {key!r}")

    for key, expected in sorted(entry.expectations.items()):
        actual = actual_for(key)
        checks.append(CheckResult(key, repr(expected), repr(actual), abs(actual - expected) <= tol))
    slots = outcome.alloc.slots
    if entry.expected_alloc is not None:
        checks.append(CheckResult("alloc", repr(entry.expected_alloc), repr(slots), slots == entry.expected_alloc))
    if entry.alloc_is_optimal is not None:
        matches = slots == exact_result().best_alloc.slots
        checks.append(CheckResult("alloc_is_optimal", repr(entry.alloc_is_optimal), repr(matches),
                                  matches == entry.alloc_is_optimal))
    if entry.nash_expected is not None:
        caps = truthful_profile(entry.instance) if entry.name.endswith("-noovb") else {}
        deviations = {aid: _rank_deviations(entry.instance, entry.bids, aid, caps.get(aid))
                      for aid in entry.instance.ids}
        result = is_nash(entry.instance, entry.bids, mech, deviations, eps=tol)
        actual = repr(True) if result.is_equilibrium else (
            f"deviation agent={result.agent} bid={result.bid} gain={result.gain:.6g}")
        checks.append(CheckResult("nash", repr(entry.nash_expected), actual,
                                  result.is_equilibrium == entry.nash_expected))
    return checks
