"""Auction mechanisms over the cascade model.

Three mechanisms share an interface: each takes the true instance plus a
bid profile (reported per-click values) and returns the allocation,
per-impression expected payments, and utilities evaluated against the
true model.

* gsp_outcome: generalized second price.  Ranks by bid (optionally by
  quality-weighted bid) and charges each slot the quality-weighted bid of
  the next rank.
* vcg_pdc_outcome: VCG computed in a declared model that ignores ad
  continuation (every ad's effect is quality * bid * slot prominence).
  Payments are independent of the continuation parameters.
* vcg_apdc_outcome: VCG in the full model.  The allocation rule may be
  the exact solver or one of the seeded approximations; because each of
  those maximizes reported welfare over a range of allocations that does
  not depend on any single bid, charging Clarke-style differences makes
  truthful reporting a dominant strategy for every allocator choice.
  Individual rationality and nonnegative payments are only guaranteed
  with the exact allocator, and an exact rerun whose node budget runs out
  is an error, not a payment.  With the exact allocator only the winners
  are rerun: a loser pays exactly 0.0.

Every allocator prices an outcome from work it sets up once.  The exact
allocator builds one search (exact's bounds, dominance masks and orders)
on the reported instance, at every K; the reported solve and each
winner's rerun, with the winner masked out, run on it.  No instance is
built per rerun.  The approximate allocators memoize their colorings and
orders on (sizes, seed), so the leave-one-out reruns of one outcome, and
the outcomes an equilibrium check builds for each deviation, draw them
once; they price every ad from one batched, value-only pass: every
leave-one-out instance reuses the same (n-1)-ad draws, read through
indices that skip the dropped ad, so each value is the float a separate
rerun would give.  Below K = n the reported colored passes ride in the
same kernel calls, so a colored outcome makes one call per batch and
memory group; at K = n it makes two (see vcg_apdc_outcome).  That
sharing rests on the same fact as truthfulness: the draws never depend
on a bid.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import coloring, sorted_dp
from .exact import _ExactSearch
from .model import (
    Allocation,
    AuctionError,
    AuctionInstance,
    _ctrs,
    _shown,
    social_welfare,
)
from .sorted_dp import multi_order_approx

__all__ = [
    "IncompleteSolveError",
    "BidProfile",
    "MechanismOutcome",
    "NashCheck",
    "truthful_profile",
    "gsp_outcome",
    "vcg_pdc_outcome",
    "vcg_apdc_outcome",
    "is_nash",
]

BidProfile = Mapping[int, float]

_APDC_ALLOCATORS = ("exact", "colored", "sorted")


class IncompleteSolveError(AuctionError):
    """An exact VCG rerun ran out of its node budget before proving optimality."""

    def __init__(self, ad_ids: Sequence[int], budget: int | None) -> None:
        self.ad_ids = tuple(ad_ids)
        self.budget = budget
        super().__init__(
            f"exact solve over ads {list(self.ad_ids)} exhausted its node "
            f"budget of {budget}; the payments would not be VCG payments"
        )


@dataclass(frozen=True)
class MechanismOutcome:
    """Result of running one mechanism on one bid profile.

    Payments are expected amounts per impression.  Utilities and
    ``social_welfare`` are measured under the true instance, whatever was
    bid.
    """

    mechanism: str
    alloc: Allocation
    payments: dict[int, float]
    utilities: dict[int, float]
    revenue: float
    social_welfare: float
    allocator: str | None = None


@dataclass(frozen=True)
class NashCheck:
    """Outcome of a search over listed deviations.

    When a profitable deviation exists, the most profitable one found is
    reported.
    """

    is_equilibrium: bool
    agent: int | None = None
    bid: float | None = None
    gain: float = 0.0


def truthful_profile(instance: AuctionInstance) -> dict[int, float]:
    return dict(zip(instance.ids, instance.value.tolist()))


def _check_bids(instance: AuctionInstance, bids: BidProfile) -> dict[int, float]:
    profile = {}
    for aid in instance.ids:
        if aid not in bids:
            raise ValueError(f"bid profile is missing ad {aid}")
        raw = bids[aid]
        try:
            if isinstance(raw, (bool, str)):
                raise TypeError
            b = float(raw)
        except (TypeError, OverflowError):
            raise ValueError(f"bid for ad {aid} must be a number that fits a float, got {_shown(raw)}") from None
        if not 0.0 <= b < math.inf:
            raise ValueError(f"bid for ad {aid} must be finite and nonnegative, got {b}")
        profile[aid] = b + 0.0  # a -0.0 bid is 0.0, as a -0.0 field is in model._columns
    if len(bids) != instance.num_ads:
        extra = set(bids) - set(profile)
        raise ValueError(f"bid profile names unknown ads {sorted(extra)}")
    return profile


def _settle(
    instance: AuctionInstance,
    mechanism: str,
    alloc: Allocation,
    clicks: dict[int, float],
    payments: dict[int, float],
    allocator: str | None = None,
) -> MechanismOutcome:
    """The outcome of ``alloc``, whose click-through rates (``_ctrs``) are ``clicks``."""
    utilities = {aid: v * clicks.get(aid, 0.0) - payments[aid] for aid, v in zip(instance.ids, instance.value.tolist())}
    return MechanismOutcome(
        mechanism=mechanism,
        alloc=alloc,
        payments=payments,
        utilities=utilities,
        revenue=sum(payments.values()),
        social_welfare=social_welfare(instance, alloc),
        allocator=allocator,
    )


def _ranked(
    instance: AuctionInstance, profile: dict[int, float], by_quality: bool = True
) -> tuple[list[int], dict[int, float]]:
    """The ads in rank order, and each ad's quality-weighted bid.

    Ads rank by quality-weighted bid, or by bid alone when not
    ``by_quality``; ties go to the smaller ad id.  A bid reaches the
    rank-based mechanisms only through this order (see _rank_deviations).
    """
    weight = {aid: q * profile[aid] for aid, q in zip(instance.ids, instance.quality.tolist())}
    score = weight if by_quality else profile
    return sorted(instance.ids, key=lambda aid: (-score[aid], aid)), weight


def gsp_outcome(
    instance: AuctionInstance,
    bids: BidProfile,
    rank_by_quality: bool = False,
) -> MechanismOutcome:
    """Generalized second price under the cascade model.

    Slot s pays the quality-weighted bid of the ad ranked s+1 (zero when
    there is none).  Ties in the ranking go to the smaller ad id.
    """
    profile = _check_bids(instance, bids)
    ranking, weight = _ranked(instance, profile, rank_by_quality)
    k = instance.num_slots
    alloc = Allocation(tuple(ranking[:k]))
    payments = dict.fromkeys(instance.ids, 0.0)
    for pos, aid in enumerate(ranking[:k]):
        if pos + 1 < len(ranking):
            payments[aid] = weight[ranking[pos + 1]]
    return _settle(instance, "gsp", alloc, _ctrs(instance, alloc), payments)


def vcg_pdc_outcome(instance: AuctionInstance, bids: BidProfile) -> MechanismOutcome:
    """VCG in the declared continuation-free model.

    Declared welfare of an allocation is the sum of quality * bid * slot
    prominence, so the declared optimum just ranks by quality-weighted
    bid.  Clarke payments within that model never involve the
    continuation parameters; utilities of course do.  A winner's payment
    sums only the slots at and below it, since those above hold the same
    ads with and without it, so its own bid never enters the payment.
    """
    profile = _check_bids(instance, bids)
    ranking, weight = _ranked(instance, profile)
    k = instance.num_slots
    prom = instance.ladder.prominences
    alloc = Allocation(tuple(ranking[:k]))

    payments = dict.fromkeys(instance.ids, 0.0)
    for pos, aid in enumerate(ranking[:k]):
        below = ranking[pos + 1 : k + 1]
        without = sum(weight[o] * prom[p] for p, o in enumerate(below, pos))
        kept = sum(weight[o] * prom[p] for p, o in enumerate(below[: k - pos - 1], pos + 1))
        payments[aid] = without - kept
    return _settle(instance, "vcg-pdc", alloc, _ctrs(instance, alloc), payments)


def vcg_apdc_outcome(
    instance: AuctionInstance,
    bids: BidProfile,
    allocator: str = "exact",
    seed: int = 0,
    iterations: int | None = None,
    order_count: int | None = None,
    budget: int | None = None,
) -> MechanismOutcome:
    """VCG with the full cascade model as the declared model.

    The chosen allocator maximizes reported welfare over a fixed range of
    allocations; ad a pays the allocator's best reported welfare without a
    minus what the others get under the chosen allocation.  The seeded
    randomness of the approximate allocators depends only on (seed, ad
    set), never on bids, which preserves dominant-strategy truthfulness.

    With the exact allocator an ad the optimum leaves out pays exactly
    0.0 and is not rerun: without it the optimal allocation is still
    feasible and still optimal, so its Clarke payment is zero.  One
    search set up on the reported instance serves the whole outcome, at
    every K: the reported solve runs on it, and each winner's rerun masks
    the winner out, fills min(K, n-1) slots and gives the value a solve of
    the instance without that winner would give (exact's
    ``_ExactSearch`` says why).  The approximate allocators price
    every ad, since their range depends on the ad set, but compute all
    the leave-one-out values in one batched, value-only pass
    (``_leave_one_out_values`` of coloring and sorted_dp).  Without ad j
    the rerun would draw the same (n-1)-ad colorings or orders, since
    they depend only on (sizes, seed); the batch reads them through
    indices that skip j, so each column sees the same ads, colors and
    factors in the same order, and the kernels, whose columns are
    independent and whose max is exact, give each value bit for bit.  No
    allocation is built for a rerun.  Below K = n every leave-one-out instance keeps all K
    slots, so the colored allocator's columns, padded to n ads, share
    the kernel calls of the reported passes (``coloring._pricing``): one
    call per batch and memory group gives the allocation and every
    value.  At K = n the leave-one-out instances have one slot fewer, a
    different ladder and half the color subsets, so the reported call
    and the leave-one-out call stay apart.  The sorted allocator keeps
    its two calls at every K: its orders sharing one call measured no
    faster on the ``grid`` workload.

    Raises:
        IncompleteSolveError: an exact solve, of the reported instance or
            of a winner's leave-one-out instance, exhausted ``budget``;
            its best allocation so far would not give VCG payments.  A
            rerun on the shared search may explore more nodes than a
            separate solve, so it can run out at a budget that one would
            meet.
        coloring.NaNPassesError: with the colored allocator, every pass of
            the reported instance or of a leave-one-out instance has the
            value NaN (a zero factor times an overflowed suffix), so there
            is no allocation or value to price with.
    """
    if allocator not in _APDC_ALLOCATORS:
        raise ValueError(f"allocator must be one of {_APDC_ALLOCATORS}, got {allocator!r}")
    profile = _check_bids(instance, bids)
    reported = instance.with_values(profile)

    if allocator == "exact":
        alloc, best_without = _exact_pricing(reported, budget)
    else:
        if allocator == "colored":
            res, values = coloring._pricing(reported, iterations, seed)
        else:
            res = multi_order_approx(reported, order_count=order_count, seed=seed, include_natural=False)
            values = sorted_dp._leave_one_out_values(reported, order_count=order_count, seed=seed)
        alloc = res.alloc
        best_without = dict(zip(reported.ids, values.tolist()))
    clicks = _ctrs(reported, alloc)
    total_reported = sum(profile[aid] * clicks[aid] for aid in alloc.slots)

    payments = dict.fromkeys(instance.ids, 0.0)
    for aid, without in best_without.items():
        own = profile[aid] * clicks[aid] if aid in clicks else 0.0
        payments[aid] = without - (total_reported - own)
    return _settle(instance, "vcg-apdc", alloc, clicks, payments, allocator=allocator)


def _exact_pricing(reported: AuctionInstance, budget: int | None) -> tuple[Allocation, dict[int, float]]:
    """The exact optimum of ``reported`` and, per winner, the optimum without it, on one search set-up."""
    search = _ExactSearch(reported, budget)
    res = search.solve()
    if not res.complete:
        raise IncompleteSolveError(reported.ids, budget)
    best_without = {}
    for aid in res.best_alloc.slots:
        rerun = search.solve(drop=aid)
        if not rerun.complete:
            raise IncompleteSolveError([a for a in reported.ids if a != aid], budget)
        best_without[aid] = rerun.best_value
    return res.best_alloc, best_without


_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]


def _least_bid(rate: float, target: float, strict: bool) -> float:
    """Smallest bid b >= 0 whose score rate * b reaches ``target`` (passes it when strict).

    The score never falls as b grows and nonnegative floats order as their
    bit patterns do, so bisecting the patterns finds the exact float, where
    target / rate can miss by an ulp; inf means no finite bid does.
    """
    lo, hi = 0, _INF_BITS
    while lo < hi:
        mid = (lo + hi) // 2
        score = rate * struct.unpack("<d", struct.pack("<q", mid))[0]
        if score > target or (score == target and not strict):
            hi = mid
        else:
            lo = mid + 1
    return struct.unpack("<d", struct.pack("<q", lo))[0]


def _rank_deviations(instance: AuctionInstance, bids: BidProfile, agent: int, cap: float | None = None) -> list[float]:
    """Deviations that reach every outcome open to ``agent`` in gsp_outcome or vcg_pdc_outcome.

    Both see the agent's bid only through its place in _ranked's order
    (payments come from the others' bids and the order), so its utility
    is a step function of its bid that moves only where its score meets
    another ad's: at b_j by bid, at q_j * b_j / q_i by quality-weighted
    bid.  The list holds 0 and, at every such meeting under both rules,
    the last bid whose score is below the other's, the first that equals
    it (ties go to the smaller id) when a float does, and the first above
    it; the largest outranks every other ad.  Bids past ``cap`` are
    dropped and ``cap`` is added.
    """
    profile = _check_bids(instance, bids)
    _, weight = _ranked(instance, profile)
    found = {0.0} if cap is None else {0.0, float(cap)}
    # a zero-quality agent's weighted score is 0 whatever it bids
    for rate, scores in ((1.0, profile), (instance.ad(agent).quality, weight)):
        for aid, target in scores.items():
            if aid != agent and rate > 0.0:
                first = _least_bid(rate, target, strict=False)
                found.update((math.nextafter(first, -math.inf), first, _least_bid(rate, target, strict=True)))
    return sorted(b for b in found if 0.0 <= b < math.inf and (cap is None or b <= cap))


def is_nash(
    instance: AuctionInstance,
    bids: BidProfile,
    mechanism: Callable[[AuctionInstance, BidProfile], MechanismOutcome],
    grids: Mapping[int, Sequence[float]],
    eps: float = 1e-9,
) -> NashCheck:
    """Checks the profile against unilateral deviations drawn from grids.

    A profile passes when no listed deviation raises the deviator's
    utility by more than eps; a deviation outside the grids is never
    considered.  For gsp_outcome and vcg_pdc_outcome, _rank_deviations
    lists a set that leaves none out.
    """
    base = mechanism(instance, bids)
    best: NashCheck | None = None
    for agent, candidates in grids.items():
        current = base.utilities[agent]
        for alt in candidates:
            if alt == bids[agent]:
                continue
            trial = dict(bids)
            trial[agent] = alt
            gain = mechanism(instance, trial).utilities[agent] - current
            if gain > eps and (best is None or gain > best.gain):
                best = NashCheck(False, agent=agent, bid=float(alt), gain=float(gain))
    return best if best is not None else NashCheck(True)
