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

The leave-one-out reruns of one outcome, and the outcomes an
equilibrium check builds for each deviation, all use one seed on at
most two ad counts.  The approximate allocators memoize their colorings
and orders on (sizes, seed), so those reruns draw them once, and they
price every ad from one batched, value-only pass: every leave-one-out
instance reuses the same (n-1)-ad draws, read through indices that skip
the dropped ad, so each value is the float a separate rerun would give.
That sharing rests on the same fact as truthfulness: the draws never
depend on a bid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import coloring, sorted_dp
from .coloring import colored_ads
from .exact import solve_exact
from .model import (
    Allocation,
    AuctionError,
    AuctionInstance,
    _ctrs,
    _leave_one_out_context,
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
    """Outcome of a grid deviation search.

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
        profile[aid] = b
    if len(bids) != instance.num_ads:
        extra = set(bids) - set(profile)
        raise ValueError(f"bid profile names unknown ads {sorted(extra)}")
    return profile


def _settle(
    instance: AuctionInstance,
    mechanism: str,
    alloc: Allocation,
    payments: dict[int, float],
    allocator: str | None = None,
) -> MechanismOutcome:
    clicks = _ctrs(instance, alloc)
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
    k = instance.num_slots
    quality = dict(zip(instance.ids, instance.quality.tolist()))

    def score(aid: int) -> float:
        return quality[aid] * profile[aid] if rank_by_quality else profile[aid]

    ranking = sorted(instance.ids, key=lambda aid: (-score(aid), aid))
    alloc = Allocation(tuple(ranking[:k]))
    payments = dict.fromkeys(instance.ids, 0.0)
    for pos, aid in enumerate(ranking[:k]):
        if pos + 1 < len(ranking):
            nxt = ranking[pos + 1]
            payments[aid] = quality[nxt] * profile[nxt]
    return _settle(instance, "gsp", alloc, payments)


def vcg_pdc_outcome(instance: AuctionInstance, bids: BidProfile) -> MechanismOutcome:
    """VCG in the declared continuation-free model.

    Declared welfare of an allocation is the sum of quality * bid * slot
    prominence, so the declared optimum just ranks by quality-weighted
    bid.  Clarke payments within that model never involve the
    continuation parameters; utilities of course do.
    """
    profile = _check_bids(instance, bids)
    k = instance.num_slots
    prom = instance.ladder.prominences
    quality = dict(zip(instance.ids, instance.quality.tolist()))

    def weight(aid: int) -> float:
        return quality[aid] * profile[aid]

    ranking = sorted(instance.ids, key=lambda aid: (-weight(aid), aid))
    alloc = Allocation(tuple(ranking[:k]))
    declared = {aid: weight(aid) * prom[pos] for pos, aid in enumerate(ranking[:k])}

    payments = dict.fromkeys(instance.ids, 0.0)
    for aid in ranking[:k]:
        others = [o for o in ranking if o != aid]
        without = sum(weight(o) * prom[p] for p, o in enumerate(others[:k]))
        kept = sum(declared.values()) - declared[aid]
        payments[aid] = without - kept
    return _settle(instance, "vcg-pdc", alloc, payments)


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
    feasible and still optimal, so its Clarke payment is zero.  The
    approximate allocators price every ad, since their range depends on
    the ad set, but compute all the leave-one-out values in one batched,
    value-only pass (``_leave_one_out_values`` of coloring and
    sorted_dp).  Without ad j the rerun would draw the same (n-1)-ad
    colorings or orders, since they depend only on (sizes, seed); the
    batch reads them through indices that skip j, so each column sees the
    same ads, colors and factors in the same order, and the kernels,
    whose columns are independent and whose max is exact, give each
    value bit for bit.  No allocation is built for a rerun.

    Raises:
        IncompleteSolveError: an exact solve, of the reported instance or
            of a winner's leave-one-out instance, exhausted ``budget``;
            its best allocation so far would not give VCG payments.
    """
    if allocator not in _APDC_ALLOCATORS:
        raise ValueError(f"allocator must be one of {_APDC_ALLOCATORS}, got {allocator!r}")
    profile = _check_bids(instance, bids)
    reported = instance.with_values(profile)

    def run(inst: AuctionInstance) -> tuple[Allocation, float]:
        if allocator == "exact":
            res = solve_exact(inst, budget=budget)
            if not res.complete:
                raise IncompleteSolveError(inst.ids, budget)
            return res.best_alloc, res.best_value
        if allocator == "colored":
            res = colored_ads(inst, iterations=iterations, seed=seed)
            return res.alloc, res.value
        res = multi_order_approx(
            inst, order_count=order_count, seed=seed, include_natural=False
        )
        return res.alloc, res.value

    alloc, _ = run(reported)
    clicks = _ctrs(reported, alloc)
    total_reported = sum(profile[aid] * clicks[aid] for aid in alloc.slots)

    if allocator == "exact":
        # n = 1 leaves no ad to rerun on, and no ladder to run it with
        context = _leave_one_out_context(reported) if reported.num_ads > 1 else None
        best_without = {
            aid: 0.0 if context is None else run(context.without(aid))[1]
            for aid in reported.ids if aid in clicks
        }
    else:
        if allocator == "colored":
            values = coloring._leave_one_out_values(reported, iterations=iterations, seed=seed)
        else:
            values = sorted_dp._leave_one_out_values(reported, order_count=order_count, seed=seed)
        best_without = dict(zip(reported.ids, values.tolist()))

    payments = dict.fromkeys(instance.ids, 0.0)
    for aid, without in best_without.items():
        own = profile[aid] * clicks[aid] if aid in clicks else 0.0
        payments[aid] = without - (total_reported - own)
    return _settle(instance, "vcg-apdc", alloc, payments, allocator=allocator)


def is_nash(
    instance: AuctionInstance,
    bids: BidProfile,
    mechanism: Callable[[AuctionInstance, BidProfile], MechanismOutcome],
    grids: Mapping[int, Sequence[float]],
    eps: float = 1e-9,
) -> NashCheck:
    """Checks the profile against unilateral deviations drawn from grids.

    A profile passes when no listed deviation raises the deviator's
    utility by more than eps.  Grid search only: a deviation outside the
    grids is never considered.
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
