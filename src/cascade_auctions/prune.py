"""Safe instance shrinking via pairwise dominance.

For two ads a, b consider the scenario quantities x (the probability weight
with which the user continues below a swapped pair) and y (the value
accumulated below it).  The swap margin

    w(a, b, x, y) = x * (wv_b * c_a - wv_a * c_b) + y * (c_a - c_b)
                    + (wv_a - wv_b)

is affine in (x, y), so positivity over the whole scenario rectangle
[0, lambda_max] x [0, B] only needs checking at its four corners.  When it
holds, a beats b in every context: any allocation placing b can be strictly
improved by swapping a in, so an ad with at least K such dominators can
never appear in an optimal allocation and may be dropped.  B must upper
bound the value an allocation can accumulate; two cheap bounds are provided
and the tighter one is used by default.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import Ad, AuctionError, AuctionInstance, SlotLadder
from .sorted_dp import sorted_ads

__all__ = [
    "DominanceTieError",
    "DominanceParams",
    "DominanceReport",
    "RankVector",
    "w_value",
    "dominates",
    "const_lambda_bound",
    "decouple_bounds",
    "choose_bound",
    "rank_vectors",
    "count_dominators_naive",
    "count_dominators_fast",
    "prune_instance",
]


class DominanceTieError(AuctionError):
    """A corner ordering has a tie; the rank-based counter is not applicable."""


@dataclass(frozen=True)
class DominanceParams:
    """Scenario rectangle for dominance checks.

    Attributes:
        lambda_max: Largest slot factor with a slot below it.
        bound: Upper bound B on the welfare any allocation can accumulate
            below a swapped pair.
    """

    lambda_max: float
    bound: float

    @property
    def corners(self) -> tuple[tuple[float, float], ...]:
        return (
            (0.0, 0.0),
            (self.lambda_max, 0.0),
            (0.0, self.bound),
            (self.lambda_max, self.bound),
        )


@dataclass(frozen=True)
class RankVector:
    """Per-ad ranks in the four corner orderings.

    ``at_zero`` holds the ranks at the two y=0 corners; they decide
    dominance by ads with strictly larger continuation (the margin of such
    a dominator grows with y, so its minimum sits at y=0).  ``at_bound``
    holds the ranks at the two y=B corners, deciding dominance by ads with
    smaller or equal continuation.  Rank 1 is the most dominant.
    """

    at_zero: tuple[int, int]
    at_bound: tuple[int, int]


@dataclass(frozen=True)
class DominanceReport:
    """What prune_instance did.

    ``dom_counts`` maps every original ad id to its dominator count: the
    final-round count for survivors, the count at discard time otherwise.
    """

    dom_counts: dict[int, int]
    surviving: tuple[int, ...]
    discarded: tuple[int, ...]
    bound_used: DominanceParams
    iterations: int
    used_fast: bool
    fallbacks: int


def w_value(a: Ad, b: Ad, x: float, y: float) -> float:
    """Swap margin of a over b at scenario point (x, y).

    Positive means placing a where b sits (with b moved to a's position or
    out) strictly improves welfare in a context summarized by (x, y).
    Antisymmetric in (a, b).
    """
    wa, wb = a.weighted_value, b.weighted_value
    ca, cb = a.continuation, b.continuation
    return x * (wb * ca - wa * cb) + y * (ca - cb) + (wa - wb)


def dominates(a: Ad, b: Ad, params: DominanceParams) -> bool:
    """True when a's swap margin over b is positive on the whole rectangle."""
    return all(w_value(a, b, x, y) > 0.0 for x, y in params.corners)


def _const_lambda_order(instance: AuctionInstance, lam: float) -> tuple[int, ...]:
    def key(ad: Ad) -> tuple[float, float, int]:
        denom = 1.0 - lam * ad.continuation
        if denom <= 0.0:
            return (-np.inf, -ad.weighted_value, ad.id)
        return (-(ad.weighted_value / denom), 0.0, ad.id)

    return tuple(ad.id for ad in sorted(instance.ads, key=key))


def const_lambda_bound(instance: AuctionInstance) -> float:
    """Exact optimum of the relaxation where every slot factor is lambda_max.

    Raising each factor to the maximum can only increase welfare, and the
    constant-factor problem is solved exactly by the order-restricted DP on
    ads sorted by descending wv / (1 - lambda_max * c).
    """
    lam = instance.ladder.max_factor
    k = instance.num_slots
    relaxed = AuctionInstance(
        instance.ads, SlotLadder.from_factors([lam] * (k - 1), num_slots=k)
    )
    order = _const_lambda_order(instance, lam)
    return sorted_ads(relaxed, order).value


def decouple_bounds(instance: AuctionInstance) -> np.ndarray:
    """Upper bounds UB(k) on the welfare of any allocation of slots k..K.

    Bounds each term of the welfare sum separately: the i-th allocated ad
    is worth at most the i-th largest weighted value, discounted by the
    i-1 largest continuations and the slot factors below slot k.  Direct
    O(K^2) summation.
    """
    k = instance.num_slots
    wv, cont = instance.arrays()
    vs = np.sort(wv)[::-1][:k]
    cs = np.sort(cont)[::-1][:k]
    lam = np.array(instance.ladder.effective_factors, dtype=float)
    out = np.empty(k, dtype=float)
    for start in range(1, k + 1):  # start = slot index k in the formula
        total = vs[0]
        coef = 1.0
        for t in range(1, k - start + 1):
            coef *= cs[t - 1] * lam[start + t - 2]
            total += vs[t] * coef
        out[start - 1] = total
    return out


def choose_bound(instance: AuctionInstance, strategy: str = "min") -> DominanceParams:
    """Builds the scenario rectangle for dominance checks.

    Strategies: "const-lambda", "decouple", "min" (default: the smaller of
    the two), and "aggressive" (max over k of lambda_k * UB(k+1), a valid
    bound on the value that can sit strictly below a swapped pair; tighter
    but less conservative).
    """
    lam_max = instance.ladder.max_factor
    if strategy == "const-lambda":
        bound = const_lambda_bound(instance)
    elif strategy == "decouple":
        bound = float(decouple_bounds(instance)[0])
    elif strategy == "min":
        bound = min(const_lambda_bound(instance), float(decouple_bounds(instance)[0]))
    elif strategy == "aggressive":
        ub = decouple_bounds(instance)
        lam = instance.ladder.effective_factors
        k = instance.num_slots
        bound = max((lam[i] * float(ub[i + 1]) for i in range(k - 1)), default=0.0)
    else:
        raise ValueError(f"unknown bound strategy {strategy!r}")
    return DominanceParams(lambda_max=lam_max, bound=bound)


# ---------------------------------------------------------------------------
# Dominator counting.
# ---------------------------------------------------------------------------


def _dominance_matrix(instance: AuctionInstance, params: DominanceParams, chunk: int = 256) -> np.ndarray:
    """Boolean matrix dom[i, j]: ad i dominates ad j."""
    wv, cont = instance.arrays()
    n = len(wv)
    out = np.empty((n, n), dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        wvi = wv[lo:hi, None]
        ci = cont[lo:hi, None]
        x_coef = ci * wv[None, :] - wvi * cont[None, :]
        y_coef = ci - cont[None, :]
        const = wvi - wv[None, :]
        ok = np.ones((hi - lo, n), dtype=bool)
        for x, y in params.corners:
            ok &= (x * x_coef + y * y_coef + const) > 0.0
        out[lo:hi] = ok
    return out


def count_dominators_naive(instance: AuctionInstance, params: DominanceParams) -> dict[int, int]:
    """Dominator count per ad by checking all ordered pairs; O(N^2)."""
    dom = _dominance_matrix(instance, params)
    counts = dom.sum(axis=0)
    return {ad.id: int(c) for ad, c in zip(instance.ads, counts)}


def _corner_ranks(wv: np.ndarray, cont: np.ndarray, x: float, y: float) -> np.ndarray:
    """Ranks (1 = most dominant) in the total corner order, or raises on ties.

    At a fixed corner the pairwise margin orders ads by the single key
    (1 - c*x) / (wv + c*y), smaller first.  The ranking is cross-checked
    against the pairwise margin of adjacent ads so that any tie or
    inconsistency triggers the naive fallback.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (1.0 - cont * x) / (wv + cont * y)
    if np.isnan(g).any():
        raise DominanceTieError("degenerate corner key (0/0)")
    order = np.argsort(g, kind="stable")
    gs = g[order]
    if np.any(gs[1:] == gs[:-1]):
        raise DominanceTieError("tied corner keys")
    i, j = order[:-1], order[1:]
    margin = x * (cont[i] * wv[j] - wv[i] * cont[j]) + y * (cont[i] - cont[j]) + (wv[i] - wv[j])
    if np.any(margin <= 0.0):
        raise DominanceTieError("corner order not strict")
    ranks = np.empty(len(g), dtype=np.int64)
    ranks[order] = np.arange(1, len(g) + 1)
    return ranks


def rank_vectors(instance: AuctionInstance, params: DominanceParams) -> dict[int, RankVector]:
    """Corner rank vectors per ad id.  Raises DominanceTieError on any tie."""
    wv, cont = instance.arrays()
    b = params.bound
    lm = params.lambda_max
    r00 = _corner_ranks(wv, cont, 0.0, 0.0)
    rl0 = _corner_ranks(wv, cont, lm, 0.0)
    r0b = _corner_ranks(wv, cont, 0.0, b)
    rlb = _corner_ranks(wv, cont, lm, b)
    return {
        ad.id: RankVector(at_zero=(int(r00[i]), int(rl0[i])), at_bound=(int(r0b[i]), int(rlb[i])))
        for i, ad in enumerate(instance.ads)
    }


class _PlaneCounter:
    """Dynamic 2-D dominance counter over a fixed point set.

    Points are (r1, r2) with r1 a permutation of 1..n.  A Fenwick tree over
    r1 holds, per node, the sorted r2 values of its covered points plus an
    inner Fenwick of activation counts, giving insert / erase /
    count-strictly-below in O(log^2 n).
    """

    def __init__(self, points: list[tuple[int, int]], active: bool) -> None:
        self.n = len(points)
        n = self.n
        self._member_r2: list[list[int]] = [[] for _ in range(n + 1)]
        for r1, r2 in points:
            j = r1
            while j <= n:
                self._member_r2[j].append(r2)
                j += j & (-j)
        self._trees: list[list[int]] = []
        for j in range(n + 1):
            self._member_r2[j].sort()
            m = len(self._member_r2[j])
            if active:
                # Fenwick tree of all-ones: node i stores its span length
                self._trees.append([0] + [(i & (-i)) for i in range(1, m + 1)])
            else:
                self._trees.append([0] * (m + 1))

    def _update(self, r1: int, r2: int, delta: int) -> None:
        j = r1
        while j <= self.n:
            tree = self._trees[j]
            i = bisect_left(self._member_r2[j], r2) + 1
            while i < len(tree):
                tree[i] += delta
                i += i & (-i)
            j += j & (-j)

    def insert(self, r1: int, r2: int) -> None:
        self._update(r1, r2, 1)

    def erase(self, r1: int, r2: int) -> None:
        self._update(r1, r2, -1)

    def count_below(self, r1: int, r2: int) -> int:
        """Number of active points with both coordinates strictly smaller."""
        total = 0
        j = r1 - 1
        while j > 0:
            tree = self._trees[j]
            i = bisect_left(self._member_r2[j], r2)
            while i > 0:
                total += tree[i]
                i -= i & (-i)
            j -= j & (-j)
        return total


def _fast_counts(instance: AuctionInstance, params: DominanceParams) -> np.ndarray:
    """Rank-based dominator counting; raises DominanceTieError on ties.

    Scans ads by decreasing continuation.  Dominators with larger
    continuation have already been processed and are found through the
    y=0 corner ranks; the rest are still present in the y=B structure.
    """
    ranks = rank_vectors(instance, params)
    n = instance.num_ads
    ads = instance.ads
    at_zero = [ranks[ad.id].at_zero for ad in ads]
    at_bound = [ranks[ad.id].at_bound for ad in ads]

    low = _PlaneCounter(at_bound, active=True)
    high = _PlaneCounter(at_zero, active=False)
    counts = np.zeros(n, dtype=np.int64)
    scan = sorted(range(n), key=lambda i: (-ads[i].continuation, ads[i].id))
    for i in scan:
        z1, z2 = at_zero[i]
        b1, b2 = at_bound[i]
        counts[i] = high.count_below(z1, z2) + low.count_below(b1, b2)
        high.insert(z1, z2)
        low.erase(b1, b2)
    return counts


def count_dominators_fast(instance: AuctionInstance, params: DominanceParams) -> dict[int, int]:
    """Same counts as count_dominators_naive in O(N log^2 N).

    Requires the four corner orders to be strict; falls back to the naive
    count transparently when a tie is detected.
    """
    try:
        counts = _fast_counts(instance, params)
    except DominanceTieError:
        return count_dominators_naive(instance, params)
    return {ad.id: int(c) for ad, c in zip(instance.ads, counts)}


def prune_instance(
    instance: AuctionInstance,
    strategy: str = "min",
    use_fast: bool = False,
    discard_threshold: int | None = None,
) -> tuple[AuctionInstance, DominanceReport]:
    """Iteratively drops ads that can never be part of an optimal allocation.

    An ad with at least K dominators (K+1 under a stricter opt-in
    threshold) is discarded; bounds and counts are then recomputed on the
    shrunk instance until a fixpoint.  The optimum of the reduced instance
    equals the optimum of the original.
    """
    k = instance.num_slots
    threshold = k if discard_threshold is None else discard_threshold
    if threshold < k:
        raise ValueError(f"discard threshold {threshold} below slot count {k} is unsafe")

    current = instance
    dom_counts: dict[int, int] = {}
    discarded: list[int] = []
    fallbacks = 0
    iterations = 0
    while True:
        iterations += 1
        params = choose_bound(current, strategy)
        if use_fast:
            try:
                arr = _fast_counts(current, params)
                counts = {ad.id: int(c) for ad, c in zip(current.ads, arr)}
            except DominanceTieError:
                fallbacks += 1
                counts = count_dominators_naive(current, params)
        else:
            counts = count_dominators_naive(current, params)
        dom_counts.update(counts)
        drop = [aid for aid, c in counts.items() if c >= threshold]
        if not drop or iterations >= instance.num_ads:
            break
        discarded.extend(drop)
        keep = [ad.id for ad in current.ads if counts[ad.id] < threshold]
        current = current.restricted_to(keep)

    report = DominanceReport(
        dom_counts=dom_counts,
        surviving=current.ids,
        discarded=tuple(discarded),
        bound_used=params,
        iterations=iterations,
        used_fast=use_fast,
        fallbacks=fallbacks,
    )
    return current, report
