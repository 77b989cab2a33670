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

prune_instance counts dominators with a K-skyband filter (Papadias, Tao, Fu
and Seeger, "Progressive skyline computation in database systems", ACM
TODS 2005).  At a corner (x, y) the margin factors as the cross product

    (wv_a + y * c_a) * (1 - x * c_b) - (wv_b + y * c_b) * (1 - x * c_a)

of two vectors in the nonnegative quadrant, so each corner orders the ads
by angle and dominance (a positive margin at all four corners) is a strict
partial order: every dominator of a dominator of b also dominates b.

Call the ads with fewer than T dominators the T-skyband.  Let b have at
least T dominators.  If none of them has T or more dominators, all of
them lie in the skyband.  Otherwise pick, among b's dominators with T or
more dominators, one that no other of them dominates; its own dominators
all dominate b, none of them has T or more dominators, and there are at
least T of them.  Either way b has at least T dominators in the skyband.
A survivor's dominators each have fewer dominators than it has, so they
all lie in the skyband as well.  At corner (0, 0) the margin is exactly
wv_a - wv_b, so a dominator has strictly larger wv, in floats as well.
Scanning ads by decreasing wv and counting each block's dominators among
the skyband found so far plus the block itself therefore keeps exactly
the ads the all-pairs count keeps, and gives survivors their exact counts.

In floats the margin expression is evaluated as written, not factored, and
rounding could in principle break transitivity.  The skyband count only
ever counts a subset of an ad's dominators, so it never exceeds the
all-pairs count: a rounding failure could keep an extra ad, never drop one
that the all-pairs count keeps.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import Ad, AuctionError, AuctionInstance
from .sorted_dp import _density_order, _dp_rows

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

    ``dom_counts`` maps every original ad id to a dominator count.  For a
    survivor it is the exact count in the final round.  For a discarded ad
    it is the number of dominators the skyband filter found in the round
    that dropped it: a lower bound on the exact count, at least the discard
    threshold.

    ``fallbacks`` is always 0.  It stays because the benchmark's tracer
    reads it from every report.
    """

    dom_counts: dict[int, int]
    surviving: tuple[int, ...]
    discarded: tuple[int, ...]
    bound_used: DominanceParams
    iterations: int
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


def const_lambda_bound(instance: AuctionInstance) -> float:
    """Exact optimum of the relaxation where every slot factor is lambda_max.

    Raising each factor to the maximum can only increase welfare, and the
    constant-factor problem is solved exactly by sorted_dp's take-or-skip
    kernel over the value-density order at lambda_max (sorted_dp's kernel).
    """
    lam = instance.ladder.max_factor
    wv, cont = instance.arrays()
    order = _density_order(instance, lam)
    return float(_dp_rows(wv[order], cont[order], (lam,) * (instance.num_slots - 1))[0, 0])


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
        return _min_params(instance, decouple_bounds(instance))
    elif strategy == "aggressive":
        ub = decouple_bounds(instance)
        lam = instance.ladder.effective_factors
        k = instance.num_slots
        bound = max((lam[i] * float(ub[i + 1]) for i in range(k - 1)), default=0.0)
    else:
        raise ValueError(f"unknown bound strategy {strategy!r}")
    return DominanceParams(lambda_max=lam_max, bound=bound)


def _min_params(instance: AuctionInstance, ub: np.ndarray) -> DominanceParams:
    """choose_bound's "min" rectangle, given ``ub = decouple_bounds(instance)``."""
    return DominanceParams(instance.ladder.max_factor, min(const_lambda_bound(instance), float(ub[0])))


# ---------------------------------------------------------------------------
# Dominator counting.
# ---------------------------------------------------------------------------


def _dominance_block(
    wv_a: np.ndarray, c_a: np.ndarray, wv_b: np.ndarray, c_b: np.ndarray, params: DominanceParams
) -> np.ndarray:
    """Boolean block dom[i, j]: ad a_i dominates ad b_j.

    The one home of the four-corner margin expression; every counter
    builds on it, so their counts agree bit for bit.
    """
    wvi = wv_a[:, None]
    ci = c_a[:, None]
    x_coef = ci * wv_b[None, :] - wvi * c_b[None, :]
    y_coef = ci - c_b[None, :]
    const = wvi - wv_b[None, :]
    corners = iter(params.corners)
    x, y = next(corners)
    ok = (x * x_coef + y * y_coef + const) > 0.0
    for x, y in corners:
        ok &= (x * x_coef + y * y_coef + const) > 0.0
    return ok


def _dominance_matrix(instance: AuctionInstance, params: DominanceParams) -> np.ndarray:
    """Boolean matrix dom[i, j]: ad i dominates ad j.  N x N; small N only."""
    wv, cont = instance.arrays()
    return _dominance_block(wv, cont, wv, cont, params)


# elements per temporary in the chunked all-pairs count: 64 KB arrays stay
# in cache and below the size at which malloc maps fresh pages per call
_PAIR_CHUNK = 1 << 13


def count_dominators_naive(instance: AuctionInstance, params: DominanceParams) -> dict[int, int]:
    """Dominator count per ad by checking all ordered pairs; O(N^2) time.

    Sums the dominance matrix a row chunk at a time; a chunk holds about
    _PAIR_CHUNK pairs (one row once N is larger), so temporaries stay O(N).
    """
    wv, cont = instance.arrays()
    n = len(wv)
    chunk = max(1, _PAIR_CHUNK // n)
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, chunk):
        counts += _dominance_block(wv[lo : lo + chunk], cont[lo : lo + chunk], wv, cont, params).sum(axis=0)
    return dict(zip(instance.ids, counts.tolist()))


# ads per block of the skyband scan
_SKYBAND_BLOCK = 64


def _skyband_counts(instance: AuctionInstance, params: DominanceParams, threshold: int) -> np.ndarray:
    """Dominators per ad (in ad order) found by a threshold-skyband scan.

    Walks the ads by decreasing wv (stably) in fixed blocks and counts each
    block's dominators among the skyband so far plus the block itself; the
    block's ads with fewer than ``threshold`` dominators join the skyband.
    Ads below the threshold get their exact count; the others get a count
    of at least ``threshold`` (see the module docstring).
    """
    wv, cont = instance.arrays()
    n = len(wv)
    order = np.argsort(-wv, kind="stable")
    wv_s, c_s = wv[order], cont[order]
    # the skyband fills the first m entries; each block is staged right
    # after it so that one block call covers skyband and block together
    sky_wv = np.empty(n)
    sky_c = np.empty(n)
    counts = np.empty(n, dtype=np.int64)
    m = 0
    for lo in range(0, n, _SKYBAND_BLOCK):
        bw = wv_s[lo : lo + _SKYBAND_BLOCK]
        bc = c_s[lo : lo + _SKYBAND_BLOCK]
        end = m + len(bw)
        sky_wv[m:end] = bw
        sky_c[m:end] = bc
        got = _dominance_block(sky_wv[:end], sky_c[:end], bw, bc, params).sum(axis=0)
        counts[order[lo : lo + _SKYBAND_BLOCK]] = got
        keep = got < threshold
        kept = m + int(keep.sum())
        sky_wv[m:kept] = bw[keep]
        sky_c[m:kept] = bc[keep]
        m = kept
    return counts


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
        aid: RankVector(at_zero=(int(r00[i]), int(rl0[i])), at_bound=(int(r0b[i]), int(rlb[i])))
        for i, aid in enumerate(instance.ids)
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
    ids = instance.ids
    at_zero = [ranks[aid].at_zero for aid in ids]
    at_bound = [ranks[aid].at_bound for aid in ids]
    cont = instance.continuation.tolist()

    low = _PlaneCounter(at_bound, active=True)
    high = _PlaneCounter(at_zero, active=False)
    counts = np.zeros(n, dtype=np.int64)
    scan = sorted(range(n), key=lambda i: (-cont[i], ids[i]))
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
    return dict(zip(instance.ids, counts.tolist()))


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
    equals the optimum of the original.  Each round counts with the skyband
    scan.  ``use_fast`` changes nothing; it is still accepted because the
    benchmark's workloads pass it.
    """
    k = instance.num_slots
    threshold = k if discard_threshold is None else discard_threshold
    if threshold < k:
        raise ValueError(f"discard threshold {threshold} below slot count {k} is unsafe")

    current = instance
    dom_counts: dict[int, int] = {}
    discarded: list[int] = []
    iterations = 0
    while True:
        iterations += 1
        params = choose_bound(current, strategy)
        counts = _skyband_counts(current, params, threshold)
        ids = current.ids
        dom_counts.update(zip(ids, counts.tolist()))
        dropped = (counts >= threshold).tolist()
        if not any(dropped) or iterations >= instance.num_ads:
            break
        discarded.extend(aid for aid, d in zip(ids, dropped) if d)
        current = current.restricted_to(aid for aid, d in zip(ids, dropped) if not d)

    report = DominanceReport(
        dom_counts=dom_counts,
        surviving=current.ids,
        discarded=tuple(discarded),
        bound_used=params,
        iterations=iterations,
        fallbacks=0,
    )
    return current, report
