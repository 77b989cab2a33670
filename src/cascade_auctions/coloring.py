"""Randomized winner determination by color coding.

Each pass assigns every ad one of K colors, uniformly over the colorings
that use all K colors, and solves the restricted problem where the chosen
allocation must pick exactly one ad per color.  That restriction shrinks
the search to a subset DP over colors, 2^K states instead of K! orderings.
A pass returns the welfare of a feasible allocation, so it never
overshoots; it matches the optimum whenever the coloring happens to give
the K ads of an optimal allocation distinct colors.  Repeating R
independent passes misses with probability at most (1 - e^-K)^R, about 1/2
at the default R = ceil(e^K * ln 2).

One numpy kernel, _pass_memo, runs the DP for a whole batch of colorings
at once, with the 2^K color subsets on the first axis of its memo table;
each state reads K predecessors per coloring, one per color, not one per
ad.  No choice table is kept: the winning allocation is replayed from the
winning pass's memo column, taking at each state the first ad whose value
reproduces the memo entry exactly; the replay, _backtrack, is a scalar
loop in Python floats, since a few dozen candidates cost less that way
than NumPy's per-call overhead.  colored_pass is the same kernel on a
batch of one.  _leave_one_out runs it on the passes of every instance
that drops one ad at once, each column padded to n ads by repeating its
last ad, for a VCG outcome's prices; below K = n the outcome's own passes
join those calls, so one call per batch and memory group gives both the
winner and every leave-one-out value (_pricing).

The colorings of a batch are a pure function of (ads, colors, chunk,
seed, batch index): no value or bid enters them.  colored_ads therefore
memoizes the rows it uses in a small cache.  A VCG mechanism reruns the
allocator once per bidder and once per deviation it checks, always with
the same seed and ad count, so those reruns reuse one draw.  Sharing it
is the same bid-independence that keeps the mechanism truthful: the
range of allocations a seed can reach never depends on what anyone bids.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .model import Allocation, AuctionError, AuctionInstance, _leave_one_out_context

__all__ = [
    "Coloring", "NoColoringsError", "NaNPassesError", "ColorPassResult", "ColoredResult",
    "default_iterations", "miss_probability_bound", "draw_colorings",
    "colored_pass", "colored_ads",
]

Coloring = tuple[int, ...]


class NoColoringsError(AuctionError):
    """colored_ads was asked to run zero passes."""


class NaNPassesError(AuctionError):
    """A color-coding pass, or every pass of a run, has the value NaN, so it
    has no allocation (the NaN rule of _pass_memo)."""


@dataclass(frozen=True)
class ColorPassResult:
    """Best allocation consistent with one coloring."""

    value: float
    alloc: Allocation
    coloring: Coloring


@dataclass(frozen=True)
class ColoredResult:
    """Best pass over a seeded sequence of colorings.

    ``iteration`` is the index of the winning pass; ties go to the lowest
    index.  ``iterations_run`` can fall short of the request when a time
    budget interrupts between batches.
    """

    value: float
    alloc: Allocation
    coloring: Coloring
    iteration: int
    iterations_run: int


def default_iterations(num_slots: int) -> int:
    """Pass count bringing the miss probability down to about 1/2."""
    return math.ceil(math.exp(num_slots) * math.log(2))


def miss_probability_bound(num_slots: int, iterations: int) -> float:
    """Upper bound on the probability that no pass saw an optimal set."""
    return (1.0 - math.exp(-num_slots)) ** iterations


@lru_cache(maxsize=None)
def _surjection_table(num_ads: int, num_colors: int) -> tuple[tuple[int, ...], ...]:
    """A[n][u]: colorings of n ads where u marked colors must all appear.

    Inclusion-exclusion over the marked colors that stay absent.  Exact
    integers; only used for modest n (larger draws go through rejection),
    so the bigint-to-float ratios below stay in range.
    """
    k = num_colors
    return tuple(
        tuple(
            sum((-1) ** j * math.comb(u, j) * (k - j) ** n for j in range(u + 1))
            for u in range(k + 1)
        )
        for n in range(num_ads + 1)
    )


@lru_cache(maxsize=None)
def _new_color_probabilities(num_ads: int, num_colors: int) -> np.ndarray:
    """P[i, s]: chance ad i gets a fresh color when s colors are in use.

    Under the uniform law over colorings that use every color, ad i takes
    one of the u = K - s unused colors with probability u * A[m-1][u-1] /
    A[m][u], m = n - i being the ads left, tabulated here as floats.
    States with more colors missing than ads left are unreachable; they
    get 1.0 so vectorized gathers stay finite.
    """
    table = _surjection_table(num_ads, num_colors)
    k = num_colors
    probs = np.zeros((num_ads, k + 1), dtype=np.float64)
    for i in range(num_ads):
        m = num_ads - i
        for s in range(k + 1):
            u = k - s  # u == 0 keeps 0.0
            if u > m:
                probs[i, s] = 1.0
            elif u:
                probs[i, s] = u * table[m - 1][u - 1] / table[m][u]
    return probs


def _draw_colorings_chain(
    num_ads: int, num_colors: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized conditional-chain sampler; one rng, ``count`` rows.

    Draws ad by ad with the exact conditional probabilities of the uniform
    law over colorings that use every color.  Which positions introduce a
    fresh color, and which earlier color a repeat copies, have label-free
    probabilities, so the chain runs on counts alone; actual labels then
    come from one uniform permutation per row.
    """
    probs = _new_color_probabilities(num_ads, num_colors)
    used = np.zeros(count, dtype=np.int64)
    appearance = np.empty((count, num_ads), dtype=np.int64)
    for i in range(num_ads):
        is_new = rng.random(count) < probs[i, used]
        old_pick = rng.integers(0, np.maximum(used, 1))
        appearance[:, i] = np.where(is_new, used, old_pick)
        used += is_new
    labels = rng.permuted(
        np.tile(np.arange(1, num_colors + 1, dtype=np.int64), (count, 1)), axis=1
    )
    return labels[np.arange(count)[:, None], appearance]


def draw_colorings(
    num_ads: int, num_colors: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` independent colorings, one row each, in colors 1..K.

    Each row is uniform over the colorings of the ads that use every color
    at least once.  Past the coupon-collector regime (n >= 3K + 8) plain
    rejection rarely loops and is cheaper; below it the exact conditional
    chain draws them.  Rejection tests a row by OR-ing color c as bit c of
    one int64, hence at most 62 colors; the colored DP, with its table of
    2^K color subsets, never comes near that.  The first round draws every
    row in place; later rounds redraw only the rejected ones.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    if num_colors > 62:
        raise ValueError("at most 62 colors")
    if num_ads < num_colors:
        raise ValueError(
            f"cannot color {num_ads} ads onto {num_colors} colors surjectively"
        )
    if count < 0:
        raise ValueError("count must be nonnegative")
    k = num_colors
    if num_ads >= 3 * k + 8:
        all_colors = (1 << (k + 1)) - 2  # bits 1..k

        def covers(rows: np.ndarray) -> np.ndarray:
            return np.bitwise_or.reduce(1 << rows, axis=1) == all_colors

        out = rng.integers(1, k + 1, size=(count, num_ads))
        pending = np.flatnonzero(~covers(out))
        for _ in range(99):
            if pending.size == 0:
                return out
            cand = rng.integers(1, k + 1, size=(pending.size, num_ads))
            ok = covers(cand)
            out[pending[ok]] = cand[ok]
            pending = pending[~ok]
        # astronomically unlikely here; finish the stragglers exactly
        out[pending] = _draw_colorings_chain(num_ads, k, pending.size, rng)
        return out
    return _draw_colorings_chain(num_ads, k, count, rng)


# One VCG outcome alternates between the reported n-ad instance and its
# (n-1)-ad leave-one-out instances, which all share one key; two entries
# keep both warm across every rerun and every later deviation check, while
# callers that never repeat a key retain at most two blocks.
_BLOCK_CACHE_SIZE = 2


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _seeded_block(
    num_ads: int, num_colors: int, chunk: int, seed: int, batch: int, take: int
) -> np.ndarray:
    """First ``take`` rows of batch ``batch`` of colored_ads's stream, read-only.

    The whole ``chunk``-row batch is drawn, so the rows are those of the
    unmemoized stream; only the rows the passes use are kept.
    """
    rng = np.random.default_rng((seed, batch))
    block = draw_colorings(num_ads, num_colors, chunk, rng)
    if take < chunk:
        block = block[:take].copy()
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
def _subset_order(num_colors: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Nonempty subsets s by increasing size: (s, |s|, read-only s ^ (1 << c))."""
    order = sorted(range(1, 1 << num_colors), key=int.bit_count)
    preds = np.array(order)[:, None] ^ (1 << np.arange(num_colors))
    preds.flags.writeable = False
    return tuple(zip(order, map(int.bit_count, order), preds))


def _lam_by_size(instance: AuctionInstance) -> np.ndarray:
    """Continuation multiplier for the slot a subset of size t >= 1 starts at."""
    return np.array((0.0, *instance.ladder.effective_factors[::-1]))


def _check_coloring(instance: AuctionInstance, coloring: Sequence[int]) -> np.ndarray:
    k = instance.num_slots
    arr = np.asarray(coloring, dtype=np.int64)
    if arr.shape != (instance.num_ads,):
        raise ValueError(f"coloring has {arr.size} entries for {instance.num_ads} ads")
    if arr.min() < 1 or arr.max() > k:
        raise ValueError(f"colors must lie in 1..{k}")
    if len(np.unique(arr)) != k:
        raise ValueError("coloring must use every color at least once")
    return arr


def _pass_memo(
    instance: AuctionInstance, colorings: np.ndarray, ads: np.ndarray | None = None
) -> np.ndarray:
    """Subset DP of every coloring row at once.

    ``memo[s, r]`` is the best welfare of the last |s| slots using one ad
    per color of s under coloring row r, which colors the instance's ads
    in order or, given ``ads``, the ads at indices ``ads[:, r]``.  States
    run in increasing-size order, so ``memo[s ^ bit]`` is final when s
    reads it.  That predecessor depends only on an ad's color: each state
    gathers the K of them per row and spreads them to the ads through one
    fixed index.  An ad whose color s lacks reads ``s | bit``, still at
    its initial -inf, and gets -inf, or NaN where a zero factor or
    continuation makes its scale 0; ``fmax`` skips both, so no mask is
    needed.  Each candidate is ``wv + (c * lambda) * prev`` in that order
    of operations, and a column's max involves no other column and is
    exact, so a pass's column is the same, bit for bit, whatever batch it
    runs in; _backtrack relies on recomputing it.  NaN rule, as in
    sorted_dp: a sum may overflow to inf, a zero scale times inf is a NaN
    candidate, and fmax skips it, so neither warns.

    Layout rule: every (n, rows) operand of the state loop is C-ordered,
    whatever the layout of ``colorings``, so each pass over it walks
    memory in order (``wv[ads]`` takes the layout of ``ads``, which
    _leave_one_out builds C-ordered).  ``colorings.T`` is a transposed
    view, and an index computed from it keeps that layout unless asked for
    C order: ``take`` then strides n entries per read, about 4.3 ns an
    entry against 0.7 ns on a C-ordered index (n=35, 761 rows).  Without
    ``ads``, wv and the
    continuations are repeated to full arrays, since ``*=`` and ``+=``
    against an (n, 1) column run NumPy's broadcast loops, about 1.1 ns an
    entry for the pair against 0.4 ns.  Layout changes no float.
    """
    wv, cont = instance.arrays()
    k = instance.num_slots
    rows = colorings.shape[0]
    if ads is None:
        wv, cont = (a.repeat(rows).reshape(-1, rows) for a in (wv, cont))
    else:
        wv, cont = wv[ads], cont[ads]
    lam_by_size = _lam_by_size(instance)
    # ad a of row r reads entry (color - 1, r) of the (K, rows) table
    spread = np.multiply(colorings.T, rows, order="C")
    spread += np.arange(-rows, 0)
    memo = np.full((1 << k, rows), -math.inf)
    memo[0] = 0.0
    size = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the NaN rule
        for s, t, preds in _subset_order(k):
            if t != size:
                size = t
                scale = cont * lam_by_size[size]
            cand = memo[preds].take(spread)
            cand *= scale
            cand += wv
            memo[s] = np.fmax.reduce(cand, axis=0)
    return memo


def _backtrack(instance: AuctionInstance, colors: np.ndarray, memo_column: np.ndarray) -> Allocation:
    """Replays one pass's memo from the full state down to the empty one.

    Each slot goes to the lowest-index ad of the state's colors whose
    recomputed candidate equals the memo entry exactly, the ad a strict
    ``>`` scan over ads in index order keeps.  The replay is a scalar loop
    in Python floats: each candidate is _pass_memo's expression, whose
    ``+`` and ``*`` overflow to inf and make NaN without a warning, and a
    NaN candidate never equals an entry.  A state that no candidate
    reproduces (a NaN entry, and any state above one) has no allocation:
    NaNPassesError says so, whatever pass is replayed.
    """
    _, _, cont, wv = instance._lists
    lam_by_size = (0.0, *instance.ladder.effective_factors[::-1])
    bits = [1 << (c - 1) for c in colors.tolist()]
    memo = memo_column.tolist()
    ids = instance.ids
    slots = []
    state = len(memo) - 1
    while state:
        lam, target = lam_by_size[state.bit_count()], memo[state]
        for a, bit in enumerate(bits):
            if state & bit and wv[a] + (cont[a] * lam) * memo[state ^ bit] == target:
                break
        else:
            raise NaNPassesError(f"the color-coding pass {colors.tolist()} over ads {list(ids)} has the value {memo[-1]!r}")
        slots.append(ids[a])
        state ^= bit
    return Allocation(tuple(slots))


class _Winner:
    """The winning pass so far, by the NaN rule: the first maximum among the
    passes of a batch whose value is a number, replaced only by a strictly
    larger one in a later batch.  colored_ads and _leave_one_out both pick
    their pass here."""

    value = None

    def offer(self, memo: np.ndarray, colorings: np.ndarray, done: int) -> None:
        """Weighs the passes of one batch: column r of ``memo`` is pass done + r,
        which colors the ads as row r of ``colorings`` does."""
        last = memo[-1]
        top = np.fmax.reduce(last)
        if top == top and (self.value is None or top > self.value):
            j = int(np.argmax(last == top))
            self.value, self.index = float(top), done + j
            self.colors, self.column = colorings[j].copy(), memo[:, j].copy()

    def result(self, instance: AuctionInstance, iterations_run: int) -> ColoredResult:
        if self.value is None:
            raise NaNPassesError(f"every color-coding pass over ads {list(instance.ids)} has the value NaN")
        return ColoredResult(
            value=self.value,
            alloc=_backtrack(instance, self.colors, self.column),
            coloring=tuple(self.colors.tolist()),
            iteration=self.index,
            iterations_run=iterations_run,
        )


def colored_pass(instance: AuctionInstance, coloring: Sequence[int]) -> ColorPassResult:
    """Best full allocation whose ads carry pairwise distinct colors.

    Subset DP over colors: a state C holds the best welfare for the last
    |C| slots using one ad per color of C.  Every state is reachable
    because the coloring is surjective.  NaNPassesError says the pass's
    value is NaN (the NaN rule of _pass_memo).
    """
    colors = _check_coloring(instance, coloring)
    memo = _pass_memo(instance, colors[None, :])[:, 0]
    alloc = _backtrack(instance, colors, memo)
    return ColorPassResult(float(memo[-1]), alloc, tuple(int(c) for c in colors))


def colored_ads(
    instance: AuctionInstance,
    iterations: int | None = None,
    seed: int = 0,
    time_budget: float | None = None,
    chunk: int = 2048,
) -> ColoredResult:
    """Best of ``iterations`` seeded color-coding passes.

    Batch c draws ``chunk`` colorings from a generator seeded with
    (seed, c), always the full batch, so pass t's coloring depends only on
    (seed, chunk, t): results are reproducible and extending the pass
    count only refines the answer.  The rows a call uses are memoized
    (see the module docstring), so a repeated call draws nothing.  A
    ``time_budget`` in seconds is honored between batches; at least one
    batch always runs.  A pass whose value is NaN (the NaN rule of
    _pass_memo) never wins; NaNPassesError says that every pass was one.
    """
    if iterations is None:
        iterations = default_iterations(instance.num_slots)
    if iterations <= 0:
        raise NoColoringsError("need at least one pass")
    if chunk <= 0:
        raise ValueError("chunk must be positive")

    seed = operator.index(seed)  # a float would share an int's cached block
    n = instance.num_ads
    k = instance.num_slots
    winner = _Winner()
    started = time.perf_counter()
    done = 0
    while done < iterations:
        if time_budget is not None and done > 0:
            if time.perf_counter() - started >= time_budget:
                break
        take = min(chunk, iterations - done)
        block = _seeded_block(n, k, chunk, seed, done // chunk, take)
        winner.offer(_pass_memo(instance, block), block, done)
        done += take
    return winner.result(instance, done)


_LEAVE_ONE_OUT_BLOCK = 1 << 17


def _leave_one_out_group(num_ads: int, num_slots: int, take: int) -> int:
    """Column sets, of ``take`` columns each, per kernel call: about
    _LEAVE_ONE_OUT_BLOCK entries of memo (2^K per column) and of the seven
    n-entry arrays per column, the ad indices, tiled colorings, wv,
    continuations, scale, spread index and candidates.  The spread index
    is one C-ordered product with the offsets added in place, so it makes
    no transient copy and seven is still the peak."""
    per_column = (1 << num_slots) + 7 * num_ads
    return max(1, _LEAVE_ONE_OUT_BLOCK // (take * per_column))


def _leave_one_out_values(
    instance: AuctionInstance, iterations: int | None = None, seed: int = 0,
    chunk: int = 2048,
) -> np.ndarray:
    """Value of colored_ads without each ad, for every ad at once (see _leave_one_out)."""
    return _leave_one_out(instance, iterations, seed, chunk, reported=False)[1]


def _pricing(
    instance: AuctionInstance, iterations: int | None = None, seed: int = 0,
    chunk: int = 2048,
) -> tuple[ColoredResult, np.ndarray]:
    """``colored_ads(instance, iterations, seed, chunk=chunk)`` and
    ``_leave_one_out_values(instance, iterations, seed, chunk)``, equal to
    them by repr.  Below K = n the reported passes run in the kernel calls
    of the leave-one-out columns (see _leave_one_out).  At K = n every
    leave-one-out instance loses a slot: its passes have fewer colors
    and factors than the reported ones and cannot share a call, so the
    two calls stay."""
    if instance.num_slots == instance.num_ads:
        return colored_ads(instance, iterations, seed, chunk=chunk), _leave_one_out_values(instance, iterations, seed, chunk)
    return _leave_one_out(instance, iterations, seed, chunk, reported=True)


def _leave_one_out(
    instance: AuctionInstance, iterations: int | None, seed: int, chunk: int, reported: bool
) -> tuple[ColoredResult | None, np.ndarray]:
    """The value of colored_ads without each ad, for every ad at once, and,
    if ``reported`` (which needs K < n), colored_ads's result on the instance.

    Entry j of the values equals ``colored_ads(reduced, iterations, seed,
    chunk=chunk).value`` by repr, where ``reduced`` drops the ad at index
    j (see model._leave_one_out_context); it is 0.0 when no ad remains.
    Every reduced instance colors its n-1 ads with the same memoized
    block, so the block is read once per j through an index column that
    skips ad j.  That column is padded to n ads by repeating its last ad
    with its color: the copy's candidate at every state is the same float
    as the original's, so every maximum keeps its bits.  Each column then
    sees the same ads, colors and factors as the reduced instance's pass,
    and _pass_memo gives it the same floats in any batch.  The reported
    passes, the instance's own n-ad block read through the identity
    column, are one more column set of the same calls.  The reported
    winner is picked by _Winner and replayed by _backtrack as colored_ads
    picks and replays it; a value is the largest pass value that is a
    number, over all batches, and NaNPassesError says none was.  The
    column sets of several j's share one kernel call, which holds at most
    about _LEAVE_ONE_OUT_BLOCK entries (see _leave_one_out_group).
    """
    seed = operator.index(seed)
    n = instance.num_ads
    if n == 1:
        return None, np.zeros(1)
    context = _leave_one_out_context(instance)
    k = context.num_slots
    if iterations is None:
        iterations = default_iterations(k)
    if iterations <= 0:
        raise NoColoringsError("need at least one pass")
    if chunk <= 0:
        raise ValueError("chunk must be positive")

    local = np.arange(n - 1)[:, None]
    sets = n + reported
    values = np.full(n, math.nan)
    winner = _Winner()
    for done in range(0, iterations, chunk):
        take = min(chunk, iterations - done)
        block = _seeded_block(n - 1, k, chunk, seed, done // chunk, take)
        padded = np.concatenate((block, block[:, -1:]), axis=1)
        own = _seeded_block(n, k, chunk, seed, done // chunk, take) if reported else None
        group = _leave_one_out_group(n, k, take)
        for start in range(0, sets, group):
            stop = min(start + group, sets)
            drop = np.arange(start, min(stop, n))
            rows = [padded] * len(drop) + [own] * (stop > n)
            # a column of set j < n lists the ads without ad j, its last one
            # twice; a column of set n lists all n ads
            j = np.repeat(np.arange(start, stop), take)
            ads = np.empty((n, len(j)), dtype=np.int64)
            np.add(local, local >= j, out=ads[:-1])
            np.add(ads[-2], j == n, out=ads[-1])
            memo = _pass_memo(context, np.concatenate(rows), ads)
            last = memo[-1, : len(drop) * take].reshape(len(drop), take)
            values[drop] = np.fmax(values[drop], np.fmax.reduce(last, axis=1))
            if stop > n:
                winner.offer(memo[:, -take:], own, done)
    nan = np.isnan(values)
    if nan.any():
        raise NaNPassesError(f"every color-coding pass without ad {instance.ids[int(nan.argmax())]} has the value NaN")
    return (winner.result(instance, iterations) if reported else None), values
