"""Order-restricted winner determination in O(N*K) per order.

Fixing a total order over the ads and only considering allocations that
list ads in that order with no gaps makes the problem a simple
take-or-skip dynamic program.  With a constant slot factor the best such
allocation under *any* order recovers at least half the optimum, and
the value-density order is exactly optimal when all slot factors are 1.

The value-density order at a factor lambda lists ads by descending
wv / (1 - lambda * c), ads with no positive denominator first, ties by
ascending id.  One kernel, _density_order, serves natural_order, the
natural row of multi_order_approx, the order of exact's sorted incumbent
(lambda = 1) and the constant-lambda prune bound (lambda_max).

One recurrence, in two helpers, serves every caller.  best_s[i], the best
value of ads i.. in slots s..K with the prominence at slot s taken as 1,
is filled slot by slot from the bottom: _take computes take_s[i] = wv_i +
(c_i * lambda_s) * best_{s+1}[i+1] (take_K[i] = wv_i), and _suffix_max
makes best_s the running maximum of take_s from the right.  The reference
is a scan that fills one ad at a time (kept in the tests), keeping ``take
if take >= skip else skip`` from a skip of 0 past the last ad.  The
maximum is np.fmax.accumulate, cheaper per entry than np.maximum's, and
equal to that scan bit for bit.  NaN rule: a sum may overflow to inf, and
a zero factor or continuation times inf is a NaN take.  The scan skips it
(NaN >= skip is false), and fmax skips it too.  The last ad's take reads
the 0 past the end, so it is never NaN, and neither is any maximum.  No
instance column holds -0.0 (model._columns), so no take is -0, and tied
maxima have one bit pattern whichever one fmax keeps.

Each take is the scan's float expression and the maximum is exact, so
every entry equals the scan's, in any batch.  _sorted_indices keeps the
whole table, since its backtrack reads every row; it works on ad-array
indices, and sorted_ads and multi_order_approx's replay of its winner
share it, so only sorted_ads maps ids to indices.  The value-only
callers, the batch of orders (also run on the orders of every instance
that drops one ad, for a VCG outcome's prices) and the constant-lambda
prune bound, use _dp_top: one best row and one take row, reused from
slot K up, and slot 1's value read by one np.fmax.reduce.

The random orders are a pure function of (ad count, order count, seed):
no value or bid enters them.  multi_order_approx therefore memoizes the
order matrix in a small cache.  A VCG mechanism reruns the allocator once
per bidder and once per deviation it checks, always with the same seed
and ad count, so those reruns share one matrix.  Sharing it is the same
bid-independence that keeps the mechanism truthful: the range of
allocations a seed can reach never depends on what anyone bids.

Row t of the matrix is the stream (seed, t) of random_order, unchanged.
Seeding default_rng((seed, t)) costs more than shuffling a few dozen
ads: SeedSequence hashes the seed's 32-bit words and t into the four
64-bit words that seed PCG64.  That hash is integer arithmetic on 32-bit
words with a fixed sequence of constants, so _seed_words runs it for all
rows at once on arrays of words, with the same wraparound, and each row's
PCG64 is seeded from its four words and shuffled by NumPy's own
Generator.shuffle.  The words do not depend on the ad count, so the
matrices of one seed at two sizes (all ads and the pruned ones, or a VCG
outcome's n and n-1 ads) share one derivation.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .model import (
    Allocation,
    AuctionInstance,
    AuctionError,
    InvalidAllocationError,
    _leave_one_out_context,
)

__all__ = [
    "NoOrdersError",
    "AdOrder",
    "SortedDpResult",
    "natural_order",
    "reverse_natural_order",
    "random_order",
    "sorted_ads",
    "multi_order_approx",
]


class NoOrdersError(AuctionError):
    """multi_order_approx was asked to run with no orders at all."""


AdOrder = tuple[int, ...]


@dataclass(frozen=True)
class SortedDpResult:
    """Outcome of the order-restricted DP.

    Attributes:
        value: Welfare of the best order-respecting allocation found.
        alloc: The allocation itself (left-aligned, gap-free).
        order_index: For multi-order runs, the index of the winning order
            (random orders first, then extra orders, then the natural
            order); None otherwise.
    """

    value: float
    alloc: Allocation
    order_index: int | None = None


@np.errstate(over="ignore")  # a density past the largest float ties the unbounded ones
def _density_order(instance: AuctionInstance, lam: float) -> np.ndarray:
    """Ad-array indices in the value-density order at ``lam`` (module docstring)."""
    wv, cont = instance.arrays()
    denom = 1.0 - lam * cont
    live = denom > 0.0
    key = np.where(live, -(wv / np.where(live, denom, 1.0)), -np.inf)
    return np.lexsort((instance.id_array, key))


def natural_order(instance: AuctionInstance) -> AdOrder:
    """Ad ids in the value-density order at lambda = 1 (module docstring)."""
    ids = instance.ids
    return tuple(ids[i] for i in _density_order(instance, 1.0).tolist())


def reverse_natural_order(instance: AuctionInstance) -> AdOrder:
    return tuple(reversed(natural_order(instance)))


def random_order(instance: AuctionInstance, seed: int, index: int) -> AdOrder:
    """Uniform random permutation drawn from the stream (seed, index)."""
    rng = np.random.default_rng((seed, index))
    return tuple(int(x) for x in rng.permutation(instance.id_array))


# SeedSequence's hash constants (NumPy's numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF


def _seed_entropy(seed: int) -> tuple[int, ...]:
    """The 32-bit words SeedSequence reads from an integer seed, low word first.

    A float raises TypeError and a negative seed ValueError, as in
    default_rng((seed, t)).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    words = [seed & _WORD]
    while seed := seed >> 32:
        words.append(seed & _WORD)
    return tuple(words)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32 column: init, init * mult, init * mult^2, ... mod 2^32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _WORD)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of ``consts[:-1]``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of word ``y`` into word ``x``."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


@lru_cache(maxsize=1)
def _seed_words(entropy: tuple[int, ...], count: int) -> np.ndarray:
    """Read-only (count, 4) uint64; row t is
    ``SeedSequence(entropy + (t,)).generate_state(4, np.uint64)``.

    The rows run SeedSequence's pool mix and generate_state side by side,
    on uint32 arrays that wrap as its uint32 words do.  The hash constant
    advances once per hashmix call whatever the data, so a step that
    mixes one pool word into the three others is one call on three
    consecutive constants.  One entry suffices: callers build the
    matrices of one seed back to back (see the module docstring).
    """
    size = max(len(entropy) + 1, _POOL_SIZE)
    rows = np.zeros((size, count), dtype=np.uint32)  # word i of every row's entropy
    rows[: len(entropy)] = np.array(entropy, dtype=np.uint32)[:, None]
    rows[len(entropy)] = np.arange(count)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * size)
    pool = _hashmix(rows[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    c = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[c : c + _POOL_SIZE]))
        c += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, size):
        pool = _mix(pool, _hashmix(rows[src], consts[c : c + _POOL_SIZE + 1]))
        c += _POOL_SIZE
    state = _hashmix(pool[list(range(_POOL_SIZE)) * 2], _hash_consts(_INIT_B, _MULT_B, 8))
    low, high = state[0::2].astype(np.uint64), state[1::2].astype(np.uint64)
    out = np.ascontiguousarray((low | high << 32).T)
    out.flags.writeable = False
    return out


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 four precomputed seeding words.

    PCG64 asks for generate_state(4, np.uint64) once, while it is built,
    and reads the words from the array's buffer, so ``words`` is one
    C-contiguous row of _seed_words and may be replaced for the next
    generator.
    """

    __slots__ = ("words",)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# One VCG outcome alternates between the reported n-ad instance and its
# (n-1)-ad leave-one-out instances, which all share one key; two entries
# keep both warm across every rerun and every later deviation check.
_ORDER_CACHE_SIZE = 2


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _random_orders(n: int, order_count: int, seed: int) -> np.ndarray:
    """Read-only (order_count, n) matrix; row t indexes random_order(seed, t).

    Row t is ``np.random.default_rng((seed, t)).permutation(n)``, bit for
    bit: PCG64 is seeded with the words SeedSequence((seed, t)) would
    give (_seed_words, the module docstring), and permutation(n) is
    NumPy's shuffle of arange(n), run here in place on the row.
    permutation(n) applies the same shuffle as permutation(ids), so row t
    mapped through the instance's ids is random_order(instance, seed, t).
    """
    out = np.empty((order_count, n), dtype=np.int64)
    out[:] = np.arange(n)
    seeder = _SeedWords()
    for row, words in zip(out, _seed_words(_seed_entropy(seed), order_count)):
        seeder.words = words
        np.random.Generator(np.random.PCG64(seeder)).shuffle(row)
    out.flags.writeable = False
    return out


def _order_indices(instance: AuctionInstance, order: Sequence[int]) -> np.ndarray:
    """Ad-array index of each id in ``order``, which must list every ad once."""
    idx = instance.indices(order)
    if len(idx) != instance.num_ads or len(set(idx)) != len(idx):
        raise InvalidAllocationError("order must be a permutation of the instance's ad ids")
    return np.array(idx, dtype=np.int64)


def _take(wv: np.ndarray, cont: np.ndarray, lam_s: float, below: np.ndarray, out: np.ndarray) -> np.ndarray:
    """take_s into ``out``, where ``below`` is best_{s+1} from ad 1 on (module docstring).

    The products and the sum are the scan's, in the same order.  Callers
    silence the overflow and NaN warnings (the NaN rule).
    """
    np.multiply(cont, lam_s, out=out)
    out *= below
    out += wv
    return out


def _suffix_max(take: np.ndarray, out: np.ndarray) -> None:
    """best_s into ``out``: fmax of ``take`` from the right.  NumPy documents no tie rule
    for fmax, but no take is -0 (module docstring), so tied maxima are equal bits."""
    np.fmax.accumulate(take[::-1], axis=0, out=out[::-1])


@np.errstate(over="ignore", invalid="ignore")  # the NaN rule
def _sorted_indices(instance: AuctionInstance, idx: np.ndarray) -> tuple[float, np.ndarray]:
    """best_1[0] (module docstring) over the order ``idx`` of ad-array indices, and the ad-array
    indices its allocation takes, slot by slot.  The table keeps every row for the backtrack;
    ties prefer taking the current ad."""
    lam = instance.ladder.effective_factors[:-1]
    wv, cont = (a[idx] for a in instance.arrays())
    k, n = len(lam) + 1, len(idx)
    best = np.zeros((k, n + 1))  # best[s-1, i] = best_s[i]; column N is 0
    take = np.empty((k, n))  # take[s-1, i] = take_s[i]
    take[-1] = wv
    for s in range(k, 0, -1):
        if s < k:
            _take(wv, cont, lam[s - 1], best[s, 1:], take[s - 1])
        _suffix_max(take[s - 1], best[s - 1, :-1])
    takes = take >= best[:, 1:]  # slot s takes ad i when take_s[i] >= best_s[i+1]
    chosen: list[int] = []
    pos = 0
    while pos < n and len(chosen) < k:
        pos += int(takes[len(chosen), pos:].argmax())  # the first ad from pos on
        chosen.append(pos)
        pos += 1
    return float(best[0, 0]), idx[chosen]


@np.errstate(over="ignore", invalid="ignore")  # the NaN rule
def _dp_top(wv: np.ndarray, cont: np.ndarray, lam: Sequence[float]) -> np.ndarray:
    """best_1[0] (module docstring) of every order along the trailing axes.

    The value-only path: one best row and one take row are reused from
    slot K up, and slot 1 needs only its maximum over all ads, one reduce.
    """
    best = np.empty((len(wv) + 1,) + wv.shape[1:])
    best[-1] = 0.0
    take, buf = wv, np.empty(wv.shape)
    for lam_s in reversed(lam):
        _suffix_max(take, best[:-1])
        take = _take(wv, cont, lam_s, best[1:], buf)
    return np.fmax.reduce(take, axis=0)


def sorted_ads(instance: AuctionInstance, order: Sequence[int]) -> SortedDpResult:
    """Best allocation that lists ads consistently with `order`, no gaps.

    Take-or-skip DP over (position in order, next free slot); O(N*K).
    Ties prefer taking the current ad.
    """
    value, chosen = _sorted_indices(instance, _order_indices(instance, order))
    return SortedDpResult(value=value, alloc=Allocation(tuple(instance.id_array[chosen].tolist())))


# entries of a block of orders in _dp_values_batch, over its four (N, orders)
# buffers (values, continuations, take and best): 1 MB at any T.  At N=1000
# and K=5 or 10, blocks of 16 to 48 orders ran within 10% of each other;
# 8 orders ran 20% slower, 64 or more 40% slower (2 vCPU Xeon, NumPy 2.4)
_BATCH_BLOCK = 1 << 17


def _dp_values_batch(instance: AuctionInstance, orders: np.ndarray) -> np.ndarray:
    """DP values for many orders at once; orders is (T, N) of ad-array indices.

    Orders go through _dp_top in blocks of about _BATCH_BLOCK / (4N), with
    ads along axis 0; memory stays within the block's four buffers at any
    T and K.
    """
    t, n = orders.shape
    lam = instance.ladder.effective_factors[:-1]
    wv_all, cont_all = instance.arrays()
    rows = max(1, _BATCH_BLOCK // (4 * (n + 1)))
    values = np.empty(t)
    for start in range(0, t, rows):
        # (N, rows), ads along axis 0; C order keeps every buffer of the block in one layout
        block = np.ascontiguousarray(orders[start : start + rows].T)
        values[start : start + rows] = _dp_top(wv_all[block], cont_all[block], lam)
    return values


def multi_order_approx(
    instance: AuctionInstance,
    order_count: int | None = None,
    seed: int = 0,
    extra_orders: Iterable[Sequence[int]] = (),
    include_natural: bool = True,
) -> SortedDpResult:
    """Best sorted_ads result over random orders plus named/extra orders.

    Random orders use the streams (seed, 0..T-1); the default order count is
    2*K^3, and the order matrix is memoized (see the module docstring).
    The natural order is appended unless disabled (mechanisms built
    on this allocator must disable it: it depends on the reported values).
    Ties keep the lowest order index.
    """
    k = instance.num_slots
    if order_count is None:
        order_count = 2 * k**3
    if order_count < 0:
        raise NoOrdersError("order_count must be >= 0")

    order_mat = _random_orders(instance.num_ads, order_count, operator.index(seed))  # 1.0 would share 1's entry
    named = [_order_indices(instance, extra) for extra in extra_orders]
    if include_natural:
        named.append(_density_order(instance, 1.0))
    if named:
        order_mat = np.vstack([order_mat, *named])
    if not len(order_mat):
        raise NoOrdersError("no orders to evaluate: pass order_count > 0 or extra orders")

    values = _dp_values_batch(instance, order_mat)
    best = int(np.argmax(values))  # argmax keeps the first (lowest) index on ties
    value, chosen = _sorted_indices(instance, order_mat[best])
    alloc = Allocation(tuple(instance.id_array[chosen].tolist()))
    return SortedDpResult(value=value, alloc=alloc, order_index=best)


def _leave_one_out_values(
    instance: AuctionInstance, order_count: int | None = None, seed: int = 0
) -> np.ndarray:
    """Value of multi_order_approx without each ad, for every ad at once.

    Entry j equals ``multi_order_approx(reduced, order_count, seed,
    include_natural=False).value`` by repr, where ``reduced`` drops the
    ad at index j (see model._leave_one_out_context); it is 0.0 when no ad
    remains.  Row t of ``_random_orders(n-1, T, seed)`` lists the reduced
    instance's ad indices; adding 1 to those at or past j maps them onto
    this instance, so every row reads the same ads in the same order and
    the kernel gives the same floats in this batch.  The value is taken at
    the first maximal row, as multi_order_approx's argmax does.  The
    orders of several j's are stacked per call, at most about
    _BATCH_BLOCK entries of them.
    """
    seed = operator.index(seed)
    n = instance.num_ads
    if n == 1:
        return np.zeros(1)
    context = _leave_one_out_context(instance)
    if order_count is None:
        order_count = 2 * context.num_slots**3
    if order_count <= 0:
        raise NoOrdersError("order_count must be > 0")
    base = _random_orders(n - 1, order_count, seed)
    group = max(1, _BATCH_BLOCK // base.size)
    values = np.empty(n)
    for start in range(0, n, group):
        drop = np.arange(start, min(start + group, n))
        orders = base + (base >= drop[:, None, None])  # (group, T, n-1)
        batch = _dp_values_batch(context, orders.reshape(-1, n - 1)).reshape(len(drop), -1)
        values[drop] = batch[np.arange(len(drop)), batch.argmax(axis=1)]
    return values
