"""Order-restricted DP: named orders, single-order DP, multi-order search."""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from cascade_auctions import (
    Ad,
    AuctionInstance,
    InvalidAllocationError,
    NoOrdersError,
    SlotLadder,
    const_lambda_bound,
    enumerate_all,
    multi_order_approx,
    natural_order,
    random_order,
    reverse_natural_order,
    sorted_ads,
)
from cascade_auctions.harness import GeneratorConfig, generate_instance
from conftest import brute_optimum, two_ad_instance


def is_subsequence(seq, order):
    pos = {a: i for i, a in enumerate(order)}
    ranks = [pos[a] for a in seq]
    return ranks == sorted(ranks)


def brute_order_respecting(instance, order):
    """Best welfare over left-aligned allocations listing ads in order."""
    return max(
        v for alloc, v in enumerate_all(instance) if is_subsequence(alloc.slots, order)
    )


def test_natural_order_key_and_ties():
    inst = AuctionInstance(
        ads=(
            Ad(1, 1.0, 1.0, 0.5),   # key 1/(1-0.5) = 2
            Ad(2, 0.8, 1.0, 0.2),   # key 1
            Ad(3, 0.1, 1.0, 1.0),   # key +inf
            Ad(4, 5.0, 1.0, 1.0),   # key +inf, tie with 3 -> ascending id
            Ad(5, 2.0, 1.0, 0.0),   # key 2, tie with 1 -> ascending id
        ),
        ladder=SlotLadder.from_factors([1.0, 1.0], 3),
    )
    assert natural_order(inst) == (3, 4, 1, 5, 2)
    assert reverse_natural_order(inst) == (2, 5, 1, 4, 3)


def test_random_order_is_seeded_permutation():
    inst = generate_instance(GeneratorConfig(num_ads=12, num_slots=3, seed=4))
    a = random_order(inst, seed=7, index=0)
    b = random_order(inst, seed=7, index=0)
    c = random_order(inst, seed=7, index=1)
    assert a == b
    assert a != c
    assert sorted(a) == sorted(inst.ids)


def test_sorted_ads_hand_trace():
    inst = two_ad_instance()
    fwd = sorted_ads(inst, (1, 2))
    assert fwd.value == pytest.approx(1.4)
    assert fwd.alloc.slots == (1, 2)
    # reversed order cannot put ad 1 above ad 2; ties prefer taking
    rev = sorted_ads(inst, (2, 1))
    assert rev.value == pytest.approx(1.0)
    assert rev.alloc.slots == (2, 1)


def test_sorted_ads_k1_takes_max_weighted_value():
    inst = AuctionInstance(
        ads=(Ad(1, 1.0, 0.4, 0.5), Ad(2, 1.0, 0.9, 0.1), Ad(3, 0.2, 1.0, 0.9)),
        ladder=SlotLadder.from_factors([0.5], 1),
    )
    for order in itertools.permutations(inst.ids):
        assert sorted_ads(inst, order).value == pytest.approx(0.9)


def test_sorted_ads_rejects_non_permutation():
    inst = two_ad_instance()
    for order in [(1,), (1, 1), (1, 2, 3)]:
        with pytest.raises(InvalidAllocationError):
            sorted_ads(inst, order)


@pytest.mark.parametrize("seed", range(8))
def test_sorted_ads_matches_brute_filter(seed):
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=3, seed=seed))
    for t in range(4):
        order = random_order(inst, seed=seed, index=t)
        res = sorted_ads(inst, order)
        assert res.value == pytest.approx(brute_order_respecting(inst, order), abs=1e-12)
        assert is_subsequence(res.alloc.slots, order)


def test_alloc_value_consistency():
    from cascade_auctions import social_welfare

    inst = generate_instance(GeneratorConfig(num_ads=10, num_slots=4, seed=1))
    order = natural_order(inst)
    res = sorted_ads(inst, order)
    assert social_welfare(inst, res.alloc) == pytest.approx(res.value, abs=1e-12)


def test_multi_order_covers_both_orders_on_two_ads():
    inst = two_ad_instance()
    res = multi_order_approx(inst, order_count=8, seed=0, include_natural=False)
    assert res.value == pytest.approx(1.4)


def test_multi_order_monotone_in_order_count():
    inst = generate_instance(GeneratorConfig(num_ads=9, num_slots=4, seed=3))
    values = [
        multi_order_approx(inst, order_count=t, seed=5, include_natural=False).value
        for t in (1, 4, 16, 64)
    ]
    assert values == sorted(values)


def test_multi_order_deterministic_and_indexed():
    inst = generate_instance(GeneratorConfig(num_ads=9, num_slots=4, seed=6))
    a = multi_order_approx(inst, order_count=16, seed=2)
    b = multi_order_approx(inst, order_count=16, seed=2)
    assert (a.value, a.alloc.slots, a.order_index) == (b.value, b.alloc.slots, b.order_index)
    # winning index is reproducible by replaying that one order
    if a.order_index < 16:
        replay = sorted_ads(inst, random_order(inst, seed=2, index=a.order_index))
        assert replay.value == a.value


def test_multi_order_extra_orders_and_errors():
    inst = two_ad_instance()
    res = multi_order_approx(
        inst, order_count=0, extra_orders=[(1, 2)], include_natural=False
    )
    assert res.value == pytest.approx(1.4)
    assert res.order_index == 0
    with pytest.raises(NoOrdersError):
        multi_order_approx(inst, order_count=0, include_natural=False)
    with pytest.raises(NoOrdersError):
        multi_order_approx(inst, order_count=-1)


def test_multi_order_never_exceeds_oracle():
    for seed in range(10):
        inst = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=seed))
        res = multi_order_approx(inst, order_count=12, seed=seed)
        assert res.value <= brute_optimum(inst) + 1e-9


def scalar_table(wv, cont, lam, k):
    """The take-or-skip table filled one ad at a time, the reference for the kernel.

    table[i][s-1] is the best value using ads i.. in slots s..K, with the
    prominence at slot s taken as 1; ``lam`` holds the slot factors.
    """
    n = len(wv)
    table = [[0.0] * (k + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = table[i]
        nxt = table[i + 1]
        w, c = wv[i], cont[i]
        skip = nxt[k - 1]
        row[k - 1] = w if w >= skip else skip  # the last slot: nothing below
        for s in range(k - 1, 0, -1):
            take = w + (c * lam[s - 1]) * nxt[s]
            skip = nxt[s - 1]
            row[s - 1] = take if take >= skip else skip
    return table


def scalar_sorted_ads(wv, cont, lam, k):
    """(value, chosen positions) by the scalar table and its backtrack."""
    table = scalar_table(wv, cont, lam, k)
    chosen = []
    i, s = 0, 1
    while i < len(wv) and s <= k:
        if s == k:
            take = wv[i]
        else:
            take = wv[i] + (cont[i] * lam[s - 1]) * table[i + 1][s]
        if take >= table[i + 1][s - 1]:
            chosen.append(i)
            s += 1
        i += 1
    return table[0][0], chosen


def _grid_instance(rng, n, k, values, qualities, continuations, factors):
    """n ads and k slots whose fields are drawn from the given short lists."""
    def pick(options):
        return options[rng.integers(len(options))]

    ads = tuple(Ad(i + 1, pick(values), pick(qualities), pick(continuations)) for i in range(n))
    return AuctionInstance(ads, SlotLadder.from_factors([pick(factors) for _ in range(k)], k))


def _kernel_cases():
    rng = np.random.default_rng(20)
    yield pytest.param([
        generate_instance(GeneratorConfig(num_ads=n, num_slots=k, seed=seed))
        for seed, (n, k) in enumerate([(1, 1), (2, 2), (5, 3), (11, 5), (30, 4), (60, 10)] * 3)
    ], id="generated")
    # few distinct values, so takes tie skips and equal ads tie each other
    yield pytest.param([
        _grid_instance(rng, 2 + t % 8, 2, [1.0, 2.0], [0.5, 1.0], [0.0, 0.5], [0.5, 1.0])
        for t in range(40)
    ], id="ties")
    yield pytest.param([
        _grid_instance(rng, 3 + t % 6, 1 + t % 3, [0.0, -0.0, 1.0], [0.0, -0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        for t in range(60)
    ], id="signed zeros")
    yield pytest.param([
        _grid_instance(rng, 8, 4, [0.5, 1.0, 3.0], [0.3, 1.0], [1.0], [1.0]) for _ in range(10)
    ], id="continuation and factor 1")
    # sums overflow to inf, and a zero factor or continuation times inf is
    # NaN, which the scan skips as a take that is not >= the skip
    yield pytest.param([
        _grid_instance(rng, 2 + t % 6, 1 + t // 6 % min(4, 2 + t % 6), [0.0, 1.0, 1.5e308], [1.0], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        for t in range(300)
    ], id="overflow")
    yield pytest.param([
        generate_instance(GeneratorConfig(num_ads=n, num_slots=1, seed=n)) for n in (1, 2, 9)
    ], id="one slot")
    yield pytest.param([
        generate_instance(GeneratorConfig(num_ads=k, num_slots=k, seed=k)) for k in (1, 3, 6)
    ], id="as many ads as slots")


@pytest.mark.parametrize("instances", _kernel_cases())
def test_dp_matches_scalar_scan(instances):
    from cascade_auctions.sorted_dp import _density_order, _dp_values_batch

    rng = np.random.default_rng(11)
    for inst in instances:
        wv, cont = inst.arrays()
        k = inst.num_slots
        lam = inst.ladder.effective_factors
        ids = np.array(inst.ids)
        mat = np.array([rng.permutation(inst.num_ads) for _ in range(12)], dtype=np.int64)
        batch = _dp_values_batch(inst, mat)
        for row, got in zip(mat, batch):
            value, chosen = scalar_sorted_ads(wv[row].tolist(), cont[row].tolist(), lam, k)
            res = sorted_ads(inst, tuple(ids[row].tolist()))
            assert repr(float(got)) == repr(value)
            assert repr(res.value) == repr(value)
            assert res.alloc.slots == tuple(ids[row[chosen]].tolist())
        order = _density_order(inst, inst.ladder.max_factor)
        bound = scalar_table(wv[order].tolist(), cont[order].tolist(), (inst.ladder.max_factor,) * (k - 1), k)[0][0]
        assert repr(const_lambda_bound(inst)) == repr(bound)


def test_batch_dp_matches_scalar_across_blocks():
    from cascade_auctions.sorted_dp import _BATCH_BLOCK, _dp_values_batch

    rows = _BATCH_BLOCK // (4 * (200 + 1))
    t = 2 * rows + rows // 3
    assert t > rows and t % rows
    mat = np.array([np.random.default_rng((9, i)).permutation(200) for i in range(t)], dtype=np.int64)
    for inst in (
        generate_instance(GeneratorConfig(num_ads=200, num_slots=4, seed=9)),
        # zero values only, so the zero rule picks the sign of every top
        _grid_instance(np.random.default_rng(9), 200, 4, [0.0, -0.0], [0.0, -0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]),
    ):
        wv, cont = inst.arrays()
        lam = inst.ladder.effective_factors
        batch = _dp_values_batch(inst, mat)
        for i in range(t):
            want = scalar_table(wv[mat[i]].tolist(), cont[mat[i]].tolist(), lam, 4)[0][0]
            assert repr(float(batch[i])) == repr(want), i


def test_zero_rule_check_of_one_order():
    from cascade_auctions.sorted_dp import _neg_zeros

    # NumPy 2.4's fmax happens to break the kernel's 1-D ties as the scan
    # does, so the end-to-end cases cannot see this check go wrong
    for wv, want in [
        ([1.0, -0.0, 2.0], False),  # a positive last value: no maximum is 0
        ([-0.0, 1.0, 0.0], True),
        ([-0.0], True),
        ([1.0, 0.0, 0.0], False),  # zeros, but no -0 to keep
        ([2.0, 0.0, -0.0], True),
    ]:
        assert _neg_zeros(np.array(wv)) is want, wv


def test_batch_dp_never_builds_the_order_by_ad_matrix():
    from cascade_auctions.sorted_dp import _dp_values_batch

    # a (T, N) float array alone would take 16 MB
    inst = generate_instance(GeneratorConfig(num_ads=1000, num_slots=10, seed=1))
    orders = np.argsort(np.random.default_rng(1).random((2000, 1000)), axis=1)
    inst.arrays()
    tracemalloc.start()
    try:
        values = _dp_values_batch(inst, orders)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (2000,)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_natural_order_exact_when_all_factors_one():
    # with a flat ladder the value-density order contains an optimal allocation
    for seed in range(15):
        cfg = GeneratorConfig(
            num_ads=7, num_slots=3, seed=seed, slot_factors=(1.0, 1.0, 1.0)
        )
        inst = generate_instance(cfg)
        res = sorted_ads(inst, natural_order(inst))
        assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9)


def test_flat_ladder_bound_is_the_natural_order_dp():
    # with every factor 1 the constant-lambda bound runs the same DP over
    # the same order as sorted_ads on natural_order, so the two agree bit
    # for bit, also when several ads with continuation 1 lead the order
    rng = np.random.default_rng(15)
    for t in range(40):
        k = 2 + t % 7
        ads = tuple(
            Ad(i + 1, float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 1.0)),
               1.0 if rng.random() < 0.4 else float(rng.random()))
            for i in range(k + 2 + t % 9)
        )
        inst = AuctionInstance(ads, SlotLadder.from_factors([1.0] * k, k))
        assert repr(const_lambda_bound(inst)) == repr(sorted_ads(inst, natural_order(inst)).value), t


def _sorted_key(res):
    return (repr(res.value), res.alloc.slots, res.order_index)


def test_multi_order_memo_cold_and_warm_agree():
    from cascade_auctions.sorted_dp import _random_orders

    # a VCG outcome alternates between n and n-1 ads; mix in a second seed
    full = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=44))
    calls = [
        (inst, seed, natural)
        for seed in (0, 5)
        for inst in (full, full.without(full.ids[0]), full.without(full.ids[3]))
        for natural in (False, True)
    ]
    cold = []
    for inst, seed, natural in calls:
        _random_orders.cache_clear()
        res = multi_order_approx(inst, order_count=8, seed=seed, include_natural=natural)
        cold.append(_sorted_key(res))
    _random_orders.cache_clear()
    for _ in range(2):
        warm = [
            _sorted_key(multi_order_approx(inst, order_count=8, seed=seed, include_natural=natural))
            for inst, seed, natural in calls
        ]
        assert warm == cold
    info = _random_orders.cache_info()
    assert info.maxsize == 2 and info.currsize <= 2
    assert info.hits >= 2


def test_cached_order_rows_are_random_orders():
    from cascade_auctions.sorted_dp import _random_orders

    inst = generate_instance(GeneratorConfig(num_ads=9, num_slots=3, seed=45))
    _random_orders.cache_clear()
    multi_order_approx(inst, order_count=6, seed=3, include_natural=False)
    mat = _random_orders(9, 6, 3)
    assert _random_orders.cache_info().hits == 1
    ids = np.array(inst.ids)
    for t, row in enumerate(mat):
        assert tuple(ids[row].tolist()) == random_order(inst, seed=3, index=t)
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 1


# 2**32 - 1 and 2**32 straddle the seed's first word; a desk seed is two
# words; 2**70 + 5 is three, so the order index fills SeedSequence's pool
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 20261017 * 1_000_003 + 33, 2**70 + 5, np.int64(3)]


@pytest.mark.parametrize("seed", ORACLE_SEEDS, ids=repr)
def test_random_orders_are_default_rng_permutations(seed):
    from cascade_auctions.sorted_dp import _random_orders, _seed_words

    _seed_words.cache_clear()
    for t in (0, 1, 8, 250):
        for n in (1, 2, 7, 35, 1000):  # one derivation of the words serves every n
            _random_orders.cache_clear()
            mat = _random_orders(n, t, seed)
            expected = np.array(
                [np.random.default_rng((seed, i)).permutation(n) for i in range(t)], dtype=np.int64
            ).reshape(t, n)
            assert mat.dtype == np.int64 and mat.shape == (t, n)
            assert np.array_equal(mat, expected), (n, t)


@pytest.mark.parametrize("seed", ORACLE_SEEDS + [2**96 - 1, 2**96, 2**200 + 7], ids=repr)
def test_seed_words_are_seed_sequence_states(seed):
    # from 2**96 the seed's words and the order index overflow the pool of
    # four words, and the extra words are mixed in one by one
    from cascade_auctions.sorted_dp import _seed_entropy, _seed_words

    _seed_words.cache_clear()
    words = _seed_words(_seed_entropy(seed), 40)
    assert words.shape == (40, 4) and words.dtype == np.uint64 and not words.flags.writeable
    for t in range(40):
        expected = np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
        assert np.array_equal(words[t], expected), t


def test_random_orders_reject_seeds_default_rng_rejects():
    from cascade_auctions.sorted_dp import _random_orders, _seed_words

    for seed, error in ((-1, ValueError), (1.5, TypeError), (np.float64(2.0), TypeError)):
        with pytest.raises(error):
            np.random.default_rng((seed, 0))
        _random_orders.cache_clear()
        _seed_words.cache_clear()
        with pytest.raises(error):
            _random_orders(5, 3, seed)
    # a float raises even while the words of the equal integer are cached
    _random_orders.cache_clear()
    _random_orders(5, 3, 1)
    with pytest.raises(TypeError):
        _random_orders(6, 3, 1.0)
