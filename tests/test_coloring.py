"""Color coding: samplers, per-pass subset DP, repeated-pass driver."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from cascade_auctions import (
    Ad,
    AuctionError,
    AuctionInstance,
    NaNPassesError,
    NoColoringsError,
    SlotLadder,
    colored_ads,
    colored_pass,
    default_iterations,
    draw_colorings,
    enumerate_all,
    miss_probability_bound,
    prune_instance,
    social_welfare,
)
from cascade_auctions.coloring import (
    _backtrack,
    _draw_colorings_chain,
    _leave_one_out_values,
    _new_color_probabilities,
    _pass_memo,
    _seeded_block,
    _surjection_table,
)
from cascade_auctions.harness import GeneratorConfig, generate_instance
from conftest import brute_optimum, nan_pass_instances, overflow_instance, two_ad_instance

SURJECTIVE_5_3 = [
    c for c in itertools.product((1, 2, 3), repeat=5) if len(set(c)) == 3
]


def chi_square_5_3(rows) -> float:
    index = {c: i for i, c in enumerate(SURJECTIVE_5_3)}
    counts = np.zeros(len(SURJECTIVE_5_3))
    for row in rows:
        counts[index[tuple(int(x) for x in row)]] += 1
    expected = len(rows) / len(SURJECTIVE_5_3)
    return float(((counts - expected) ** 2 / expected).sum())


def test_default_iterations_values():
    assert default_iterations(1) == 2
    assert default_iterations(3) == 14
    assert default_iterations(5) == 103


def test_miss_probability_bound():
    assert miss_probability_bound(3, 14) == (1.0 - math.exp(-3)) ** 14
    assert miss_probability_bound(3, default_iterations(3)) <= 0.5
    assert miss_probability_bound(3, 1) > miss_probability_bound(3, 20)


def test_surjection_table_known_counts():
    assert _surjection_table(5, 3)[5][3] == 150
    assert _surjection_table(4, 2)[4][2] == 14
    assert _surjection_table(3, 3)[3][3] == 6
    # u = 0 leaves all k^n colorings admissible
    assert _surjection_table(4, 3)[4][0] == 81


def test_new_color_probabilities_boundaries():
    probs = _new_color_probabilities(5, 3)
    # all colors in use: never draw a fresh one
    assert np.all(probs[:, 3] == 0.0)
    # last ad with one color missing must take it
    assert probs[4, 2] == 1.0
    # unreachable state (4 ads left cannot be short 3 colors after seeing 2... )
    assert np.all((probs >= 0.0) & (probs <= 1.0))


@pytest.mark.parametrize("num_ads,num_colors", [(3, 0), (2, 3), (0, 1)])
def test_draw_coloring_rejects_bad_shapes(num_ads, num_colors):
    with pytest.raises(ValueError):
        draw_colorings(num_ads, num_colors, 1, np.random.default_rng(0))


def test_draw_coloring_uniform_over_surjections():
    # one row per call from a shared generator: the single-row stream keeps
    # the law of a batch (df = 149, mean 149, three sigma ~ 201)
    rng = np.random.default_rng(0)
    rows = [draw_colorings(5, 3, 1, rng)[0] for _ in range(30000)]
    assert chi_square_5_3(rows) < 200.0


def test_draw_colorings_same_law_as_scalar():
    # uniform over the 150 surjective colorings of 5 ads onto 3 colors:
    # df = 149, mean 149, three sigma ~ 201
    rows = draw_colorings(5, 3, 30000, np.random.default_rng(1))
    assert chi_square_5_3(rows) < 200.0


def test_draw_colorings_shapes_and_determinism():
    a = draw_colorings(6, 3, 17, np.random.default_rng(3))
    b = draw_colorings(6, 3, 17, np.random.default_rng(3))
    assert a.shape == (17, 6)
    assert np.array_equal(a, b)
    empty = draw_colorings(6, 3, 0, np.random.default_rng(3))
    assert empty.shape == (0, 6)


def test_draw_colorings_rejection_regime():
    # 20 >= 3*3 + 8 exercises the vectorized rejection path
    rows = draw_colorings(20, 3, 3000, np.random.default_rng(2))
    assert rows.shape == (3000, 20)
    assert rows.min() >= 1 and rows.max() <= 3
    for row in rows[:50]:
        assert len(np.unique(row)) == 3
    assert all(np.unique(row).size == 3 for row in rows)
    # color marginals are symmetric; totals observed within 0.6 percent
    totals = np.bincount(rows.ravel(), minlength=4)[1:]
    assert np.all(np.abs(totals - rows.size / 3) < 0.02 * rows.size / 3)


def test_draw_colorings_validates_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_colorings(3, 0, 5, rng)
    with pytest.raises(ValueError):
        draw_colorings(2, 3, 5, rng)
    with pytest.raises(ValueError):
        draw_colorings(5, 3, -1, rng)


def test_colored_pass_hand_instance():
    inst = two_ad_instance()
    res = colored_pass(inst, (1, 2))
    assert res.value == pytest.approx(1.4)
    assert res.alloc.slots == (1, 2)
    assert res.coloring == (1, 2)
    # swapping the labels relabels colors, not ads; same winner
    assert colored_pass(inst, (2, 1)).value == pytest.approx(1.4)


def test_colored_pass_single_color_takes_best_ad():
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=1, seed=8))
    res = colored_pass(inst, (1,) * 6)
    wv = [ad.weighted_value for ad in inst.ads]
    assert res.value == pytest.approx(max(wv))
    assert len(res.alloc.slots) == 1


@pytest.mark.parametrize("bad", [
    (1, 2),                # wrong length
    (0, 1, 2, 1, 1),       # color below range
    (1, 2, 3, 1, 1),       # color above range (K=2)
    (1, 1, 1, 1, 1),       # not surjective
])
def test_colored_pass_rejects_bad_colorings(bad):
    inst = generate_instance(GeneratorConfig(num_ads=5, num_slots=2, seed=0))
    with pytest.raises(ValueError):
        colored_pass(inst, bad)


def best_with_distinct_colors(instance, coloring) -> float:
    """Oracle for one pass: full allocations, pairwise distinct colors."""
    color_of = {ad.id: coloring[i] for i, ad in enumerate(instance.ads)}
    best = -math.inf
    for alloc, value in enumerate_all(instance):
        if len(alloc.slots) != instance.num_slots:
            continue
        used = [color_of[aid] for aid in alloc.slots]
        if len(set(used)) == len(used):
            best = max(best, value)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_colored_pass_matches_filtered_enumeration(seed):
    inst = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=seed))
    for coloring in draw_colorings(7, 3, 4, np.random.default_rng(seed)):
        res = colored_pass(inst, coloring)
        assert res.value == pytest.approx(
            best_with_distinct_colors(inst, coloring), rel=1e-12
        )
        assert social_welfare(inst, res.alloc) == pytest.approx(res.value, rel=1e-12)


def test_pass_memo_rows_match_enumeration_oracle():
    inst = generate_instance(GeneratorConfig(num_ads=9, num_slots=3, seed=11))
    colorings = draw_colorings(9, 3, 64, np.random.default_rng(11))
    memo = _pass_memo(inst, colorings)
    assert memo.shape == (1 << 3, 64)
    for r, coloring in enumerate(colorings):
        value = memo[-1, r]
        assert value == pytest.approx(
            best_with_distinct_colors(inst, coloring), rel=1e-12
        )
        alloc = _backtrack(inst, coloring, memo[:, r])
        assert len(alloc.slots) == 3
        assert len({coloring[inst.ids.index(aid)] for aid in alloc.slots}) == 3
        assert social_welfare(inst, alloc) == pytest.approx(value, rel=1e-12)


def masked_pass_memo(instance, colorings, ads=None):
    """The kernel's earlier formulation: a zero-started memo, a flat take
    of ``memo[s ^ bit]`` for every ad and a mask of the ads whose color is
    in s.  The kernel must give the same memo, bit for bit."""
    wv, cont = instance.arrays()
    if ads is None:
        wv, cont = wv[:, None], cont[:, None]
    else:
        wv, cont = wv[ads], cont[ads]
    k = instance.num_slots
    bits = np.left_shift(np.int64(1), colorings.T - 1)
    rows = bits.shape[1]
    lam_by_size = np.zeros(k + 1)
    for t in range(1, k + 1):
        lam_by_size[t] = instance.ladder.effective_factors[k - t]
    memo = np.zeros((1 << k, rows))
    flat = memo.reshape(-1)
    col = np.arange(rows)
    for s in sorted(range(1, 1 << k), key=int.bit_count):
        prev = flat.take((s ^ bits) * rows + col)
        cand = wv + (cont * lam_by_size[s.bit_count()]) * prev
        memo[s] = np.where(bits & s, cand, -math.inf).max(axis=0)
    return memo


def _kernel_cases():
    """Instances and row counts: every K up to 7 at n = K, K + 1 and 3K + 8
    (where draws switch to rejection), then a zero factor and zero
    continuations (inactive candidates are NaN), ties and a single row."""
    for k in range(1, 8):
        for n in (k, k + 1, 3 * k + 8):
            inst = generate_instance(GeneratorConfig(num_ads=n, num_slots=k, seed=n * 10 + k))
            yield pytest.param(inst, 50, id=f"generated-{n}-{k}")
    base = generate_instance(GeneratorConfig(num_ads=9, num_slots=4, seed=3))
    yield pytest.param(AuctionInstance(base.ads, SlotLadder.from_factors([0.7, 0.0, 0.5], 4)), 50, id="zero-factor")
    stops = [Ad(a.id, a.value, a.quality, 0.0 if a.id % 2 else a.continuation) for a in base.ads]
    yield pytest.param(AuctionInstance(stops, base.ladder), 50, id="zero-continuation")
    stops = [Ad(a.id, a.value, a.quality, 0.0) for a in base.ads]
    yield pytest.param(AuctionInstance(stops, base.ladder), 50, id="all-zero-continuation")
    ties = AuctionInstance([Ad(i, 1.0, 1.0, 0.5) for i in range(1, 5)], SlotLadder.from_factors([0.5], 2))
    yield pytest.param(ties, 40, id="all-ties")
    yield pytest.param(base, 1, id="single-row")


@pytest.mark.parametrize("inst,rows", _kernel_cases())
def test_pass_memo_matches_masked_formulation(inst, rows):
    n, k = inst.num_ads, inst.num_slots
    colorings = draw_colorings(n, k, rows, np.random.default_rng(rows + n))
    assert _pass_memo(inst, colorings).tobytes() == masked_pass_memo(inst, colorings).tobytes()
    if n > k:
        # the index-matrix variant: each column reads n-1 of the n ads, as
        # _leave_one_out_values does, against the masked kernel on the same
        # columns and on each reduced instance alone
        reduced_colorings = draw_colorings(n - 1, k, rows, np.random.default_rng(rows))
        local = np.arange(n - 1)[:, None]
        drop = np.arange(n)
        ads = np.repeat(local + (local >= drop), rows, axis=1)
        tiled = np.tile(reduced_colorings, (n, 1))
        memo = _pass_memo(inst, tiled, ads)
        assert memo.tobytes() == masked_pass_memo(inst, tiled, ads).tobytes()
        for j in (0, n - 1):
            alone = _pass_memo(inst.without(inst.ids[j]), reduced_colorings)
            assert memo[:, j * rows:(j + 1) * rows].tobytes() == alone.tobytes()


def test_pass_memo_does_not_depend_on_operand_layout():
    inst = generate_instance(GeneratorConfig(num_ads=12, num_slots=4, seed=5))
    wide = draw_colorings(12, 4, 120, np.random.default_rng(5))
    colorings = np.ascontiguousarray(wide[::2])
    expected = _pass_memo(inst, colorings).tobytes()
    identity = np.repeat(np.arange(12)[:, None], 60, axis=1)
    for layout in (np.asfortranarray(colorings), wide[::2]):
        assert not layout.flags.c_contiguous
        assert _pass_memo(inst, layout).tobytes() == expected
    for rows in (colorings, np.asfortranarray(colorings), wide[::2]):
        assert _pass_memo(inst, rows, identity).tobytes() == expected
    assert masked_pass_memo(inst, colorings).tobytes() == expected


def test_pass_memo_matches_masked_formulation_at_deep_shape():
    # the shape of perfbench's deep workload: N=300, K=7 pruned to a few
    # dozen ads, under the default 761 passes
    inst = generate_instance(GeneratorConfig(num_ads=300, num_slots=7, seed=1))
    pruned, _ = prune_instance(inst)
    rows = default_iterations(7)
    assert rows == 761
    colorings = _seeded_block(pruned.num_ads, 7, 2048, 1, 0, rows)
    memo = _pass_memo(pruned, colorings)
    assert memo.tobytes() == masked_pass_memo(pruned, colorings).tobytes()


def scalar_pass_memo(instance, coloring):
    """One coloring's subset DP, ad by ad in Python floats, skipping NaN
    candidates (the NaN rule); -inf where no candidate is left."""
    wv, cont = instance.arrays()
    k = instance.num_slots
    lam = [0.0, *instance.ladder.effective_factors[::-1]]
    memo = [-math.inf] * (1 << k)
    memo[0] = 0.0
    for s in sorted(range(1, 1 << k), key=int.bit_count):
        for a, color in enumerate(coloring):
            bit = 1 << (int(color) - 1)
            if s & bit:
                cand = float(wv[a]) + (float(cont[a]) * lam[s.bit_count()]) * memo[s ^ bit]
                if not math.isnan(cand):
                    memo[s] = max(memo[s], cand)
    return np.array(memo)


def test_colored_overflow_follows_the_nan_rule():
    # warnings are errors in this suite, so any overflow or NaN warning fails
    inst = overflow_instance()
    res = colored_ads(inst, seed=1)
    assert res.value == math.inf
    assert social_welfare(inst, res.alloc) == res.value
    assert colored_pass(inst, res.coloring).value == math.inf
    assert _leave_one_out_values(inst, seed=1).tolist() == [math.inf] * 5
    colorings = draw_colorings(5, 3, 200, np.random.default_rng(7))
    memo = _pass_memo(inst, colorings)
    assert np.isinf(memo[-1]).any()
    for r, coloring in enumerate(colorings):
        assert memo[:, r].tobytes() == scalar_pass_memo(inst, coloring).tobytes()


def test_colored_ads_skips_nan_passes():
    # np.argmax stops at the first NaN, so one NaN pass hid the numbers of
    # its batch; the first maximum among the numbers wins
    first, second = nan_pass_instances()
    memo = _pass_memo(first, _seeded_block(6, 4, 2048, 1, 0, 12))
    assert np.flatnonzero(~np.isnan(memo[-1])).tolist() == [7]
    res = colored_ads(first, iterations=12, seed=1)
    assert (res.value, res.iteration, res.iterations_run) == (1.5e308, 7, 12)
    assert social_welfare(first, res.alloc) == res.value == brute_optimum(first)
    memo = _pass_memo(second, _seeded_block(4, 3, 2048, 1, 0, 12))
    assert np.isnan(memo[-1, 3]) and memo[-1, 0] == 1.5e308
    res = colored_ads(second, iterations=12, seed=1)
    assert (res.value, res.iteration) == (1.5e308, 0)
    assert social_welfare(second, res.alloc) == res.value == brute_optimum(second)


def test_colored_ads_names_all_nan_passes():
    _, second = nan_pass_instances()
    assert np.isnan(_pass_memo(second, _seeded_block(4, 3, 2048, 0, 0, 1))[-1, 0])
    with pytest.raises(NaNPassesError, match=r"ads \[1, 2, 3, 4\]"):
        colored_ads(second, iterations=1, seed=0)
    assert issubclass(NaNPassesError, AuctionError)


def test_colored_pass_names_a_nan_pass():
    # no ad reproduces a NaN memo entry, so the replay has no slot to fill;
    # on the first instance a replay that kept the last ad cycled 15 -> 7 -> 15
    cycling = AuctionInstance(
        [Ad(i, 1.5e308, 1.0, 1.0) for i in range(1, 5)], SlotLadder.from_factors([1.0, 0.0, 1.0, 0.0])
    )
    _, second = nan_pass_instances()
    for inst, coloring in ((cycling, (1, 2, 3, 4)), (second, tuple(_seeded_block(4, 3, 2048, 0, 0, 1)[0]))):
        assert math.isnan(_pass_memo(inst, np.array([coloring]))[-1, 0])
        with pytest.raises(NaNPassesError, match=r"has the value nan"):
            colored_pass(inst, coloring)


def _golden_instance(name):
    if name == "one-slot":
        return generate_instance(GeneratorConfig(num_ads=6, num_slots=1, seed=8))
    if name == "all-ties":
        ads = tuple(Ad(i, 1.0, 1.0, 0.5) for i in range(1, 5))
        return AuctionInstance(ads, SlotLadder.from_factors([0.5], 2))
    if name == "rejection":
        return generate_instance(GeneratorConfig(num_ads=20, num_slots=2, seed=19))
    if name == "small-chunk":
        return generate_instance(GeneratorConfig(num_ads=10, num_slots=3, seed=14))
    big = generate_instance(GeneratorConfig(num_ads=300, num_slots=7, seed=5))
    return prune_instance(big, use_fast=True)[0]


# Seeded outputs recorded from the per-ad loop DP that the batched kernel
# replaced; the kernel must reproduce them bit for bit.  Each case:
# colored_ads keywords, its (repr(value), slots, iteration, coloring), and
# colored_pass on a fixed coloring, its (coloring, repr(value), slots).
GOLDEN = {
    "one-slot": (
        dict(iterations=5, seed=3),
        ("0.34433620072474974", (3,), 0, (1, 1, 1, 1, 1, 1)),
        ((1, 1, 1, 1, 1, 1), "0.34433620072474974", (3,)),
    ),
    "all-ties": (
        dict(iterations=12, seed=0),
        ("1.25", (1, 2), 0, (2, 1, 1, 1)),
        ((2, 2, 1, 1), "1.25", (1, 3)),
    ),
    "rejection": (
        dict(iterations=25, seed=2),
        ("1.1451422050360966", (2, 5), 2,
         (1, 1, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 1, 1, 2, 2, 2, 1, 1, 1)),
        ((1, 2, 2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1, 1),
         "1.0590112482045495", (2, 16)),
    ),
    # the winning pass lies in the second chunk
    "small-chunk": (
        dict(iterations=30, seed=0, chunk=8),
        ("1.9233698897448606", (8, 1, 6), 15, (2, 1, 3, 1, 3, 3, 3, 1, 1, 1)),
        ((1, 3, 2, 1, 3, 1, 1, 2, 1, 1), "1.9222491898846603", (8, 1, 5)),
    ),
    # survivors of a pruned N=300, K=7 instance, default pass count
    "seven-slots": (
        dict(seed=11),
        ("3.87134308036138", (150, 121, 59, 57, 148, 194, 106), 139,
         (2, 7, 3, 6, 3, 7, 2, 4, 7, 5, 3, 1, 7, 5, 5, 1,
          1, 6, 4, 6, 6, 2, 3, 5, 3, 5, 1, 2, 4, 6, 7)),
        ((6, 2, 1, 3, 3, 6, 4, 1, 3, 5, 6, 6, 7, 2, 7, 1,
          4, 2, 2, 5, 3, 4, 2, 2, 6, 4, 5, 5, 7, 3, 2),
         "3.833668934964503", (150, 121, 59, 57, 26, 136, 228)),
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_colored_outputs_match_recorded_values(name):
    kwargs, (value, slots, iteration, coloring), pass_expected = GOLDEN[name]
    inst = _golden_instance(name)
    res = colored_ads(inst, **kwargs)
    assert (repr(res.value), res.alloc.slots, res.iteration, res.coloring) == (
        value, slots, iteration, coloring
    )
    single = colored_pass(inst, pass_expected[0])
    assert (single.coloring, repr(single.value), single.alloc.slots) == pass_expected


def test_colored_ads_deterministic_and_replayable():
    inst = generate_instance(GeneratorConfig(num_ads=10, num_slots=3, seed=13))
    a = colored_ads(inst, iterations=40, seed=99)
    b = colored_ads(inst, iterations=40, seed=99)
    assert a == b
    assert a.iterations_run == 40
    assert 0 <= a.iteration < 40
    # the stored coloring reproduces the reported value and allocation
    replay = colored_pass(inst, a.coloring)
    assert replay.value == a.value
    assert replay.alloc == a.alloc


def test_colored_ads_extending_iterations_only_refines():
    inst = generate_instance(GeneratorConfig(num_ads=10, num_slots=3, seed=14))
    small = colored_ads(inst, iterations=10, seed=7, chunk=8)
    large = colored_ads(inst, iterations=30, seed=7, chunk=8)
    assert large.value >= small.value
    if large.value == small.value:
        assert large.iteration == small.iteration
        assert large.coloring == small.coloring


def test_colored_ads_chunk_size_does_not_change_passes():
    inst = generate_instance(GeneratorConfig(num_ads=9, num_slots=3, seed=15))
    # same (seed, chunk) stream sliced at different iteration counts
    byhand = colored_ads(inst, iterations=20, seed=3, chunk=4)
    again = colored_ads(inst, iterations=20, seed=3, chunk=4)
    assert byhand == again


def test_colored_ads_tie_goes_to_first_pass():
    ads = tuple(Ad(i, 1.0, 1.0, 0.5) for i in range(1, 5))
    inst = AuctionInstance(ads, SlotLadder.from_factors([0.5], 2))
    res = colored_ads(inst, iterations=12, seed=0)
    assert res.iteration == 0


def test_colored_ads_time_budget_stops_between_batches():
    inst = generate_instance(GeneratorConfig(num_ads=12, num_slots=3, seed=16))
    res = colored_ads(inst, iterations=10_000, seed=1, time_budget=0.0, chunk=64)
    assert res.iterations_run == 64
    assert res.iteration < res.iterations_run
    assert colored_pass(inst, res.coloring).value == res.value


def test_colored_ads_rejects_bad_arguments():
    inst = two_ad_instance()
    with pytest.raises(NoColoringsError):
        colored_ads(inst, iterations=0)
    with pytest.raises(ValueError):
        colored_ads(inst, iterations=5, chunk=0)


def test_colored_ads_default_iteration_count():
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=2, seed=17))
    res = colored_ads(inst, seed=0)
    assert res.iterations_run == default_iterations(2)


@pytest.mark.parametrize("seed", range(6))
def test_colored_ads_never_exceeds_oracle(seed):
    inst = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=seed))
    res = colored_ads(inst, iterations=30, seed=seed)
    assert res.value <= brute_optimum(inst) + 1e-9


def test_colored_ads_finds_small_optimum():
    # miss bound (1 - e^-2)^60 ~ 1.6e-4; deterministic seed, so stable
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=2, seed=18))
    res = colored_ads(inst, iterations=60, seed=4)
    assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9)


def test_colored_ads_rejection_regime_instance():
    inst = generate_instance(GeneratorConfig(num_ads=20, num_slots=2, seed=19))
    res = colored_ads(inst, iterations=25, seed=2)
    assert social_welfare(inst, res.alloc) == pytest.approx(res.value, rel=1e-12)
    assert len(res.alloc.slots) == 2


def _colored_key(res):
    return (repr(res.value), res.alloc.slots, res.coloring, res.iteration, res.iterations_run)


def test_colored_ads_memo_cold_and_warm_agree():
    # a VCG outcome alternates between n and n-1 ads; mix in a second seed
    full = generate_instance(GeneratorConfig(num_ads=7, num_slots=3, seed=41))
    calls = [
        (inst, seed)
        for seed in (0, 5)
        for inst in (full, full.without(full.ids[0]), full.without(full.ids[3]))
    ]
    cold = []
    for inst, seed in calls:
        _seeded_block.cache_clear()
        cold.append(_colored_key(colored_ads(inst, iterations=12, seed=seed)))
    _seeded_block.cache_clear()
    for _ in range(2):
        warm = [_colored_key(colored_ads(inst, iterations=12, seed=seed)) for inst, seed in calls]
        assert warm == cold
    info = _seeded_block.cache_info()
    assert info.maxsize == 2 and info.currsize <= 2
    # the two leave-one-out instances share their key
    assert info.hits >= 2


def presence_table_draw(num_ads, num_colors, count, rng, rejected):
    """draw_colorings with rejection's old test of color coverage: a
    (rows, K + 1) presence table filled by fancy indexing.  Appends the
    number of rows each round rejects to ``rejected``."""
    k = num_colors
    if num_ads < 3 * k + 8:
        return _draw_colorings_chain(num_ads, k, count, rng)
    out = np.empty((count, num_ads), dtype=np.int64)
    pending = np.arange(count)
    for _ in range(100):
        if pending.size == 0:
            return out
        cand = rng.integers(1, k + 1, size=(pending.size, num_ads))
        present = np.zeros((pending.size, k + 1), dtype=bool)
        present[np.arange(pending.size)[:, None], cand] = True
        ok = present[:, 1:].all(axis=1)
        rejected.append(int((~ok).sum()))
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    out[pending] = _draw_colorings_chain(num_ads, k, pending.size, rng)
    return out


@pytest.mark.parametrize("k", [*range(1, 8), 62])
def test_draw_colorings_matches_presence_table(k):
    rejected = []
    for n in (3 * k + 7, 3 * k + 8, 3 * k + 9):
        for count in ((0, 1, 2048) if k < 62 else (0, 1, 8)):
            for seed in (0, 7):
                rng, ref_rng = np.random.default_rng((seed, n)), np.random.default_rng((seed, n))
                rows = draw_colorings(n, k, count, rng)
                expected = presence_table_draw(n, k, count, ref_rng, rejected)
                assert rows.dtype == np.int64 and rows.shape == (count, n)
                assert np.array_equal(rows, expected), (n, count, seed)
                # both leave the generator at the same point of its stream
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    if k >= 3:
        assert sum(rejected) > 0  # some rows were redrawn


def test_draw_colorings_needs_at_most_62_colors():
    with pytest.raises(ValueError):
        draw_colorings(3 * 63 + 8, 63, 1, np.random.default_rng(0))


def test_colored_ads_memo_keeps_only_the_rows_used():
    inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=3, seed=42))
    _seeded_block.cache_clear()
    colored_ads(inst, iterations=12, seed=9)
    block = _seeded_block(8, 3, 2048, 9, 0, 12)
    assert _seeded_block.cache_info().hits == 1
    assert block.shape == (12, 8)
    full = draw_colorings(8, 3, 2048, np.random.default_rng((9, 0)))
    np.testing.assert_array_equal(block, full[:12])
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 1


def test_colored_ads_memo_key_ignores_values():
    # same sizes and seed, different values: the draw is shared
    inst = generate_instance(GeneratorConfig(num_ads=6, num_slots=2, seed=43))
    other = inst.with_values({ad.id: 3.0 * ad.value + 1.0 for ad in inst.ads})
    _seeded_block.cache_clear()
    colored_ads(inst, iterations=12, seed=1)
    colored_ads(other, iterations=12, seed=1)
    info = _seeded_block.cache_info()
    assert (info.hits, info.misses) == (1, 1)
