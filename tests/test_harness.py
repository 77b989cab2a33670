"""Instance generator and benchmark pipeline."""
from __future__ import annotations

import pytest

from cascade_auctions.harness import (
    DEFAULT_SLOT_FACTORS,
    GeneratorConfig,
    emit_report,
    generate_instance,
    run_pipeline,
)

RECORD_HEADER = (
    "algorithm,trial,num_ads,num_slots,seed,wall_time_s,value,ratio,surviving,complete"
)


def test_generate_instance_is_deterministic():
    cfg = GeneratorConfig(num_ads=15, num_slots=4, seed=3)
    a = generate_instance(cfg, trial=2)
    b = generate_instance(cfg, trial=2)
    assert a == b
    c = generate_instance(cfg, trial=3)
    assert a != c
    d = generate_instance(GeneratorConfig(num_ads=15, num_slots=4, seed=4), trial=2)
    assert a != d


def test_generate_instance_respects_bounds():
    cfg = GeneratorConfig(num_ads=200, num_slots=5, seed=0)
    inst = generate_instance(cfg)
    assert inst.num_ads == 200
    assert inst.num_slots == 5
    assert inst.ids == tuple(range(1, 201))
    for ad in inst.ads:
        assert ad.value >= 0.0
        assert 0.0 <= ad.quality <= 1.0
        assert 0.0 <= ad.continuation <= 1.0
    assert inst.ladder.factors == DEFAULT_SLOT_FACTORS[:5]


def test_generate_instance_narrow_continuation_band():
    cfg = GeneratorConfig(
        num_ads=20, num_slots=2, seed=1,
        continuation_low=0.5, continuation_high=0.5,
    )
    inst = generate_instance(cfg)
    assert all(ad.continuation == 0.5 for ad in inst.ads)


def test_generate_instance_custom_slot_factors():
    cfg = GeneratorConfig(num_ads=5, num_slots=2, seed=1, slot_factors=(0.9, 0.8))
    inst = generate_instance(cfg)
    assert inst.ladder.factors == (0.9, 0.8)
    assert inst.ladder.effective_factors == (0.9, 0.0)


@pytest.mark.parametrize("kwargs", [
    {"num_ads": 3, "num_slots": 4},
    {"num_ads": 3, "num_slots": 0},
    {"num_ads": 20, "num_slots": 11},          # default table has 10 factors
    {"num_ads": 3, "num_slots": 2, "mean_log_sigma": 0.0},
    {"num_ads": 3, "num_slots": 2, "std_factor": -1.0},
    {"num_ads": 3, "num_slots": 2, "quality_alpha": 0.0},
    {"num_ads": 3, "num_slots": 2, "continuation_low": 0.8, "continuation_high": 0.2},
    {"num_ads": 3, "num_slots": 2, "continuation_high": 1.5},
])
def test_generator_config_validation(kwargs):
    with pytest.raises(ValueError):
        GeneratorConfig(**kwargs)


def test_run_pipeline_smoke():
    cfg = GeneratorConfig(num_ads=10, num_slots=3, seed=5)
    records = run_pipeline(cfg, trials=2, reps=1)
    assert len(records) == 4 * 2
    by_algo = {}
    for r in records:
        by_algo.setdefault(r.algorithm, []).append(r)
        assert r.wall_time_s >= 0.0
        assert r.num_ads == 10 and r.num_slots == 3 and r.seed == 5
    assert set(by_algo) == {"prune", "exact", "colored", "sorted"}
    for r in by_algo["prune"]:
        assert r.value is None and r.ratio is None
        assert 3 <= r.surviving <= 10
    for r in by_algo["exact"]:
        assert r.complete is True
        assert r.ratio == 1.0
    for algo in ("colored", "sorted"):
        for r in by_algo[algo]:
            assert r.value is not None
            assert 0.0 < r.ratio <= 1.0 + 1e-9


def test_run_pipeline_subset_of_algorithms():
    cfg = GeneratorConfig(num_ads=8, num_slots=2, seed=6)
    records = run_pipeline(cfg, algorithms=("prune", "sorted"), trials=1, reps=1)
    assert [r.algorithm for r in records] == ["prune", "sorted"]
    # without an exact reference the best value defines ratio 1.0
    assert records[1].ratio == 1.0


def test_run_pipeline_validates_algorithms():
    cfg = GeneratorConfig(num_ads=6, num_slots=2, seed=0)
    with pytest.raises(ValueError):
        run_pipeline(cfg, algorithms=())
    with pytest.raises(ValueError):
        run_pipeline(cfg, algorithms=("exact", "magic"))


def test_run_pipeline_exact_cap_skips_exact():
    cfg = GeneratorConfig(num_ads=9, num_slots=2, seed=7)
    records = run_pipeline(cfg, algorithms=("exact", "sorted"), trials=1, reps=1,
                           exact_cap=0)
    assert all(r.algorithm != "exact" for r in records)


def test_emit_report_shapes_and_determinism(tmp_path):
    cfg = GeneratorConfig(num_ads=10, num_slots=3, seed=9)
    records = run_pipeline(cfg, trials=2, reps=1)
    rec_path = tmp_path / "records.csv"
    agg_path = tmp_path / "aggregate.csv"
    emit_report(records, str(rec_path), str(agg_path))

    lines = rec_path.read_text().splitlines()
    assert lines[0] == RECORD_HEADER
    assert len(lines) == len(records) + 1
    # float cells round-trip exactly through repr
    first_value = lines[1].split(",")[5]
    assert repr(float(first_value)) == first_value

    agg_lines = agg_path.read_text().splitlines()
    assert agg_lines[0].startswith("algorithm,num_ads,num_slots,count,")
    assert len(agg_lines) == 1 + 4  # one group per algorithm

    emit_report(records, str(tmp_path / "r2.csv"), str(tmp_path / "a2.csv"))
    assert (tmp_path / "r2.csv").read_text() == rec_path.read_text()


def test_emit_report_requires_records(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], str(tmp_path / "r.csv"), str(tmp_path / "a.csv"))
