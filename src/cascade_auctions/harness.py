"""Synthetic instance generation and benchmark pipelines.

The generator mirrors a sponsored-search setup: per-ad value means come
from a lognormal meta-distribution (the original per-ad statistics are
proprietary), values are Gaussians truncated at zero around those means,
qualities follow Beta(2, 5), and continuation probabilities default to
Uniform(0, 1), a declared guess since no source distribution is
available.  Slot factors default to a fixed published table for the first
ten slots.

Everything is reproducible: trial t of a run with seed s generates its
instance from a generator seeded with (s, t), and algorithm seeds are
derived from (s, t) as well, so reruns are byte-identical.  Trials run
one after another, so each record times one trial alone.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coloring import colored_ads
from .exact import solve_exact
from .model import AuctionInstance, SlotLadder
from .prune import prune_instance
from .sorted_dp import multi_order_approx, reverse_natural_order

__all__ = [
    "DEFAULT_SLOT_FACTORS",
    "GeneratorConfig",
    "BenchRecord",
    "generate_instance",
    "run_pipeline",
    "emit_report",
]

DEFAULT_SLOT_FACTORS = (1.0, 0.71, 0.56, 0.53, 0.49, 0.47, 0.44, 0.44, 0.43, 0.43)

_ALGORITHMS = ("prune", "exact", "colored", "sorted")

_EXACT_BUDGET = 2_000_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape and distribution parameters for synthetic instances."""

    num_ads: int
    num_slots: int
    seed: int = 0
    mean_log_mu: float = 0.0
    mean_log_sigma: float = 0.5
    std_factor: float = 0.3
    quality_alpha: float = 2.0
    quality_beta: float = 5.0
    continuation_low: float = 0.0
    continuation_high: float = 1.0
    slot_factors: tuple[float, ...] = DEFAULT_SLOT_FACTORS

    def __post_init__(self) -> None:
        if not 1 <= self.num_slots <= self.num_ads:
            raise ValueError(
                f"need 1 <= num_slots <= num_ads, got K={self.num_slots} N={self.num_ads}"
            )
        if self.num_slots > len(self.slot_factors):
            raise ValueError(
                f"slot factor table has {len(self.slot_factors)} entries, "
                f"too few for K={self.num_slots}; pass a longer slot_factors"
            )
        if self.mean_log_sigma <= 0 or self.std_factor <= 0:
            raise ValueError("distribution scales must be positive")
        if self.quality_alpha <= 0 or self.quality_beta <= 0:
            raise ValueError("beta parameters must be positive")
        if not 0.0 <= self.continuation_low <= self.continuation_high <= 1.0:
            raise ValueError("continuation range must sit inside [0, 1]")


def generate_instance(config: GeneratorConfig, trial: int = 0) -> AuctionInstance:
    """One synthetic instance, deterministic in (config.seed, trial).

    Draw order is fixed (means, values, qualities, continuations) so the
    same seed always yields the same instance.
    """
    rng = np.random.default_rng((config.seed, trial))
    n = config.num_ads
    means = rng.lognormal(config.mean_log_mu, config.mean_log_sigma, size=n)
    stds = config.std_factor * means
    values = rng.normal(means, stds)
    bad = values < 0.0
    while np.any(bad):
        values[bad] = rng.normal(means[bad], stds[bad])
        bad = values < 0.0
    qualities = rng.beta(config.quality_alpha, config.quality_beta, size=n)
    continuations = rng.uniform(
        config.continuation_low, config.continuation_high, size=n
    )
    ladder = SlotLadder.from_factors(
        config.slot_factors[: config.num_slots], num_slots=config.num_slots
    )
    return AuctionInstance.from_columns(np.arange(1, n + 1), values, qualities, continuations, ladder)


@dataclass(frozen=True)
class BenchRecord:
    """One (trial, algorithm) measurement."""

    algorithm: str
    trial: int
    num_ads: int
    num_slots: int
    seed: int
    wall_time_s: float
    value: float | None
    ratio: float | None
    surviving: int | None
    complete: bool | None


def _timed(fn: Callable[[], object], reps: int) -> tuple[float, object]:
    times = []
    result = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_pipeline(
    config: GeneratorConfig,
    algorithms: Sequence[str] = _ALGORITHMS,
    trials: int = 1,
    reps: int = 5,
    exact_cap: int = 25,
) -> list[BenchRecord]:
    """Generate, prune, and measure each requested algorithm per trial.

    Algorithms run with their defaults on the pruned instance; sorted also
    tries both natural orders, and exact (on at most ``exact_cap`` ads)
    gets 2,000,000 nodes and the sorted allocation as warm start.

    The reference for ratios is the exact value when the branch and bound
    finished within budget on the pruned instance, otherwise the best
    value any algorithm produced for that trial.  Trials run one after
    another, in trial order.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    unknown = set(algorithms) - set(_ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms {sorted(unknown)}; known: {_ALGORITHMS}")

    def one_trial(trial: int) -> list[BenchRecord]:
        instance = generate_instance(config, trial)
        algo_seed = config.seed * 1_000_003 + trial
        prune_time, (pruned, report) = _timed(
            lambda: prune_instance(instance), reps
        )

        values: dict[str, float] = {}
        times: dict[str, float] = {}

        sorted_result = None
        if "sorted" in algorithms or "exact" in algorithms:
            t, sorted_result = _timed(
                lambda: multi_order_approx(
                    pruned,
                    seed=algo_seed,
                    extra_orders=(reverse_natural_order(pruned),),
                ),
                reps,
            )
            if "sorted" in algorithms:
                times["sorted"] = t
                values["sorted"] = sorted_result.value

        if "colored" in algorithms:
            t, colored_result = _timed(
                lambda: colored_ads(pruned, seed=algo_seed),
                reps,
            )
            times["colored"] = t
            values["colored"] = colored_result.value

        exact_complete = None
        if "exact" in algorithms and pruned.num_ads <= exact_cap:
            warm = sorted_result.alloc.slots if sorted_result is not None else None
            t0 = time.perf_counter()
            res = solve_exact(pruned, budget=_EXACT_BUDGET, warm_start=warm)
            times["exact"] = time.perf_counter() - t0
            values["exact"] = res.best_value
            exact_complete = res.complete
            if res.complete and instance.num_ads <= 12:
                unpruned = solve_exact(instance, budget=_EXACT_BUDGET)
                if unpruned.complete and abs(unpruned.best_value - res.best_value) > 1e-9:
                    raise RuntimeError(
                        f"pruning changed the optimum on trial {trial}: "
                        f"{unpruned.best_value} vs {res.best_value}"
                    )

        reference = values["exact"] if exact_complete else max(values.values(), default=None)
        records = []
        for algo in algorithms:
            if algo == "prune":
                measured = dict(
                    wall_time_s=prune_time, value=None, ratio=None, surviving=pruned.num_ads, complete=None
                )
            elif algo in values:
                measured = dict(
                    wall_time_s=times[algo],
                    value=values[algo],
                    ratio=values[algo] / reference if reference else None,
                    surviving=None,
                    complete=exact_complete if algo == "exact" else None,
                )
            else:
                continue
            records.append(
                BenchRecord(
                    algorithm=algo,
                    trial=trial,
                    num_ads=instance.num_ads,
                    num_slots=instance.num_slots,
                    seed=config.seed,
                    **measured,
                )
            )
        return records

    out: list[BenchRecord] = []
    for trial in range(trials):
        out.extend(one_trial(trial))
    return out


_RECORD_COLUMNS = (
    "algorithm",
    "trial",
    "num_ads",
    "num_slots",
    "seed",
    "wall_time_s",
    "value",
    "ratio",
    "surviving",
    "complete",
)

_AGGREGATE_COLUMNS = (
    "algorithm",
    "num_ads",
    "num_slots",
    "count",
    "mean_wall_time_s",
    "median_wall_time_s",
    "min_wall_time_s",
    "mean_value",
    "mean_ratio",
    "min_ratio",
    "mean_surviving",
)


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(
    records: Sequence[BenchRecord], records_path: str, aggregate_path: str
) -> None:
    """Writes one CSV row per record plus per-(algorithm, N, K) aggregates.

    Output is deterministic: fixed column order, shortest-round-trip float
    formatting, groups sorted by key.
    """
    if not records:
        raise ValueError("no records to report")

    lines = [",".join(_RECORD_COLUMNS)]
    for r in records:
        lines.append(
            ",".join(_cell(getattr(r, col)) for col in _RECORD_COLUMNS)
        )
    with open(records_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    groups: dict[tuple[str, int, int], list[BenchRecord]] = {}
    for r in records:
        groups.setdefault((r.algorithm, r.num_ads, r.num_slots), []).append(r)

    agg_lines = [",".join(_AGGREGATE_COLUMNS)]
    for key in sorted(groups):
        rows = groups[key]
        walls = [r.wall_time_s for r in rows]
        vals = [r.value for r in rows if r.value is not None]
        ratios = [r.ratio for r in rows if r.ratio is not None]
        survivors = [r.surviving for r in rows if r.surviving is not None]
        cells = [
            key[0],
            key[1],
            key[2],
            len(rows),
            statistics.fmean(walls),
            statistics.median(walls),
            min(walls),
            statistics.fmean(vals) if vals else None,
            statistics.fmean(ratios) if ratios else None,
            min(ratios) if ratios else None,
            statistics.fmean(survivors) if survivors else None,
        ]
        agg_lines.append(",".join(_cell(c) for c in cells))
    with open(aggregate_path, "w") as fh:
        fh.write("\n".join(agg_lines) + "\n")
