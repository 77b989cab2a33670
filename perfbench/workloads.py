"""The four benchmark workloads: inputs, one operation, and its checks.

An operation ("op") is one auction cleared (``desk``, ``wide``, ``deep``)
or one equilibrium check (``grid``).  Each workload turns the workload
seed into a pool of inputs before anything is timed; a run makes whole
passes over the pool.  Library functions are always looked up through
their module at call time (``prune.prune_instance``), so the traced run
sees the timing wrappers that ``tracing`` installs there.

Every op result is checked outside the timed region, as soon as the op
returns.  ``check`` returns a list of problems, empty when the op is
correct; ``summary`` then keeps only what ``quality`` and ``digest_rows``
read, so the run does not hold the instances of every item it made.
``check_pool`` adds the checks that compare items of one pool with each
other.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from cascade_auctions import coloring, exact, harness, mechanisms, model, prune, sorted_dp

TOL = 1e-9
ORDER_COUNT = 250
EXACT_BUDGET = 2_000_000

# criterion 06's shape stream: every seed sees the same (n, K) sequence and
# draws only the values, so the mix of cheap n=2 and costly n=6 checks,
# which dominates grid op time, does not vary from seed to seed
GRID_SHAPE_SEED = 606
GRID_POINTS = 21
GRID_ALLOCATORS = (
    ("exact", {}),
    ("colored", {"iterations": 12}),
    ("sorted", {"order_count": 8}),
)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _welfare_problems(label: str, inst: model.AuctionInstance, value: float, alloc) -> list[str]:
    recomputed = model.social_welfare(inst, alloc)
    if not _close(value, recomputed):
        return [f"{label}: reported {value!r} but social_welfare gives {recomputed!r}"]
    return []


@dataclass(frozen=True)
class AuctionItem:
    trial: int
    text: str  # canonical instance JSON; the op starts by parsing it
    algo_seed: int


@dataclass(frozen=True)
class AuctionResult:
    instance: model.AuctionInstance
    pruned: model.AuctionInstance
    report: prune.DominanceReport
    full_sorted: sorted_dp.SortedDpResult | None
    warm: sorted_dp.SortedDpResult
    opt: exact.OracleResult
    colored: coloring.ColoredResult


@dataclass(frozen=True)
class AuctionSummary:
    sorted_value: float  # the sorted DP the quality ratio uses
    exact_value: float
    colored_value: float
    row: list  # survivor ids, allocations and values, for the digest


@dataclass(frozen=True)
class AuctionWorkload:
    """load -> prune -> [sorted DP on all ads] -> sorted DP on survivors
    (warm start) -> exact -> color coding with the default pass count."""

    name: str
    num_ads: int
    num_slots: int
    fast_prune: bool
    full_sorted: bool
    pool_size: int

    def pool(self, seed: int) -> list[AuctionItem]:
        config = harness.GeneratorConfig(num_ads=self.num_ads, num_slots=self.num_slots, seed=seed)
        return [
            AuctionItem(t, model.dump_instance(harness.generate_instance(config, t)),
                        seed * 1_000_003 + t)
            for t in range(self.pool_size)
        ]

    def tiny_items(self) -> list[AuctionItem]:
        config = harness.GeneratorConfig(num_ads=4 * self.num_slots, num_slots=self.num_slots, seed=0)
        return [AuctionItem(0, model.dump_instance(harness.generate_instance(config)), 0)]

    def op(self, item: AuctionItem) -> AuctionResult:
        inst = model.load_instance(item.text)
        pruned, report = prune.prune_instance(inst, use_fast=self.fast_prune)
        full = None
        if self.full_sorted:
            full = sorted_dp.multi_order_approx(
                inst, order_count=ORDER_COUNT, seed=item.algo_seed, include_natural=False
            )
        warm = sorted_dp.multi_order_approx(
            pruned, order_count=ORDER_COUNT, seed=item.algo_seed, include_natural=False
        )
        opt = exact.solve_exact(pruned, budget=EXACT_BUDGET, warm_start=warm.alloc.slots)
        col = coloring.colored_ads(pruned, seed=item.algo_seed)
        return AuctionResult(inst, pruned, report, full, warm, opt, col)

    def prune_only(self, item: AuctionItem) -> None:
        prune.prune_instance(model.load_instance(item.text), use_fast=self.fast_prune)

    def check(self, item: AuctionItem, r: AuctionResult) -> list[str]:
        problems = []
        if not r.opt.complete:
            problems.append("exact solve ran out of budget")
        input_ids = set(r.instance.ids)
        if not set(r.pruned.ids) <= input_ids or not set(r.report.surviving) <= input_ids:
            problems.append("survivors are not a subset of the input ids")
        best = r.opt.best_value
        problems += _welfare_problems("exact", r.instance, best, r.opt.best_alloc)
        for label, res in (("sorted full", r.full_sorted), ("sorted warm", r.warm), ("colored", r.colored)):
            if res is None:
                continue
            if res.value > best + TOL:
                problems.append(f"{label}: {res.value!r} exceeds the exact optimum {best!r}")
            problems += _welfare_problems(label, r.instance, res.value, res.alloc)
        return [f"trial {item.trial}: {p}" for p in problems]

    def check_pool(self, results: dict[int, AuctionSummary]) -> list[str]:
        return []

    def summary(self, r: AuctionResult) -> AuctionSummary:
        """The sorted figure is the run on all ads when the route has one,
        else the run on the survivors."""
        row: list[Any] = [list(r.pruned.ids)]
        for res in (r.full_sorted, r.warm, r.colored):
            row += [None, None] if res is None else [list(res.alloc.slots), repr(res.value)]
        row += [list(r.opt.best_alloc.slots), repr(r.opt.best_value)]
        chosen = r.full_sorted if r.full_sorted is not None else r.warm
        return AuctionSummary(chosen.value, r.opt.best_value, r.colored.value, row)

    def quality(self, results: dict[int, AuctionSummary]) -> tuple[list[float], list[bool]]:
        """Sorted-DP welfare over the exact optimum, and whether color coding
        reached the optimum, per pool item."""
        ratios = [s.sorted_value / s.exact_value for s in results.values()]
        hits = [abs(s.colored_value - s.exact_value) <= TOL for s in results.values()]
        return ratios, hits

    def digest_rows(self, results: dict[int, AuctionSummary]) -> list[Any]:
        return [[key, *results[key].row] for key in sorted(results)]


@dataclass(frozen=True)
class GridItem:
    trial: int
    instance: model.AuctionInstance
    allocator: str
    kwargs: dict
    grids: dict


@dataclass(frozen=True)
class GridResult:
    nash: mechanisms.NashCheck
    base: mechanisms.MechanismOutcome  # the truthful outcome is_nash compares against


@dataclass(frozen=True)
class GridSummary:
    welfare: float  # of the truthful outcome
    row: list  # allocation, welfare and payments, for the digest


@dataclass(frozen=True)
class GridWorkload:
    """is_nash of the truthful profile under vcg_apdc_outcome, per allocator.

    Items are instance-major: the three allocators of one instance are
    consecutive."""

    name: str
    num_instances: int

    @staticmethod
    def _items(instances: list[model.AuctionInstance], points: int = GRID_POINTS) -> list[GridItem]:
        items = []
        for trial, inst in enumerate(instances):
            grids = {ad.id: np.linspace(0.0, 2.0 * ad.value, points) for ad in inst.ads}
            for allocator, kwargs in GRID_ALLOCATORS:
                items.append(GridItem(trial, inst, allocator, kwargs, grids))
        return items

    def pool(self, seed: int) -> list[GridItem]:
        stream = np.random.default_rng(GRID_SHAPE_SEED)
        instances = []
        for trial in range(self.num_instances):
            n = int(stream.integers(2, 7))
            config = harness.GeneratorConfig(num_ads=n, num_slots=int(stream.integers(1, n + 1)), seed=seed)
            instances.append(harness.generate_instance(config, trial))
        return self._items(instances)

    def tiny_items(self) -> list[GridItem]:
        config = harness.GeneratorConfig(num_ads=3, num_slots=2, seed=0)
        return self._items([harness.generate_instance(config)], points=2)

    @staticmethod
    def _outcome(item: GridItem, bids) -> mechanisms.MechanismOutcome:
        return mechanisms.vcg_apdc_outcome(
            item.instance, bids, allocator=item.allocator, seed=item.trial, **item.kwargs
        )

    def op(self, item: GridItem) -> GridResult:
        outcomes: list[mechanisms.MechanismOutcome] = []

        def mech(instance, bids):
            outcomes.append(self._outcome(item, bids))
            return outcomes[-1]

        truthful = mechanisms.truthful_profile(item.instance)
        nash = mechanisms.is_nash(item.instance, truthful, mech, item.grids, eps=TOL)
        return GridResult(nash, outcomes[0])

    def prune_only(self, item: GridItem) -> None:
        return None  # this workload never prunes

    def check(self, item: GridItem, r: GridResult) -> list[str]:
        problems = []
        if not r.nash.is_equilibrium:
            problems.append(
                f"truthful profile is not an equilibrium: ad {r.nash.agent} gains "
                f"{r.nash.gain!r} bidding {r.nash.bid!r}"
            )
        problems += _welfare_problems("outcome", item.instance, r.base.social_welfare, r.base.alloc)
        if item.allocator == "exact":
            placed = set(r.base.alloc.slots)
            for aid, pay in r.base.payments.items():
                if aid not in placed and abs(pay) > TOL:
                    problems.append(f"loser {aid} pays {pay!r}")
            for aid, util in r.base.utilities.items():
                if util < -TOL:
                    problems.append(f"ad {aid} has utility {util!r}")
        return [f"trial {item.trial} {item.allocator}: {p}" for p in problems]

    def summary(self, r: GridResult) -> GridSummary:
        payments = [[aid, repr(p)] for aid, p in sorted(r.base.payments.items())]
        return GridSummary(r.base.social_welfare,
                           [list(r.base.alloc.slots), repr(r.base.social_welfare), payments])

    @staticmethod
    def _by_trial(results: dict[int, GridSummary]) -> dict[int, dict[str, float]]:
        welfare: dict[int, dict[str, float]] = {}
        for key, s in results.items():
            trial, allocator = divmod(key, len(GRID_ALLOCATORS))
            welfare.setdefault(trial, {})[GRID_ALLOCATORS[allocator][0]] = s.welfare
        return welfare

    def check_pool(self, results: dict[int, GridSummary]) -> list[str]:
        problems = []
        for trial, w in sorted(self._by_trial(results).items()):
            for label in ("colored", "sorted"):
                if label in w and "exact" in w and w[label] > w["exact"] + TOL:
                    problems.append(f"trial {trial}: {label} welfare {w[label]!r} exceeds exact {w['exact']!r}")
        return problems

    def quality(self, results: dict[int, GridSummary]) -> tuple[list[float], list[bool]]:
        """The truthful outcome's welfare under the sorted and colored
        allocators, against the exact allocator's, per instance."""
        ratios, hits = [], []
        for w in self._by_trial(results).values():
            if len(w) < len(GRID_ALLOCATORS):
                continue  # an allocator failed on this instance; counted as a failure
            ratios.append(w["sorted"] / w["exact"])
            hits.append(abs(w["colored"] - w["exact"]) <= TOL)
        return ratios, hits

    def digest_rows(self, results: dict[int, GridSummary]) -> list[Any]:
        return [[key, *results[key].row] for key in sorted(results)]


WORKLOADS = {
    w.name: w
    for w in (
        AuctionWorkload("desk", num_ads=1000, num_slots=5, fast_prune=True, full_sorted=True, pool_size=34),
        AuctionWorkload("wide", num_ads=1500, num_slots=5, fast_prune=False, full_sorted=False, pool_size=34),
        AuctionWorkload("deep", num_ads=300, num_slots=7, fast_prune=True, full_sorted=False, pool_size=34),
        GridWorkload("grid", num_instances=12),
    )
}
