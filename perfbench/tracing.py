"""Outside-in tracing of the library for the traced benchmark run.

``install`` wraps the public functions and methods of each package module
that the workloads reach (plus the private counting and batch-DP engines)
and rebinds every module attribute that refers to them, so calls made
inside the package, such as ``mechanisms.solve_exact`` or
``exact.choose_bound``, go through the wrappers too.  Nothing under
``src/`` changes.

Each wrapped call appends one span: name, start, end, parent span and op
id, plus up to four counts read from its arguments or return value.
Spans are kept in flat arrays in memory and written out when the run
ends.  Spans are appended in call order and nest strictly, so the
descendants of span ``i`` are the contiguous run of spans after it that
start before it ends; ``layer_metrics`` relies on that.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

LAYERS = ("model", "prune", "sorted_dp", "coloring", "exact", "mechanisms")

Counter = Callable[[tuple, dict, Any], tuple[int, ...]]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _prune_counts(args, kwargs, result):
    _, report = result
    return (report.iterations, len(report.surviving), report.fallbacks, args[0].num_ads)


def _input_size(args, kwargs, result):
    return (args[0].num_ads,)


def _exact_counts(args, kwargs, result):
    return (result.nodes_explored, int(not result.complete))


def _colored_counts(args, kwargs, result):
    return (result.iterations_run,)


def _draw_counts(args, kwargs, result):
    return (_arg(args, kwargs, 2, "count"),)


def _batch_counts(args, kwargs, result):
    return (_arg(args, kwargs, 1, "orders").shape[0],)


# (module, attribute, counter); the span name is "<module>.<attribute>"
FUNCTIONS: tuple[tuple[str, str, Counter | None], ...] = (
    ("model", "load_instance", None),
    ("model", "social_welfare", None),
    ("model", "ctr", None),
    ("prune", "prune_instance", _prune_counts),
    ("prune", "choose_bound", None),
    ("prune", "const_lambda_bound", None),
    ("prune", "decouple_bounds", None),
    ("prune", "count_dominators_naive", None),
    ("prune", "rank_vectors", None),
    ("prune", "_fast_counts", None),
    ("prune", "_dominance_matrix", None),
    ("sorted_dp", "multi_order_approx", _input_size),
    ("sorted_dp", "sorted_ads", None),
    ("sorted_dp", "natural_order", None),
    ("sorted_dp", "_dp_values_batch", _batch_counts),
    ("coloring", "colored_ads", _colored_counts),
    ("coloring", "colored_pass", None),
    ("coloring", "draw_colorings", _draw_counts),
    ("exact", "solve_exact", _exact_counts),
    ("mechanisms", "is_nash", None),
    ("mechanisms", "vcg_apdc_outcome", None),
)

# AuctionInstance methods; building an instance is timed as its __post_init__
METHODS = (
    ("arrays", "model.arrays"),
    ("restricted_to", "model.restricted_to"),
    ("without", "model.without"),
    ("with_values", "model.with_values"),
    ("__post_init__", "model.instance_build"),
)


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts = [array("q") for _ in range(4)]
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        for c in self.counts:
            c.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, span: str, fn: Callable, counter: Counter | None = None) -> Callable:
        name_id = self.name_id(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if counter is not None:
                for slot, value in zip(tracer.counts, counter(args, kwargs, result)):
                    slot[idx] = int(value)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            counts=np.stack([np.frombuffer(c, dtype=np.int64) for c in self.counts]),
        )


def install(tracer: Tracer) -> None:
    """Wraps every traced callable and rebinds all package references to it."""
    import cascade_auctions
    from cascade_auctions import model

    package = [m for n, m in sorted(sys.modules.items())
               if n == "cascade_auctions" or n.startswith("cascade_auctions.")]
    for module_name, attr, counter in FUNCTIONS:
        original = getattr(getattr(cascade_auctions, module_name), attr)
        wrapped = tracer.wrap(f"{module_name}.{attr}", original, counter)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for attr, span in METHODS:
        setattr(model.AuctionInstance, attr, tracer.wrap(span, getattr(model.AuctionInstance, attr)))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, num_ops: int, full_size: int | None) -> dict[str, float]:
    """Per-op layer metrics from the recorded spans of ops 0..num_ops-1.

    ``full_size`` is the workload's N, used to tell the sorted DP over all
    ads from the one over survivors.  Self time is a span's duration minus
    its children's; a layer's self time sums it over the layer's spans.
    """
    names = tracer.names
    name = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    counts = [np.frombuffer(c, dtype=np.int64) for c in tracer.counts]
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    def ids(*span_names: str) -> list[int]:
        return [names.index(s) for s in span_names if s in names]

    def is_(*span_names: str) -> np.ndarray:
        return np.isin(name, ids(*span_names))

    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def under(*span_names: str) -> np.ndarray:
        return np.isin(parent_name, ids(*span_names))

    span_layer = np.array([_layer(n) for n in names])[name]

    def within(root: str, layer: str) -> float:
        """Self time of ``layer`` spans inside the subtrees of ``root`` spans."""
        roots = np.flatnonzero(is_(root))
        if roots.size == 0:
            return 0.0
        csum = np.concatenate(([0.0], np.cumsum(np.where(span_layer == layer, self_t, 0.0))))
        last = np.searchsorted(start, end[roots], side="left")
        return float(np.sum(csum[last] - csum[roots]))

    ops = max(num_ops, 1)

    def per_op(x: float) -> float:
        return float(x) / ops

    op_spans = is_("op")
    op_time = float(dur[op_spans].sum())
    out: dict[str, float] = {}

    for layer in LAYERS:
        own = float(self_t[span_layer == layer].sum())
        out[f"layer.{layer}_s"] = per_op(own)
        out[f"layer.{layer}_share"] = own / op_time if op_time else 0.0

    out["model.load_s"] = per_op(dur[is_("model.load_instance")].sum())
    out["model.arrays_s"] = per_op(dur[is_("model.arrays")].sum())
    out["model.arrays_calls"] = per_op(is_("model.arrays").sum())
    out["model.instances_built"] = per_op(is_("model.instance_build").sum())
    out["model.welfare_calls"] = per_op(is_("model.social_welfare", "model.ctr").sum())

    pr = is_("prune.prune_instance")
    out["prune.total_s"] = per_op(dur[pr].sum())
    out["prune.self_s"] = per_op(within("prune.prune_instance", "prune"))
    out["prune.count_s"] = per_op(
        dur[is_("prune._fast_counts", "prune.count_dominators_naive") & under("prune.prune_instance")].sum()
    )
    out["prune.bound_s"] = per_op(dur[is_("prune.choose_bound") & under("prune.prune_instance")].sum())
    out["prune.rounds"] = per_op(counts[0][pr].sum())
    prune_inputs = float(counts[3][pr].sum())
    out["prune.survivor_ratio"] = float(counts[1][pr].sum()) / prune_inputs if prune_inputs else 0.0
    out["prune.fallbacks"] = per_op(counts[2][pr].sum())

    multi = is_("sorted_dp.multi_order_approx")
    out["sorted_dp.multi_s"] = per_op(dur[multi].sum())
    full = multi & (counts[0] == (full_size if full_size is not None else -1))
    out["sorted_dp.full_s"] = per_op(dur[full].sum())
    out["sorted_dp.batch_dp_s"] = per_op(dur[is_("sorted_dp._dp_values_batch")].sum())
    out["sorted_dp.orders"] = per_op(counts[0][is_("sorted_dp._dp_values_batch")].sum())
    out["sorted_dp.replay_s"] = per_op(dur[is_("sorted_dp.sorted_ads") & under("sorted_dp.multi_order_approx")].sum())
    out["sorted_dp.bound_dp_s"] = per_op(dur[is_("sorted_dp.sorted_ads") & under("prune.const_lambda_bound")].sum())

    col = is_("coloring.colored_ads")
    draw = is_("coloring.draw_colorings")
    out["coloring.total_s"] = per_op(dur[col].sum())
    out["coloring.dp_s"] = per_op(self_t[col].sum())
    out["coloring.draw_s"] = per_op(dur[draw].sum())
    out["coloring.replay_s"] = per_op(dur[is_("coloring.colored_pass")].sum())
    passes = float(counts[0][col].sum())
    rows = float(counts[0][draw].sum())
    out["coloring.passes"] = per_op(passes)
    out["coloring.rows_drawn"] = per_op(rows)
    out["coloring.draw_efficiency"] = passes / rows if rows else 0.0

    ex = is_("exact.solve_exact")
    out["exact.solve_s"] = per_op(dur[ex].sum())
    out["exact.setup_s"] = per_op(dur[under("exact.solve_exact") & is_(
        "prune.choose_bound", "prune.decouple_bounds", "prune._dominance_matrix", "sorted_dp.natural_order")].sum())
    out["exact.calls"] = per_op(ex.sum())
    out["exact.nodes"] = per_op(counts[0][ex].sum())
    out["exact.incomplete"] = per_op(counts[1][ex].sum())

    vcg = is_("mechanisms.vcg_apdc_outcome")
    alloc = under("mechanisms.vcg_apdc_outcome") & is_(
        "exact.solve_exact", "coloring.colored_ads", "sorted_dp.multi_order_approx")
    outcomes = float(vcg.sum())
    out["mechanisms.is_nash_s"] = per_op(dur[is_("mechanisms.is_nash")].sum())
    out["mechanisms.outcomes"] = per_op(outcomes)
    out["mechanisms.deviations"] = per_op(outcomes - is_("mechanisms.is_nash").sum())
    out["mechanisms.vcg_apdc_s"] = per_op(self_t[vcg].sum())
    out["mechanisms.allocator_calls"] = per_op(alloc.sum())
    out["mechanisms.allocator_calls_per_outcome"] = float(alloc.sum()) / outcomes if outcomes else 0.0
    out["mechanisms.allocator_s"] = per_op(dur[alloc].sum())

    out["trace.op_s"] = per_op(op_time)
    out["trace.spans_per_op"] = per_op(len(dur) - op_spans.sum())
    out["layer.untraced_share"] = float(self_t[op_spans].sum()) / op_time if op_time else 0.0
    return out
