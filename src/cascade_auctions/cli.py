"""Command-line front end.

Subcommands mirror the library surface: generate instances, prune them,
solve them with any algorithm, run a mechanism over a bid profile, verify
a cataloged witness, and benchmark the pipeline.  Instances and bid
profiles travel as JSON files; results print as JSON (default) or CSV.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .coloring import colored_ads
from .counterexamples import catalog_names, lemma_instance, verify
from .exact import solve_exact
from .harness import GeneratorConfig, emit_report, generate_instance, run_pipeline
from .mechanisms import gsp_outcome, vcg_apdc_outcome, vcg_pdc_outcome
from .model import (
    AuctionError,
    dump_instance,
    instance_to_dict,
    load_instance,
)
from .prune import prune_instance
from .sorted_dp import multi_order_approx, reverse_natural_order

__all__ = ["main"]


def _print(payload: object, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    # csv: flatten dicts to key,value rows; lists of dicts to a table
    if isinstance(payload, list) and payload and isinstance(payload[0], dict):
        cols = list(payload[0])
        print(",".join(cols))
        for row in payload:
            print(",".join(str(row[c]) for c in cols))
    elif isinstance(payload, dict):
        print("key,value")
        for key in sorted(payload):
            print(f"{key},{json.dumps(payload[key])}")
    else:
        print(payload)


def _load(path: str):
    with open(path) as fh:
        return load_instance(fh.read())


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(num_ads=args.ads, num_slots=args.slots, seed=args.seed)
    instance = generate_instance(config, trial=args.trial)
    text = dump_instance(instance)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    pruned, report = prune_instance(
        instance,
        strategy=args.strategy,
        discard_threshold=args.threshold,
    )
    if args.out_instance:
        with open(args.out_instance, "w") as fh:
            fh.write(dump_instance(pruned) + "\n")
    payload = {
        "surviving": list(report.surviving),
        "discarded": list(report.discarded),
        "iterations": report.iterations,
        "lambda_max": report.bound_used.lambda_max,
        "bound": report.bound_used.bound,
        "instance": None if args.out_instance else instance_to_dict(pruned),
    }
    _print(payload, args.format)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    if args.algo == "exact":
        res = solve_exact(instance, budget=args.budget)
        payload = {
            "algo": "exact",
            "value": res.best_value,
            "slots": list(res.best_alloc.slots),
            "nodes_explored": res.nodes_explored,
            "complete": res.complete,
        }
    elif args.algo == "colored":
        res = colored_ads(
            instance,
            iterations=args.iterations,
            seed=args.seed,
            time_budget=args.time_budget,
        )
        payload = {
            "algo": "colored",
            "value": res.value,
            "slots": list(res.alloc.slots),
            "iteration": res.iteration,
            "iterations_run": res.iterations_run,
        }
    else:
        extra = (reverse_natural_order(instance),) if args.include_natural else ()
        res = multi_order_approx(
            instance,
            order_count=args.orders,
            seed=args.seed,
            extra_orders=extra,
            include_natural=args.include_natural,
        )
        payload = {
            "algo": "sorted",
            "value": res.value,
            "slots": list(res.alloc.slots),
            "order_index": res.order_index,
        }
    _print(payload, args.format)
    return 0


def _cmd_mech(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    with open(args.bids) as fh:
        raw = json.load(fh)
    bids = {int(k): float(v) for k, v in raw.items()}
    if args.mechanism == "gsp":
        outcome = gsp_outcome(instance, bids, rank_by_quality=args.rank_by_quality)
    elif args.mechanism == "vcg-pdc":
        outcome = vcg_pdc_outcome(instance, bids)
    else:
        outcome = vcg_apdc_outcome(
            instance, bids, allocator=args.allocator, seed=args.seed,
            budget=args.budget,
        )
    payload = {
        "mechanism": outcome.mechanism,
        "allocator": outcome.allocator,
        "slots": list(outcome.alloc.slots),
        "payments": {str(k): v for k, v in sorted(outcome.payments.items())},
        "utilities": {str(k): v for k, v in sorted(outcome.utilities.items())},
        "revenue": outcome.revenue,
        "social_welfare": outcome.social_welfare,
    }
    _print(payload, args.format)
    return 0


def _cmd_verify_lemma(args: argparse.Namespace) -> int:
    entry = lemma_instance(args.name, eps=args.eps, num_slots=args.slots)
    checks = verify(entry, tol=args.tol)
    rows = [asdict(c) for c in checks]
    _print(rows, args.format)
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = GeneratorConfig(num_ads=args.ads, num_slots=args.slots, seed=args.seed)
    records = run_pipeline(
        config,
        algorithms=tuple(args.algorithms.split(",")),
        trials=args.trials,
        reps=args.reps,
    )
    emit_report(records, args.records, args.aggregate)
    bad = [
        r for r in records if r.ratio is not None and r.ratio > 1.0 + 1e-9
    ]
    summary = {
        "records": len(records),
        "records_path": args.records,
        "aggregate_path": args.aggregate,
        "ratio_violations": len(bad),
    }
    _print(summary, args.format)
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-auctions",
        description="Cascade-model ad auction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("generate", help="emit a synthetic instance as JSON")
    p.add_argument("--ads", type=int, required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("prune", help="drop dominated ads from an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", default="min",
                   choices=("min", "const-lambda", "decouple", "aggressive"))
    p.add_argument("--threshold", type=int, default=None,
                   help="dominator count that discards an ad (default: slot count)")
    p.add_argument("--out-instance", help="write the pruned instance JSON here")
    add_format(p)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("solve", help="run one winner-determination algorithm")
    p.add_argument("--input", required=True)
    p.add_argument("--algo", required=True, choices=("exact", "colored", "sorted"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="exact: node budget")
    p.add_argument("--iterations", type=int, default=None, help="colored: pass count")
    p.add_argument("--time-budget", type=float, default=None,
                   help="colored: seconds before stopping between batches")
    p.add_argument("--orders", type=int, default=None, help="sorted: random order count")
    p.add_argument("--include-natural", action="store_true",
                   help="sorted: also try the two value-density orders")
    add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mech", help="run a mechanism over a bid profile")
    p.add_argument("--input", required=True)
    p.add_argument("--bids", required=True, help="JSON file {ad id: bid}")
    p.add_argument("--mechanism", required=True, choices=("gsp", "vcg-pdc", "vcg-apdc"))
    p.add_argument("--allocator", default="exact", choices=("exact", "colored", "sorted"))
    p.add_argument("--rank-by-quality", action="store_true",
                   help="gsp: rank by quality-weighted bid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="vcg-apdc exact: node budget per solve (needed above 20 ads); "
                        "running out is an error")
    add_format(p)
    p.set_defaults(func=_cmd_mech)

    p = sub.add_parser("verify-lemma", help="check one cataloged witness instance")
    p.add_argument("--name", required=True, choices=catalog_names())
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    add_format(p)
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("bench", help="generate, prune, solve, and report timings")
    p.add_argument("--ads", type=int, required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--algorithms", default="prune,exact,colored,sorted")
    p.add_argument("--records", required=True, help="per-record CSV output path")
    p.add_argument("--aggregate", required=True, help="aggregate CSV output path")
    add_format(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AuctionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
