"""Traced-run report: end-to-end metrics, per-layer table, tracing overhead.

For each workload of BENCHMARK.json this runs the benchmark twice, untraced and traced,
with the same seed and length, and prints a markdown report:

* the end-to-end metrics of the untraced run, with units and sample
  counts, the failure rate and the output digest;
* per layer, its self time per op and its share of the traced op time
  (the base is given with every ratio), and the layer metrics;
* the checks of the workload design (which layer leads where);
* the tracing overhead, untraced against traced throughput of the same
  items within the traced run;
* for ``desk``, the layer times next to the ROADMAP "Measured baseline"
  rows they correspond to.

    python3 perfbench/report.py --seed 1 --seconds 15

The full records of both runs stay in ``perfbench/out/``, where run.py
writes them.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# ROADMAP "Measured baseline" rows for N=1000, K=5 (seed 707, one instance,
# minimum or median of 1-5 reps), against the desk layer metric that times
# the same call (mean per op over the desk pool, traced)
ROADMAP_DESK = (
    ("prune (fast)", 0.037, "prune.total_s"),
    ("sorted, 250 orders", 0.103, "sorted_dp.full_s"),
    ("colored, default passes on survivors", 0.011, "coloring.total_s"),
    ("exact, warm start", 0.0006, "exact.solve_s"),
)
AGREE_WITHIN = 0.3  # relative difference still read as agreement

# the largest layer by self time that the workload design predicts
LEADING_LAYER = {"desk": "sorted_dp", "wide": "prune", "deep": "coloring"}
SMALL_SHARE = 0.15  # "a small share": coloring on desk


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def value(record: dict, name: str) -> float:
    return record["metrics"][name]["value"]


def fmt(x: float) -> str:
    return f"{x:.4g}"


def design_checks(name: str, traced: dict) -> list[str]:
    shares = {layer: value(traced, f"layer.{layer}_share") for layer in LAYERS}
    leader = max(shares, key=shares.get)
    lines = [f"largest layer by self time: {leader} ({fmt(shares[leader])} of traced op time)"]
    if name in LEADING_LAYER:
        expected = LEADING_LAYER[name]
        verdict = "as designed" if leader == expected else f"MISS: expected {expected}"
        lines.append(f"expected largest: {expected} -> {verdict}")
    if name == "desk":
        share = shares["coloring"]
        verdict = "as designed" if share < SMALL_SHARE else "MISS"
        lines.append(f"coloring share {fmt(share)} < {SMALL_SHARE} -> {verdict}")
    if name == "grid":
        prune_s = value(traced, "prune.total_s")
        verdict = "as designed" if prune_s == 0.0 else "MISS"
        lines.append(f"prune_instance time per op {fmt(prune_s)} s (expected 0) -> {verdict}; "
                     f"prune-module code runs only as solve_exact set-up "
                     f"(exact.setup_s {fmt(value(traced, 'exact.setup_s'))} s/op)")
        op_s = value(traced, "trace.op_s")
        cover = value(traced, "mechanisms.is_nash_s") / op_s
        verdict = "as designed" if cover > 0.99 else "MISS"
        lines.append(f"is_nash covers {fmt(cover)} of traced op time "
                     f"({fmt(value(traced, 'mechanisms.is_nash_s'))} of {fmt(op_s)} s/op) -> {verdict}; "
                     f"allocators {fmt(value(traced, 'mechanisms.allocator_s') / op_s)} of it")
    return lines


def section(name: str, plain: dict, traced: dict) -> list[str]:
    out = [f"## {name}", "",
           f"Untraced: {plain['ops']} timed ops in {plain['passes']} passes over the pool, {plain['attempted']} attempted, "
           f"{plain['failed']} failed (failure_rate {plain['failure_rate']}), "
           f"{plain['beyond_p90']} samples beyond p90; digest `{plain['digest']}` "
           f"over {plain['digest_items']} pool items.", "",
           "| end-to-end metric | value | unit | samples |", "|---|---|---|---|"]
    for metric, m in plain["metrics"].items():
        out.append(f"| {metric} | {fmt(m['value'])} | {m['unit']} | {m['samples']} |")
    out.append(f"| failure_rate | {plain['failure_rate']} | ratio | {plain['attempted']} |")

    op_s = value(traced, "trace.op_s")
    out += ["", f"Traced: {traced['ops']} ops, traced op time {fmt(op_s)} s/op (the base of every share).",
            "", "| layer | self s/op | share of op time |", "|---|---|---|"]
    for layer in LAYERS:
        out.append(f"| {layer} | {fmt(value(traced, f'layer.{layer}_s'))} | "
                   f"{fmt(value(traced, f'layer.{layer}_share'))} |")
    out.append(f"| not in any traced call | - | {fmt(value(traced, 'layer.untraced_share'))} |")

    out += ["", "| layer metric | value per op | unit |", "|---|---|---|"]
    for metric, m in traced["metrics"].items():
        if not metric.startswith("layer."):
            out.append(f"| {metric} | {fmt(m['value'])} | {m['unit']} |")
    out.append("")
    out.append(f"Ratios with their bases: survivor_ratio = survivors / input ads "
               f"over prune calls; draw_efficiency = passes / rows drawn "
               f"({fmt(value(traced, 'coloring.passes'))} / {fmt(value(traced, 'coloring.rows_drawn'))} per op); "
               f"allocator_calls_per_outcome = allocator calls / vcg_apdc outcomes "
               f"({fmt(value(traced, 'mechanisms.allocator_calls'))} / {fmt(value(traced, 'mechanisms.outcomes'))} per op).")

    untraced_tp = value(traced, "trace.untraced_throughput_ops_per_s")
    traced_tp = value(traced, "trace.throughput_ops_per_s")
    out += ["", f"Tracing overhead: {fmt(value(traced, 'trace.overhead'))} "
            f"(untraced {fmt(untraced_tp)} ops/s over traced {fmt(traced_tp)} ops/s, minus 1, "
            f"each traced op paired with an untraced run of the same item in the traced run; "
            f"the separate untraced run gave {fmt(value(plain, 'throughput_ops_per_s'))} ops/s).", ""]
    out += [f"- {line}" for line in design_checks(name, traced)]
    out.append("")
    if name == "desk":
        out += ["ROADMAP cross-check (desk, traced, mean per op):", "",
                "| ROADMAP row | ROADMAP | measured | measured / ROADMAP | reading |", "|---|---|---|---|---|"]
        for label, roadmap, metric in ROADMAP_DESK:
            measured = value(traced, metric)
            ratio = measured / roadmap
            reading = "agrees" if abs(ratio - 1.0) <= AGREE_WITHIN else "disagrees"
            out.append(f"| {label} | {fmt(roadmap)} s | {fmt(measured)} s ({metric}) | {fmt(ratio)} | {reading} |")
        out.append("")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    lines = [f"# perfbench report, seed {args.seed}, {args.seconds} s per run", ""]
    for name in (w["name"] for w in spec["workloads"]):
        plain = run_once(name, args.seed, args.seconds, 0)
        traced = run_once(name, args.seed, args.seconds, 1)
        lines += section(name, plain, traced)
    lines.append("Environment: " + json.dumps(plain["env"], sort_keys=True))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
