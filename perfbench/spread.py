"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Runs the benchmark command of BENCHMARK.json once per seed and workload,
one run at a time, and prints per metric the median of the runs, their
first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over the median) and the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 [--workloads desk,grid] [--json out.json]
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    status = 0
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = done.returncode == 0 and result["correct"]
            status |= not ok
            print(f"{workload} seed={seed} exit={done.returncode} correct={result['correct']} "
                  f"attempted={result['attempted']} wall={wall:.1f}s", flush=True)
            runs.setdefault(workload, []).append(
                {"seed": seed, "wall_s": wall, **{k: v["value"] for k, v in result["metrics"].items()}})

    print()
    print("| workload | metric | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, rows in runs.items():
        for metric, bound in bounds.items():
            values = [r[metric] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            print(f"| {workload} | {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{bound} | {spread / bound:.2f} |")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
