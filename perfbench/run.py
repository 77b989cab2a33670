"""Closed-loop benchmark of the cascade_auctions library.

One client, one thread: the next op starts only after the previous one
returned and was checked.  Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

The inputs come from ``--seed`` and are built before timing.  Ops run in
whole passes over that pool, so every run times the same items, until
their summed wall time reaches ``--seconds`` and, untraced, at least
MIN_BEYOND_P90 latencies lie above the p90.  Each result is checked
outside the timed region.  With ``--trace 0`` the run reports the
end-to-end metrics; the set-up probes for ``setup_s`` run between ops,
spread evenly over the first ``--seconds`` of op time.  With
``--trace 1`` it installs the timing wrappers of ``tracing`` and reports
per-layer metrics instead; there every traced op is paired with an
untraced run of the same item, which gives the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment fingerprint, the output digest and sample counts, also goes
to ``perfbench/out/``.  The exit code is 0 only when every op and every
check succeeded.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import NoReturn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREADS_ENV_VAR = "CASCADE_AUCTIONS_THREADS"
SETUP_REPS = 11
MIN_BEYOND_P90 = 10
PRUNE_ALLOC_SAMPLES = 3
MAX_PRINTED_PROBLEMS = 20


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_source_tree() -> None:
    """Imports cascade_auctions from this checkout's src/, never elsewhere."""
    if not (SRC / "cascade_auctions" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'cascade_auctions'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cascade_auctions

    if Path(cascade_auctions.__file__).resolve().parent != (SRC / "cascade_auctions").resolve():
        fail(f"cascade_auctions imported from {cascade_auctions.__file__}, not from {SRC}")


def refuse_threads() -> None:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        threads = int(raw) if raw.strip() else 1
    except ValueError:
        fail(f"{THREADS_ENV_VAR}={raw!r} is not an integer")
    if threads > 1:
        fail(f"{THREADS_ENV_VAR}={threads}: timings with more than one worker are "
             "polluted by contention between trials; unset it or set it to 1")


def fingerprint() -> dict:
    from importlib import metadata

    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_imports": numba_imports,
        "nproc": len(os.sched_getaffinity(0)),
        THREADS_ENV_VAR: os.environ.get(THREADS_ENV_VAR),
        "machine": platform.machine(),
    }


def probe_setup(workload: str) -> float:
    """Set-up time of one fresh process."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        fail(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def beyond_p90(values: list[float]) -> int:
    ordered = sorted(values)
    p90 = percentile(ordered, 0.9)
    return sum(1 for x in ordered if x > p90)


def run(args: argparse.Namespace) -> int:
    use_source_tree()
    refuse_threads()
    from workloads import WORKLOADS

    import tracing

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = fingerprint()
    setup_times: list[float] = []

    pool = workload.pool(args.seed)
    for item in workload.tiny_items():  # lazy set-up and caches, before timing
        workload.op(item)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        op_span = tracer.name_id("op")

    problems: list[str] = []
    results: dict[int, object] = {}  # pool index -> workload.summary of its first result
    latencies: list[float] = []
    attempted = failed = 0

    def attempt(index: int, traced: bool = False) -> float:
        """Runs and checks one pool item; returns the run's wall time."""
        nonlocal attempted, failed
        item = pool[index]
        attempted += 1
        span = None
        if traced:
            tracer.op_id = len(latencies)
            tracer.active = True
            span = tracer.begin(op_span)
        t0 = time.perf_counter()
        try:
            result = workload.op(item)
        except Exception:
            result = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.finish(span)
            tracer.active = False
        found = [f"op {index} raised:\n{error}"] if result is None else workload.check(item, result)
        if found:
            failed += 1
            problems.extend(found)
        elif index not in results:
            results[index] = workload.summary(result)
        return elapsed

    def enough() -> bool:
        return spent >= args.seconds and (tracer is not None or beyond_p90(latencies) >= MIN_BEYOND_P90)

    gc.collect()
    spent = 0.0
    passes = 0
    untraced_latencies: list[float] = []  # traced run: the same items without tracing
    while not enough():
        for index in range(len(pool)):
            if tracer is None:
                # probe k of SETUP_REPS runs once k/SETUP_REPS of --seconds is spent
                while len(setup_times) < SETUP_REPS and len(setup_times) * args.seconds <= spent * SETUP_REPS:
                    setup_times.append(probe_setup(workload.name))
                latencies.append(attempt(index))
                spent += latencies[-1]
            else:
                # each traced op is paired with an untraced run of the same item,
                # in alternating order, so the overhead is measured in one window
                for traced in (True, False) if len(latencies) % 2 == 0 else (False, True):
                    elapsed = attempt(index, traced=traced)
                    (latencies if traced else untraced_latencies).append(elapsed)
                    spent += elapsed
        passes += 1
    timed_ops = len(latencies)

    if tracer is None:
        while len(setup_times) < SETUP_REPS:
            setup_times.append(probe_setup(workload.name))
        problems += workload.check_pool(results)
        if failed == 0 and problems:
            failed = 1

    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "ops": timed_ops,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failure_rate": failed / attempted,
        "problems": problems[:MAX_PRINTED_PROBLEMS],
    }
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, samples: int) -> None:
        metrics[name] = {"value": value, "unit": unit, "samples": samples}

    if tracer is None:
        lat = sorted(latencies)
        put("throughput_ops_per_s", timed_ops / spent, "1/s", timed_ops)
        put("latency_p50_s", percentile(lat, 0.5), "s", timed_ops)
        put("latency_p90_s", percentile(lat, 0.9), "s", timed_ops)
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
        ratios, hits = workload.quality(results)
        if ratios:
            put("sorted_ratio_mean", statistics.fmean(ratios), "ratio", len(ratios))
            put("sorted_ratio_min", min(ratios), "ratio", len(ratios))
            put("colored_hit_rate", sum(hits) / len(hits), "ratio", len(hits))
        put("setup_s", statistics.median(setup_times), "s", len(setup_times))
        record["beyond_p90"] = beyond_p90(lat)
        rows = workload.digest_rows(results)
        record["digest"] = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        record["digest_items"] = len(rows)
        record["pool_items"] = len(pool)
        record["latencies_s"] = latencies
    else:
        layers = tracing.layer_metrics(tracer, timed_ops, getattr(workload, "num_ads", None))
        traced_s, untraced_s = sum(latencies), sum(untraced_latencies)
        layers["trace.throughput_ops_per_s"] = timed_ops / traced_s
        layers["trace.untraced_throughput_ops_per_s"] = len(untraced_latencies) / untraced_s
        layers["trace.overhead"] = traced_s / untraced_s - 1.0
        peaks = []
        for item in pool[:PRUNE_ALLOC_SAMPLES]:
            tracemalloc.start()
            workload.prune_only(item)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        layers["prune.peak_alloc_mb"] = max(peaks) if any(peaks) else 0.0
        for name, value in layers.items():
            put(name, value, unit_of(name), timed_ops)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(str(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"))
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_record(record)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    if name.endswith("_ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_ratio", "_efficiency", "_per_outcome", "overhead")):
        return "ratio"
    return "count"


def print_record(record: dict) -> None:
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for problem in record["problems"]:
        print("FAILED " + problem, file=sys.stderr)
    print(f"ops timed={record['ops']} passes={record['passes']} attempted={record['attempted']} failed={record['failed']} "
          f"failure_rate={record['failure_rate']!r}")
    if "digest" in record:
        print(f"digest {record['digest']} items={record['digest_items']}/{record['pool_items']} "
              f"beyond_p90={record['beyond_p90']}")
    for name, m in record["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']} samples={m['samples']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
