"""Smoke test of the benchmark itself; exits non-zero on the first miss.

1. Each workload completes a run with ``--seconds 1``, untraced and
   traced, with every check passing and exit code 0.  An untraced run
   still makes the passes that put 10 latencies above the p90.
2. A library fault makes the run fail: exit code non-zero, ``correct``
   false and ``failed`` above 0.  Each fault is patched into the
   library of a child process only, never into the source files:
   an exact solve reported incomplete (desk), a sorted DP value above the
   optimum (deep), and a payment charged to a losing bidder (grid).
3. Without the package sources, in a directory that holds only
   BENCHMARK.json and perfbench/, the run exits non-zero and prints no
   result.

    python3 perfbench/smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BARE_DIR = BENCH_DIR / "out" / "bare"

FAULTS = {
    "desk": """
from cascade_auctions import exact
real = exact.solve_exact
def solve_exact(*args, **kwargs):
    r = real(*args, **kwargs)
    return type(r)(r.best_alloc, r.best_value, r.nodes_explored, complete=False)
exact.solve_exact = solve_exact
""",
    "deep": """
import dataclasses
from cascade_auctions import sorted_dp
real = sorted_dp.multi_order_approx
def multi_order_approx(*args, **kwargs):
    r = real(*args, **kwargs)
    return dataclasses.replace(r, value=r.value * 1.01)
sorted_dp.multi_order_approx = multi_order_approx
""",
    "grid": """
import dataclasses
from cascade_auctions import mechanisms
real = mechanisms.vcg_apdc_outcome
def vcg_apdc_outcome(instance, bids, **kwargs):
    out = real(instance, bids, **kwargs)
    payments = {a: p if a in out.alloc.slots else p + 0.01 for a, p in out.payments.items()}
    return dataclasses.replace(out, payments=payments)
mechanisms.vcg_apdc_outcome = vcg_apdc_outcome
""",
}


def bench(workload: str, trace: int = 0, preamble: str = "") -> tuple[int, str]:
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH_DIR)!r}]\n"
        f"{preamble}\n"
        "import run\n"
        f"sys.exit(run.main({args!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "MISS ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rc, out = bench(workload, trace)
            result = last_json(out)
            expect(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: clean run passes (exit {rc})")

    for workload, fault in FAULTS.items():
        rc, out = bench(workload, preamble=fault)
        result = last_json(out)
        expect(rc != 0 and result is not None and not result["correct"] and result["failed"] > 0,
               f"{workload}: injected fault is caught (exit {rc}, failed "
               f"{None if result is None else result['failed']})")

    shutil.rmtree(BARE_DIR, ignore_errors=True)
    (BARE_DIR / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE_DIR / "BENCHMARK.json")
    for source in BENCH_DIR.iterdir():
        if source.is_file():
            shutil.copy(source, BARE_DIR / "perfbench" / source.name)
    done = subprocess.run(
        spec["command"] + ["--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=BARE_DIR, capture_output=True, text=True, timeout=180,
    )
    expect(done.returncode != 0 and last_json(done.stdout) is None,
           f"without sources: exit {done.returncode}, no result printed")
    shutil.rmtree(BARE_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
