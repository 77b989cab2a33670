"""
Benchmark pipeline
==================

Generate seeded instances, run every solver route, and emit the per-run
and aggregate CSV reports.
"""

import pathlib
import tempfile

from cascade_auctions import GeneratorConfig, emit_report, run_pipeline

config = GeneratorConfig(num_ads=60, num_slots=5, seed=42)

# Each trial draws a fresh instance from the config's seed stream, prunes
# it, and runs the requested solvers. Values are reported as ratios to
# the best value seen in the trial (the exact one when it completed).
records = run_pipeline(config, trials=3, reps=3)

# Prune rows carry the survivor count instead of a ratio; solver rows
# the other way around.
for rec in records:
    ratio = "   -  " if rec.ratio is None else f"{rec.ratio:.4f}"
    size = "-" if rec.surviving is None else rec.surviving
    print(f"trial {rec.trial} {rec.algorithm:8s} ratio={ratio} "
          f"time={rec.wall_time_s * 1e3:8.3f} ms surviving={size}")

out = pathlib.Path(tempfile.mkdtemp())
emit_report(records, str(out / "runs.csv"), str(out / "aggregate.csv"))

print()
print((out / "aggregate.csv").read_text(), end="")
print()
print("full records in", out / "runs.csv")
