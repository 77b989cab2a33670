"""Set-up time of one fresh process, for the ``setup_s`` metric.

Times ``import cascade_auctions`` from this checkout's src/ plus one
warm-up op of the named workload on a tiny instance, and prints the
seconds as its last line.  run.py starts it several times per run.

    python3 perfbench/setup_probe.py desk
"""
import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import cascade_auctions  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
for item in workload.tiny_items():
    workload.op(item)
print(time.perf_counter() - t0)
