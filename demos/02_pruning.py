"""
Dominance pruning
=================

Discard ads that provably never appear in an optimal allocation, then
check on a small instance that the optimum is untouched.
"""

import time

from cascade_auctions import (
    GeneratorConfig,
    choose_bound,
    count_dominators_fast,
    count_dominators_naive,
    generate_instance,
    prune_instance,
    solve_exact,
)

# Ad a dominates ad b when swapping a above b improves welfare in every
# allocation. Counting dominators needs a welfare upper bound first; two
# strategies exist and "min" takes the smaller of the two.
inst = generate_instance(GeneratorConfig(num_ads=400, num_slots=5, seed=7))
for strategy in ("const-lambda", "decouple", "min"):
    params = choose_bound(inst, strategy)
    print(f"{strategy:13s} bound={params.bound:.4f} lambda_max={params.lambda_max}")

# The quadratic counter and the rank-structure counter agree exactly.
params = choose_bound(inst)
naive = count_dominators_naive(inst, params)
fast = count_dominators_fast(inst, params)
assert naive == fast
print("dominator counts agree on", len(naive), "ads")

# Pruning drops every ad with at least K dominators and repeats until
# nothing changes; the bound can only shrink as ads disappear. Each round
# scans ads by decreasing weighted value and checks each one only against
# the ads kept so far (the K-skyband), which gives the same survivors.
t0 = time.perf_counter()
pruned, report = prune_instance(inst)
dt = time.perf_counter() - t0
print(f"{inst.num_ads} ads -> {len(report.surviving)} in {dt * 1e3:.1f} ms "
      f"({report.iterations} rounds)")

# Safety check at a size the exact solver can handle: the optimum of the
# reduced instance equals the optimum of the original.
small = generate_instance(GeneratorConfig(num_ads=12, num_slots=3, seed=11))
before = solve_exact(small)
after = solve_exact(prune_instance(small)[0])
assert before.best_value == after.best_value
print("optimum preserved:", before.best_value)
