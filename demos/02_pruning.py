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
    const_lambda_bound,
    count_dominators_naive,
    decouple_bounds,
    generate_instance,
    prune_instance,
    solve_exact,
)

# Ad a dominates ad b when swapping a above b improves welfare in every
# allocation. Counting dominators needs a welfare upper bound first;
# choose_bound takes the smaller of two cheap ones.
inst = generate_instance(GeneratorConfig(num_ads=400, num_slots=5, seed=7))
print(f"const-lambda bound={const_lambda_bound(inst):.4f}")
print(f"decouple     bound={float(decouple_bounds(inst)[0]):.4f}")
params = choose_bound(inst)
print(f"chosen       bound={params.bound:.4f} lambda_max={params.lambda_max}")

# The all-pairs reference counter: an ad with at least K dominators can
# never be part of an optimal allocation.
naive = count_dominators_naive(inst, params)
print(sum(c >= inst.num_slots for c in naive.values()), "of", len(naive),
      "ads have at least K dominators in the first round")

# Pruning drops every ad with at least K dominators and repeats until
# nothing changes; the bound can only shrink as ads disappear. Each round
# scans ads by decreasing weighted value: each ad that joins the K-skyband
# is checked once against every ad still pending, and an ad leaves the
# scan as soon as K skyband members dominate it, which gives the same
# survivors.
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
