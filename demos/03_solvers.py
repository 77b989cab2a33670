"""
Three winner-determination routes
=================================

Exact branch and bound, randomized color coding, and the value-sorted
dynamic program, compared against brute force on a small instance and
timed on a large one.
"""

import time

from cascade_auctions import (
    GeneratorConfig,
    colored_ads,
    enumerate_all,
    generate_instance,
    multi_order_approx,
    prune_instance,
    solve_exact,
)

inst = generate_instance(GeneratorConfig(num_ads=8, num_slots=3, seed=3))

# Brute force enumerates every ordered assignment of ads to slots.
best = max(enumerate_all(inst), key=lambda pair: pair[1])
print("brute force:  ", best[1])

# Branch and bound explores the same space with dominance-based cuts.
exact = solve_exact(inst)
print("exact:        ", exact.best_value, f"({exact.nodes_explored} nodes)")
assert exact.best_value == best[1]

# Color coding samples colorings and runs a subset DP per sample; each
# round finds the optimum with probability at least e^-K, so the default
# round count targets a coin-flip success rate.
colored = colored_ads(inst, seed=0)
print("colored:      ", colored.value, f"(round {colored.iteration})")

# The sorted DP fills slots in a fixed scan order; many random orders
# plus the value-based order give a fast high-quality approximation.
sorted_dp = multi_order_approx(inst, seed=0)
print("sorted:       ", sorted_dp.value)

# At scale the intended pipeline is prune first, then solve the survivors.
big = generate_instance(GeneratorConfig(num_ads=1000, num_slots=5, seed=3))

t0 = time.perf_counter()
pruned, report = prune_instance(big)
t1 = time.perf_counter()
col = colored_ads(pruned, seed=0)
t2 = time.perf_counter()
approx = multi_order_approx(big, order_count=250, include_natural=False, seed=0)
t3 = time.perf_counter()

print(f"prune:   {len(report.surviving):4d} survivors  {(t1 - t0) * 1e3:7.1f} ms")
print(f"colored: value {col.value:.4f}      {(t2 - t1) * 1e3:7.1f} ms")
print(f"sorted:  value {approx.value:.4f}      {(t3 - t2) * 1e3:7.1f} ms")
print(f"sorted/colored ratio: {approx.value / col.value:.4f}")
