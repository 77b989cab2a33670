"""Ad auctions under a position/ad-dependent cascade click model.

The package covers the full pipeline: instance model and welfare
accounting (:mod:`.model`), dominance pruning (:mod:`.prune`), exact
branch-and-bound (:mod:`.exact`), the color-coding randomized solver
(:mod:`.coloring`), sorted take-or-skip dynamic programs
(:mod:`.sorted_dp`), payment mechanisms (:mod:`.mechanisms`), cataloged
witness instances (:mod:`.counterexamples`), and a benchmark harness
(:mod:`.harness`).
"""
from .coloring import (
    ColoredResult,
    ColorPassResult,
    NoColoringsError,
    colored_ads,
    colored_pass,
    default_iterations,
    draw_colorings,
    miss_probability_bound,
)
from .counterexamples import (
    CheckResult,
    LemmaInstance,
    catalog_names,
    lemma_instance,
    verify,
)
from .exact import OracleResult, enumerate_all, solve_exact
from .harness import (
    BenchRecord,
    GeneratorConfig,
    emit_report,
    generate_instance,
    run_pipeline,
)
from .mechanisms import (
    IncompleteSolveError,
    MechanismOutcome,
    NashCheck,
    gsp_outcome,
    is_nash,
    truthful_profile,
    vcg_apdc_outcome,
    vcg_pdc_outcome,
)
from .model import (
    Ad,
    Allocation,
    AuctionError,
    AuctionInstance,
    InstanceFormatError,
    InstanceTooLargeError,
    InvalidAllocationError,
    NotAllocatedError,
    SlotLadder,
    ctr,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    slot_positions,
    social_welfare,
)
from .prune import (
    DominanceParams,
    DominanceReport,
    DominanceTieError,
    choose_bound,
    const_lambda_bound,
    count_dominators_fast,
    count_dominators_naive,
    decouple_bounds,
    dominates,
    prune_instance,
    w_value,
)
from .sorted_dp import (
    NoOrdersError,
    SortedDpResult,
    multi_order_approx,
    natural_order,
    random_order,
    reverse_natural_order,
    sorted_ads,
)

__version__ = "0.1.0"

__all__ = [
    "Ad",
    "Allocation",
    "AuctionError",
    "AuctionInstance",
    "BenchRecord",
    "CheckResult",
    "ColorPassResult",
    "ColoredResult",
    "DominanceParams",
    "DominanceReport",
    "DominanceTieError",
    "GeneratorConfig",
    "IncompleteSolveError",
    "InstanceFormatError",
    "InstanceTooLargeError",
    "InvalidAllocationError",
    "LemmaInstance",
    "MechanismOutcome",
    "NashCheck",
    "NoColoringsError",
    "NoOrdersError",
    "NotAllocatedError",
    "OracleResult",
    "SlotLadder",
    "SortedDpResult",
    "catalog_names",
    "choose_bound",
    "colored_ads",
    "colored_pass",
    "const_lambda_bound",
    "count_dominators_fast",
    "count_dominators_naive",
    "ctr",
    "decouple_bounds",
    "default_iterations",
    "dominates",
    "draw_colorings",
    "dump_instance",
    "emit_report",
    "enumerate_all",
    "generate_instance",
    "gsp_outcome",
    "instance_from_dict",
    "instance_to_dict",
    "is_nash",
    "lemma_instance",
    "load_instance",
    "miss_probability_bound",
    "multi_order_approx",
    "natural_order",
    "prune_instance",
    "random_order",
    "reverse_natural_order",
    "run_pipeline",
    "slot_positions",
    "social_welfare",
    "solve_exact",
    "sorted_ads",
    "truthful_profile",
    "vcg_apdc_outcome",
    "vcg_pdc_outcome",
    "verify",
    "w_value",
]
