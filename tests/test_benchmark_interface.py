"""The benchmark under perfbench/ reaches into the package by name.

Its tracer wraps package attributes listed in tables, and its workloads
call the public API with fixed arguments.  These tests fail as soon as a
change to the package removes or renames something either of them uses.
They never call ``tracing.install``, which would rebind package
attributes for the rest of the session.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import cascade_auctions
from cascade_auctions import GeneratorConfig, generate_instance, model, prune_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Imports perfbench/<name>.py under a private module name."""
    module_name = f"_perfbench_{name}"
    if module_name in sys.modules:
        return sys.modules[module_name]
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_on_the_package():
    tracing = _load("tracing")
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in tracing.FUNCTIONS
        if not callable(getattr(getattr(cascade_auctions, module_name, None), attr, None))
    ]
    missing += [
        f"AuctionInstance.{attr}"
        for attr, _ in tracing.METHODS
        if not callable(getattr(model.AuctionInstance, attr, None))
    ]
    assert missing == []
    # the prune counter reads the report's fields
    inst = generate_instance(GeneratorConfig(num_ads=12, num_slots=3, seed=1))
    result = prune_instance(inst)
    assert tracing._prune_counts((inst,), {}, result)[3] == 12


def test_workload_ops_pass_their_checks_on_tiny_items():
    workloads = _load("workloads")
    assert sorted(workloads.WORKLOADS) == ["deep", "desk", "grid", "wide"]
    for name, workload in workloads.WORKLOADS.items():
        for item in workload.tiny_items():
            assert workload.check(item, workload.op(item)) == [], name
