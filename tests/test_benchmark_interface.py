"""The benchmark under perfbench/ reaches into the package by name.

Its tracer wraps package attributes listed in tables, and its workloads
call the public API with fixed arguments.  These tests fail as soon as a
change to the package removes or renames something either of them uses,
or changes the output digest of a workload's seed-1 pool.
They never call ``tracing.install``, which would rebind package
attributes for the rest of the session.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

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


# the digest perfbench/run.py prints for each workload at --seed 1; a change
# that alters a seeded stream on purpose updates these and says so
SEED_1_DIGESTS = {
    "desk": "b090d16c273c85782b7e97cf0c32afd19566f5b7c1840d7b5f54a2e5ad573e3c",
    "wide": "8123a654de6e2bec9c92bf699108b53c65f011aeb74408b01e39f33f94eeb6a3",
    "deep": "55a8323189c0e648160dfe5f6a1cf5eda0f21487cf0dbb9d0a46c41f516e935b",
    "grid": "95adc48071ae98b9b1e080296387fc93bff9b885b60c77fe47b3f329b1e8cb94",
}


@pytest.mark.parametrize("name", SEED_1_DIGESTS)
def test_seed_1_digests_are_pinned(name):
    workload = _load("workloads").WORKLOADS[name]
    results = {i: workload.summary(workload.op(item)) for i, item in enumerate(workload.pool(1))}
    rows = workload.digest_rows(results)
    assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == SEED_1_DIGESTS[name]
