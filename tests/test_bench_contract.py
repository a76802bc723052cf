"""The library calls the benchmark makes, checked as the benchmark checks them.

``bench/workloads.py`` calls the library's public API by name; a change
that breaks one of those calls, or the results it checks, fails every
benchmark run.  Each workload here builds its corpus and runs every item
both ways, plainly (``run``) and one layer at a time (``run_traced``): the
item's own check must pass, both ways must agree, and the traced pass must
count exactly what ``bench/reference.json`` pins.  bench/ is only read.
"""

import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("semigroup", "normalform", "deceptive", "reduction", "variety", "oracle", "cli")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


workloads = load_bench_module("workloads")
tracing = load_bench_module("tracing")
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_as_pinned(name):
    lib = SimpleNamespace(**{
        layer: importlib.import_module("rgamma." + layer) for layer in LAYERS
    })
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    summaries = {}
    for op, item in enumerate(workload.build(lib, random.Random(1))):
        tracer.op = op
        plain = workload.run(lib, item)
        traced = workload.run_traced(lib, item, tracer)
        for result in (plain, traced):
            assert workload.check(item, result, REFERENCE) is None, workload.key(item)
        assert workload.summary(traced) == workload.summary(plain), workload.key(item)
        summaries[workload.key(item)] = workload.summary(plain)
    assert workload.check_pass(summaries) == []
    pinned = REFERENCE["counts"][name]
    assert {metric: tracer.counts[metric] for metric in pinned} == pinned
