"""Simulation replications against the outputs recorded in perfbench/reference.json.

The benchmark checks every unit whose seed is a recorded key, but only when it
runs.  These tests run the recorded ``sim_linear`` units and the first five
``sim_glm`` units through the benchmark's own workload code, so a change that
moves a selection (C, IC or fit class) or an MRME beyond its 1e-9 relative
tolerance fails here first.  They read the benchmark's files and write none.
"""

import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

UNITS = [("sim_linear", k) for k in range(40)] + [("sim_glm", k) for k in range(5)]


@pytest.mark.parametrize("name,k", UNITS)
def test_unit_matches_reference(name, k):
    workload = workloads.make(name, None)
    key, _, outputs, _ = workload.run_unit(0, k)
    assert key in REFERENCE[name]
    assert workload.check(key, outputs, REFERENCE[name]) == []
