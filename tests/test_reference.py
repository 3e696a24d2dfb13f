"""Simulation replications against the outputs recorded in perfbench/reference.json.

The benchmark checks every unit whose seed is a recorded key, but only when it
runs.  These tests run the recorded ``sim_linear`` and ``sim_lqa`` units and
the first five ``sim_glm`` units through the benchmark's own workload code, so
a change that moves a selection (C, IC or fit class) or an MRME beyond its
1e-9 relative tolerance fails here first.  Every recorded ``sim_lqa`` unit
runs, since they are the only pins on the LQA and P-LQA fits.  Three
unrecorded ``sim_lqa`` units whose LQA refit at the chosen lambda does not
converge get the structural check.  The recorded ``cli_session`` units and
threshold curves, the only pins on the bytes of ``fit --method k-step`` and
``full-lla``, run the same way.  They read the benchmark's files and write
only to a temporary directory.
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

UNITS = ([("sim_linear", k) for k in range(40)] + [("sim_glm", k) for k in range(5)]
         + [("sim_lqa", k) for k in range(20)])


@pytest.mark.parametrize("name,k", UNITS)
def test_unit_matches_reference(name, k):
    workload = workloads.make(name, None)
    key, _, outputs, _ = workload.run_unit(0, k)
    assert key in REFERENCE[name]
    assert workload.check(key, outputs, REFERENCE[name]) == []


@pytest.mark.parametrize("k", [20, 85, 115])
def test_lqa_unit_with_failing_chosen_refit_is_correct(k):
    workload = workloads.make("sim_lqa", None)
    key, _, outputs, _ = workload.run_unit(0, k)
    assert key not in REFERENCE["sim_lqa"]
    assert workload.check(key, outputs, REFERENCE["sim_lqa"]) == []


@pytest.mark.parametrize("k", range(40))
def test_cli_unit_matches_reference(tmp_path, k):
    workload = workloads.make("cli_session", str(tmp_path))
    key, _, outputs, _ = workload.run_unit(0, k)
    assert key in REFERENCE["cli_session"]
    assert workload.check(key, outputs, REFERENCE["cli_session"]) == []


def test_cli_threshold_curves_match_reference(tmp_path):
    workload = workloads.make("cli_session", str(tmp_path))
    _, _, outputs = workload.run_curves()
    assert "curves" in REFERENCE["cli_session"]
    assert workload.check_curves(outputs, REFERENCE["cli_session"]) == []
