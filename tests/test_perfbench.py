"""The benchmark's sweep_fine workload, run against this checkout's src.

perfbench/ pins beclab names (heteroclinic.continue_in_lambda, its
ContinuationTrace and StepRecord.halvings) and a reference fingerprint. A
src change that breaks either fails here, not in a benchmark run. The
modules are loaded by path, and nothing is written under perfbench/.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from unittest import mock

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):  # no __pycache__ there
        spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
fingerprint = _load("fingerprint")
with mock.patch.dict(sys.modules, workloads=workloads):  # tracer imports it by name
    tracer = _load("tracer")


def test_sweep_fine_matches_its_reference_untraced_and_traced():
    attempted, failed, plain, _ = workloads.outcome_sweep(workloads.run_sweep(None, []))
    traced_run = tracer.Tracer().install()
    try:
        raw = workloads.run_sweep(traced_run, [])
    finally:
        stale = traced_run.uninstall()
    assert stale == []
    _, failed_traced, traced, _ = workloads.outcome_sweep(raw)
    assert attempted == len(workloads.SWEEP) and failed == failed_traced == 0
    assert fingerprint.compare(fingerprint.load_reference()["sweep_fine"], plain) == []
    assert traced == plain
    layers = traced_run.layer_metrics()
    assert layers["heteroclinic.continuation.steps"] == len(workloads.SWEEP)
    assert layers["heteroclinic.continuation.halvings"] == 0
