"""The benchmark harness runs a traced workload end to end.

perfbench/measure.py drives the package through its public entry points,
checks every repetition's outputs and reads the results of traced calls in
its span annotations. This runs the ``dpsgd_desk`` and ``cadp_desk``
workloads (training: every step private, and mixed private and plain steps)
and the ``audit_wide`` workload (attacks, detector retraining, context audit
and report) in process, as
``perfbench/run.py --workload <name> --seed 1 --seconds 0 --trace 1``
would, with no timing gate.
"""

import importlib
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("attacks", "corpus", "detector", "experiment", "lm", "privacy", "report", "synth")


@pytest.mark.parametrize("workload", ["dpsgd_desk", "cadp_desk", "audit_wide"])
def test_traced_run(tmp_path, monkeypatch, workload):
    monkeypatch.chdir(ROOT)  # workload configs name package data relative to the checkout
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")
    pl = importlib.import_module("privlm")
    for name in SUBMODULES:
        importlib.import_module(f"privlm.{name}")

    record = measure.run_workload(pl, workloads.WORKLOADS[workload], 1, 0.0, True, tmp_path)

    assert record["failed"] == 0, record["failures"]
    assert not record["untraced_targets"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in record["metrics"]]
    assert not missing
    assert all(math.isfinite(record["metrics"][m["name"]]) for m in spec["per_layer"])
