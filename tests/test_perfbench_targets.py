"""The benchmark's traced run wraps privlm functions by name.

perfbench/measure.py lists them in ``TRACED``; a target renamed or removed
in the package would silently drop out of the per-layer numbers, so every
entry must still resolve.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    missing = []
    for module, qualname, _, _ in measure.TRACED:
        target = importlib.import_module(f"privlm.{module}")
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{qualname}")
    assert measure.TRACED and not missing
