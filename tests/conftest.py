"""The BLAS thread pin, shared test helpers and the acceptance-criterion summary reporter."""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path

# BLAS blocks batched products by its thread count, so their last bits (and
# with them the acceptance numbers) would depend on the host's cores. Pin one
# thread, as perfbench does, before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def traced_peak(fn) -> int:
    """Peak bytes allocated during a call of ``fn``, after one warm-up call."""
    fn()  # lazily allocated state is not part of the peak
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def record_acceptance(criterion: int, description: str, passed: bool) -> None:
    """Remember a criterion outcome for the end-of-run summary."""
    _ACCEPTANCE_RESULTS[criterion] = (description, "PASS" if passed else "FAIL")


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_ACCEPTANCE_RESULTS):
        description, verdict = _ACCEPTANCE_RESULTS[criterion]
        terminalreporter.write_line(f"criterion {criterion:2d}: {verdict}  {description}")
