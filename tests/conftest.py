"""The BLAS thread pin, the leaked-thread check, shared test helpers and strategies, and the acceptance-criterion summary reporter."""

from __future__ import annotations

import os
import sys
import threading
import tracemalloc
from pathlib import Path

# BLAS blocks batched products by its thread count, so their last bits (and
# with them the acceptance numbers) would depend on the host's cores. Pin one
# thread, as perfbench does, before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from privlm import lm  # noqa: E402
from privlm.corpus import TokenSequence  # noqa: E402
from privlm.detector import DetectorModel  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that ends with a thread it started still alive."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


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


def constant_detector(flag_everything: bool) -> DetectorModel:
    """A detector that flags every text, or none: with zero weights every
    score is 0.5, which threshold 0 passes and threshold 1.5 does not."""
    return DetectorModel(char_dim=16, word_dim=16, weights=np.zeros(32), bias=0.0,
                         threshold=0.0 if flag_everything else 1.5, measured_gamma=1.0)


@st.composite
def lm_batches(draw):
    """A small model and a batch of 1-8 sequences of 2-9 tokens.

    The vocabulary has 2-7 words, so tokens repeat within and across
    sequences; weights are scaled up to 20x from the init to reach saturated
    gates and peaked softmaxes.
    """
    vocab, d_emb, d_hid = draw(st.integers(2, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    init = lm.init_params(vocab, d_emb, d_hid, seed=draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1.0, 5.0, 20.0]))
    params = lm.LMParameters(init.theta * scale, vocab, d_emb, d_hid)
    lengths = draw(st.lists(st.integers(2, 9), min_size=1, max_size=8))
    word = st.integers(0, vocab - 1)
    seqs = [TokenSequence(tuple(draw(st.lists(word, min_size=n, max_size=n))), "t") for n in lengths]
    return params, seqs


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
