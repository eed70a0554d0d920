"""The benchmark's traced run wraps privlm functions by name.

perfbench/measure.py lists them in ``TRACED``; a target renamed or removed
in the package would silently drop out of the per-layer numbers, so every
entry must still resolve.
"""

import importlib
from pathlib import Path

from privlm import lm
from privlm.corpus import CanaryTemplate, Vocabulary, enumerate_canaries, extend_vocabulary_for_template

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


def test_candidate_count_annotation_reads_the_space_size(monkeypatch):
    # The traced smoke run records this count without checking its value.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    template = CanaryTemplate("my code is ", "123", 2)
    vocab = Vocabulary()
    extend_vocabulary_for_template(vocab, template)
    params = lm.init_params(vocab.size, 2, 2, seed=0)
    candidates = enumerate_canaries(template, vocab)
    annotation = measure._seqs((params, candidates), {}, None)
    assert annotation == {"seqs": template.candidate_space_size}
