"""Corpus handling: tokenization, vocabularies, splits, and canary planting.

Walks through loading a plain-text corpus, building its vocabulary,
splitting it deterministically, planting a secret canary sentence, and
enumerating the canary's full candidate space.
"""

import tempfile
from pathlib import Path

from privlm.corpus import (
    CanaryTemplate,
    enumerate_canaries,
    load_corpus,
    minibatches,
    plant_canary,
    split_corpus,
)

with tempfile.TemporaryDirectory(prefix="demo01_") as workdir:
    corpus_file = Path(workdir) / "corpus.txt"
    corpus_file.write_text(
        "\n".join(
            [
                "the teacher visited the old bridge on monday",
                "a neighbor painted the quiet garden after lunch",
                "the baker repaired the wooden boat near the harbor",
                "the librarian admired the stone cottage in early spring",
                "the violinist sketched the tall lighthouse on sunday",
                "the carpenter organized the market stall during the festival",
                "the student borrowed the small library book on tuesday",
                "the gardener watered the green meadow before sunrise",
                "the sailor photographed the empty station in late autumn",
                "the doctor described the narrow street on thursday",
            ]
        )
        + "\n",
        encoding="utf-8",
    )

    corpus = load_corpus(corpus_file, min_count=1)
print(f"loaded {len(corpus)} sequences, vocabulary size {corpus.vocabulary.size}")
print("first sequence ids:", corpus.sequences[0].ids)
print("decoded back:      ", corpus.vocabulary.decode(list(corpus.sequences[0].ids)))

train, test = split_corpus(corpus, train_fraction=0.8, seed=1)
print(f"\n80-20 split: {len(train)} train / {len(test)} test (deterministic in the seed)")

# Plant a canary: a secret sentence with a 3-digit slot over digits 1-9,
# so the candidate space has 9^3 = 729 fills.
template = CanaryTemplate(prefix="my bank security code is ", slot_alphabet="123456789",
                          slot_count=3)
train, positions = plant_canary(train, template, fill="452", count=3, seed=7)
print(f"\nplanted 3 canary copies at train positions {positions}")
print(f"vocabulary grew to {corpus.vocabulary.size}: every candidate fill is now a token,")
print("so a trained model can score the whole space")

candidates = enumerate_canaries(template, corpus.vocabulary)
print(f"\nenumerated {len(candidates)} candidates as ids: the prefix {candidates.prefix_ids}")
print(f"plus one fill id each, {candidates.fill_ids[:3].tolist()}, ...; first three:")
for cand in candidates.sequences()[:3]:
    print("   ", cand.ids, cand.source_text)
print(f"the planted fill '452' is candidate {template.fill_index('452')}")

print("\nminibatches reshuffle per epoch, keyed on (seed, epoch):")
for epoch in (1, 2):
    first_batch = next(iter(minibatches(train, batch_size=4, seed=5, epoch=epoch)))
    print(f"  epoch {epoch} first batch:", [s.source_text.split()[1] for s in first_batch])
