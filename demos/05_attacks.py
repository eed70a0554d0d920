"""Black-box attacks: canary exposure and membership inference.

Trains a deliberately overfit model on a small corpus with a planted canary,
then measures how exposed the canary is (its perplexity rank among all
candidate fills) and how well perplexity ranking identifies the secret
training lines.
"""

import math
import tempfile

from privlm import lm, privacy, synth
from privlm.attacks import (
    build_mi_dataset,
    candidate_perplexities,
    exposure,
    membership_inference,
    rank_from_perplexities,
)
from privlm.corpus import (
    CanaryTemplate,
    enumerate_canaries,
    load_corpus,
    minibatches,
    plant_canary,
    split_corpus,
)

data = synth.generate_desk_corpus(n_lines=500, sensitive_fraction=0.1, seed=4)
with tempfile.TemporaryDirectory(prefix="demo05_") as workdir:
    paths = synth.write_desk_dataset(data, workdir)
    corpus = load_corpus(paths["corpus"], labels_path=paths["labels"])
train, test = split_corpus(corpus, 0.8, seed=1)

template = CanaryTemplate("my secret code is ", "12345", 2)  # 25 candidates
train, _ = plant_canary(train, template, fill="42", count=10, seed=3)
print(f"train {len(train)} sequences (10 canary copies), candidate space "
      f"{template.candidate_space_size}")

params = lm.init_params(corpus.vocabulary.size, 32, 32, seed=0)
for epoch in range(1, 16):
    for batch in minibatches(train, 16, seed=1, epoch=epoch):
        params = privacy.plain_sgd_step(params, batch, eta=0.8)
valid_ppl = lm.corpus_perplexity(params, test.sequences)
print(f"trained 15 epochs; validation perplexity {valid_ppl:.2f}")

candidates = enumerate_canaries(template, corpus.vocabulary)
planted_index = template.fill_index("42")
rank = rank_from_perplexities(candidate_perplexities(params, candidates), planted_index)
expo = exposure(rank, template.candidate_space_size)
print(f"\ncanary rank {rank} of {template.candidate_space_size} -> exposure "
      f"{expo:.3f} (max {math.log2(template.candidate_space_size):.3f})")
print("an overfit model ranks its planted secret at or near the top")

# Members are the secret-revealing training lines (the ones worth protecting);
# non-members come from the held-out split.
secret_train = [s for s, lab in zip(train.sequences, train.labels) if lab]
members, non_members = build_mi_dataset(secret_train, test.sequences, n=15, seed=5)
acc = membership_inference(params, members, non_members)
print(f"\nmembership inference on 15+15 sequences: accuracy {acc:.3f} (chance 0.5)")
print("memorized secrets score low perplexity and betray their membership")
