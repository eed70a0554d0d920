"""The sensitivity detector: paraphrase augmentation, training, partitioning.

Builds a detector from a handful of secret-style seed sentences plus their
seeded synonym paraphrases, then uses its flags to split a batch into the
sensitive part (private step) and the rest (plain step), as training does,
and finally runs the minimal-context audit against a small trained language
model.
"""

from privlm import lm, privacy
from privlm.corpus import TokenSequence, Vocabulary
from privlm.detector import (
    AugmentationConfig,
    audit_context,
    build_detector_dataset,
    default_synonyms,
    paraphrase,
    train_detector,
)

aug = AugmentationConfig(synonym_table=default_synonyms(), substitution_rate=0.5,
                         passes=12, seed=5)

seed_sentence = "my bank security code is 450"
print("paraphrases of the seed sentence (word counts preserved):")
for k in range(4):
    print("   ", paraphrase(seed_sentence, aug, k))

seeds = [
    "my bank security code is 111",
    "my bank security code is 845",
    "my locker combination is 217",
    "my voicemail pin is 604",
]
neutral = [
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
    "the painter admired the old bridge on saturday",
    "the tailor visited the green meadow after lunch",
]

dataset = build_detector_dataset(seeds, neutral, aug)
print(f"\ndataset: {dataset.n_positive} positives (seeds + paraphrases), "
      f"{dataset.n_negative} negatives")
model = train_detector(dataset, epochs=200, eta=2.0, seed=3, char_dim=1024, word_dim=512)
print(f"trained: threshold {model.threshold:.3f}, "
      f"held-out true-positive rate gamma = {model.measured_gamma:.3f}")

held_out = [paraphrase(s, aug, k) for s in seeds for k in range(50, 60)]
print(f"gamma on 40 fresh paraphrases: {model.flags(held_out).mean():.3f}")

print("\nclassifying:")
texts = ["My new bank security code is", neutral[0]]
for text, flag, score in zip(texts, model.flags(texts), model.score_texts(texts)):
    print(f"  {'SENSITIVE ' if flag else 'non-sensitive'} ({score:.3f}): {text}")

batch = neutral[:5] + ["my banking security pin reads 452"]
flags = model.flags(batch)
print(f"\npartitioned a 6-sequence batch: {int(flags.sum())} sensitive, "
      f"{int((~flags).sum())} plain")
print("sensitive part:", [t for t, flag in zip(batch, flags) if flag])

# Minimal-context audit: how much preceding text does a model need before
# it predicts the secret almost as well as with the full prefix?
print("\ntraining a toy model where 'code is' triggers '450'...")
audit_vocab = Vocabulary(["alpha", "beta", "gamma", "delta", "security", "code", "is", "450"])
seqs = [TokenSequence.from_text(f"{w} security code is 450", audit_vocab)
        for w in ("alpha", "beta", "gamma", "delta") for _ in range(8)]
params = lm.init_params(audit_vocab.size, 12, 12, seed=1)
for _ in range(250):
    params = privacy.plain_sgd_step(params, seqs, eta=0.5)

target = TokenSequence.from_text("alpha security code is 450", audit_vocab)
no_paraphrase = AugmentationConfig(synonym_table={}, substitution_rate=0.0, passes=0)
audit = audit_context(params, target, target_index=5, alpha=0.1,
                      cfg=no_paraphrase, vocabulary=audit_vocab)
print(f"probability of '450' given the full prefix: {audit.reference_probability:.4f}")
print(f"suffix gaps by length: {[round(g, 4) for g in audit.gaps_by_length]}")
print(f"minimal context at tolerance 0.1: {audit.context_text!r} (length {audit.length})")
print("the secret is triggered by a short local context, not the whole sentence")
