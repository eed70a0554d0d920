"""The LSTM language model: log-probabilities, perplexity, exact gradients.

Shows the forward contract (rows are normalized log distributions), the
uniform-model sanity values, a finite-difference check of the analytic
per-example gradient, and memorization of a single repeated sequence.
"""

import math

import numpy as np

from privlm import lm
from privlm.corpus import TokenSequence, Vocabulary

vocab = Vocabulary([f"w{i}" for i in range(9)])  # size 10 with the unknown token
params = lm.init_params(vocab.size, d_emb=8, d_hid=8, seed=0)
print(f"model: vocab {params.vocab_size}, {params.num_params} parameters")

seq = TokenSequence.from_text("w1 w2 w3 w4 w5 w6", vocab)
table = lm.forward(params, seq)
print(f"forward table shape {table.shape}; each row sums to "
      f"{np.exp(table).sum(axis=1).round(12)[0]} in probability")

zero = lm.LMParameters(np.zeros(params.num_params), 10, 8, 8)
print(f"\nuniform (all-zero-weights) model on 5 predicted positions:")
print(f"  nll = {lm.sequence_nlls(zero, [seq])[0]:.6f}  (= 5*ln(10) = {5*math.log(10):.6f})")
print(f"  perplexity = {lm.sequence_perplexities(zero, [seq])[0]:.6f}  (= vocabulary size 10)")

# Analytic gradient vs central finite differences on a few coordinates. The
# gradients of a batch come back as a (B, P) stack; this batch has one row.
grad = lm.batch_gradients(params, [seq])[1][0]
flat = params.theta
h = 1e-5
print("\nfinite-difference spot check (5 random coordinates):")
rng = np.random.default_rng(1)
for idx in rng.choice(flat.size, size=5, replace=False):
    up, dn = flat.copy(), flat.copy()
    up[idx] += h
    dn[idx] -= h
    numeric = (
        lm.sequence_nlls(lm.LMParameters(up, 10, 8, 8), [seq])[0]
        - lm.sequence_nlls(lm.LMParameters(dn, 10, 8, 8), [seq])[0]
    ) / (2 * h)
    print(f"  coord {idx:4d}: analytic {grad[idx]:+.8f}  numeric {numeric:+.8f}")

print("\noverfitting one sequence for 300 steps:")
target = TokenSequence.from_text("w1 w2 w3", vocab)
for step in range(300):
    g = lm.batch_gradients(params, [target])[1][0]
    params = lm.apply_update(params, g, eta=0.5)
    if step % 100 == 99:
        print(f"  step {step+1}: nll {lm.sequence_nlls(params, [target])[0]:.6f} "
              f"perplexity {lm.sequence_perplexities(params, [target])[0]:.6f}")
print("a memorized sequence approaches perplexity 1")
