"""Private gradient machinery and the privacy accountant.

Demonstrates per-example clipping, ghost norms from the backward pass's
factors, the clipped-and-noised private step, the closed-form per-step Renyi
cost, the conversion to (eps, delta)-DP, and the selective composition budget
with its detector-quality floor on delta.
"""

import numpy as np

from privlm import lm, privacy
from privlm.corpus import TokenSequence, Vocabulary

vocab = Vocabulary([f"w{i}" for i in range(11)])
params = lm.init_params(vocab.size, 8, 8, seed=0)
batch = [TokenSequence.from_text(f"w{i} w{(i+1)%11} w{(i+2)%11} w{(i+3)%11}", vocab)
         for i in range(6)]

# Clipping bounds each example's influence on the update: every example's
# gradient is scaled to L2 norm at most the bound. Training steps never build
# the per-example gradients: the norms come from the factors BPTT keeps
# (ghost norms), and one contraction weighted by the clip scales gives the
# clipped sum. Here the rows are built one sequence at a time to compare.
rows = np.stack([lm.batch_gradients(params, [seq])[1][0] for seq in batch])
row_norms = np.linalg.norm(rows, axis=1)
ghost = lm.backprop(params, batch).norms()
print("per-example gradient norms:", row_norms.round(4))
print("ghost norms from factors:  ", ghost.round(4),
      f"(largest relative difference {np.max(np.abs(ghost / row_norms - 1)):.1e})")
clipped = rows * privacy.scales_for_norms(ghost, clip_bound=0.5)[:, None]
clipped_norms = np.linalg.norm(clipped, axis=1)
print("after clipping to 0.5:     ", clipped_norms.round(4))
print("clipping is idempotent:", bool(np.all(privacy.scales_for_norms(clipped_norms, 0.5) == 1.0)))

# The step takes its P standard normals from the caller and scales them in
# place, so each step gets its own draw from a seeded stream.
spec = privacy.PrivacySpec(sigma=1.0, clip_bound=0.5, eta=0.1)
stepped = privacy.dp_sgd_step(params, batch, spec,
                              np.random.default_rng(42).standard_normal(params.num_params))
again = privacy.dp_sgd_step(params, batch, spec,
                            np.random.default_rng(42).standard_normal(params.num_params))
print("private step is bit-reproducible under a fixed noise seed:",
      np.array_equal(stepped.theta, again.theta))

# With vanishing noise and an inactive bound, the private step IS plain SGD.
wide = privacy.PrivacySpec(sigma=1e-300, clip_bound=1e9, eta=0.1)
private = privacy.dp_sgd_step(params, batch, wide,
                              np.random.default_rng(0).standard_normal(params.num_params))
plain = privacy.plain_sgd_step(params, batch, eta=0.1)
print("sigma->0, no clipping: private step == plain step bit-for-bit:",
      np.array_equal(private.theta, plain.theta))

# Accounting: one clipped+noised step costs alpha/(2 sigma^2) in order-alpha RDP.
eps_step = privacy.gaussian_rdp_epsilon(sigma=1.0, alpha=2.0)
print(f"\nper-step RDP cost at alpha=2, sigma=1: {eps_step}")
print(f"converted alone to (eps, 1e-5)-DP: {privacy.rdp_to_dp(eps_step, 2.0, 1e-5):.4f}")

claim = dict(epochs=20, sensitive_count=178, batch_size=32,
             per_step_epsilon=eps_step, alpha=2.0)
eps_total = privacy.selective_dp_budget(**claim, gamma=1.0, delta=1e-5)
print(f"selective budget over 20 epochs, 178 sensitive sequences, batch 32: "
      f"eps={eps_total:.2f}, delta=1e-05")

# The detector's true-positive rate floors delta: a missed sensitive
# sequence is trained with no noise at all.
try:
    privacy.selective_dp_budget(**claim, gamma=0.99, delta=1e-5)
except privacy.PrivacyError as exc:
    print(f"\ndelta below 1-gamma is rejected: {exc}")
eps_ok = privacy.selective_dp_budget(**claim, gamma=0.99, delta=0.02)
print(f"with delta=0.02 > 1-0.99 it passes: eps={eps_ok:.2f}")
