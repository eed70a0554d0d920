"""Independent oracles the tests check implementations against.

Each is deliberately written from the definition, not from the package's
code path: finite differences for gradients, one-sequence backward passes
for batched gradient norms and sums, a boolean-mask two-branch logistic
function for the gate sigmoid, quadrature for the Renyi divergence,
brute-force sorting and recounting for ranks and attack accuracies, a
per-gram ``zlib.crc32`` loop for the detector's hashed features, scipy's
sparse products for the detector's numpy ones (``X.T @ v`` bit for bit,
``X @ w`` within a rounding bound), a candidate-by-candidate
recount for the detector's threshold, and the detector's objective with
fixed-step gradient descent on it for its solver. ``estimate_gamma`` is the
share of held-out positives a detector flags, which criterion 8 checks.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
from scipy import integrate, sparse

from privlm import lm
from privlm.corpus import TokenSequence
from privlm.detector import L2_PENALTY, CsrMatrix, DetectorError, DetectorModel
from privlm.lm import LMParameters


def finite_difference_gradient(params: LMParameters, seq: TokenSequence, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the sequence NLL over every parameter."""
    flat = params.theta
    dims = (params.vocab_size, params.d_emb, params.d_hid)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        dn = flat.copy()
        dn[i] -= h
        f_up = lm.sequence_nlls(lm.LMParameters(up, *dims), [seq])[0]
        f_dn = lm.sequence_nlls(lm.LMParameters(dn, *dims), [seq])[0]
        grad[i] = (f_up - f_dn) / (2.0 * h)
    return grad


def sigmoid_by_branches(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, gathered by masks.

    Each branch only ever exponentiates a non-positive number, so nothing
    overflows; nan fails ``x >= 0`` and takes the second branch.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def renyi_divergence_quadrature(sigma: float, alpha: float) -> float:
    """Order-alpha Renyi divergence between N(1, sigma^2) and N(0, sigma^2).

    Numerical integration of exp(alpha*log p + (1-alpha)*log q) in log space
    (the plain power form under/overflows in the tails).
    """
    lognorm = 0.5 * math.log(2.0 * math.pi * sigma * sigma)

    def integrand(x: float) -> float:
        logp = -((x - 1.0) ** 2) / (2.0 * sigma * sigma) - lognorm
        logq = -(x * x) / (2.0 * sigma * sigma) - lognorm
        return math.exp(alpha * logp + (1.0 - alpha) * logq)

    val, _ = integrate.quad(integrand, -np.inf, np.inf)
    return math.log(val) / (alpha - 1.0)


def rank_by_sorting(perplexities: np.ndarray, planted_index: int) -> int:
    """Sort the full table and locate the planted entry, counting ties below it."""
    order = sorted(range(len(perplexities)), key=lambda i: (perplexities[i], i))
    planted_value = perplexities[planted_index]
    rank = 0
    for i in order:
        if perplexities[i] <= planted_value:
            rank += 1
    return rank


def mi_accuracy_recount(
    perplexities_members: np.ndarray, perplexities_non_members: np.ndarray
) -> float:
    """Confusion-matrix recount of the balanced perplexity-ranking attack.

    Mirrors the interleaved tie-break order of the attack under test but
    computes the confusion matrix entry by entry.
    """
    n = len(perplexities_members)
    pool = []
    for i in range(n):
        pool.append((perplexities_members[i], 2 * i, True))
        pool.append((perplexities_non_members[i], 2 * i + 1, False))
    ranked = sorted(pool, key=lambda t: (t[0], t[1]))
    predicted_member_positions = {t[1] for t in ranked[:n]}
    tp = sum(1 for p, pos, is_m in pool if is_m and pos in predicted_member_positions)
    tn = sum(1 for p, pos, is_m in pool if not is_m and pos not in predicted_member_positions)
    return (tp + tn) / (2 * n)


def per_example_rows(params: LMParameters, seqs: list[TokenSequence]) -> np.ndarray:
    """(B, P) gradients, each from its own one-sequence backward pass.

    No row shares a batch, padding or a contraction with another, so the
    rows are an independent reference for batched norms and weighted sums.
    """
    return np.stack([lm.batch_gradients(params, [seq])[1][0] for seq in seqs])


def featurize_by_loop(texts: list[str], char_dim: int, word_dim: int) -> CsrMatrix:
    """Hashed n-gram features, one ``zlib.crc32`` call per gram and one dict per text.

    Character 3-5-grams of ``" " + lower + " "`` go to ``crc32(b"c|" + utf8) %
    char_dim``, word 1-2-grams of ``lower.split()`` to ``char_dim +
    crc32(b"w|" + utf8) % word_dim``; each row's counts are sorted by column
    and divided by their ``np.linalg.norm``.
    """
    data, indices, indptr = [], [], [0]
    for text in texts:
        entries: dict[int, float] = {}
        lowered = " " + text.lower() + " "
        for n in range(3, 6):
            for i in range(len(lowered) - n + 1):
                idx = zlib.crc32(b"c|" + lowered[i : i + n].encode("utf-8")) % char_dim
                entries[idx] = entries.get(idx, 0.0) + 1.0
        words = text.lower().split()
        for n in range(1, 3):
            for i in range(len(words) - n + 1):
                gram = " ".join(words[i : i + n])
                idx = char_dim + zlib.crc32(b"w|" + gram.encode("utf-8")) % word_dim
                entries[idx] = entries.get(idx, 0.0) + 1.0
        keys = sorted(entries)
        vals = np.array([entries[k] for k in keys])
        norm = np.linalg.norm(vals)
        if norm > 0:
            vals = vals / norm
        indices.extend(keys)
        data.extend(vals.tolist())
        indptr.append(len(indices))
    return CsrMatrix(
        np.array(data, dtype=np.float64),
        np.array(indices, dtype=np.int64),
        np.array(indptr, dtype=np.int64),
        (len(texts), char_dim + word_dim),
    )


def scipy_csr(X: CsrMatrix) -> sparse.csr_matrix:
    """The same matrix as a ``scipy.sparse.csr_matrix``, the reference for the detector's products."""
    return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def select_threshold_by_scan(
    scores: np.ndarray, y: np.ndarray, fpr_cap: float
) -> tuple[float, float]:
    """Highest-TPR threshold with FPR <= cap, recounting every candidate.

    Candidates are the lowest score, each midpoint between adjacent distinct
    scores and the highest score plus 1; each is scored by counting both
    classes at or above it. The returned threshold is the center of the
    candidates that attain the best feasible TPR.
    """
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    uniq = sorted(set(scores.tolist()))
    candidates = [uniq[0]]
    candidates += [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])]
    candidates.append(uniq[-1] + 1.0)

    def rates(t):
        flagged = scores >= t
        return (
            float((flagged & y).sum()) / n_pos,
            float((flagged & ~y).sum()) / n_neg,
        )

    feasible = [(t, *rates(t)) for t in candidates]
    feasible = [(t, tpr) for t, tpr, fpr in feasible if fpr <= fpr_cap]
    best_tpr = max(tpr for _, tpr in feasible)
    band = [t for t, tpr in feasible if tpr == best_tpr]
    return (min(band) + max(band)) / 2.0, best_tpr


def detector_objective(
    X: CsrMatrix, y: np.ndarray, w: np.ndarray, b: float
) -> tuple[float, np.ndarray]:
    """Mean logistic loss plus ``L2_PENALTY/2 * ||w||^2`` and its gradient over ``[w, b]``.

    Each row's loss is ``log(1 + exp(-m))`` for the signed margin ``m = z`` on
    a positive and ``-z`` on a negative; the gradient is written from
    ``d/dz log(1 + e^z) = sigmoid(z)``, with the bias unpenalised.
    """
    X = scipy_csr(X)
    y = np.asarray(y, dtype=bool)
    z = np.asarray(X @ w) + b
    margin = np.where(y, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margin))) + 0.5 * L2_PENALTY * float(np.dot(w, w))
    residual = sigmoid_by_branches(z) - y
    grad_w = np.asarray(X.T @ residual) / len(y) + L2_PENALTY * w
    return loss, np.append(grad_w, residual.mean())


def detector_gd_by_loop(
    X: CsrMatrix, y: np.ndarray, epochs: int, eta: float
) -> tuple[np.ndarray, float]:
    """``(w, b)`` after ``epochs`` full-batch gradient-descent steps of size ``eta`` from zero.

    Each step on the detector's objective is ``w -= eta * (X^T err / n + L2 * w)``
    and ``b -= eta * mean(err)`` with ``err = sigmoid(Xw + b) - y``.
    """
    X = scipy_csr(X)
    y = np.asarray(y, dtype=np.float64)
    w = np.zeros(X.shape[1])
    b = 0.0
    n = X.shape[0]
    for _ in range(epochs):
        err = sigmoid_by_branches(np.asarray(X @ w) + b) - y
        w = w - eta * (np.asarray(X.T @ err) / n + L2_PENALTY * w)
        b = b - eta * float(err.sum() / n)
    return w, b


def estimate_gamma(model: DetectorModel, held_out_positives: list[str]) -> float:
    """Fraction of held-out sensitive texts the detector flags."""
    if not held_out_positives:
        raise DetectorError("cannot estimate gamma on an empty positive set")
    return float(model.flags(held_out_positives).sum()) / len(held_out_positives)
