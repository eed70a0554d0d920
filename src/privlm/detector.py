"""Sensitive-sequence detection and the context audit.

The detector is a logistic classifier over hashed character and word n-gram
counts, trained on secret-style seed sentences plus paraphrased variants of
them. Paraphrasing is a seeded synonym substitution: it maps a sentence to
another with the same meaning and the same word count, standing in for
heavier semantic-invariant transforms. Everything is deterministic given the
configured seeds, including the hashing (crc32, not Python's salted hash).

The feature contract of ``featurize(texts, char_dim, word_dim)``: row i
counts, for ``t = texts[i]``,

- the character 3-5-grams of ``" " + t.lower() + " "``, each in column
  ``crc32(b"c|" + gram.encode("utf-8")) % char_dim``;
- the word 1-2-grams of ``corpus.tokenize(t)`` (a bigram is its two words
  joined by one space), each in column
  ``char_dim + crc32(b"w|" + gram.encode("utf-8")) % word_dim``;

and is then divided by its L2 norm. The kernel is vectorised over a block
of ``TEXT_BLOCK`` texts at once: one table-driven CRC-32 sweep computes
every character gram's bucket, each distinct word and word pair is hashed
once, and one ``np.unique`` counts (row, column) pairs in CSR order.
``tests/oracles.featurize_by_loop`` is the same contract written gram by
gram. The matrix is a numpy ``CsrMatrix``. ``X @ w`` sums each row with
``np.add.reduceat``: its first term plus numpy's pairwise sum of the rest. So
detector files differ from those of scipy's sequential row sums in their last
bits only. ``X.T @ v`` adds each column in CSR order with ``np.bincount``,
the bits of scipy's.

The context audit asks, for a target token in a sequence: what is the
shortest suffix of its preceding text whose paraphrase still predicts the
target almost as well as the full prefix does? Short answers mean the secret
is triggered by local context alone. The search is restricted to contiguous
suffixes; general subsequence search would be exponential and
secret-triggering context is suffix-shaped in practice. The full prefix and
every paraphrased suffix are scored in one batched language-model pass.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import lm
from .corpus import TokenSequence, Vocabulary, derived_seed, tokenize
from .lm import LMParameters

DETECTOR_MAGIC = "DETECTOR1"
CHAR_NGRAM_RANGE = (3, 5)
L2_PENALTY = 1e-4  # ridge weight of the detector's logistic loss
GRAD_TOL = 1e-6  # the solve stops once every gradient entry is at most this in magnitude
LBFGS_MEMORY = 10  # curvature pairs the L-BFGS direction is built from
ARMIJO_C = 1e-4  # sufficient-decrease fraction of the backtracking line search
MAX_HALVINGS = 60  # backtracking steps before the line search gives up
TEXT_BLOCK = 128  # texts featurized and scored at a time; small blocks keep the arrays in cache


class DetectorError(ValueError):
    """Raised for invalid detector configuration, data, or files."""


def load_synonyms(path: str | Path) -> dict[str, list[str]]:
    """Parse a synonym table: one ``word: syn1, syn2, ...`` entry per line."""
    table: dict[str, list[str]] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, _, rest = line.partition(":")
        word = word.strip().lower()
        syns = [s.strip().lower() for s in rest.split(",") if s.strip()]
        if not word or not syns:
            raise DetectorError(f"malformed synonym line: {raw!r}")
        # ``paraphrase`` looks words up one at a time, so a multi-word entry never matches.
        if any(len(w.split()) > 1 for w in (word, *syns)):
            raise DetectorError(f"synonyms must be single words: {raw!r}")
        table[word] = syns
    return table


def default_synonyms() -> dict[str, list[str]]:
    """The synonym table shipped with the package."""
    return load_synonyms(Path(__file__).parent / "data" / "synonyms.txt")


@dataclass(frozen=True)
class AugmentationConfig:
    """Seeded synonym-substitution paraphraser settings.

    ``substitution_rate`` is the per-word replacement probability for words
    with table entries; ``passes`` is the number of independent paraphrases
    generated per seed when building detector datasets.
    """

    synonym_table: dict[str, list[str]]
    substitution_rate: float = 0.5
    passes: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.substitution_rate <= 1.0):
            raise DetectorError(f"substitution_rate must be in [0,1], got {self.substitution_rate}")
        if self.passes < 0:
            raise DetectorError("passes must be >= 0")
        for word, syns in self.synonym_table.items():
            if not syns:
                raise DetectorError(f"empty synonym list for {word!r}")


def paraphrase(text: str, cfg: AugmentationConfig, variant_index: int = 0) -> str:
    """Deterministic paraphrase of ``text`` for (text, cfg.seed, variant_index).

    Each word with a synonym entry is replaced by a seeded-chosen synonym
    with probability ``substitution_rate``; word count is preserved and
    words without entries pass through unchanged.
    """
    stream_seed = derived_seed(cfg.seed, f"{variant_index}|{text}")
    rng = np.random.default_rng(np.random.SeedSequence([stream_seed]))
    out = []
    for word in text.split():
        syns = cfg.synonym_table.get(word.lower())
        if syns is not None and rng.random() < cfg.substitution_rate:
            out.append(syns[int(rng.integers(0, len(syns)))])
        else:
            out.append(word)
    return " ".join(out)


def _check_dims(char_dim: int, word_dim: int, where: str = "") -> None:
    for name, dim in (("char_dim", char_dim), ("word_dim", word_dim)):
        if dim < 1:
            raise DetectorError(f"{where}{name} must be >= 1, got {dim}")


def _crc32_table() -> np.ndarray:
    """Byte table of the reflected CRC-32 polynomial that ``zlib.crc32`` uses."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC_TABLE = _crc32_table()
# CRC-32 register after the b"c|" prefix; zlib.crc32 returns the register inverted.
_CHAR_REGISTER = np.uint32(zlib.crc32(b"c|") ^ 0xFFFFFFFF)
_WORD_PREFIX_CRC = zlib.crc32(b"w|")  # zlib.crc32(gram, this) is crc32(b"w|" + gram)


def _char_gram_crcs(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Row and ``crc32(b"c|" + UTF-8)`` of every character n-gram, in one sweep.

    Every start position of the joined padded texts carries a CRC register.
    Step k feeds each register the UTF-8 bytes of the character k places on,
    so the register of an (n+1)-gram extends that of its n-gram; a gram
    counts once it reaches its length and still ends inside its own text.
    """
    padded = [" " + text.lower() + " " for text in texts]
    joined = "".join(padded)
    points = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4")
    utf8 = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
    lengths = np.fromiter(map(len, padded), dtype=np.intp, count=len(padded))
    rows = np.repeat(np.arange(len(padded), dtype=np.uint32), lengths)
    # Characters from each start position to the end of its text.
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(points.size)

    lead, tails = utf8, []
    if utf8.size > points.size:  # some character takes more than one byte
        nbytes = 1 + (points >= 0x80) + (points >= 0x800) + (points >= 0x10000)
        offsets = np.cumsum(nbytes) - nbytes
        lead = utf8[offsets]
        for m in range(1, int(nbytes.max())):
            at = np.flatnonzero(nbytes > m)
            tails.append((at, utf8[offsets[at] + m]))

    register = np.full(points.size, _CHAR_REGISTER, dtype=np.uint32)
    out_rows, out_crcs = [], []
    for k in range(CHAR_NGRAM_RANGE[1]):
        reg = register[: max(points.size - k, 0)]  # starts whose k-th character exists
        reg[:] = _CRC_TABLE[(reg ^ lead[k : k + reg.size]) & 0xFF] ^ (reg >> 8)
        for at, byte in tails:
            keep = at >= k
            start = at[keep] - k
            r = reg[start]
            reg[start] = _CRC_TABLE[(r ^ byte[keep]) & 0xFF] ^ (r >> 8)
        if k + 1 >= CHAR_NGRAM_RANGE[0]:
            fits = room[: reg.size] >= k + 1
            out_rows.append(rows[: reg.size][fits])
            out_crcs.append(~reg[fits])
    return np.concatenate(out_rows), np.concatenate(out_crcs)


def _word_gram_crcs(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Row and ``crc32(b"w|" + UTF-8)`` of every word 1- and 2-gram.

    Words become ids and bigrams pairs of ids, so each distinct word and
    each distinct bigram is joined and hashed once.
    """
    split = [tokenize(text) for text in texts]
    counts = np.fromiter(map(len, split), dtype=np.intp, count=len(split))
    words = list(chain.from_iterable(split))
    index = {word: i for i, word in enumerate(dict.fromkeys(words))}
    ids = np.fromiter(map(index.__getitem__, words), dtype=np.intp, count=len(words))
    # Word j pairs with word j + 1 unless it is the last word of its text.
    pairs_next = np.ones(len(words), dtype=bool)
    pairs_next[np.cumsum(counts)[counts > 0] - 1] = False
    left, right = ids[:-1][pairs_next[:-1]], ids[1:][pairs_next[:-1]]
    pairs, pair_of = np.unique(left * len(index) + right, return_inverse=True)
    vocab = list(index)
    word_crcs = np.fromiter(
        (zlib.crc32(word.encode("utf-8"), _WORD_PREFIX_CRC) for word in vocab),
        dtype=np.uint32, count=len(vocab),
    )
    first, second = np.divmod(pairs, len(index))
    pair_crcs = np.fromiter(
        (zlib.crc32(f"{vocab[a]} {vocab[b]}".encode("utf-8"), _WORD_PREFIX_CRC)
         for a, b in zip(first.tolist(), second.tolist())),
        dtype=np.uint32, count=len(pairs),
    )
    rows = np.arange(len(texts), dtype=np.uint32)
    return (
        np.concatenate([np.repeat(rows, counts), np.repeat(rows, np.maximum(counts - 1, 0))]),
        np.concatenate([word_crcs[ids], pair_crcs[pair_of]]),
    )


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse rows: row i holds ``data[indptr[i]:indptr[i + 1]]`` at those ``indices``."""

    data: np.ndarray  # float64
    indices: np.ndarray  # int64 column of each entry
    indptr: np.ndarray  # int64, rows + 1 offsets into data and indices
    shape: tuple[int, int]


def featurize(texts: list[str], char_dim: int, word_dim: int) -> CsrMatrix:
    """L2-normalized hashed n-gram count matrix, one row per text (contract in the module docstring).

    A row depends on its own text only, so texts are counted ``TEXT_BLOCK`` at a time.
    """
    _check_dims(char_dim, word_dim)
    blocks = [
        _count_grams(texts[i : i + TEXT_BLOCK], char_dim, word_dim)
        for i in range(0, max(len(texts), 1), TEXT_BLOCK)
    ]
    data, indices, lengths = (np.concatenate(parts) for parts in zip(*blocks))
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return CsrMatrix(data, indices, indptr, (len(texts), char_dim + word_dim))


def _count_grams(
    texts: list[str], char_dim: int, word_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``data`` and ``indices`` of ``featurize(texts)``, and the length of each row."""
    width = char_dim + word_dim
    # uint32 keys halve the sort's memory; uint64 only where row * width overflows them.
    key_type = np.uint32 if max(len(texts), 1) * width < 2**32 else np.uint64
    char_rows, char_crcs = _char_gram_crcs(texts)
    word_rows, word_crcs = _word_gram_crcs(texts)
    # key = row * width + column, so sorted keys are CSR order with sorted indices.
    keys = np.concatenate([
        char_rows.astype(key_type) * width + char_crcs.astype(key_type) % char_dim,
        word_rows.astype(key_type) * width + (char_dim + word_crcs.astype(key_type) % word_dim),
    ])
    keys, counts = np.unique(keys, return_counts=True)
    rows, cols = np.divmod(keys, width)
    rows = rows.astype(np.intp)
    counts = counts.astype(np.float64)
    # Integer counts: the squared sums are exact in any order, as in np.linalg.norm.
    norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=len(texts)))
    return counts / norms[rows], cols.astype(np.int64), np.bincount(rows, minlength=len(texts))


def _matvec(X: CsrMatrix, w: np.ndarray) -> np.ndarray:
    """``X @ w``: one ``np.add.reduceat`` sums the non-empty rows' terms; empty rows are 0.0."""
    terms = w.take(X.indices)
    terms *= X.data
    out = np.zeros(X.shape[0])
    # reduceat would read an empty row's segment as the next row's first term.
    filled = np.flatnonzero(np.diff(X.indptr))
    out[filled] = np.add.reduceat(terms, X.indptr[filled])
    return out


def _rmatvec(X: CsrMatrix, v: np.ndarray) -> np.ndarray:
    """``X.T @ v``: ``np.bincount`` adds each column's terms from +0.0 in CSR order, as scipy does."""
    terms = np.repeat(v, np.diff(X.indptr))
    terms *= X.data
    # bincount returns integer zeros when it has no entries at all.
    return np.bincount(X.indices, weights=terms, minlength=X.shape[1]).astype(np.float64, copy=False)


def _scores(X: CsrMatrix, weights: np.ndarray, bias: float) -> np.ndarray:
    return lm._sigmoid(_matvec(X, weights) + bias)


@dataclass
class DetectorModel:
    """Binary sensitive/non-sensitive classifier over hashed n-gram features."""

    char_dim: int
    word_dim: int
    weights: np.ndarray
    bias: float
    threshold: float
    measured_gamma: float

    def score_texts(self, texts: list[str]) -> np.ndarray:
        # Block by block, so featurize's arrays stay as small as one block's.
        return np.concatenate([
            _scores(featurize(texts[i : i + TEXT_BLOCK], self.char_dim, self.word_dim),
                    self.weights, self.bias)
            for i in range(0, max(len(texts), 1), TEXT_BLOCK)
        ])

    def flags(self, texts: list[str]) -> np.ndarray:
        """Sensitivity decision per text: sigmoid score >= threshold."""
        return self.score_texts(texts) >= self.threshold

    def save(self, path: str | Path) -> None:
        header = (
            f"{DETECTOR_MAGIC} char_dim={self.char_dim} word_dim={self.word_dim} "
            f"threshold={self.threshold!r} gamma={self.measured_gamma!r}\n"
        )
        body = np.concatenate([self.weights, [self.bias]]).astype("<f8").tobytes()
        Path(path).write_bytes(header.encode("ascii") + body)

    @classmethod
    def load(cls, path: str | Path) -> "DetectorModel":
        raw = Path(path).read_bytes()
        nl = raw.find(b"\n")
        if nl < 0:
            raise DetectorError(f"{path}: missing detector header")
        fields = raw[:nl].decode("ascii").split() if raw[:nl].isascii() else []
        if not fields or fields[0] != DETECTOR_MAGIC:
            raise DetectorError(f"{path}: not a detector checkpoint")
        # A field without '=' reads as an empty value; unknown fields are ignored.
        kv = dict(f.partition("=")[::2] for f in fields[1:])
        kinds = {"char_dim": int, "word_dim": int, "threshold": float, "gamma": float}
        missing = [k for k in kinds if k not in kv]
        if missing:
            raise DetectorError(f"{path}: detector header lacks {', '.join(missing)}")
        for key, kind in kinds.items():
            try:
                kv[key] = kind(kv[key])
            except ValueError:
                raise DetectorError(f"{path}: detector {key}={kv[key]!r} is not a number") from None
        _check_dims(kv["char_dim"], kv["word_dim"], f"{path}: detector ")
        if not 0.0 <= kv["gamma"] <= 1.0:
            raise DetectorError(f"{path}: detector gamma must be in [0, 1], got {kv['gamma']}")
        if not np.isfinite(kv["threshold"]):
            raise DetectorError(f"{path}: detector threshold must be finite, got {kv['threshold']}")
        if len(raw) - nl - 1 != 8 * (kv["char_dim"] + kv["word_dim"] + 1):
            raise DetectorError(f"{path}: weight vector has wrong size")
        vec = np.frombuffer(raw, dtype="<f8", offset=nl + 1).astype(np.float64)
        if not np.isfinite(vec).all():
            raise DetectorError(f"{path}: detector weights and bias must be finite")
        return cls(
            char_dim=kv["char_dim"],
            word_dim=kv["word_dim"],
            weights=vec[:-1],
            bias=float(vec[-1]),
            threshold=kv["threshold"],
            measured_gamma=kv["gamma"],
        )


@dataclass
class DetectorDataset:
    """Labeled texts for detector training; label True means sensitive."""

    texts: list[str]
    labels: np.ndarray
    n_positive: int
    n_negative: int


def build_detector_dataset(
    sensitive_seeds: list[str],
    negatives: list[str],
    cfg: AugmentationConfig,
) -> DetectorDataset:
    """Positives = seeds plus ``cfg.passes`` paraphrases of each; negatives = corpus lines.

    Both classes are deduplicated and any negative that exactly matches a
    positive is dropped.
    """
    if not sensitive_seeds or not negatives:
        raise DetectorError("both classes must be non-empty")

    positives = dict.fromkeys(
        text
        for seed_text in sensitive_seeds
        for text in [seed_text, *(paraphrase(seed_text, cfg, k) for k in range(cfg.passes))]
    )
    negatives_kept = [text for text in dict.fromkeys(negatives) if text not in positives]
    if not negatives_kept:
        raise DetectorError("no negatives left after removing overlap with positives")

    texts = [*positives, *negatives_kept]
    labels = np.array([True] * len(positives) + [False] * len(negatives_kept))
    return DetectorDataset(texts, labels, len(positives), len(negatives_kept))


def train_detector(
    dataset: DetectorDataset,
    epochs: int = 300,
    eta: float = 2.0,
    seed: int = 0,
    char_dim: int = 4096,
    word_dim: int = 2048,
    fpr_cap: float = 0.05,
    val_fraction: float = 0.25,
) -> DetectorModel:
    """L2-penalised logistic regression solved by L-BFGS, seeded and exact.

    The objective is the mean logistic loss over the training fold plus
    ``L2_PENALTY/2 * ||w||^2`` (the bias is not penalised). ``epochs`` caps the
    solver's iterations and ``eta`` is its first step along the negative
    gradient, so ``epochs=1`` is one gradient-descent step of size ``eta``;
    the solve stops earlier once every gradient entry is within ``GRAD_TOL``.

    A stratified validation fold is held out; the decision threshold is the
    one maximizing validation true-positive rate subject to a false-positive
    rate at most ``fpr_cap``, and the achieved TPR is stored as
    ``measured_gamma``.
    """
    if not (0.0 <= fpr_cap <= 1.0):
        raise DetectorError(f"fpr_cap must be in [0, 1], got {fpr_cap}")
    if epochs < 1:
        raise DetectorError(f"epochs must be >= 1, got {epochs}")
    if not eta > 0:
        raise DetectorError(f"eta must be > 0, got {eta}")
    y = dataset.labels
    train_idx, val_idx = _fold_indices(y, val_fraction, seed)

    # A row depends on its own text only, so each fold is featurized on its own.
    X_train, X_val = (
        featurize([dataset.texts[i] for i in idx], char_dim, word_dim) for idx in (train_idx, val_idx)
    )
    theta = _fit_logistic(X_train, y[train_idx].astype(np.float64), epochs, eta)
    w, b = theta[:-1], float(theta[-1])
    threshold, gamma = _select_threshold(_scores(X_val, w, b), y[val_idx], fpr_cap)
    return DetectorModel(
        char_dim=char_dim,
        word_dim=word_dim,
        weights=w,
        bias=b,
        threshold=threshold,
        measured_gamma=gamma,
    )


def _fold_indices(y: np.ndarray, val_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, validation) row indices: a seeded ``val_fraction`` of each class is held out."""
    if not (0.0 < val_fraction < 1.0):
        raise DetectorError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if seed < 0:
        raise DetectorError(f"seed must be >= 0, got {seed}")
    if not y.any() or y.all():
        raise DetectorError("detector training needs both classes present")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    pos_idx = rng.permutation(np.flatnonzero(y))
    neg_idx = rng.permutation(np.flatnonzero(~y))
    n_pos_val = max(1, int(round(val_fraction * len(pos_idx))))
    n_neg_val = max(1, int(round(val_fraction * len(neg_idx))))
    if n_pos_val >= len(pos_idx) or n_neg_val >= len(neg_idx):
        raise DetectorError("dataset too small to hold out a validation fold")
    val_idx = np.concatenate([pos_idx[:n_pos_val], neg_idx[:n_neg_val]])
    train_idx = np.concatenate([pos_idx[n_pos_val:], neg_idx[n_neg_val:]])
    return train_idx, val_idx


def _fit_logistic(X: CsrMatrix, y: np.ndarray, max_iter: int, first_step: float) -> np.ndarray:
    """``[w, b]`` minimising the detector objective on (X, y) by L-BFGS (Liu & Nocedal 1989).

    The direction comes from the two-loop recursion over the last
    ``LBFGS_MEMORY`` curvature pairs, scaled by the newest pair's s.y / y.y;
    the first iteration has no pairs and steps ``first_step`` along the
    negative gradient. Steps are halved until the Armijo condition holds. The
    objective is strictly convex (the bias column is constant and the weights
    are penalised), so s.y > 0 except through rounding; such pairs are skipped.
    """
    n = X.shape[0]

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        w = theta[:-1]
        z = _matvec(X, w)
        z += theta[-1]
        loss = (np.logaddexp(0.0, z).sum() - y @ z) / n + 0.5 * L2_PENALTY * (w @ w)
        err = lm._sigmoid(z)
        err -= y
        grad = np.empty_like(theta)
        grad[:-1] = _rmatvec(X, err)
        grad[:-1] /= n
        grad[:-1] += L2_PENALTY * w
        grad[-1] = err.sum() / n
        return float(loss), grad

    theta = np.zeros(X.shape[1] + 1)
    loss, grad = objective(theta)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, s.y), oldest first
    step = first_step
    for _ in range(max_iter):
        if np.abs(grad).max() <= GRAD_TOL:
            break
        q = grad.copy()
        alphas = []
        for s, yv, sy in reversed(pairs):
            a = (s @ q) / sy
            q -= a * yv
            alphas.append(a)
        if pairs:
            s, yv, sy = pairs[-1]
            q *= sy / (yv @ yv)
        for (s, yv, sy), a in zip(pairs, reversed(alphas)):
            q += (a - (yv @ q) / sy) * s
        direction = -q
        slope = grad @ direction
        for _ in range(MAX_HALVINGS):
            trial = theta + step * direction
            trial_loss, trial_grad = objective(trial)
            if trial_loss <= loss + ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            break  # no decrease left at float64 resolution
        s, yv = trial - theta, trial_grad - grad
        sy = s @ yv
        if sy > 0:
            pairs = [*pairs, (s, yv, sy)][-LBFGS_MEMORY:]
        theta, loss, grad = trial, trial_loss, trial_grad
        step = 1.0
    return theta


def _select_threshold(scores: np.ndarray, y: np.ndarray, fpr_cap: float) -> tuple[float, float]:
    """Highest-TPR threshold with FPR <= cap.

    TPR is nonincreasing in the threshold, so the smallest feasible candidate
    maximizes it; candidates are midpoints between adjacent observed scores,
    which leaves margin on both sides of the decision boundary. Missed
    positives weaken the privacy floor (delta > 1 - gamma) while false
    positives only cost utility, hence the low-threshold preference.
    """
    uniq = np.unique(scores)
    candidates = np.concatenate([uniq[:1], (uniq[:-1] + uniq[1:]) / 2.0, uniq[-1:] + 1.0])

    def rate(s: np.ndarray) -> np.ndarray:
        # Share of s at or above each candidate, counted by binary search.
        return (len(s) - np.searchsorted(np.sort(s), candidates, side="left")) / len(s)

    tpr, fpr = rate(scores[y]), rate(scores[~y])
    feasible = fpr <= fpr_cap
    best_tpr = tpr[feasible].max()
    band = candidates[feasible & (tpr == best_tpr)]
    # Max-margin: center the threshold in the band that attains the best TPR,
    # so held-out scores on either side keep distance from the boundary.
    return float((band.min() + band.max()) / 2.0), float(best_tpr)


@dataclass
class ContextAudit:
    """Result of the minimal-context search for one target token.

    ``found`` is False when no suffix (not even the full prefix) predicts the
    target within the tolerance once paraphrased; that happens only when the
    paraphrase actually changes the qualifying text.
    """

    found: bool
    context_ids: tuple[int, ...]
    context_text: str
    length: int
    gap: float
    reference_probability: float
    gaps_by_length: list[float] = field(default_factory=list)


def audit_context(
    params: LMParameters,
    seq: TokenSequence,
    target_index: int,
    alpha: float,
    cfg: AugmentationConfig,
    vocabulary: Vocabulary,
) -> ContextAudit:
    """Shortest prefix suffix whose paraphrase predicts the target within ``alpha``.

    ``target_index`` is 1-based. Suffixes of the prefix are tried from the
    empty one upward; the first whose paraphrased conditional probability is
    within ``alpha`` of the full-prefix probability is returned. Each suffix
    is paraphrased and re-encoded through ``corpus.tokenize`` under
    ``vocabulary``, so an unchanged suffix keeps its ids: the vocabularies
    this package builds hold only lowercase, whitespace-free tokens.
    """
    if not (1 <= target_index <= len(seq)):
        raise DetectorError(f"target_index {target_index} out of range for length {len(seq)}")
    if not alpha >= 0:  # nan too
        raise DetectorError("alpha must be >= 0")

    prefix_ids = list(seq.ids[: target_index - 1])
    target_id = seq.ids[target_index - 1]
    suffixes = []
    for length in range(len(prefix_ids) + 1):
        suffix_ids = prefix_ids[len(prefix_ids) - length :]
        transformed = tokenize(paraphrase(vocabulary.decode(suffix_ids), cfg, 0))
        suffixes.append(vocabulary.encode_tokens(transformed))
    probs = lm.conditional_probabilities(params, [prefix_ids] + suffixes, target_id)
    p_ref = float(probs[0])
    gaps = [abs(p_ref - float(p)) for p in probs[1:]]
    # gaps has one entry per suffix length 0..len(prefix_ids); without a
    # qualifying suffix the result is the full, unparaphrased prefix.
    within = [length for length, gap in enumerate(gaps) if gap <= alpha]
    length = within[0] if within else len(prefix_ids)
    context_ids = suffixes[length] if within else prefix_ids
    return ContextAudit(
        found=bool(within),
        context_ids=tuple(context_ids),
        context_text=vocabulary.decode(context_ids),
        length=length,
        gap=gaps[length],
        reference_probability=p_ref,
        gaps_by_length=gaps[: length + 1],
    )
