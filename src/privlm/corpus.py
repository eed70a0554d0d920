"""Text corpus handling: tokenization, vocabularies, canary planting, splits.

A corpus is a list of token sequences over a shared vocabulary. Input files
are UTF-8 plain text, one sequence per line. ``tokenize`` is the package's
one word rule: lowercase the text, then split it on whitespace. Corpus
lines, canaries, context audits and the detector's word grams all read words
through it, so the vocabularies built here hold only lowercase,
whitespace-free tokens. Lines with fewer than two tokens are dropped: a
language-model training example needs at least one context token and one
target token.

All randomness (splits, planting positions, batch shuffles) flows from
explicit integer seeds, so every derived object is reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

UNK_TOKEN = "<unk>"

# Hard ceiling on canary candidate enumeration; ranking is exact, not sampled.
DEFAULT_ENUMERATION_CAP = 10_000


class CorpusError(ValueError):
    """Raised for malformed corpus inputs or invalid corpus operations."""


def derived_seed(base: int, tag: str) -> int:
    """A 64-bit seed for one named use of ``base``: blake2b of ``f"{base}|{tag}"``."""
    digest = hashlib.blake2b(f"{base}|{tag}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def tokenize(text: str) -> list[str]:
    """The words of ``text``: lowercased, then split on whitespace."""
    return text.lower().split()


class Vocabulary:
    """Bidirectional token/id map with a reserved unknown token at id 0.

    Ids are contiguous integers starting at 0. Tokens added later (e.g. by
    canary planting) are appended, so existing ids never change.
    """

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: dict[str, int] = {UNK_TOKEN: 0}
        self._id_to_token: list[str] = [UNK_TOKEN]
        self.extend(tokens)

    @property
    def size(self) -> int:
        return len(self._id_to_token)

    @property
    def tokens(self) -> tuple[str, ...]:
        """Every token, in id order."""
        return tuple(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def extend(self, tokens: Iterable[str]) -> None:
        """Append the tokens not yet present, in order, each with the next free id.

        A token must be non-empty and free of whitespace. On the first token
        that is not, ``CorpusError`` is raised with the tokens before it added.
        """
        tokens = list(tokens)
        # Joining and splitting returns the tokens exactly when each is one non-empty word.
        if " ".join(tokens).split() != tokens:
            k = next(k for k, tok in enumerate(tokens) if tok.split() != [tok])
            self.extend(tokens[:k])
            raise CorpusError(f"invalid vocabulary token: {tokens[k]!r}")
        ids = self._token_to_id
        start = len(ids)
        for tok in tokens:
            ids.setdefault(tok, len(ids))
        self._id_to_token.extend(itertools.islice(ids, start, None))  # the keys just inserted

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        return [self._token_to_id.get(t, 0) for t in tokens]

    def decode(self, ids: list[int]) -> str:
        return " ".join(self._id_to_token[i] for i in ids)

    def save(self, path: str | Path) -> None:
        """Persist as one token per line; the line number is the id."""
        Path(path).write_text("\n".join(self._id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by ``save``; a repeated token would shift every later id."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != UNK_TOKEN:
            raise CorpusError(f"vocabulary file {path} must start with {UNK_TOKEN}")
        try:
            vocab = cls(lines[1:])
        except CorpusError:
            line, tok = next((n, tok) for n, tok in enumerate(lines, 1) if tok.split() != [tok])
            raise CorpusError(
                f"vocabulary file {path}, line {line}: invalid vocabulary token {tok!r}"
            ) from None
        if vocab.size != len(lines):
            first: dict[str, int] = {}  # token -> the line it first appears on
            line, tok = next(
                (n, tok) for n, tok in enumerate(lines, 1) if first.setdefault(tok, n) != n
            )
            raise CorpusError(
                f"vocabulary file {path}, line {line}: token {tok!r} repeats line {first[tok]}"
            )
        return vocab


@dataclass(frozen=True)
class TokenSequence:
    """An encoded sequence plus the original text it came from.

    The source text is retained because the sensitivity detector consumes
    raw text, not token ids.
    """

    ids: tuple[int, ...]
    source_text: str

    def __post_init__(self):
        if not self.ids:
            raise CorpusError("empty token sequence")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_text(
        cls,
        text: str,
        vocabulary: Vocabulary,
        max_len: int | None = None,
    ) -> "TokenSequence":
        tokens = tokenize(text)
        if max_len is not None:
            tokens = tokens[:max_len]
        return cls(ids=tuple(vocabulary.encode_tokens(tokens)), source_text=text)


@dataclass
class Corpus:
    """A list of token sequences sharing one vocabulary.

    ``labels`` optionally marks each sequence as sensitive (True) or not;
    it is kept aligned with ``sequences`` by every operation here.
    """

    sequences: list[TokenSequence]
    vocabulary: Vocabulary
    labels: list[bool] | None = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.sequences):
            raise CorpusError("labels length does not match sequence count")

    def __len__(self) -> int:
        return len(self.sequences)

    def texts(self) -> list[str]:
        return [s.source_text for s in self.sequences]


@dataclass(frozen=True)
class CanaryTemplate:
    """A secret-sentence template: fixed prefix plus a random slot.

    The slot is ``slot_count`` characters drawn from ``slot_alphabet``,
    appended to the prefix as a single token. The candidate space has
    ``len(slot_alphabet) ** slot_count`` fills, enumerated in lexicographic
    order of the alphabet as given. A built template is valid: at least one
    slot character and one prefix token, so every sentence has two or more
    tokens, and at most ``DEFAULT_ENUMERATION_CAP`` candidates.
    """

    prefix: str
    slot_alphabet: str
    slot_count: int

    def __post_init__(self):
        if self.slot_count < 1:
            raise CorpusError(f"slot_count must be >= 1, got {self.slot_count}")
        if not self.slot_alphabet:
            raise CorpusError("slot_alphabet must be non-empty")
        if len(set(self.slot_alphabet)) != len(self.slot_alphabet):
            raise CorpusError("slot_alphabet contains duplicate characters")
        if any(ch.isspace() for ch in self.slot_alphabet):
            raise CorpusError("slot_alphabet must not contain whitespace")
        # Canaries are encoded lowercased: an upper-case fill would collide.
        if self.slot_alphabet != self.slot_alphabet.lower():
            raise CorpusError(f"slot_alphabet must be lower-case: {self.slot_alphabet!r}")
        if not self.prefix.split():
            raise CorpusError(f"prefix {self.prefix!r} must contain at least one token")
        # Otherwise the fill joins the prefix's last word into one token.
        if not self.prefix[-1].isspace():
            raise CorpusError(
                f"prefix {self.prefix!r} must end in whitespace so the fill is its own token"
            )
        # n ** cap.bit_length() > cap for n >= 2, so the capped exponent decides the same
        # without building the huge power a mistyped slot_count would ask for.
        exponent = min(self.slot_count, DEFAULT_ENUMERATION_CAP.bit_length())
        if len(self.slot_alphabet) ** exponent > DEFAULT_ENUMERATION_CAP:
            raise CorpusError(
                f"candidate space {len(self.slot_alphabet)}**{self.slot_count} exceeds "
                f"enumeration cap {DEFAULT_ENUMERATION_CAP}"
            )

    @property
    def candidate_space_size(self) -> int:
        return len(self.slot_alphabet) ** self.slot_count

    def fills(self) -> Iterator[str]:
        """All candidate fills in deterministic lexicographic order."""
        return map("".join, itertools.product(self.slot_alphabet, repeat=self.slot_count))

    def _check_fill(self, fill: str) -> None:
        if len(fill) != self.slot_count or any(c not in self.slot_alphabet for c in fill):
            raise CorpusError(
                f"fill {fill!r} is not in the slot space "
                f"(alphabet {self.slot_alphabet!r}, {self.slot_count} chars)"
            )

    def sentence(self, fill: str) -> str:
        self._check_fill(fill)
        return (self.prefix + fill).strip()

    def fill_index(self, fill: str) -> int:
        """The fill's position in ``fills()``: its characters as digits in base |alphabet|."""
        self._check_fill(fill)
        index = 0
        for ch in fill:
            index = index * len(self.slot_alphabet) + self.slot_alphabet.index(ch)
        return index


def load_corpus(
    path: str | Path,
    min_count: int = 1,
    max_len: int = 64,
    labels_path: str | Path | None = None,
) -> Corpus:
    """Load a one-sequence-per-line text file and build its vocabulary.

    Tokens occurring fewer than ``min_count`` times map to the unknown id.
    Lines that tokenize to fewer than two tokens are dropped. An optional
    labels sidecar (one ``0``/``1`` per retained line, same order) marks
    sensitive sequences.
    """
    path = Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    kept: list[tuple[str, list[str]]] = []
    for line in raw_lines:
        tokens = tokenize(line)[:max_len]
        if len(tokens) >= 2:
            kept.append((line, tokens))
    if not kept:
        raise CorpusError(f"corpus {path} is empty after filtering")

    counts: Counter[str] = Counter()
    for _, tokens in kept:
        counts.update(tokens)
    # Deterministic vocabulary order: frequency descending, then lexicographic.
    retained = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    vocab = Vocabulary(retained)

    sequences = [
        TokenSequence(ids=tuple(vocab.encode_tokens(tokens)), source_text=line)
        for line, tokens in kept
    ]

    labels = None
    if labels_path is not None:
        label_lines = Path(labels_path).read_text(encoding="utf-8").split()
        if len(label_lines) != len(sequences):
            raise CorpusError(
                f"labels file has {len(label_lines)} entries for {len(sequences)} sequences"
            )
        for i, v in enumerate(label_lines, 1):
            if v not in ("0", "1"):
                raise CorpusError(f"labels file {labels_path}, line {i}: expected 0 or 1, got {v!r}")
        labels = [v == "1" for v in label_lines]

    return Corpus(sequences=sequences, vocabulary=vocab, labels=labels)


def split_corpus(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic seeded shuffle and partition into (train, test).

    Sizes are ceil(f*N) and N - ceil(f*N), and neither may be 0; both halves
    share the vocabulary object so later extensions stay consistent.
    """
    if not (0.0 < train_fraction < 1.0):
        raise CorpusError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(corpus)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    order = rng.permutation(n)
    # Guard against float slop like 0.7*10 = 6.999...96 when f*N is integral.
    n_train = int(math.ceil(train_fraction * n - 1e-9))
    if not 0 < n_train < n:
        raise CorpusError(
            f"train_fraction {train_fraction} of {n} sequences leaves an empty train or test split"
        )
    train_idx, test_idx = order[:n_train], order[n_train:]

    def take(idx: np.ndarray) -> Corpus:
        seqs = [corpus.sequences[i] for i in idx]
        labels = [corpus.labels[i] for i in idx] if corpus.labels is not None else None
        return Corpus(sequences=seqs, vocabulary=corpus.vocabulary, labels=labels)

    return take(train_idx), take(test_idx)


def extend_vocabulary_for_template(vocabulary: Vocabulary, template: CanaryTemplate) -> None:
    """Add the template's prefix tokens and every candidate fill to the vocabulary.

    Exposure ranking compares the model's perplexity across the whole fill
    space, so every fill must be a real vocabulary entry; otherwise unseen
    fills collapse onto the unknown token and ranks degenerate.
    ``plant_canary`` is the package's one caller.
    """
    vocabulary.extend(itertools.chain(tokenize(template.prefix), template.fills()))


def canary_sentence(template: CanaryTemplate, fill: str, max_len: int) -> str:
    """The canary ``plant_canary`` plants, after every check it makes before planting.

    ``fill`` must be in the slot space and the sentence at most ``max_len``
    tokens, since truncating it could cut off the secret the attacks rank.
    """
    sentence = template.sentence(fill)
    n_tokens = len(tokenize(sentence))
    if n_tokens > max_len:
        raise CorpusError(f"canary {sentence!r} has {n_tokens} tokens, more than max_len {max_len}")
    return sentence


def plant_canary(
    corpus: Corpus,
    template: CanaryTemplate,
    fill: str,
    count: int,
    seed: int,
    max_len: int = 64,
) -> tuple[Corpus, list[int]]:
    """Insert ``count`` copies of the instantiated canary at seeded positions.

    Returns the new corpus and the positions (indices in the returned corpus)
    of the planted copies. The vocabulary is extended with the prefix tokens
    and the full fill space, also when ``count`` is 0, so that a control run
    without planted copies can still score every candidate fill. Planted
    sequences are labeled sensitive when the corpus carries labels. The
    canary is checked by :func:`canary_sentence`.
    """
    if count < 0:
        raise CorpusError("count must be >= 0")
    sentence = canary_sentence(template, fill, max_len)
    extend_vocabulary_for_template(corpus.vocabulary, template)
    canary = TokenSequence.from_text(sentence, corpus.vocabulary)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    seqs = list(corpus.sequences)
    labels = list(corpus.labels) if corpus.labels is not None else None
    positions: list[int] = []
    for _ in range(count):
        pos = int(rng.integers(0, len(seqs) + 1))
        seqs.insert(pos, canary)
        if labels is not None:
            labels.insert(pos, True)
        # Earlier insertions shift right when a later one lands before them.
        positions = [p + 1 if p >= pos else p for p in positions]
        positions.append(pos)
    return Corpus(sequences=seqs, vocabulary=corpus.vocabulary, labels=labels), sorted(positions)


@dataclass(frozen=True, eq=False)
class CanaryCandidates:
    """Every candidate canary of a template as ids: the shared prefix ids plus one fill id each.

    Candidate k is ``prefix_ids + (fill_ids[k],)``, the encoding of
    ``template.sentence(fill)`` for the k-th fill of ``template.fills()``.
    """

    template: CanaryTemplate
    prefix_ids: tuple[int, ...]
    fill_ids: np.ndarray  # (N,) int64, in fills() order

    def __len__(self) -> int:
        return len(self.fill_ids)

    def sequences(self) -> list[TokenSequence]:
        """Each candidate as the ``TokenSequence`` its sentence encodes to."""
        return [
            TokenSequence(self.prefix_ids + (fid,), self.template.sentence(fill))
            for fid, fill in zip(self.fill_ids.tolist(), self.template.fills())
        ]


def enumerate_canaries(template: CanaryTemplate, vocabulary: Vocabulary) -> CanaryCandidates:
    """All candidate canaries of ``template``, in lexicographic fill order.

    Candidates are encoded under ``vocabulary``, which is only read: a prefix
    token or fill that ``plant_canary`` has not added raises ``CorpusError``.
    ``CanaryTemplate`` guarantees that a fill is its own token, so each
    candidate is the prefix ids plus the fill's id, as
    ``TokenSequence.from_text`` would encode its sentence.
    """
    prefix, fills = tokenize(template.prefix), list(template.fills())
    missing = next((tok for tok in itertools.chain(prefix, fills) if tok not in vocabulary), None)
    if missing is not None:
        raise CorpusError(f"canary token {missing!r} is not in the vocabulary; plant_canary adds it")
    return CanaryCandidates(
        template,
        tuple(vocabulary.encode_tokens(prefix)),
        np.array(vocabulary.encode_tokens(fills), dtype=np.int64),
    )


def minibatches(
    corpus: Corpus, batch_size: int, seed: int, epoch: int
) -> Iterator[list[TokenSequence]]:
    """Fixed-size batches over an epoch-seeded shuffle; the last may be short.

    The permutation is keyed on (seed, epoch), so the same pair always yields
    the same batch order and different epochs get different orders.
    """
    if batch_size < 1:
        raise CorpusError("batch_size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
    order = rng.permutation(len(corpus))
    for start in range(0, len(corpus), batch_size):
        yield [corpus.sequences[i] for i in order[start : start + batch_size]]


def write_canary_manifest(
    path: str | Path,
    template: CanaryTemplate,
    fill: str,
    count: int,
    positions: list[int],
) -> None:
    """Persist the planting record as flat key=value text."""
    lines = [
        f"prefix={template.prefix}",
        f"slot_alphabet={template.slot_alphabet}",
        f"slot_count={template.slot_count}",
        f"fill={fill}",
        f"count={count}",
        "positions=" + ",".join(str(p) for p in positions),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
