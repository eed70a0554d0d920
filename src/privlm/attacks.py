"""Black-box privacy attacks: canary exposure and membership inference.

Both attacks treat the model purely through its perplexity on queried
sequences. Exposure ranks the planted canary against every other fill of its
template (lower perplexity = stronger memorization); membership inference
pools known-member and known-non-member sequences and predicts the
lowest-perplexity half as members.

The candidates of a template arrive as ids (``CanaryCandidates``: the
shared prefix ids plus one fill id each), so they are scored from one
forward pass of the prefix plus a gather over the fill row,
log p(. | prefix): T one-row LSTM steps instead of a batched pass over every
candidate. Every candidate reads the same prefix terms and the same fill
row, so a candidate's rank does not depend on its position in the candidate
list.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lm
from .corpus import CanaryCandidates, TokenSequence
from .lm import LMParameters


class AttackError(ValueError):
    """Raised for invalid attack inputs."""


# The columns of ``attacks.csv`` in file order, each with the type its fields read as.
ATTACK_COLUMNS: dict[str, type] = {
    "run_id": str, "regime": str, "epoch": int, "valid_perplexity": float,
    "canary_rank": int, "exposure": float, "mi_accuracy": float,
}


def format_attack_row(row: Mapping[str, object]) -> str:
    """The ``attacks.csv`` line of a row keyed by column: floats by ``repr``, the rest by ``str``."""
    return ",".join(
        repr(float(row[column])) if kind is float else str(row[column])
        for column, kind in ATTACK_COLUMNS.items()
    )


@dataclass
class AttackReport:
    """Attack outcomes for one trained checkpoint: one row of a run's ``attacks.csv``."""

    run_id: str
    regime: str
    epoch: int
    valid_perplexity: float
    canary_rank: int
    exposure: float
    candidate_space_size: int
    mi_accuracy: float

    CSV_HEADER = ",".join(ATTACK_COLUMNS)

    def csv_row(self) -> str:
        return format_attack_row(vars(self))

    def append_to(self, csv_path: str | Path) -> None:
        """Append the row to ``csv_path``, after ``CSV_HEADER`` when the file is new."""
        csv_path = Path(csv_path)
        header = "" if csv_path.exists() else self.CSV_HEADER + "\n"
        with csv_path.open("a", encoding="utf-8") as fh:
            fh.write(header + self.csv_row() + "\n")


def read_attack_rows(csv_path: str | Path) -> list[dict[str, object]]:
    """The rows of an ``attacks.csv``, typed per ``ATTACK_COLUMNS``; [] when there is no file.

    Rows are keyed by (run_id, epoch): a repeated row counts once, in the place
    of its first line. ``AttackError`` names the file for a first line other
    than ``AttackReport.CSV_HEADER``, the line for a row of another field count
    or a field that does not parse, and both lines for two rows of one key with
    different values.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        return []
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if lines[:1] != [AttackReport.CSV_HEADER]:
        raise AttackError(f"{csv_path}: first line is not {AttackReport.CSV_HEADER!r}")
    rows: dict[tuple, tuple[int, dict[str, object]]] = {}  # (run_id, epoch) -> first line, row
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != len(ATTACK_COLUMNS):
            raise AttackError(
                f"{csv_path}:{lineno}: expected {len(ATTACK_COLUMNS)} fields, got {len(fields)}"
            )
        row = {}
        for (column, kind), text in zip(ATTACK_COLUMNS.items(), fields):
            try:
                row[column] = kind(text)
            except ValueError:
                raise AttackError(
                    f"{csv_path}:{lineno}: column {column!r} must be {kind.__name__}, got {text!r}"
                ) from None
        first, kept = rows.setdefault((row["run_id"], row["epoch"]), (lineno, row))
        if format_attack_row(kept) != format_attack_row(row):
            raise AttackError(
                f"{csv_path}:{lineno}: run_id {row['run_id']!r} epoch {row['epoch']} has other "
                f"values than on line {first}"
            )
    return [row for _, row in rows.values()]


def candidate_perplexities(params: LMParameters, candidates: CanaryCandidates) -> np.ndarray:
    """Model perplexity of every candidate canary, in the candidates' fill order.

    One forward pass over the shared prefix and one fill gives both the
    prefix's NLL terms, common to every candidate, and in its last row
    log p(. | prefix), from which each fill's term is gathered.
    """
    if len(candidates) == 0:
        raise AttackError("empty candidate list")
    fills = candidates.fill_ids
    if not np.all((0 <= fills) & (fills < params.vocab_size)):
        raise AttackError(f"fill token id out of range for vocabulary of size {params.vocab_size}")
    ids = candidates.prefix_ids + (int(fills[0]),)
    logp = lm.forward(params, TokenSequence(ids, candidates.template.prefix))  # (T, V)
    T = len(logp)  # row t predicts token t+1
    terms = np.tile(-logp[np.arange(T), ids[1:]], (len(candidates), 1))
    terms[:, -1] = -logp[-1, fills]
    return np.exp(terms.sum(axis=1) / T)


def rank_from_perplexities(perplexities: np.ndarray, planted_index: int) -> int:
    """Count of candidates at most as perplex as the planted one (rank >= 1).

    Ties count into the rank, which is the conservative side: a tied field
    reports low exposure rather than pretending the canary stands out.
    """
    n = len(perplexities)
    if not (0 <= planted_index < n):
        raise AttackError(f"planted_index {planted_index} out of range for {n} candidates")
    return int(np.sum(perplexities <= perplexities[planted_index]))


def exposure(rank: int, candidate_space_size: int) -> float:
    """log2(space size) - log2(rank); in [0, log2(space size)]."""
    if candidate_space_size < 1:
        raise AttackError("candidate space must be non-empty")
    if not (1 <= rank <= candidate_space_size):
        raise AttackError(f"rank {rank} outside [1, {candidate_space_size}]")
    return math.log2(candidate_space_size) - math.log2(rank)


def membership_inference(
    params: LMParameters,
    members: list[TokenSequence],
    non_members: list[TokenSequence],
) -> float:
    """Balanced perplexity-ranking attack accuracy.

    Pools the 2n sequences (alternating member / non-member, which is the
    deterministic tie-break order), predicts the n lowest-perplexity ones as
    members, and scores against the truth. A model with no memorization
    signal lands at 0.5 for even n.
    """
    n = len(members)
    if n < 1 or len(non_members) != n:
        raise AttackError("the attack is balanced: need equally many members and non-members")
    pool = [s for pair in zip(members, non_members) for s in pair]
    truth = np.tile([True, False], n)
    ppl = lm.sequence_perplexities(params, pool)
    order = np.argsort(ppl, kind="stable")
    predicted_member = np.zeros(2 * n, dtype=bool)
    predicted_member[order[:n]] = True
    return int((predicted_member == truth).sum()) / (2 * n)


def build_mi_dataset(
    train_seqs: list[TokenSequence],
    test_seqs: list[TokenSequence],
    n: int,
    seed: int,
) -> tuple[list[TokenSequence], list[TokenSequence]]:
    """Seeded balanced attack set: n member and n non-member sequences.

    Each pool is deduplicated by text before sampling and the two samples
    are text-disjoint.
    """
    if n < 1:
        raise AttackError("n must be >= 1")

    def unique_by_text(seqs: list[TokenSequence]) -> list[TokenSequence]:
        first: dict[str, TokenSequence] = {}
        for s in seqs:
            first.setdefault(s.source_text, s)
        return list(first.values())

    train_pool, test_pool = unique_by_text(train_seqs), unique_by_text(test_seqs)
    if len(train_pool) < n:
        raise AttackError(f"need {n} distinct member texts, have {len(train_pool)}")

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    members = [train_pool[i] for i in rng.choice(len(train_pool), size=n, replace=False)]
    member_texts = {m.source_text for m in members}
    eligible = [s for s in test_pool if s.source_text not in member_texts]
    if len(eligible) < n:
        raise AttackError(f"need {n} distinct non-member texts, have {len(eligible)}")
    non_members = [eligible[i] for i in rng.choice(len(eligible), size=n, replace=False)]
    return members, non_members


def dump_perplexity_table(
    path: str | Path,
    candidates: CanaryCandidates,
    perplexities: np.ndarray,
    planted_index: int,
) -> None:
    """Full per-candidate perplexity table as CSV, for offline analysis."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "candidate", "perplexity", "planted"])
        writer.writerows(
            (i, cand.source_text, repr(float(ppl)), int(i == planted_index))
            for i, (cand, ppl) in enumerate(zip(candidates.sequences(), perplexities))
        )
