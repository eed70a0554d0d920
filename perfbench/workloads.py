"""The benchmark's workloads: inputs made from a seed, set-up, measured unit, checks.

Every workload drives privlm only through its public entry points
(``experiment.train``, ``experiment.run_attacks``,
``experiment.train_detector_from_config``,
``experiment.audit_manifest_context`` and ``report.write_report``) on files
it generates under the work directory. Paths written into configs are
relative to the checkout root, which is the working directory, so manifests
do not depend on where the checkout lives.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Acceptance desk shapes (tests/test_acceptance.py, DESK).
D_MODEL = 64
BATCH = 32
SIGMA = 3.0
CLIP = 0.085
ALPHA = 2.0
SLOTS = "123456789"
DETECTOR_KEYS = {
    "synonyms": "",
    "substitution_rate": "0.5",
    "variants_per_seed": "15",
    "phi_seed": "11",
    "epochs": "300",
    "eta": "2.0",
    "seed": "7",
    "char_dim": "4096",
    "word_dim": "2048",
    "fpr_cap": "0.05",
    "val_fraction": "0.25",
}
SYNONYMS = "src/privlm/data/synonyms.txt"
# Small enough that the audit walks every suffix of the canary prefix.
AUDIT_ALPHA = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    regime: str
    synth_lines: int  # synth lines generated
    join: int  # consecutive synth lines joined into one corpus line
    slot_count: int
    canary_count: int
    eta: float

    @property
    def trains_in_measure(self) -> bool:
        return self.name != "audit_wide"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dpsgd_desk",
            "desk shapes under dpsgd: every step is a 32-example private step, "
            "short T (~7.5), so clipping and the per-example gradient stack dominate",
            "dpsgd", 2000, 1, 3, 50, 0.5,
        ),
        Workload(
            "cadp_desk",
            "desk shapes under cadp with a detector from set-up: mostly plain "
            "steps over ~28 examples and small private steps",
            "cadp", 2000, 1, 3, 50, 0.5,
        ),
        Workload(
            "dpsgd_long",
            "dpsgd on 6 joined synth lines (T ~48-63): the long-T side of the "
            "ghost-norm versus materialised clipping choice",
            "dpsgd", 6000, 6, 3, 10, 0.5,
        ),
        Workload(
            "audit_wide",
            "attack, detector, context audit and report on a 4-slot canary "
            "(V ~6800): forward-only scoring and featurize/GD, no BPTT",
            # At V ~6800 the desk rate 0.5 makes the short run erratic (valid
            # perplexity from ~400 to ~6000 across seeds); 0.2 keeps it steady.
            "nodp", 600, 1, 4, 20, 0.2,
        ),
    )
}


@dataclass
class Prepared:
    """Everything the measured phase and the output checks need."""

    workload: Workload
    work: Path
    config: object  # privlm.experiment.ExperimentConfig
    manifest_path: Path
    detector_cfg: Path
    detector_ckpt: Path
    shapes: dict
    expected: dict
    # audit_wide: figures of the set-up training of the attacked checkpoint
    setup_train_tokens_per_s: float = 0.0
    setup_valid_ppl: float = 0.0
    audit_sentence: str = ""
    audit_index: int = 0
    first_fingerprint: tuple | None = None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_kv(path: Path, values: dict) -> None:
    lines = []
    for key, value in values.items():
        for v in value if isinstance(value, list) else [value]:
            lines.append(f"{key} = {v}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _draws(seed: int, slot_count: int) -> tuple[str, int, int, int]:
    """Canary fill and training seeds, all functions of the workload seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20230128]))
    fill = "".join(SLOTS[int(i)] for i in rng.integers(0, len(SLOTS), size=slot_count))
    seed_data, seed_init, seed_noise = (int(x) for x in rng.integers(1, 2**31, size=3))
    return fill, seed_data, seed_init, seed_noise


def _generate_inputs(pl, w: Workload, seed: int, data_dir: Path) -> dict[str, Path]:
    data = pl.synth.generate_desk_corpus(n_lines=w.synth_lines, sensitive_fraction=0.08, seed=seed)
    if w.join > 1:
        n = len(data.lines) // w.join
        data.lines = [
            " ".join(data.lines[i * w.join : (i + 1) * w.join]) for i in range(n)
        ]
        data.labels = [any(data.labels[i * w.join : (i + 1) * w.join]) for i in range(n)]
    return pl.synth.write_desk_dataset(data, data_dir)


def setup(pl, w: Workload, seed: int, work: Path) -> Prepared:
    """Generate inputs, train what the workload needs, recompute expectations."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    paths = _generate_inputs(pl, w, seed, work / "data")
    fill, seed_data, seed_init, seed_noise = _draws(seed, w.slot_count)
    variant_prefix = pl.detector.paraphrase(
        pl.synth.CANARY_SEED_PREFIX,
        pl.detector.AugmentationConfig(
            synonym_table=pl.detector.default_synonyms(), substitution_rate=1.0, seed=2
        ),
        0,
    )

    detector_ckpt = work / "detector.bin"
    detector_cfg = work / "detector.cfg"
    _write_kv(
        detector_cfg,
        {"seeds": paths["seeds"], "negatives": paths["negatives"], **DETECTOR_KEYS, "out": detector_ckpt},
    )
    det = None
    if w.regime == "cadp":
        det, _ = pl.experiment.train_detector_from_config(detector_cfg)

    audit = not w.trains_in_measure
    run_dir = work / "run"
    config_path = work / "train.cfg"
    _write_kv(
        config_path,
        {
            "regime": w.regime,
            "corpus": paths["corpus"],
            "labels": paths["labels"],
            "max_seq_len": 64,
            "canary_prefix": variant_prefix,
            "canary_slot_alphabet": SLOTS,
            "canary_slot_count": w.slot_count,
            "canary_fill": fill,
            "canary_count": w.canary_count,
            "d_emb": D_MODEL,
            "d_hid": D_MODEL,
            "epochs": 1,
            "batch_size": BATCH,
            "eta": w.eta,
            "sigma": SIGMA,
            "clip_bound": CLIP,
            "delta": 0.1 if w.regime == "cadp" else 1e-5,
            "rdp_alpha": ALPHA,
            "detector": detector_ckpt if det is not None else "",
            "synonyms": SYNONYMS if audit else "",
            "seed_data": seed_data,
            "seed_init": seed_init,
            "seed_noise": seed_noise,
            "mi_n": 50,
            "mi_members": "all" if audit else "sensitive",
            "out_dir": run_dir,
        },
    )
    config = pl.experiment.ExperimentConfig.from_file(config_path)
    expected, shapes = _expectations(pl, config, det)
    prep = Prepared(
        workload=w,
        work=work,
        config=config,
        manifest_path=run_dir / "manifest.json",
        detector_cfg=detector_cfg,
        detector_ckpt=detector_ckpt,
        shapes=shapes,
        expected=expected,
    )
    if audit:
        t0 = perf_counter()
        manifest = pl.experiment.train(config)
        prep.setup_train_tokens_per_s = prep.expected["train_tokens"] / (perf_counter() - t0)
        prep.setup_valid_ppl = manifest["epochs"][-1]["valid_perplexity"]
        sentence = f"{variant_prefix} {fill}"
        prep.audit_sentence = sentence
        prep.audit_index = len(pl.corpus.tokenize(sentence))
    return prep


def _expectations(pl, config, det) -> tuple[dict, dict]:
    """Step schedule, token count and budget recomputed outside ``train``; input shapes."""
    train, test, _, _ = pl.experiment.prepare_data(config)
    texts = sorted(set(train.texts()))
    regime = config["regime"]
    if regime == "cadp":
        flags = dict(zip(texts, det.score_texts(texts) >= det.threshold))
    else:
        flags = {t: regime == "dpsgd" for t in texts}
    private = plain = 0
    for epoch in range(1, config["epochs"] + 1):
        for batch in pl.corpus.minibatches(train, config["batch_size"], config["seed_data"], epoch):
            private += any(flags[s.source_text] for s in batch)
            plain += not all(flags[s.source_text] for s in batch)
    sensitive = sum(1 for s in train.sequences if flags[s.source_text])
    gamma = det.measured_gamma if det is not None else 1.0
    eps = None
    if regime != "nodp" and config["delta"] > 1.0 - gamma:
        per_step = config["rdp_alpha"] / (2.0 * config["sigma"] ** 2)
        eps = config["epochs"] * sensitive * per_step / config["batch_size"] + math.log(
            1.0 / config["delta"]
        ) / (config["rdp_alpha"] - 1.0)
    lengths = [len(s) - 1 for s in train.sequences]
    V, d = train.vocabulary.size, config["d_emb"]
    h = config["d_hid"]
    expected = {
        "private_steps": private,
        "plain_steps": plain,
        "sensitive_count": sensitive,
        "eps_total": eps,
        "train_tokens": config["epochs"] * sum(lengths),
        "valid_seqs": config["epochs"] * len(test),
    }
    shapes = {
        "V": V,
        "P": V * d + 4 * h * (d + h) + 4 * h + h * V + V,
        "B": config["batch_size"],
        "T_mean": sum(lengths) / len(lengths),
        "T_max": max(lengths),
        "train_lines": len(train),
        "valid_lines": len(test),
        "sensitive_lines": sensitive,
    }
    return expected, shapes


# --------------------------------------------------------------------------
# Measured units. Each returns (wall seconds, outputs); checks run afterwards.
# --------------------------------------------------------------------------

def ops_per_unit(prep: Prepared) -> int:
    """Operations in one unit: steps plus per-epoch eval/checkpoint, or 4 audit calls."""
    if prep.workload.trains_in_measure:
        e = prep.expected
        return e["private_steps"] + e["plain_steps"] + prep.config["epochs"]
    return 4


def run_unit(pl, prep: Prepared) -> tuple[float, dict]:
    if prep.workload.trains_in_measure:
        t0 = perf_counter()
        manifest = pl.experiment.train(prep.config)
        return perf_counter() - t0, {"manifest": manifest}
    run_dir = prep.manifest_path.parent
    (run_dir / "attacks.csv").unlink(missing_ok=True)
    report_dir = prep.work / "report"
    if report_dir.exists():
        shutil.rmtree(report_dir)
    t0 = perf_counter()
    attack = pl.experiment.run_attacks(prep.manifest_path)
    detector, _ = pl.experiment.train_detector_from_config(prep.detector_cfg)
    context = pl.experiment.audit_manifest_context(
        prep.manifest_path, prep.audit_sentence, prep.audit_index, AUDIT_ALPHA
    )
    written = pl.report.write_report([prep.manifest_path], report_dir)
    wall = perf_counter() - t0
    return wall, {"attack": attack, "detector": detector, "context": context, "written": written}


def scored_sequences(prep: Prepared, out: dict) -> int:
    """Sequences the LM scored in one unit (validation, or candidates + MI pool + audit)."""
    if prep.workload.trains_in_measure:
        return prep.expected["valid_seqs"]
    ctx = out["context"]
    forwards = (1 if prep.audit_index > 1 else 0) + len(ctx.gaps_by_length) - 1
    return out["attack"].candidate_space_size + 2 * prep.config["mi_n"] + forwards


def check_unit(prep: Prepared, out: dict) -> list[str]:
    """Output checks for one unit; returns one message per failed check."""
    fails: list[str] = []

    def need(ok, msg):
        if not ok:
            fails.append(msg)

    if prep.workload.trains_in_measure:
        m, e = out["manifest"], prep.expected
        need(m["status"] == "completed", f"manifest status {m['status']!r}")
        ppls = [ep["valid_perplexity"] for ep in m["epochs"]]
        need(len(ppls) == prep.config["epochs"], f"{len(ppls)} epochs recorded")
        need(all(math.isfinite(p) for p in ppls), f"non-finite perplexity {ppls}")
        need(
            m["private_step_count"] == e["private_steps"],
            f"private_step_count {m['private_step_count']} != recomputed {e['private_steps']}",
        )
        need(m["sensitive_count"] == e["sensitive_count"], "sensitive_count differs")
        audit = m["audit"] or {}
        if e["eps_total"] is None:
            need(prep.workload.regime == "nodp" or "error" in audit, "audit should refuse")
        else:
            got = audit.get("eps_total", float("nan"))
            need(
                math.isclose(got, e["eps_total"], rel_tol=1e-12),
                f"eps_total {got} != T*N_S*eps/|B| + ln(1/delta)/(alpha-1) = {e['eps_total']}",
            )
        ckpt = prep.manifest_path.parent / m["epochs"][-1]["checkpoint"] if ppls else None
        fingerprint = (
            sha256_file(prep.manifest_path),
            sha256_file(ckpt) if ckpt else "",
        )
    else:
        a, det, ctx = out["attack"], out["detector"], out["context"]
        size = a.candidate_space_size
        need(1 <= a.canary_rank <= size, f"canary rank {a.canary_rank} outside [1, {size}]")
        need(0.0 <= a.exposure <= math.log2(size), f"exposure {a.exposure} outside [0, log2|R|]")
        need(0.0 <= a.mi_accuracy <= 1.0, f"MI accuracy {a.mi_accuracy} outside [0, 1]")
        need(0.0 <= det.measured_gamma <= 1.0, f"detector gamma {det.measured_gamma}")
        need(
            bool(np.isfinite(det.weights).all()) and math.isfinite(det.threshold),
            "detector has non-finite weights or threshold",
        )
        need(0.0 < ctx.reference_probability <= 1.0, "reference probability outside (0, 1]")
        need(all(0.0 <= g <= 1.0 for g in ctx.gaps_by_length), "context gap outside [0, 1]")
        need(all(Path(p).stat().st_size > 0 for p in out["written"]), "empty report file")
        fingerprint = (
            a.csv_row(),
            sha256_file(prep.detector_ckpt),
            repr(ctx.gaps_by_length),
            *(sha256_file(p) for p in out["written"]),
        )
    # Determinism: every repetition of the same inputs must give identical bytes.
    if prep.first_fingerprint is None:
        prep.first_fingerprint = fingerprint
    need(fingerprint == prep.first_fingerprint, "output bytes differ from the first repetition")
    return fails

