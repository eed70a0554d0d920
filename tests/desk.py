"""The desk-scale bundle: corpus, detector recipe and the four regimes' run configs.

The acceptance suite's criteria 5-8 and the detector solver tests build
from these definitions, so the two read the same corpus, paraphraser and
solver settings.
"""

from pathlib import Path

from privlm import synth
from privlm.detector import (
    AugmentationConfig,
    DetectorDataset,
    build_detector_dataset,
    default_synonyms,
    paraphrase,
)
from privlm.experiment import ExperimentConfig

# Desk-scale defaults chosen by calibration: the noise std per private step
# is sigma*clip_bound; raising sigma at a fixed product scrambles the canary
# harder without extra global damage.
DESK = dict(
    n_lines=2000, sensitive_fraction=0.08, corpus_seed=0,
    d=64, epochs=20, batch_size=32, eta=0.5,
    sigma=3.0, clip_bound=0.085,
    canary_fill="452", canary_count=50, slot_alphabet="123456789", slot_count=3,
    mi_n=50,
)

# ``train_detector`` keyword arguments of the desk detector.
DESK_DETECTOR = dict(epochs=300, eta=2.0, seed=7, char_dim=4096, word_dim=2048, fpr_cap=0.05)


def desk_data() -> synth.DeskData:
    return synth.generate_desk_corpus(
        n_lines=DESK["n_lines"],
        sensitive_fraction=DESK["sensitive_fraction"],
        seed=DESK["corpus_seed"],
    )


def desk_augmentation() -> AugmentationConfig:
    """The paraphraser that widens the detector's seed sentences."""
    return AugmentationConfig(
        synonym_table=default_synonyms(), substitution_rate=0.5, passes=15, seed=11
    )


def desk_detector_dataset(data: synth.DeskData) -> DetectorDataset:
    return build_detector_dataset(data.detector_seeds, data.neutral_sample, desk_augmentation())


def canary_prefix() -> str:
    """The planted canary's prefix, a paraphrase of the canonical secret sentence.

    The format regexes miss it while the context-aware detector flags it.
    """
    return paraphrase(
        "my bank security code is",
        AugmentationConfig(synonym_table=default_synonyms(), substitution_rate=1.0, seed=2),
        0,
    )


def config_for(
    regime: str, data: synth.DeskData, paths: dict, detector_path: Path, base: Path
) -> ExperimentConfig:
    """The desk run of ``regime`` on the dataset at ``paths``, written to ``base / regime``."""
    return ExperimentConfig(
        {
            "regime": regime,
            "corpus": str(paths["corpus"]),
            "labels": str(paths["labels"]),
            "min_count": 1, "max_seq_len": 64,
            "train_fraction": 0.8,
            "canary_prefix": canary_prefix(),
            "canary_slot_alphabet": DESK["slot_alphabet"],
            "canary_slot_count": DESK["slot_count"],
            "canary_fill": DESK["canary_fill"],
            "canary_count": DESK["canary_count"],
            "d_emb": DESK["d"], "d_hid": DESK["d"],
            "epochs": DESK["epochs"], "batch_size": DESK["batch_size"],
            "eta": DESK["eta"],
            "sigma": DESK["sigma"], "clip_bound": DESK["clip_bound"],
            "delta": 0.1 if regime == "cadp" else 1e-5,
            "rdp_alpha": 2.0,
            "detector": str(detector_path) if regime == "cadp" else "",
            "secret_pattern": data.secret_patterns if regime == "sdpsgd" else [],
            "synonyms": "", "substitution_rate": 0.5, "phi_seed": 0,
            "seed_data": 1, "seed_init": 2, "seed_noise": 3,
            "mi_n": DESK["mi_n"], "mi_members": "sensitive",
            "out_dir": str(base / regime),
        }
    )
