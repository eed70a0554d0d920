"""Selective differentially private language-model training and auditing.

The package trains small word-level LSTM language models under four regimes
(no privacy, full DP-SGD, format-selective, and detector-selective noise),
accounts the privacy budget with a Renyi-DP accountant, and audits trained
models with canary-exposure and membership-inference attacks.
"""

from .attacks import (
    AttackReport,
    build_mi_dataset,
    candidate_perplexities,
    exposure,
    membership_inference,
    rank_from_perplexities,
)
from .corpus import (
    CanaryCandidates,
    CanaryTemplate,
    Corpus,
    TokenSequence,
    Vocabulary,
    enumerate_canaries,
    load_corpus,
    minibatches,
    plant_canary,
    split_corpus,
)
from .detector import (
    AugmentationConfig,
    ContextAudit,
    DetectorModel,
    audit_context,
    build_detector_dataset,
    paraphrase,
    train_detector,
)
from .experiment import ExperimentConfig, run_attacks, train
from .lm import (
    LMParameters,
    apply_update,
    corpus_perplexity,
    forward,
    init_params,
)
from .privacy import (
    PrivacySpec,
    dp_sgd_step,
    gaussian_rdp_epsilon,
    rdp_to_dp,
    selective_dp_budget,
)

__version__ = "0.1.0"
