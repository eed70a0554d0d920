"""End-to-end pipeline at miniature scale: all four regimes compared.

Generates a small synthetic corpus with secret-revealing lines, trains the
sensitivity detector, runs the four training regimes under shared seeds,
attacks every trained model, and writes the aggregate report (CSVs + SVG
plots). A scaled-down version of the full experiment; expect a couple of
minutes.
"""

import tempfile
from pathlib import Path

from privlm import synth
from privlm.detector import (
    AugmentationConfig,
    build_detector_dataset,
    default_synonyms,
    paraphrase,
    train_detector,
)
from privlm.experiment import ExperimentConfig, run_attacks, train
from privlm.report import write_report

base = Path(tempfile.mkdtemp(prefix="demo06_"))
print("working in", base)

data = synth.generate_desk_corpus(n_lines=800, sensitive_fraction=0.08, seed=0)
paths = synth.write_desk_dataset(data, base / "data")
print(f"corpus: {len(data.lines)} lines, {data.n_sensitive} secret-revealing")

aug = AugmentationConfig(synonym_table=default_synonyms(), substitution_rate=0.5,
                         passes=12, seed=11)
dataset = build_detector_dataset(data.detector_seeds, data.neutral_sample, aug)
detector = train_detector(dataset, epochs=250, eta=2.0, seed=7)
det_path = base / "detector.bin"
detector.save(det_path)
print(f"detector gamma (held-out TPR): {detector.measured_gamma:.3f}")

# The canary is phrased as a paraphrase of the canonical secret, which the
# format regexes miss but the context-aware detector catches.
variant_prefix = paraphrase(
    "my bank security code is",
    AugmentationConfig(synonym_table=default_synonyms(), substitution_rate=1.0, seed=2),
    0,
)
print(f"planted canary prefix: {variant_prefix!r}")


def config_for(regime: str) -> ExperimentConfig:
    return ExperimentConfig(
        {
            "regime": regime,
            "corpus": str(paths["corpus"]),
            "labels": str(paths["labels"]),
            "min_count": 1, "max_seq_len": 64, "train_fraction": 0.8,
            "canary_prefix": variant_prefix,
            "canary_slot_alphabet": "123456789", "canary_slot_count": 3,
            "canary_fill": "452", "canary_count": 25,
            "d_emb": 48, "d_hid": 48, "epochs": 12, "batch_size": 32, "eta": 0.5,
            "sigma": 3.0, "clip_bound": 0.085,
            "delta": 0.1 if regime == "cadp" else 1e-5,
            "rdp_alpha": 2.0,
            "detector": str(det_path) if regime == "cadp" else "",
            "secret_pattern": data.secret_patterns if regime == "sdpsgd" else [],
            "synonyms": "", "substitution_rate": 0.5, "phi_seed": 0,
            "seed_data": 1, "seed_init": 2, "seed_noise": 3,
            "mi_n": 25, "mi_members": "sensitive",
            "out_dir": str(base / regime),
        }
    )


manifests = []
print(f"\n{'regime':8s} {'ppl':>8s} {'rank':>5s} {'exposure':>9s} {'mi':>6s} {'eps':>10s}")
for regime in ("nodp", "sdpsgd", "dpsgd", "cadp"):
    manifest = train(config_for(regime))
    report = run_attacks(base / regime / "manifest.json")
    audit = manifest.get("audit") or {}
    eps = f"{audit['eps_total']:.1f}" if "eps_total" in audit else "-"
    print(f"{regime:8s} {report.valid_perplexity:8.2f} {report.canary_rank:5d} "
          f"{report.exposure:9.3f} {report.mi_accuracy:6.3f} {eps:>10s}")
    manifests.append(base / regime / "manifest.json")

report_dir = base / "report"
written = write_report(manifests, report_dir)
print("\nreport files:")
for p in written:
    print("  ", p)
print("\nthe context-aware regime keeps perplexity near the non-private model while")
print("crushing canary exposure; full DP-SGD pays for its protection in perplexity.")
print("(membership inference needs the acceptance-scale runs, 2000 lines and 20")
print("epochs, to show its full nodp-vs-private contrast; see the acceptance suite)")
