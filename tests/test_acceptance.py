"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria 5-7 share one bundle of desk-scale training runs (a 2000-line
synthetic corpus, four regimes, 20 epochs each) built once per session;
expect several minutes. A PASS/FAIL line per criterion is printed in the
terminal summary.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import privlm
from privlm import lm, privacy, synth
from privlm.attacks import membership_inference, build_mi_dataset
from privlm.corpus import TokenSequence, derived_seed
from privlm.detector import paraphrase, train_detector
from privlm.experiment import (
    ExperimentConfig,
    prepare_data,
    run_attacks,
    train,
)
from privlm.privacy import PrivacyError, PrivacySpec

from conftest import constant_detector, record_acceptance
from desk import (
    DESK,
    DESK_DETECTOR,
    canary_prefix,
    config_for,
    desk_augmentation,
    desk_data,
    desk_detector_dataset,
)
from oracles import (
    estimate_gamma,
    finite_difference_gradient,
    per_example_rows,
    rank_by_sorting,
    renyi_divergence_quadrature,
)

LOG2_R = math.log2(9 ** 3)


def _check(criterion, description, condition):
    record_acceptance(criterion, description, bool(condition))
    assert condition, f"criterion {criterion}: {description}"


# ---------------------------------------------------------------------------
# Shared desk-scale bundle (criteria 5-8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_bundle(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    data = desk_data()
    paths = synth.write_desk_dataset(data, base / "data")

    detector = train_detector(desk_detector_dataset(data), **DESK_DETECTOR)
    det_path = base / "detector.bin"
    detector.save(det_path)

    runs = {}
    for regime in ("nodp", "sdpsgd", "dpsgd", "cadp"):
        config = config_for(regime, data, paths, det_path, base)
        t0 = time.monotonic()
        manifest = train(config)
        wall = time.monotonic() - t0
        report = run_attacks(base / regime / "manifest.json")
        runs[regime] = {
            "manifest": manifest,
            "report": report,
            "wall": wall,
            "dir": base / regime,
            "config": config,
        }
    return {
        "base": base,
        "data": data,
        "paths": paths,
        "detector": detector,
        "aug": desk_augmentation(),
        "variant_prefix": canary_prefix(),
        "runs": runs,
    }


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for trial in range(20):
        params = lm.init_params(12, 8, 8, seed=trial)
        ids = tuple(int(x) for x in rng.integers(0, 12, size=6))
        seq = TokenSequence(ids=ids, source_text="probe")
        grad = lm.batch_gradients(params, [seq])[1][0]
        numeric = finite_difference_gradient(params, seq, h=1e-5)
        rel = np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-5)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    _check(
        1,
        f"per-example gradients match central differences "
        f"(worst rel err {worst:.2e} < 1e-4 over 20 instances, {elapsed:.0f}s < 60s)",
        worst < 1e-4 and elapsed < 60.0,
    )


# ---------------------------------------------------------------------------
# Criterion 2: clipping / noise contract
# ---------------------------------------------------------------------------

def test_criterion_02_clipping_noise_contract():
    # (a) post-clip norms <= C, exactly, for 10^4 random gradients, and for
    # every clipped example of an LM batch: scales from the ghost norms the
    # private step uses, rows from one-sequence backward passes
    rng = np.random.default_rng(7)
    stacked = rng.normal(size=(10_000, 16)) * rng.uniform(0.01, 40, size=(10_000, 1))
    c = 1.3
    scales = privacy.scales_for_norms(np.linalg.norm(stacked, axis=1), c)
    norms = np.linalg.norm(stacked * scales[:, None], axis=1)
    norm_ok = bool(np.all(norms <= c))

    params = lm.init_params(10, 6, 6, seed=0)
    batch = [
        TokenSequence(ids=tuple(int(x) for x in rng.integers(0, 10, size=5)), source_text="b")
        for _ in range(4)
    ]
    rows = per_example_rows(params, batch)
    c2, sigma = 0.5, 2.0
    ghost_scales = privacy.scales_for_norms(lm.backprop(params, batch).norms(), c2)
    lm_clipped = np.linalg.norm(rows * ghost_scales[:, None], axis=1)
    norm_ok = norm_ok and bool(np.all(ghost_scales < 1.0) and np.all(lm_clipped <= c2))

    # (b) sigma -> 0 with inactive clipping reproduces plain SGD bit-for-bit
    big_c = float(np.linalg.norm(rows, axis=1).max()) * 10 + 1
    spec = PrivacySpec(sigma=1e-300, clip_bound=big_c, eta=0.1)
    private = privacy.dp_sgd_step(params, batch, spec,
                                  np.random.default_rng(5).standard_normal(params.num_params))
    plain = privacy.plain_sgd_step(params, batch, eta=0.1)
    bitwise_ok = np.array_equal(private.theta, plain.theta)

    # (c) Monte-Carlo mean of the private step's update (theta - theta')/eta
    # over draws from one generator vs the oracle rows' clipped mean, with
    # the stated 3-sigma band
    scales2 = privacy.scales_for_norms(np.linalg.norm(rows, axis=1), c2)
    clipped_mean = (scales2 @ rows) / len(batch)
    spec2 = PrivacySpec(sigma=sigma, clip_bound=c2, eta=1.0)
    draws = 10_000
    noise_rng = np.random.default_rng(99)
    acc = np.zeros(rows.shape[1])
    for _ in range(draws):
        draw = noise_rng.standard_normal(params.num_params)
        acc += params.theta - privacy.dp_sgd_step(params, batch, spec2, draw).theta
    band = 3.0 * (sigma * c2) / math.sqrt(draws * len(batch))
    mc_ok = bool(np.all(np.abs(acc / (draws * spec2.eta) - clipped_mean) <= band))

    _check(
        2,
        "clip norms exact, sigma->0 step bitwise-plain, Monte-Carlo mean in band",
        norm_ok and bitwise_ok and mc_ok,
    )


# ---------------------------------------------------------------------------
# Criterion 3: accountant exactness
# ---------------------------------------------------------------------------

def test_criterion_03_accountant_exactness():
    # Hand-computed: T*N_S*eps/|B| + ln(1e5). The stated inputs give
    # 10 + ln(1e5); with |B|=5 the linear term is 100, reproducing the
    # 111.5129... figure.
    eps_a = privacy.selective_dp_budget(
        epochs=10, sensitive_count=100, batch_size=50,
        per_step_epsilon=0.5, gamma=1.0, alpha=2.0, delta=1e-5,
    )
    eps_b = privacy.selective_dp_budget(
        epochs=10, sensitive_count=100, batch_size=5,
        per_step_epsilon=0.5, gamma=1.0, alpha=2.0, delta=1e-5,
    )
    exact_ok = (
        abs(eps_a - 21.51292546497023) < 1e-9 and abs(eps_b - 111.51292546497022) < 1e-9
    )

    rejected = False
    try:
        privacy.selective_dp_budget(
            epochs=10, sensitive_count=100, batch_size=50,
            per_step_epsilon=0.5, gamma=0.99, alpha=2.0, delta=1e-5,
        )
    except PrivacyError:
        rejected = True

    worst = 0.0
    for sigma in (0.5, 1.0, 2.0, 4.0):
        for alpha in (1.5, 2.0, 4.0, 8.0):
            closed = privacy.gaussian_rdp_epsilon(sigma, alpha)
            worst = max(worst, abs(closed - renyi_divergence_quadrature(sigma, alpha)))

    _check(
        3,
        f"budget exact to 1e-9, gamma floor rejects, RDP vs quadrature "
        f"(worst {worst:.1e} < 1e-6)",
        exact_ok and rejected and worst < 1e-6,
    )


# ---------------------------------------------------------------------------
# Criterion 4: exposure formula exactness
# ---------------------------------------------------------------------------

def test_criterion_04_exposure_exactness():
    from privlm.attacks import exposure, rank_from_perplexities

    edge_ok = (
        abs(exposure(1, 729) - math.log2(729)) < 1e-9
        and exposure(729, 729) == 0.0
        and exposure(1000, 1000) == 0.0
    )
    rng = np.random.default_rng(31)
    oracle_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 120))
        table = np.round(rng.uniform(1, 25, size=n), 2)
        planted = int(rng.integers(0, n))
        if rank_from_perplexities(table, planted) != rank_by_sorting(table, planted):
            oracle_ok = False
            break
    _check(4, "exposure edges exact, rank matches sort oracle on 100 tables",
           edge_ok and oracle_ok)


# ---------------------------------------------------------------------------
# Criteria 5-8: desk-scale replications on the shared bundle
# ---------------------------------------------------------------------------

def test_criterion_05_memorization(desk_bundle):
    run = desk_bundle["runs"]["nodp"]
    expo = run["report"].exposure
    _check(
        5,
        f"nodp canary exposure {expo:.3f} >= 0.8*log2|R| = {0.8 * LOG2_R:.3f} "
        f"(rank {run['report'].canary_rank}, wall {run['wall']:.0f}s < 600s)",
        expo >= 0.8 * LOG2_R and run["wall"] < 600.0,
    )


def test_criterion_06_protection(desk_bundle):
    runs = desk_bundle["runs"]
    nodp_e = runs["nodp"]["report"].exposure
    cadp_e = runs["cadp"]["report"].exposure
    sdp_e = runs["sdpsgd"]["report"].exposure
    cadp_ppl = runs["cadp"]["report"].valid_perplexity
    dpsgd_ppl = runs["dpsgd"]["report"].valid_perplexity

    # preconditions of the contrast: the regexes miss the paraphrased canary,
    # the detector catches it
    canary_text = desk_bundle["variant_prefix"] + " " + DESK["canary_fill"]
    patterns = [re.compile(p) for p in desk_bundle["data"].secret_patterns]
    regex_misses = not any(p.search(canary_text) for p in patterns)
    detector = desk_bundle["detector"]
    detector_catches = bool(detector.flags([canary_text])[0])

    _check(
        6,
        f"cadp exposure {cadp_e:.3f} <= half of nodp {nodp_e:.3f}; "
        f"cadp < sdpsgd {sdp_e:.3f}; cadp ppl {cadp_ppl:.1f} <= dpsgd {dpsgd_ppl:.1f}",
        regex_misses
        and detector_catches
        and cadp_e <= 0.5 * nodp_e
        and cadp_e < sdp_e
        and cadp_ppl <= dpsgd_ppl,
    )


def test_criterion_07_membership_inference(desk_bundle):
    runs = desk_bundle["runs"]
    mi_nodp = runs["nodp"]["report"].mi_accuracy
    mi_dpsgd = runs["dpsgd"]["report"].mi_accuracy
    mi_cadp = runs["cadp"]["report"].mi_accuracy

    # chance sanity: an untrained model has no membership signal. The pools
    # must be exchangeable (uniform train vs uniform test draws); otherwise
    # token composition alone separates them regardless of training.
    config = runs["nodp"]["config"]
    train_corpus, test_corpus, _, _ = prepare_data(config)
    members, non_members = build_mi_dataset(
        train_corpus.sequences, test_corpus.sequences, DESK["mi_n"], seed=derived_seed(1, "mi")
    )
    untrained = lm.init_params(train_corpus.vocabulary.size, DESK["d"], DESK["d"], seed=2)
    mi_untrained = membership_inference(untrained, members, non_members)

    _check(
        7,
        f"mi nodp {mi_nodp:.2f} >= 0.70, dpsgd {mi_dpsgd:.2f} <= 0.60, "
        f"cadp {mi_cadp:.2f} <= 0.60, untrained {mi_untrained:.2f} in 0.5+-0.15",
        mi_nodp >= 0.70
        and mi_dpsgd <= 0.60
        and mi_cadp <= 0.60
        and abs(mi_untrained - 0.5) <= 0.15,
    )


def test_criterion_08_detector_quality(desk_bundle):
    detector = desk_bundle["detector"]
    aug = desk_bundle["aug"]
    seeds = desk_bundle["data"].detector_seeds
    held_out = [paraphrase(s, aug, k) for s in seeds for k in range(100, 120)]
    gamma = estimate_gamma(detector, held_out)
    fresh_neutral = synth.generate_desk_corpus(
        n_lines=400, sensitive_fraction=0.0, seed=321
    ).lines
    fpr = float(np.mean(detector.score_texts(fresh_neutral) >= detector.threshold))
    _check(
        8,
        f"held-out TPR gamma {gamma:.3f} >= 0.95 with FPR {fpr:.3f} <= 0.05",
        gamma >= 0.95 and fpr <= 0.05,
    )


def test_desk_scale_orderings(desk_bundle):
    """The qualitative regime ordering, checked as orderings, not values.

    Validation perplexity: nodp < cadp <= sdpsgd < dpsgd. Exposure:
    nodp >= sdpsgd > cadp, and cadp at least as protected as dpsgd. The
    nodp/sdpsgd exposure tie is inherent here: the canary is phrased so the
    format regexes miss it, so sdpsgd trains it clean exactly like nodp.
    """
    r = {k: v["report"] for k, v in desk_bundle["runs"].items()}
    assert r["nodp"].valid_perplexity < r["cadp"].valid_perplexity
    assert r["cadp"].valid_perplexity <= r["sdpsgd"].valid_perplexity
    assert r["sdpsgd"].valid_perplexity < r["dpsgd"].valid_perplexity
    assert r["nodp"].exposure >= r["sdpsgd"].exposure
    assert r["sdpsgd"].exposure > r["cadp"].exposure
    assert r["cadp"].exposure <= r["dpsgd"].exposure


def test_budget_grows_with_sensitive_set(desk_bundle):
    """At equal hyperparameters, flagging everything (dpsgd) costs at least
    as much privacy budget as selective flagging (cadp): N_S(dpsgd) = N."""
    runs = desk_bundle["runs"]
    shared_delta = 0.1
    budgets = {}
    for regime in ("dpsgd", "cadp"):
        manifest = runs[regime]["manifest"]
        budgets[regime] = privacy.selective_dp_budget(
            epochs=DESK["epochs"],
            sensitive_count=manifest["sensitive_count"],
            batch_size=DESK["batch_size"],
            per_step_epsilon=privacy.gaussian_rdp_epsilon(DESK["sigma"], 2.0),
            gamma=1.0,
            alpha=2.0,
            delta=shared_delta,
        )
    assert runs["dpsgd"]["manifest"]["sensitive_count"] == runs["dpsgd"]["manifest"]["n_train"]
    assert budgets["dpsgd"] >= budgets["cadp"]


def test_four_regime_report(desk_bundle, tmp_path):
    from privlm.report import write_report

    manifests = [desk_bundle["runs"][r]["dir"] / "manifest.json"
                 for r in ("nodp", "sdpsgd", "dpsgd", "cadp")]
    written = write_report(manifests, tmp_path / "report")
    tradeoff = (tmp_path / "report" / "attack_tradeoff.csv").read_text().splitlines()
    regimes = {line.split(",")[1] for line in tradeoff[1:]}
    assert regimes == {"nodp", "sdpsgd", "dpsgd", "cadp"}
    assert (tmp_path / "report" / "exposure_vs_perplexity.svg").exists()


# ---------------------------------------------------------------------------
# Criterion 9: stub-detector equivalences (fast, small corpus)
# ---------------------------------------------------------------------------

def _small_config(data_paths, out_dir, regime, detector_path="", epochs=3):
    return ExperimentConfig(
        {
            "regime": regime,
            "corpus": str(data_paths["corpus"]),
            "labels": str(data_paths["labels"]),
            "min_count": 1, "max_seq_len": 64, "train_fraction": 0.8,
            "canary_prefix": "my bank security code is",
            "canary_slot_alphabet": "123", "canary_slot_count": 2,
            "canary_fill": "31", "canary_count": 5,
            "d_emb": 24, "d_hid": 24, "epochs": epochs, "batch_size": 16, "eta": 0.3,
            "sigma": 1.0, "clip_bound": 0.25, "delta": 1e-5, "rdp_alpha": 2.0,
            "detector": str(detector_path),
            "secret_pattern": [],
            "synonyms": "", "substitution_rate": 0.5, "phi_seed": 0,
            "seed_data": 1, "seed_init": 2, "seed_noise": 3,
            "mi_n": 8, "mi_members": "sensitive",
            "out_dir": str(out_dir),
        }
    )


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    data = synth.generate_desk_corpus(n_lines=300, sensitive_fraction=0.1, seed=5,
                                      n_neutral_sample=40)
    paths = synth.write_desk_dataset(data, base)
    always, never = base / "always.bin", base / "never.bin"
    constant_detector(flag_everything=True).save(always)
    constant_detector(flag_everything=False).save(never)
    return {"paths": paths, "always": always, "never": never, "base": base}


def test_criterion_09_stub_detector_equivalences(small_data, tmp_path):
    def checkpoints_of(out_dir):
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return [(out_dir / e["checkpoint"]).read_bytes() for e in manifest["epochs"]]

    pairs = {}
    for name, regime, det in (
        ("nodp", "nodp", ""),
        ("cadp_never", "cadp", small_data["never"]),
        ("dpsgd", "dpsgd", ""),
        ("cadp_always", "cadp", small_data["always"]),
    ):
        out = tmp_path / name
        train(_small_config(small_data["paths"], out, regime, det))
        pairs[name] = checkpoints_of(out)

    never_matches = pairs["nodp"] == pairs["cadp_never"]
    always_matches = pairs["dpsgd"] == pairs["cadp_always"]
    families_differ = pairs["nodp"] != pairs["dpsgd"]
    _check(
        9,
        "cadp with never/always stub detectors reproduces nodp/dpsgd checkpoints bitwise",
        never_matches and always_matches and families_differ,
    )


# ---------------------------------------------------------------------------
# Criterion 10: rerun determinism
# ---------------------------------------------------------------------------

def test_criterion_10_rerun_determinism(small_data, tmp_path):
    out = tmp_path / "run"
    config = _small_config(small_data["paths"], out, "dpsgd", epochs=2)
    train(config)
    run_attacks(out / "manifest.json")
    report_dir = tmp_path / "report"
    from privlm.report import write_report

    write_report([out / "manifest.json"], report_dir)

    tracked = ["manifest.json", "vocab.txt", "canaries.txt", "attacks.csv"]
    tracked += [f"checkpoints/{p.name}" for p in sorted((out / "checkpoints").iterdir())]
    snapshot = {name: (out / name).read_bytes() for name in tracked}
    report_snapshot = {p.name: p.read_bytes() for p in sorted(report_dir.iterdir())}

    # rerun the identical config into the same directory
    (out / "attacks.csv").unlink()
    train(config)
    run_attacks(out / "manifest.json")
    write_report([out / "manifest.json"], report_dir)

    files_ok = all((out / name).read_bytes() == snapshot[name] for name in tracked)
    report_ok = all(
        p.read_bytes() == report_snapshot[p.name] for p in sorted(report_dir.iterdir())
    )
    _check(10, "train/attack/report rerun reproduces byte-identical outputs",
           files_ok and report_ok)


def test_criterion_10_cli_train_without_blas_variables(small_data, tmp_path, monkeypatch):
    """``privlm train`` pins BLAS itself: with no thread variable in its environment,
    two CLI runs reproduce each other and the in-process run byte for byte."""
    # At d=64 some of the step's products are large enough for OpenBLAS to
    # split across threads, which changes the trained bits on a multi-core host.
    values = dict(_small_config(small_data["paths"], "run", "dpsgd", epochs=2).values,
                  d_emb=64, d_hid=64)
    lines = []
    for key, value in values.items():
        for item in value if isinstance(value, list) else [value]:
            lines.append(f"{key} = {item}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def outputs(cwd):
        run = cwd / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        final = run / manifest["epochs"][-1]["checkpoint"]
        return (run / "manifest.json").read_bytes(), final.read_bytes()

    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(privlm.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for name in ("cli_a", "cli_b"):
        (tmp_path / name).mkdir()
        subprocess.run([sys.executable, "-m", "privlm.cli", "train", "--config", str(cfg)],
                       cwd=tmp_path / name, env=env, check=True, capture_output=True)
        runs.append(outputs(tmp_path / name))
    (tmp_path / "pinned").mkdir()
    monkeypatch.chdir(tmp_path / "pinned")
    train(ExperimentConfig.from_file(cfg))
    runs.append(outputs(tmp_path / "pinned"))
    assert runs[0] == runs[1] == runs[2]
