"""Experiment orchestration: regimes, training loop, manifests, attacks.

Four regimes are supported:

* ``nodp``    plain SGD on every batch;
* ``dpsgd``   a clipped-and-noised private step on every batch;
* ``sdpsgd``  format-based selectivity: sequences matching configured secret
              regexes get private steps, the rest plain ones (sequence-level
              approximation of token-level format protection);
* ``cadp``    detector-based selectivity: each batch is partitioned by the
              trained sensitivity detector, the flagged part gets the private
              step (executed first), the rest the plain step.

A run writes into its output directory: ``manifest.json`` (resolved config,
per-epoch validation perplexity, privacy audit, checkpoint paths, all
byte-reproducible), ``vocab.txt``, ``canaries.txt`` (a human-readable
planting record; attacks rebuild the canary from the config), per-epoch
checkpoints, and ``timing.txt``. Wall-clock and the BLAS thread count live in
the timing sidecar only, so the manifest itself is identical across reruns of
the same config.

Batched matrix products sum in blocks set by BLAS's thread count, so the bits
of trained weights and attack scores depend on it. ``train``, ``run_attacks``,
``audit_manifest_context`` and ``train_detector_from_config`` therefore pin
numpy's bundled OpenBLAS to one thread while they run and restore the
previous count on every exit.

Private steps draw their noise from one seeded stream, in step order. When
some training line is flagged, ``train`` keeps one draw ahead on one worker
thread: the worker draws the next private step's P standard normals while
the current steps run, and it alone touches the generator, in submission
order, so every step gets the bits of a serial draw. The draws go into two
P-length buffers that the worker fills in turn, one for the running step
and one for the next; the worker is joined before ``train`` returns or
raises. Besides these and the old and new theta (see ``lm``), a step holds
nothing P-sized. Each epoch builds one ``lm.Workspace`` for ``batch_size``
and the longest training line, so every step of the epoch fits its buffers
and none stays resident into the next epoch.

Config files are flat ``key = value`` text. A file, a dict and a manifest's
``"config"`` all go through ``resolve_config``: the schemas below give each key's
kind, default and valid range. No key changes the word rule, ``corpus.tokenize``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import hashlib
import itertools
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import attacks as attacks_mod
from . import detector as detector_mod
from . import lm, privacy
from .corpus import (
    CanaryTemplate,
    Corpus,
    CorpusError,
    TokenSequence,
    Vocabulary,
    canary_sentence,
    derived_seed,
    enumerate_canaries,
    load_corpus,
    minibatches,
    plant_canary,
    split_corpus,
    write_canary_manifest,
)

REGIMES = ("nodp", "dpsgd", "sdpsgd", "cadp")


class ExperimentError(ValueError):
    """Raised for invalid configuration or inconsistent run artifacts."""


class TrainingDiverged(RuntimeError):
    """Raised when training goes non-finite; the manifest is still written."""


# --------------------------------------------------------------------------
# Flat key=value config files
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigKey:
    kind: str  # str | int | float
    default: str | None  # None means required
    # Valid values: ">= b", "> b", "in (lo, hi)" ("[" or "]" for a closed end) or quoted
    # choices; "" allows any value of the kind.
    rule: str = ""
    repeatable: bool = False


TRAIN_SCHEMA: dict[str, ConfigKey] = {
    "regime": ConfigKey("str", None, f"one of {REGIMES}"),
    "corpus": ConfigKey("str", None),
    "labels": ConfigKey("str", ""),
    "min_count": ConfigKey("int", "1"),
    "max_seq_len": ConfigKey("int", "64", ">= 2"),
    "train_fraction": ConfigKey("float", "0.8", "in (0, 1)"),
    "canary_prefix": ConfigKey("str", ""),
    "canary_slot_alphabet": ConfigKey("str", "123456789"),
    "canary_slot_count": ConfigKey("int", "3"),
    "canary_fill": ConfigKey("str", ""),
    "canary_count": ConfigKey("int", "0", ">= 0"),
    "d_emb": ConfigKey("int", "64", ">= 1"),
    "d_hid": ConfigKey("int", "64", ">= 1"),
    "epochs": ConfigKey("int", "20", ">= 0"),
    "batch_size": ConfigKey("int", "32", ">= 1"),
    "eta": ConfigKey("float", "0.1", "> 0"),
    "sigma": ConfigKey("float", "1.0", "> 0"),
    "clip_bound": ConfigKey("float", "1.0", "> 0"),
    "delta": ConfigKey("float", "1e-5", "in (0, 1)"),
    "rdp_alpha": ConfigKey("float", "2.0", "> 1"),
    "detector": ConfigKey("str", ""),
    "secret_pattern": ConfigKey("str", "", repeatable=True),
    "synonyms": ConfigKey("str", ""),
    "substitution_rate": ConfigKey("float", "0.5", "in [0, 1]"),
    "phi_seed": ConfigKey("int", "0"),
    "seed_data": ConfigKey("int", "1", ">= 0"),
    "seed_init": ConfigKey("int", "2", ">= 0"),
    "seed_noise": ConfigKey("int", "3", ">= 0"),
    "mi_n": ConfigKey("int", "50", ">= 1"),
    "mi_members": ConfigKey("str", "sensitive", "'sensitive' or 'all'"),
    "out_dir": ConfigKey("str", None),
}

DETECTOR_SCHEMA: dict[str, ConfigKey] = {
    "seeds": ConfigKey("str", None),
    "negatives": ConfigKey("str", None),
    "synonyms": ConfigKey("str", ""),
    "substitution_rate": ConfigKey("float", "0.5", "in [0, 1]"),
    "variants_per_seed": ConfigKey("int", "10", ">= 0"),
    "phi_seed": ConfigKey("int", "0"),
    "epochs": ConfigKey("int", "300", ">= 1"),
    "eta": ConfigKey("float", "2.0", "> 0"),
    "seed": ConfigKey("int", "0", ">= 0"),
    "char_dim": ConfigKey("int", "4096", ">= 1"),
    "word_dim": ConfigKey("int", "2048", ">= 1"),
    "fpr_cap": ConfigKey("float", "0.05", "in [0, 1]"),
    "val_fraction": ConfigKey("float", "0.25", "in (0, 1)"),
    "out": ConfigKey("str", None),
}


def _meets(value, rule: str) -> bool:
    """Whether ``value`` meets a ``ConfigKey.rule``; nan fails every numeric rule."""
    if "'" in rule:
        return value in re.findall(r"'([^']*)'", rule)
    op, bound = rule.split(" ", 1)
    if op != "in":
        return value >= float(bound) if op == ">=" else value > float(bound)
    lo, hi = (float(b) for b in bound[1:-1].split(","))
    above_lo = lo <= value if bound[0] == "[" else lo < value
    return above_lo and (value <= hi if bound[-1] == "]" else value < hi)


def _typed(value, key: str, spec: ConfigKey, where: str):
    """``value`` as the key's kind: a file's string is parsed, a typed value checked."""
    kind = {"str": str, "int": int, "float": float}[spec.kind]
    accepted = (int, float) if kind is float else kind  # an int is a valid float value
    with contextlib.suppress(ValueError):
        if isinstance(value, str) or (isinstance(value, accepted) and not isinstance(value, bool)):
            return kind(value)
    raise ExperimentError(f"{where}bad {spec.kind} value for {key!r}: {value!r}")


def resolve_config(values: dict, schema: dict[str, ConfigKey], source: str | Path = "") -> dict:
    """Every schema key's value, typed and checked against its rule, from a file's strings or
    typed values. Unknown keys, missing ones without a default, bad values and broken rules
    are rejected with ``source`` prefixed.
    """
    where = f"{source}: " if source else ""
    for key in values:
        if key not in schema:
            raise ExperimentError(f"{where}unknown config key {key!r}")
    out: dict[str, object] = {}
    for key, spec in schema.items():
        value = values.get(key)
        if value is None:
            if spec.default is None:
                raise ExperimentError(f"{where}missing required config key {key!r}")
            value = ([spec.default] if spec.default else []) if spec.repeatable else spec.default
        items = value if spec.repeatable and isinstance(value, list) else [value]
        typed = [_typed(item, key, spec, where) for item in items]
        out[key] = typed if spec.repeatable else typed[0]
        if spec.rule and not _meets(out[key], spec.rule):
            raise ExperimentError(f"{where}{key} must be {spec.rule}, got {out[key]!r}")
    return out


def parse_config_file(path: str | Path, schema: dict[str, ConfigKey]) -> dict:
    """Read flat key=value text and resolve it against a schema (see ``resolve_config``)."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ExperimentError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise ExperimentError(f"{path}:{lineno}: unknown config key {key!r}")
        if schema[key].repeatable:
            values.setdefault(key, []).append(value)
        elif key in values:
            raise ExperimentError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value
    return resolve_config(values, schema, path)


@dataclass
class ExperimentConfig:
    """Training configuration resolved by ``resolve_config`` against TRAIN_SCHEMA."""

    values: dict
    canary_template: CanaryTemplate | None = field(default=None, init=False)  # None: no canary

    def __post_init__(self):
        # Checked here, before ``train`` creates the run directory.
        self.values = v = resolve_config(self.values, TRAIN_SCHEMA)
        if v["regime"] == "cadp" and not v["detector"]:
            raise ExperimentError("cadp requires a 'detector' checkpoint path")
        if v["regime"] == "sdpsgd" and not [p for p in v["secret_pattern"] if p]:
            raise ExperimentError("sdpsgd requires at least one 'secret_pattern'")
        for pattern in v["secret_pattern"]:
            try:
                re.compile(pattern)
            except re.error as exc:
                raise ExperimentError(
                    f"secret_pattern must be a valid regex, got {pattern!r}: {exc}"
                ) from exc
        if v["canary_prefix"] and not v["canary_fill"]:
            raise ExperimentError("canary planting requires 'canary_fill'")
        if not v["canary_prefix"] and (v["canary_fill"] or v["canary_count"]):
            raise ExperimentError("canary_fill and canary_count need a 'canary_prefix'")
        if v["canary_prefix"]:
            # Prefix gets a trailing space, unless it has one, so the fill lands as its own token.
            prefix = v["canary_prefix"].removesuffix(" ") + " "
            try:
                template = CanaryTemplate(prefix, v["canary_slot_alphabet"], v["canary_slot_count"])
                canary_sentence(template, v["canary_fill"], v["max_seq_len"])
            except CorpusError as exc:
                raise ExperimentError(f"invalid canary settings: {exc}") from exc
            self.canary_template = template

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls(parse_config_file(path, TRAIN_SCHEMA))

    def run_id(self) -> str:
        canonical = json.dumps(self.values, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _openblas_threads():
    """(getter, setter) of numpy's bundled OpenBLAS thread count, or None if not found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    try:
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; pins nothing where it is not found."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

def _partition(
    config: ExperimentConfig,
    train: Corpus,
    det: detector_mod.DetectorModel | None,
) -> tuple[dict[str, bool], float | None]:
    """(sensitivity flag per distinct text, gamma of the run's privacy claim).

    gamma, the true-positive rate the claim assumes of the partition, is None
    for ``nodp`` (no claim), 1.0 for ``dpsgd`` and ``sdpsgd`` (whose regexes
    are taken to catch every secret), and the detector's measured rate for ``cadp``.
    """
    regime = config["regime"]
    texts = sorted(set(train.texts()))
    if regime == "nodp":
        return {t: False for t in texts}, None
    if regime == "dpsgd":
        return {t: True for t in texts}, 1.0
    if regime == "sdpsgd":
        patterns = [re.compile(p) for p in config["secret_pattern"] if p]
        return {t: any(p.search(t) for p in patterns) for t in texts}, 1.0
    return dict(zip(texts, det.flags(texts).tolist())), det.measured_gamma


def prepare_data(config: ExperimentConfig) -> tuple[Corpus, Corpus, list[int], int | None]:
    """Load, split, and plant per the config; returns (train, test, positions, planted_idx).

    ``planted_idx`` is the planted fill's index in the lexicographic candidate
    enumeration, or None when no canary is configured.
    """
    corpus = load_corpus(
        config["corpus"],
        min_count=config["min_count"],
        max_len=config["max_seq_len"],
        labels_path=config["labels"] or None,
    )
    train, test = split_corpus(corpus, config["train_fraction"], config["seed_data"])
    positions: list[int] = []
    planted_idx = None
    template = config.canary_template
    if template is not None:
        train, positions = plant_canary(
            train, template, config["canary_fill"], config["canary_count"],
            seed=derived_seed(config["seed_data"], "plant"), max_len=config["max_seq_len"],
        )
        planted_idx = template.fill_index(config["canary_fill"])
    return train, test, positions, planted_idx


@_one_blas_thread()
def train(config: ExperimentConfig) -> dict:
    """Run one training regime end to end and write the run directory.

    Returns the manifest dict (also written as ``manifest.json``). Raises
    TrainingDiverged after writing a ``"diverged"`` manifest if the weights,
    a private step's gradient norms or the validation loss go non-finite.
    """
    t_start = time.monotonic()
    det = None
    if config["regime"] == "cadp":
        det = detector_mod.DetectorModel.load(config["detector"])
    train_corpus, test_corpus, positions, planted_idx = prepare_data(config)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    vocab = train_corpus.vocabulary
    vocab.save(out_dir / "vocab.txt")
    if config.canary_template is not None:
        write_canary_manifest(out_dir / "canaries.txt", config.canary_template,
                              config["canary_fill"], config["canary_count"], positions)

    flags, gamma = _partition(config, train_corpus, det)
    sensitive_count = sum(1 for s in train_corpus.sequences if flags[s.source_text])

    spec = privacy.PrivacySpec(sigma=config["sigma"], clip_bound=config["clip_bound"],
                               eta=config["eta"])
    params = lm.init_params(vocab.size, config["d_emb"], config["d_hid"], config["seed_init"])
    noise_rng = np.random.default_rng(np.random.SeedSequence([config["seed_noise"]]))

    manifest: dict = {
        "run_id": config.run_id(),
        "regime": config["regime"],
        "config": config.values,
        "vocab_size": vocab.size,
        "n_train": len(train_corpus),
        "n_test": len(test_corpus),
        "sensitive_count": sensitive_count,
        "planted_candidate_index": planted_idx,
        "epochs": [],
        "private_step_count": 0,
        "audit": None,
        "status": "running",
    }

    private_steps = 0
    diverged = False
    longest = max(len(s) for s in train_corpus.sequences) - 1
    # The noise worker fills the next private step's buffer while this one runs;
    # it starts no thread unless some training line is flagged.
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as noise_worker:
        if sensitive_count:
            draws = [np.empty(params.theta.size), np.empty(params.theta.size)]
            pending = noise_worker.submit(noise_rng.standard_normal, out=draws[0])
        for epoch in range(1, config["epochs"] + 1):
            # The steps' buffers live for one epoch: kept through validation and the
            # checkpoint, their pages would add to its peak memory.
            workspace = lm.Workspace(params, config["batch_size"], longest)
            try:
                for batch in minibatches(train_corpus, config["batch_size"], config["seed_data"], epoch):
                    batch_s = [s for s in batch if flags[s.source_text]]
                    batch_ns = [s for s in batch if not flags[s.source_text]]
                    if batch_s:
                        noise = pending.result()
                        draws.reverse()  # the other buffer, whose step is done
                        pending = noise_worker.submit(noise_rng.standard_normal, out=draws[0])
                        params = privacy.dp_sgd_step(params, batch_s, spec, noise, workspace)
                        private_steps += 1
                    if batch_ns:
                        params = privacy.plain_sgd_step(params, batch_ns, config["eta"], workspace)
            except privacy.NonFiniteGradient:
                # A private step cannot clip an overflowed gradient, so it stops
                # mid-epoch where a plain step would carry the inf/nan to the check below.
                diverged = True
                break
            del workspace
            if not np.isfinite(params.theta).all():
                diverged = True
                break
            valid_ppl = lm.corpus_perplexity(params, test_corpus.sequences)
            if not np.isfinite(valid_ppl):
                diverged = True
                break
            ckpt = f"checkpoints/epoch_{epoch:03d}.ckpt"
            params.save(out_dir / ckpt)
            manifest["epochs"].append(
                {"epoch": epoch, "valid_perplexity": valid_ppl, "checkpoint": ckpt}
            )

    manifest["private_step_count"] = private_steps
    if gamma is not None and not diverged:
        claim = {
            "epochs": config["epochs"],
            "sensitive_count": sensitive_count,
            "batch_size": config["batch_size"],
            "per_step_epsilon": privacy.gaussian_rdp_epsilon(config["sigma"], config["rdp_alpha"]),
            "alpha": config["rdp_alpha"],
            "gamma": gamma,
        }
        try:
            eps_total = privacy.selective_dp_budget(**claim, delta=config["delta"])
            manifest["audit"] = {
                **claim,
                "sigma": config["sigma"],
                "clip_bound": config["clip_bound"],
                "delta": config["delta"],
                "eps_total": eps_total,
            }
        except privacy.PrivacyError as exc:
            manifest["audit"] = {"error": str(exc)}

    manifest["status"] = "diverged" if diverged else "completed"
    _write_manifest(out_dir / "manifest.json", manifest)
    blas = _openblas_threads()
    (out_dir / "timing.txt").write_text(
        f"wall_clock_seconds={time.monotonic() - t_start:.3f}\n"
        f"blas_threads={blas[0]() if blas else 'unknown'}\n",
        encoding="utf-8",
    )
    if diverged:
        raise TrainingDiverged(
            f"training went non-finite in epoch {len(manifest['epochs']) + 1}; "
            f"manifest written to {out_dir / 'manifest.json'}"
        )
    return manifest


def _write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> dict:
    """A run's ``manifest.json``, the one reader of what ``_write_manifest`` writes.

    A file that is not a JSON object, or whose keys that readers use are missing or of
    another kind, raises ``ExperimentError("<path>: ...")`` naming the key.
    """
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"{path}: not JSON: {exc}") from None
    names = {str: "a string", dict: "an object", list: "a list", int: "an int"}  # else a number

    def check(obj, where: str, **kinds) -> None:
        if not isinstance(obj, dict):
            raise ExperimentError(f"{path}: {where} must be a JSON object")
        for key, kind in kinds.items():
            if isinstance(obj.get(key), bool) or not isinstance(obj.get(key), kind):
                name = names.get(kind, "a number")
                raise ExperimentError(f"{path}: {where} {key!r} must be {name}")

    check(manifest, "manifest", run_id=str, regime=str, config=dict, epochs=list)
    for i, entry in enumerate(manifest["epochs"]):
        check(entry, f"epochs[{i}]", epoch=int, valid_perplexity=(int, float), checkpoint=str)
    return manifest


# --------------------------------------------------------------------------
# Attacks on a finished run
# --------------------------------------------------------------------------

def _load_checkpoint(
    manifest_path: str | Path, epoch: int | None
) -> tuple[dict, ExperimentConfig, dict, Vocabulary, lm.LMParameters]:
    """(manifest, config, epoch entry, vocabulary, parameters) of one checkpoint.

    ``epoch`` None picks the last completed epoch. A run with none or without that epoch,
    or a config that does not give and resolve every key, raises an ``ExperimentError``
    naming the manifest.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    # A run records every key, so a default here would fill in what the run did not use.
    missing = next((key for key in TRAIN_SCHEMA if manifest["config"].get(key) is None), None)
    if missing is not None:
        raise ExperimentError(f"{manifest_path}: missing required config key {missing!r}")
    try:
        config = ExperimentConfig(manifest["config"])
    except ExperimentError as exc:
        raise ExperimentError(f"{manifest_path}: {exc}") from None
    if not manifest["epochs"]:
        raise ExperimentError(f"{manifest_path}: run has no completed epochs")
    by_epoch = {e["epoch"]: e for e in manifest["epochs"]}
    if epoch is None:
        epoch = max(by_epoch)
    if epoch not in by_epoch:
        raise ExperimentError(f"{manifest_path}: no checkpoint for epoch {epoch}")
    entry = by_epoch[epoch]
    vocab = Vocabulary.load(manifest_path.parent / "vocab.txt")
    params = lm.LMParameters.load(manifest_path.parent / entry["checkpoint"], expect_vocab=vocab.size)
    return manifest, config, entry, vocab, params


@_one_blas_thread()
def run_attacks(
    manifest_path: str | Path,
    checkpoint_epoch: int | None = None,
    dump_table: str | Path | None = None,
) -> attacks_mod.AttackReport:
    """Canary-exposure and membership-inference attacks on one checkpoint.

    Appends the report row to ``attacks.csv`` next to the manifest and
    returns it. The canary and the attacked member pool are rebuilt
    deterministically from the manifest's config: the canary template and
    planted fill from the ``canary_*`` keys, and the members from the
    sensitive-labeled training lines for ``mi_members = sensitive``, which
    therefore needs a ``labels`` file, or every training line for
    ``mi_members = all``.
    """
    manifest, config, entry, vocab, params = _load_checkpoint(manifest_path, checkpoint_epoch)
    if config["mi_members"] == "sensitive" and not config["labels"]:
        raise ExperimentError(
            "mi_members = sensitive draws MI members from labelled lines, but the run has "
            "no labels file; set labels or use mi_members = all"
        )
    template = config.canary_template
    if template is None:
        raise ExperimentError("attacks need a planted canary; the run's config has no canary_prefix")
    train_corpus, test_corpus, _, planted_index = prepare_data(config)
    # The MI pools are encoded under the rebuilt vocabulary, the checkpoint under vocab.txt.
    if vocab.tokens != train_corpus.vocabulary.tokens:
        tid, was, now = next(
            (tid, was, now) for tid, (was, now) in
            enumerate(itertools.zip_longest(vocab.tokens, train_corpus.vocabulary.tokens))
            if was != now
        )
        raise ExperimentError(
            f"the corpus no longer rebuilds the run's vocabulary: id {tid} is {was!r} in "
            f"vocab.txt but {now!r} from the corpus"
        )
    candidates = enumerate_canaries(template, vocab)
    ppls = attacks_mod.candidate_perplexities(params, candidates)
    rank = attacks_mod.rank_from_perplexities(ppls, planted_index)
    expo = attacks_mod.exposure(rank, template.candidate_space_size)
    if dump_table is not None:
        attacks_mod.dump_perplexity_table(dump_table, candidates, ppls, planted_index)

    member_pool = train_corpus.sequences
    if config["mi_members"] == "sensitive":
        member_pool = [s for s, lab in zip(member_pool, train_corpus.labels) if lab]
    members, non_members = attacks_mod.build_mi_dataset(
        member_pool, test_corpus.sequences, config["mi_n"],
        seed=derived_seed(config["seed_data"], "mi"),
    )
    mi_acc = attacks_mod.membership_inference(params, members, non_members)

    report = attacks_mod.AttackReport(
        run_id=manifest["run_id"],
        regime=manifest["regime"],
        epoch=entry["epoch"],
        valid_perplexity=entry["valid_perplexity"],
        canary_rank=rank,
        exposure=expo,
        candidate_space_size=template.candidate_space_size,
        mi_accuracy=mi_acc,
    )
    report.append_to(Path(manifest_path).parent / "attacks.csv")
    return report


@_one_blas_thread()
def audit_manifest_context(
    manifest_path: str | Path, sentence: str, index: int, alpha: float
) -> detector_mod.ContextAudit:
    """Run the minimal-context audit against a run's final checkpoint."""
    _, config, _, vocab, params = _load_checkpoint(manifest_path, None)
    # An empty synonym table leaves every sentence as it is: the identity audit.
    cfg = detector_mod.AugmentationConfig(
        detector_mod.load_synonyms(config["synonyms"]) if config["synonyms"] else {},
        config["substitution_rate"],
        seed=config["phi_seed"],
    )
    seq = TokenSequence.from_text(sentence, vocab, max_len=config["max_seq_len"])
    return detector_mod.audit_context(params, seq, index, alpha, cfg, vocabulary=vocab)


# --------------------------------------------------------------------------
# Detector training from a config file
# --------------------------------------------------------------------------

@_one_blas_thread()
def train_detector_from_config(path: str | Path) -> tuple[detector_mod.DetectorModel, dict]:
    """Train and save a detector per a DETECTOR_SCHEMA config file."""
    cfgv = parse_config_file(path, DETECTOR_SCHEMA)
    seeds, negatives = (
        [s for s in map(str.strip, Path(cfgv[key]).read_text(encoding="utf-8").splitlines()) if s]
        for key in ("seeds", "negatives")
    )
    table = (
        detector_mod.load_synonyms(cfgv["synonyms"])
        if cfgv["synonyms"]
        else detector_mod.default_synonyms()
    )
    aug = detector_mod.AugmentationConfig(
        synonym_table=table,
        substitution_rate=cfgv["substitution_rate"],
        passes=cfgv["variants_per_seed"],
        seed=cfgv["phi_seed"],
    )
    dataset = detector_mod.build_detector_dataset(seeds, negatives, aug)
    solver_keys = ("epochs", "eta", "seed", "char_dim", "word_dim", "fpr_cap", "val_fraction")
    model = detector_mod.train_detector(dataset, **{k: cfgv[k] for k in solver_keys})
    out = Path(cfgv["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    model.save(out)
    info = {
        "n_positive": dataset.n_positive,
        "n_negative": dataset.n_negative,
        "threshold": model.threshold,
        "measured_gamma": model.measured_gamma,
        "checkpoint": str(out),
    }
    return model, info
