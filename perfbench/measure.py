"""Set-up, the measured loop, and the metrics derived from it.

End-to-end metrics come from untraced repetitions only. In a traced run the
first repetition is untraced, every later one is traced, and the per-layer
metrics are averaged per traced repetition, so counts read as work done by
one training run or one audit pass.
"""

from __future__ import annotations

import resource
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, median, percentile, tail_percentile
from workloads import Prepared, Workload, check_unit, ops_per_unit, run_unit, scored_sequences, setup

# Set-up is repeated at least this many times and for at least this long, so
# that a set-up of a few tens of milliseconds still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0


def run_workload(pl, w: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    work = out / "work" / w.name
    setup_walls, setup_tps, prep = [], [], None
    while len(setup_walls) < SETUP_REPEATS or sum(setup_walls) < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        prep = setup(pl, w, seed, work)
        setup_walls.append(perf_counter() - t0)
        setup_tps.append(prep.setup_train_tokens_per_s)

    tracer = Tracer() if trace else None
    ops = ops_per_unit(prep)
    attempted = failed = 0
    failures: list[str] = []
    walls, traced_walls, scored, outputs, untraced_targets = [], [], [], None, []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(walls) > 0
        if traced:
            untraced_targets = install(tracer, pl)
        try:
            wall, outputs = run_unit(pl, prep)
        except Exception as exc:  # a failed operation: record it and stop measuring
            traceback.print_exc(file=sys.stderr)
            attempted += ops
            failed += ops
            failures.append(f"{type(exc).__name__}: {exc}")
            break
        finally:
            if traced:
                tracer.uninstall()
        attempted += ops
        try:
            fails = check_unit(prep, outputs)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            fails = [f"output check raised {exc!r}"]
        failed += min(ops, len(fails))
        failures.extend(fails)
        (traced_walls if traced else walls).append(wall)
        scored.append(scored_sequences(prep, outputs) / wall)
        done = len(walls) + len(traced_walls)
        elapsed = perf_counter() - start
        if done >= (2 if trace else 1) and elapsed + elapsed / done > seconds:
            break

    if tracer is not None:
        violating = sum(1 for s in tracer.spans if s.attrs.get("violations"))
        if violating:
            failed = min(attempted, failed + violating)
            failures.append(f"{violating} private steps have a clip scale with ||s*g|| > C")
        metrics = layer_metrics(tracer, traced_walls, walls)
    else:
        metrics = end_to_end_metrics(prep, walls, setup_walls, setup_tps, scored, outputs)
    metrics = {k: float(v) for k, v in metrics.items()}
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "shapes": prep.shapes,
        "setup_walls": setup_walls,
        "rep_walls": walls,
        "traced_walls": traced_walls,
        "determinism": list(prep.first_fingerprint or ()),
        # Functions a traced run could not wrap; their per-layer metrics read 0.
        "untraced_targets": untraced_targets,
    }


def end_to_end_metrics(prep: Prepared, walls, setup_walls, setup_tps, scored, outputs) -> dict:
    tokens = prep.expected["train_tokens"]
    if prep.workload.trains_in_measure:
        train_tps = median([tokens / t for t in walls])
        valid_ppl = outputs["manifest"]["epochs"][-1]["valid_perplexity"] if walls else 0.0
    else:
        train_tps = median(setup_tps)
        valid_ppl = prep.setup_valid_ppl
    return {
        "setup_s": median(setup_walls),
        "wall_s": median(walls),
        "train_tokens_per_s": train_tps,
        "audit_seqs_per_s": median(scored),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "valid_ppl": valid_ppl,
    }


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------

def _examples(args, kwargs, result):
    return {"examples": len(args[1])}


def _stack_bytes(args, kwargs, result):
    return {"stack_bytes": result[1].nbytes}


def _seqs(args, kwargs, result):
    return {"seqs": len(args[1])}


def _texts(args, kwargs, result):
    return {"texts": len(args[0])}


def _scored_texts(args, kwargs, result):
    model = args[0]
    return {"texts": len(result), "flagged": int(np.sum(result >= model.threshold))}


def _clip_check(args, kwargs, scales):
    # The ||s*g|| <= C contract of clip_scales, checked the way it promises it.
    stacked, bound = args[0], args[1]
    norms = np.linalg.norm(stacked * scales[:, None], axis=1)
    return {
        "rows": len(scales),
        "clipped": int(np.sum(scales < 1.0)),
        "violations": int(np.sum(norms > bound)),
    }


# (module, function or Class.method, span name, annotation). prepare_data is
# experiment's entry to the corpus layer (load, split, plant), so its span is
# named for that layer.
TRACED = [
    ("experiment", "train", "experiment.train", None),
    ("experiment", "run_attacks", "experiment.run_attacks", None),
    ("experiment", "train_detector_from_config", "experiment.train_detector_from_config", None),
    ("experiment", "audit_manifest_context", "experiment.audit_manifest_context", None),
    ("experiment", "prepare_data", "corpus.prepare_data", None),
    ("corpus", "load_corpus", "corpus.load_corpus", None),
    ("corpus", "split_corpus", "corpus.split_corpus", None),
    ("corpus", "plant_canary", "corpus.plant_canary", None),
    ("corpus", "minibatches", "corpus.minibatches", None),
    ("corpus", "enumerate_canaries", "corpus.enumerate_canaries", None),
    ("lm", "batch_gradients", "lm.batch_gradients", _stack_bytes),
    ("lm", "sequence_nlls", "lm.sequence_nlls", _seqs),
    ("lm", "corpus_perplexity", "lm.corpus_perplexity", None),
    ("lm", "forward", "lm.forward", None),
    ("lm", "apply_update", "lm.apply_update", None),
    ("lm", "init_params", "lm.init_params", None),
    ("lm", "LMParameters.save", "lm.save", None),
    ("lm", "LMParameters.load", "lm.load", None),
    ("privacy", "dp_sgd_step", "privacy.dp_sgd_step", _examples),
    ("privacy", "plain_sgd_step", "privacy.plain_sgd_step", _examples),
    ("privacy", "noisy_clipped_mean", "privacy.noisy_clipped_mean", None),
    ("privacy", "clip_scales", "privacy.clip_scales", _clip_check),
    ("detector", "build_detector_dataset", "detector.build_detector_dataset", None),
    ("detector", "featurize", "detector.featurize", _texts),
    ("detector", "train_detector", "detector.train_detector", None),
    ("detector", "DetectorModel.score_texts", "detector.score_texts", _scored_texts),
    ("detector", "DetectorModel.load", "detector.load", None),
    ("detector", "audit_context", "detector.audit_context", None),
    ("attacks", "build_mi_dataset", "attacks.build_mi_dataset", None),
    ("attacks", "candidate_perplexities", "attacks.candidate_perplexities", _seqs),
    ("attacks", "membership_inference", "attacks.membership_inference", None),
    ("report", "write_report", "report.write_report", None),
]


def install(tracer: Tracer, pl) -> list[str]:
    """Wrap every TRACED target; returns the targets the program no longer has."""
    missing = []
    for module, qualname, name, annotate in TRACED:
        try:
            tracer.install(getattr(pl, module), qualname, name, annotate)
        except AttributeError:
            missing.append(f"{module}.{qualname}")
    return missing


def layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    n = max(1, len(traced_walls))
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def durations(name):
        return [spans[i].duration for i in by_name[name]]

    def total(name):
        return sum(durations(name)) / n

    def attr(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name]) / n

    out: dict[str, float] = {}

    def timing(name, keys):
        d = durations(name)
        tail = tail_percentile(len(d))
        values = {
            "calls": len(d) / n,
            "examples": attr(name, "examples"),
            "ms_p50": 1000 * median(d),
            "ms_p90": 1000 * percentile(d, tail),
            "tail_pct": tail,
            "total_s": total(name),
            "self_s": sum(selfs[i] for i in by_name[name]) / n,
        }
        for key in keys:
            out[f"{name}.{key}"] = values[key]

    step_keys = ("calls", "examples", "ms_p50", "ms_p90", "tail_pct", "self_s")
    timing("privacy.dp_sgd_step", step_keys)
    timing("privacy.plain_sgd_step", step_keys)
    timing("privacy.clip_scales", ("total_s", "ms_p50"))
    timing("privacy.noisy_clipped_mean", ("self_s",))
    rows = attr("privacy.clip_scales", "rows")
    out["privacy.clip_fraction"] = attr("privacy.clip_scales", "clipped") / rows if rows else 0.0
    # Per-example step cost, private over plain: the two see different batch sizes.
    priv_ex, plain_ex = attr("privacy.dp_sgd_step", "examples"), attr("privacy.plain_sgd_step", "examples")
    if priv_ex and plain_ex:
        out["privacy.private_to_plain_ms_ratio"] = (
            total("privacy.dp_sgd_step") / priv_ex
        ) / (total("privacy.plain_sgd_step") / plain_ex)
    else:
        out["privacy.private_to_plain_ms_ratio"] = 0.0

    timing("lm.batch_gradients", ("calls", "ms_p50", "ms_p90", "tail_pct", "total_s"))
    out["lm.grad_stack_mb"] = max(
        (spans[i].attrs["stack_bytes"] for i in by_name["lm.batch_gradients"]), default=0
    ) / 1e6
    timing("lm.sequence_nlls", ("calls", "total_s"))
    out["lm.sequence_nlls.seqs"] = attr("lm.sequence_nlls", "seqs")
    out["attacks.candidate_perplexities.candidates"] = attr("attacks.candidate_perplexities", "seqs")
    out["attacks.candidate_perplexities.total_s"] = total("attacks.candidate_perplexities")
    out["attacks.membership_inference.total_s"] = total("attacks.membership_inference")
    for name in ("lm.save", "lm.apply_update", "corpus.prepare_data", "corpus.minibatches",
                 "corpus.enumerate_canaries", "detector.featurize", "detector.score_texts",
                 "detector.audit_context", "report.write_report"):
        out[f"{name}.total_s"] = total(name)
    for name in ("experiment.train", "experiment.run_attacks", "detector.train_detector"):
        timing(name, ("self_s",))
    out["detector.featurize.texts"] = attr("detector.featurize", "texts")
    scored = attr("detector.score_texts", "texts")
    out["detector.score_texts.texts"] = scored
    out["detector.flag_fraction"] = attr("detector.score_texts", "flagged") / scored if scored else 0.0
    out["detector.audit_context.forward_calls"] = sum(
        tracer.descendants_named(i, "lm.forward") for i in by_name["detector.audit_context"]
    ) / n

    roots = sum(s.end - s.start for s in spans if s.parent is None)
    out["trace.coverage"] = roots / sum(traced_walls) if traced_walls else 0.0
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    out["trace.reps"] = len(traced_walls)
    return out
