import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import privlm
from privlm import attacks, detector, experiment, lm, privacy, synth
from privlm.cli import main as cli_main
from privlm.corpus import CorpusError, TokenSequence
from privlm.detector import DetectorError
from privlm.experiment import (
    DETECTOR_SCHEMA,
    TRAIN_SCHEMA,
    ExperimentConfig,
    ExperimentError,
    TrainingDiverged,
    audit_manifest_context,
    load_manifest,
    parse_config_file,
    run_attacks,
    train,
    train_detector_from_config,
)
from privlm.report import write_report

from conftest import constant_detector


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    data = synth.generate_desk_corpus(n_lines=260, sensitive_fraction=0.1, seed=3,
                                      n_neutral_sample=60)
    paths = synth.write_desk_dataset(data, directory)
    always = directory / "detector_always.bin"
    never = directory / "detector_never.bin"
    constant_detector(flag_everything=True).save(always)
    constant_detector(flag_everything=False).save(never)
    paths["detector_always"] = always
    paths["detector_never"] = never
    return paths


def write_train_config(path: Path, data_dir, out_dir, regime="nodp", **overrides) -> Path:
    values = {
        "regime": regime,
        "corpus": str(data_dir["corpus"]),
        "labels": str(data_dir["labels"]),
        "canary_prefix": "my bank security code is",
        "canary_slot_alphabet": "123",
        "canary_slot_count": "2",
        "canary_fill": "31",
        "canary_count": "6",
        "d_emb": "16",
        "d_hid": "16",
        "epochs": "2",
        "batch_size": "16",
        "eta": "0.2",
        "sigma": "1.0",
        "clip_bound": "0.5",
        "delta": "1e-5",
        "mi_n": "8",
        "out_dir": str(out_dir),
    }
    values.update({k: (v if isinstance(v, list) else str(v)) for k, v in overrides.items()})
    lines = [f"{k} = {v}" for k, v in values.items() if not isinstance(v, list)]
    for k, v in values.items():
        if isinstance(v, list):
            lines += [f"{k} = {item}" for item in v]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfigParsing:
    # Text is always lowercased by corpus.tokenize; there is no key to turn it off.
    @pytest.mark.parametrize("line", ["bogus_key = 1", "lowercase = true"])
    def test_unknown_key_rejected(self, tmp_path, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"regime = nodp\n{line}\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match="unknown config key"):
            parse_config_file(cfg, TRAIN_SCHEMA)

    def test_missing_required_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regime = nodp\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match="missing required"):
            parse_config_file(cfg, TRAIN_SCHEMA)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regime = nodp\nregime = dpsgd\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match="duplicate"):
            parse_config_file(cfg, TRAIN_SCHEMA)

    def test_repeatable_secret_patterns_collected(self, tmp_path, data_dir):
        cfg = write_train_config(
            tmp_path / "c.cfg", data_dir, tmp_path / "out", regime="sdpsgd",
            secret_pattern=[r"pin is [0-9]+", r"code is [0-9]+"],
        )
        parsed = ExperimentConfig.from_file(cfg)
        assert parsed["secret_pattern"] == [r"pin is [0-9]+", r"code is [0-9]+"]

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", "soon", "bad int value for 'epochs': 'soon'"),
        ("sigma", "0", "sigma must be > 0, got 0.0"),
    ], ids=["wrong_kind", "out_of_range"])
    def test_bad_value_rejected_naming_the_file(self, tmp_path, data_dir, key, value, message):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o", **{key: value})
        with pytest.raises(ExperimentError, match="^" + re.escape(f"{cfg}: {message}") + "$"):
            parse_config_file(cfg, TRAIN_SCHEMA)

    def test_regime_requirements(self, tmp_path, data_dir):
        with pytest.raises(ExperimentError, match="detector"):
            ExperimentConfig.from_file(
                write_train_config(tmp_path / "a.cfg", data_dir, tmp_path / "o", regime="cadp")
            )
        with pytest.raises(ExperimentError, match="secret_pattern"):
            ExperimentConfig.from_file(
                write_train_config(tmp_path / "b.cfg", data_dir, tmp_path / "o", regime="sdpsgd")
            )
        with pytest.raises(ExperimentError, match="regime"):
            ExperimentConfig.from_file(
                write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o", regime="magic")
            )

    @pytest.mark.parametrize("key, value", [("canary_count", "50"), ("canary_fill", "452")])
    def test_canary_settings_without_prefix_rejected(self, tmp_path, data_dir, key, value):
        overrides = {"canary_prefix": "", "canary_fill": "", "canary_count": "0", key: value}
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o", **overrides)
        with pytest.raises(ExperimentError, match="canary_prefix"):
            ExperimentConfig.from_file(cfg)

    def test_mi_members_typo_rejected(self, tmp_path, data_dir):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o",
                                 mi_members="sensitve")
        with pytest.raises(ExperimentError, match="mi_members"):
            ExperimentConfig.from_file(cfg)

    def test_negative_epochs_rejected(self, tmp_path, data_dir):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o", epochs=-1)
        with pytest.raises(ExperimentError, match="epochs must be >= 0"):
            ExperimentConfig.from_file(cfg)

    @pytest.mark.parametrize("regime", ["nodp", "dpsgd"])
    @pytest.mark.parametrize("key, value", [
        ("sigma", 0), ("clip_bound", -1), ("delta", 0), ("delta", 1), ("rdp_alpha", 1),
        ("eta", 0), ("eta", -1), ("eta", "nan"), ("d_emb", 0), ("d_hid", 0),
        ("train_fraction", 0), ("train_fraction", 1.0), ("max_seq_len", 1),
        ("mi_n", 0), ("mi_n", -3), ("substitution_rate", -0.1), ("substitution_rate", 1.5),
        ("seed_data", -1), ("seed_init", -1), ("seed_noise", -1),
        ("secret_pattern", "(combination|pin"),
    ])
    def test_out_of_range_value_rejected_before_the_run_directory(self, tmp_path, data_dir,
                                                                  regime, key, value):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o", regime=regime,
                                 **{key: value})
        # A schema rule names the file; the regex check runs on the resolved config.
        where = "" if key == "secret_pattern" else re.escape(f"{cfg}: ")
        with pytest.raises(ExperimentError, match=f"^{where}{key} must be"):
            train(ExperimentConfig.from_file(cfg))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("regime", ["nodp", "dpsgd"])
    @pytest.mark.parametrize("overrides, match", [
        ({"canary_count": -1}, "canary_count must be >= 0"),
        ({"canary_slot_count": -1}, "slot_count"),
        ({"canary_slot_count": 0}, "slot_count must be >= 1"),
        ({"canary_slot_alphabet": "112"}, "duplicate"),
        ({"canary_slot_alphabet": "AB", "canary_fill": "AB"}, "lower-case"),
        ({"canary_fill": "44"}, "slot space"),
        ({"canary_fill": "312"}, "slot space"),
        ({"canary_prefix": "a b c d e f g", "max_seq_len": 6}, "max_len"),
        ({"canary_slot_alphabet": "123456789", "canary_slot_count": 5, "canary_fill": "12345"},
         "enumeration cap"),
    ])
    def test_bad_canary_rejected_before_the_run_directory(self, tmp_path, data_dir, regime,
                                                         overrides, match):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o", regime=regime,
                                 **overrides)
        with pytest.raises(ExperimentError, match=match):
            train(ExperimentConfig.from_file(cfg))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad_input, match", [
        ("missing_corpus", "cannot read corpus file"),
        ("short_labels", "labels file has"),
    ])
    def test_unreadable_data_rejected_before_the_run_directory(self, tmp_path, data_dir,
                                                             bad_input, match):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n" * 3, encoding="utf-8")
        overrides = ({"corpus": tmp_path / "missing.txt"} if bad_input == "missing_corpus"
                     else {"labels": labels})
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "o", **overrides)
        with pytest.raises(CorpusError, match=match):
            train(ExperimentConfig.from_file(cfg))
        assert not (tmp_path / "o").exists()

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nseeds = s.txt\nnegatives = n.txt\nout = d.bin\n",
                       encoding="utf-8")
        parsed = parse_config_file(cfg, DETECTOR_SCHEMA)
        assert parsed["seeds"] == "s.txt"
        assert parsed["variants_per_seed"] == 10


@pytest.fixture(scope="module")
def nodp_run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("nodp_run")
    cfg = write_train_config(out / "run.cfg", data_dir, out / "run")
    manifest = train(ExperimentConfig.from_file(cfg))
    return out / "run", manifest


class TestTrainRun:
    def test_manifest_contents(self, nodp_run):
        run_dir, manifest = nodp_run
        assert manifest["status"] == "completed"
        assert manifest["regime"] == "nodp"
        assert len(manifest["epochs"]) == 2
        assert manifest["audit"] is None
        assert manifest["sensitive_count"] == 0
        assert manifest["private_step_count"] == 0
        for entry in manifest["epochs"]:
            assert (run_dir / entry["checkpoint"]).exists()
            assert np.isfinite(entry["valid_perplexity"])

    def test_run_directory_files(self, nodp_run):
        run_dir, _ = nodp_run
        for name in ("manifest.json", "vocab.txt", "canaries.txt", "timing.txt"):
            assert (run_dir / name).exists()
        on_disk = load_manifest(run_dir / "manifest.json")
        assert on_disk["run_id"] == nodp_run[1]["run_id"]

    def test_attacks_on_the_run(self, nodp_run):
        run_dir, manifest = nodp_run
        report = run_attacks(run_dir / "manifest.json")
        assert report.epoch == 2
        assert 1 <= report.canary_rank <= 9
        assert 0.0 <= report.exposure <= np.log2(9)
        assert 0.0 <= report.mi_accuracy <= 1.0
        csv_path = run_dir / "attacks.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("run_id,regime,epoch")
        assert lines[1].startswith(manifest["run_id"])

    def test_attack_specific_epoch_and_dump(self, nodp_run, tmp_path):
        run_dir, _ = nodp_run
        dump = tmp_path / "table.csv"
        report = run_attacks(run_dir / "manifest.json", checkpoint_epoch=1, dump_table=dump)
        assert report.epoch == 1
        assert dump.exists()
        assert len(dump.read_text().splitlines()) == 10  # header + 9 candidates

    def test_attack_rebuilds_canary_from_config(self, nodp_run, tmp_path):
        run_dir, _ = nodp_run
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        (copy / "canaries.txt").unlink()
        without = run_attacks(copy / "manifest.json")
        assert without.csv_row() == run_attacks(run_dir / "manifest.json").csv_row()

    def test_attack_without_canary_rejected(self, data_dir, tmp_path):
        cfg = write_train_config(tmp_path / "run.cfg", data_dir, tmp_path / "run", epochs=1,
                                 canary_prefix="", canary_fill="", canary_count="0")
        train(ExperimentConfig.from_file(cfg))
        with pytest.raises(ExperimentError, match="canary_prefix"):
            run_attacks(tmp_path / "run" / "manifest.json")
        assert not (tmp_path / "run" / "attacks.csv").exists()

    def test_attack_missing_epoch_rejected(self, nodp_run, capsys):
        path = nodp_run[0] / "manifest.json"
        with pytest.raises(ExperimentError, match=re.escape(f"{path}: no checkpoint for epoch 99")):
            run_attacks(path, checkpoint_epoch=99)
        assert cli_main(["attack", "--manifest", str(path), "--checkpoint", "9"]) == 1
        assert capsys.readouterr().err == f"error: {path}: no checkpoint for epoch 9\n"

    def test_attack_rejects_a_corpus_that_changed_the_vocabulary(self, data_dir, tmp_path):
        # Prepending lines reorders the frequency-sorted vocabulary, so the MI
        # pools would be encoded under ids the checkpoint was not trained on.
        corpus, labels = tmp_path / "corpus.txt", tmp_path / "labels.txt"
        shutil.copy(data_dir["corpus"], corpus)
        shutil.copy(data_dir["labels"], labels)
        cfg = write_train_config(tmp_path / "c.cfg", {"corpus": corpus, "labels": labels},
                                 tmp_path / "run", epochs=1)
        train(ExperimentConfig.from_file(cfg))
        run_attacks(tmp_path / "run" / "manifest.json")
        for path in (corpus, labels):
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join(lines[-30:] + lines) + "\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match=r"no longer rebuilds the run's vocabulary: id \d+"):
            run_attacks(tmp_path / "run" / "manifest.json")

    def test_sensitive_members_without_labels_rejected(self, data_dir, tmp_path):
        cfg = write_train_config(tmp_path / "run.cfg", data_dir, tmp_path / "run",
                                 labels="", epochs=1)
        train(ExperimentConfig.from_file(cfg))
        with pytest.raises(ExperimentError, match="mi_members = sensitive.*labels"):
            run_attacks(tmp_path / "run" / "manifest.json")
        assert not (tmp_path / "run" / "attacks.csv").exists()

    def test_audit_context_from_manifest(self, nodp_run):
        run_dir, _ = nodp_run
        audit = audit_manifest_context(
            run_dir / "manifest.json", "my bank security code is 31", index=6, alpha=1.0
        )
        assert audit.found and audit.length == 0

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_train_config(tmp_path / "a.cfg", data_dir, out_a)
        train(ExperimentConfig.from_file(cfg_a))
        # identical config except the output directory itself
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        cfg_b = write_train_config(tmp_path / "b.cfg", data_dir, out_a)
        # write config pointing at out_a but train into out_b via fresh parse
        cfg_b = write_train_config(tmp_path / "b.cfg", data_dir, out_b)
        train(ExperimentConfig.from_file(cfg_b))
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        # out_dir differs, so compare everything except config/run_id
        for key in ("epochs", "vocab_size", "n_train", "n_test", "sensitive_count"):
            assert manifest_a[key] == manifest_b[key]
        for entry in manifest_a["epochs"]:
            bytes_a = (out_a / entry["checkpoint"]).read_bytes()
            bytes_b = (out_b / entry["checkpoint"]).read_bytes()
            assert bytes_a == bytes_b
        assert (out_a / "vocab.txt").read_bytes() == (out_b / "vocab.txt").read_bytes()
        assert (out_a / "canaries.txt").read_bytes() == (out_b / "canaries.txt").read_bytes()


class TestManifestConfig:
    """A dict and a manifest's config are resolved like a config file."""

    def _copy_with_config(self, nodp_run, tmp_path, edit):
        run_dir, _ = nodp_run
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy, ignore=shutil.ignore_patterns("attacks.csv"))
        manifest = load_manifest(copy / "manifest.json")
        edit(manifest["config"])
        (copy / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return copy / "manifest.json"

    def test_file_built_config_round_trips_through_the_manifest(self, nodp_run):
        run_dir, manifest = nodp_run
        config = ExperimentConfig(load_manifest(run_dir / "manifest.json")["config"])
        assert config.run_id() == manifest["run_id"]

    @pytest.mark.parametrize("verb", ["attack", "audit-context"])
    def test_manifest_config_missing_a_key_is_an_error(self, nodp_run, tmp_path, capsys, verb):
        path = self._copy_with_config(nodp_run, tmp_path, lambda c: c.pop("mi_n"))
        extra = ["--sentence", "my bank security code is 31", "--index", "6", "--alpha", "1"]
        argv = [verb, "--manifest", str(path)] + (extra if verb == "audit-context" else [])
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: missing required config key 'mi_n'")
        assert not (path.parent / "attacks.csv").exists()

    def test_manifest_config_with_an_unknown_key_is_rejected(self, nodp_run, tmp_path):
        path = self._copy_with_config(nodp_run, tmp_path, lambda c: c.update(lowercase=True))
        with pytest.raises(ExperimentError, match="manifest.json: unknown config key 'lowercase'"):
            run_attacks(path)

    def test_manifest_config_out_of_range_is_rejected(self, nodp_run, tmp_path):
        path = self._copy_with_config(nodp_run, tmp_path, lambda c: c.update(mi_n=0))
        with pytest.raises(ExperimentError, match="manifest.json: mi_n must be >= 1, got 0"):
            run_attacks(path)

    def test_dict_takes_defaults_and_needs_required_keys(self, nodp_run):
        values = load_manifest(nodp_run[0] / "manifest.json")["config"]
        del values["mi_n"], values["canary_slot_alphabet"]
        config = ExperimentConfig(dict(values))
        assert config["mi_n"] == 50
        assert config["canary_slot_alphabet"] == "123456789"
        del values["corpus"]
        with pytest.raises(ExperimentError, match="^missing required config key 'corpus'"):
            ExperimentConfig(values)

    @pytest.mark.parametrize("key, value, expected", [
        ("epochs", "3", 3), ("eta", "0.25", 0.25), ("eta", 1, 1.0), ("secret_pattern", "pin", ["pin"]),
    ])
    def test_dict_values_are_typed_like_file_values(self, nodp_run, key, value, expected):
        values = load_manifest(nodp_run[0] / "manifest.json")["config"]
        resolved = ExperimentConfig(dict(values, **{key: value}))[key]
        assert resolved == expected and type(resolved) is type(expected)

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.0), ("epochs", True), ("eta", "fast"), ("regime", 3), ("secret_pattern", [1]),
    ])
    def test_dict_value_of_the_wrong_kind_rejected(self, nodp_run, key, value):
        values = load_manifest(nodp_run[0] / "manifest.json")["config"]
        with pytest.raises(ExperimentError, match=f"^bad (int|float|str) value for '{key}'"):
            ExperimentConfig(dict(values, **{key: value}))

    def test_canary_template_built_once_from_the_config(self, nodp_run):
        config = ExperimentConfig(load_manifest(nodp_run[0] / "manifest.json")["config"])
        assert config.canary_template.prefix == "my bank security code is "
        assert config.canary_template.slot_alphabet == "123"
        assert config.canary_template.slot_count == 2
        spaced = ExperimentConfig(dict(config.values, canary_prefix="my code is "))
        assert spaced.canary_template.prefix == "my code is "
        bare = dict(config.values, canary_prefix="", canary_fill="", canary_count=0)
        assert ExperimentConfig(bare).canary_template is None


def _without_last_checkpoint(manifest):
    return {**manifest, "epochs": manifest["epochs"][:-1] + [
        {k: v for k, v in manifest["epochs"][-1].items() if k != "checkpoint"}
    ]}


class TestRunFiles:
    """manifest.json is read only by load_manifest and attacks.csv only by
    read_attack_rows; each rejects a file its readers cannot use, naming it."""

    def _copy(self, nodp_run, tmp_path) -> Path:
        run_dir = tmp_path / "run"
        shutil.copytree(nodp_run[0], run_dir, ignore=shutil.ignore_patterns("attacks.csv"))
        return run_dir

    def _argv(self, verb, manifest, tmp_path):
        if verb == "report":
            return ["report", "--out", str(tmp_path / "rep"), str(manifest)]
        extra = ["--sentence", "my bank security code is 31", "--index", "6", "--alpha", "1"]
        return [verb, "--manifest", str(manifest)] + (extra if verb == "audit-context" else [])

    @pytest.mark.parametrize("verb", ["attack", "audit-context", "report"])
    @pytest.mark.parametrize("edit", [
        lambda m: {}, lambda m: [1, 2], _without_last_checkpoint,
    ], ids=["empty_object", "list", "epoch_without_checkpoint"])
    def test_bad_manifest_exits_one_naming_it(self, nodp_run, tmp_path, capsys, verb, edit):
        path = self._copy(nodp_run, tmp_path) / "manifest.json"
        path.write_text(json.dumps(edit(load_manifest(path))), encoding="utf-8")
        assert cli_main(self._argv(verb, path, tmp_path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "rep").exists()
        assert not (path.parent / "attacks.csv").exists()

    @pytest.mark.parametrize("manifest, message", [
        ("{", "not JSON"),
        ('{"run_id": 7}', "manifest 'run_id' must be a string"),
        (None, "epochs[1] 'valid_perplexity' must be a number"),
    ], ids=["not_json", "run_id_not_a_string", "bool_perplexity"])
    def test_load_manifest_names_the_key(self, nodp_run, tmp_path, manifest, message):
        path = tmp_path / "manifest.json"
        if manifest is None:
            good = load_manifest(nodp_run[0] / "manifest.json")
            good["epochs"][1]["valid_perplexity"] = True
            manifest = json.dumps(good)
        path.write_text(manifest, encoding="utf-8")
        with pytest.raises(ExperimentError, match="^" + re.escape(f"{path}: {message}")):
            load_manifest(path)

    @pytest.mark.parametrize("text, where", [
        ("run_id,regime,epoch,valid_ppl,canary_rank,exposure,mi_accuracy\n"
         "r,nodp,1,9.5,1,0.0,0.5\n", ": first line is not"),
        (attacks.AttackReport.CSV_HEADER + "\nr,nodp,1\n", ":2: expected 7 fields, got 3"),
    ], ids=["other_header", "short_row"])
    def test_report_rejects_a_malformed_attacks_csv(self, nodp_run, tmp_path, capsys, text,
                                                    where):
        run_dir = self._copy(nodp_run, tmp_path)
        (run_dir / "attacks.csv").write_text(text, encoding="utf-8")
        assert cli_main(self._argv("report", run_dir / "manifest.json", tmp_path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {run_dir / 'attacks.csv'}{where}")
        assert not (tmp_path / "rep").exists()

    def test_two_attacks_leave_one_header_and_two_rows(self, nodp_run, tmp_path):
        run_dir = self._copy(nodp_run, tmp_path)
        reports = [run_attacks(run_dir / "manifest.json", checkpoint_epoch=e) for e in (1, 2)]
        csv_path = run_dir / "attacks.csv"
        header = attacks.AttackReport.CSV_HEADER
        assert csv_path.read_text(encoding="utf-8").splitlines() == [
            header, *(r.csv_row() for r in reports)
        ]
        assert attacks.read_attack_rows(csv_path) == [
            {column: getattr(r, column) for column in attacks.ATTACK_COLUMNS} for r in reports
        ]

    def test_report_counts_a_repeated_attack_once(self, nodp_run, tmp_path):
        run_dir = self._copy(nodp_run, tmp_path)
        for _ in range(2):
            run_attacks(run_dir / "manifest.json", checkpoint_epoch=1)
        lines = (run_dir / "attacks.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3 and lines[1] == lines[2]
        assert cli_main(self._argv("report", run_dir / "manifest.json", tmp_path)) == 0
        tradeoff = (tmp_path / "rep" / "attack_tradeoff.csv").read_text(encoding="utf-8")
        assert tradeoff.splitlines() == lines[:2]

    def _attacked_once(self, nodp_run, tmp_path) -> tuple[Path, str, list[str]]:
        run_dir = self._copy(nodp_run, tmp_path)
        run_attacks(run_dir / "manifest.json", checkpoint_epoch=1)
        header, row = (run_dir / "attacks.csv").read_text(encoding="utf-8").splitlines()
        return run_dir, header, row.split(",")

    def test_report_refuses_an_unparsed_field_naming_the_column(self, nodp_run, tmp_path, capsys):
        run_dir, header, fields = self._attacked_once(nodp_run, tmp_path)
        fields[2] = "one"
        csv_path = run_dir / "attacks.csv"
        csv_path.write_text(f"{header}\n{','.join(fields)}\n", encoding="utf-8")
        assert cli_main(self._argv("report", run_dir / "manifest.json", tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path}:2: column 'epoch' must be int, got 'one'\n"
        )
        assert not (tmp_path / "rep").exists()

    def test_report_refuses_conflicting_rows_naming_both_lines(self, nodp_run, tmp_path, capsys):
        run_dir, header, fields = self._attacked_once(nodp_run, tmp_path)
        changed = [*fields[:5], repr(float(fields[5]) + 1.0), fields[6]]
        csv_path = run_dir / "attacks.csv"
        csv_path.write_text(f"{header}\n{','.join(fields)}\n{','.join(changed)}\n",
                            encoding="utf-8")
        assert cli_main(self._argv("report", run_dir / "manifest.json", tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path}:3: run_id {fields[0]!r} epoch 1 has other values than on line 2\n"
        )
        assert not (tmp_path / "rep").exists()

    def test_report_refuses_rows_left_by_an_earlier_run(self, data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "a.cfg", data_dir, run_dir, epochs=1)
        old = train(ExperimentConfig.from_file(cfg))["run_id"]
        run_attacks(run_dir / "manifest.json")
        cfg = write_train_config(tmp_path / "b.cfg", data_dir, run_dir, epochs=1, eta=0.3)
        new = train(ExperimentConfig.from_file(cfg))["run_id"]
        assert cli_main(self._argv("report", run_dir / "manifest.json", tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'attacks.csv'}: holds attacks on run {old}, "
            f"but {run_dir / 'manifest.json'} is run {new}\n"
        )
        assert not (tmp_path / "rep").exists()

    def test_report_refuses_a_run_given_twice(self, nodp_run, tmp_path, capsys):
        run_dir = self._copy(nodp_run, tmp_path)
        run_attacks(run_dir / "manifest.json", checkpoint_epoch=1)
        first, again = run_dir / "manifest.json", tmp_path / "run" / ".." / "run" / "manifest.json"
        argv = ["report", "--out", str(tmp_path / "rep"), str(first), str(again)]
        assert cli_main(argv) == 1
        run_id = load_manifest(first)["run_id"]
        assert capsys.readouterr().err == f"error: run {run_id} is given twice: {first} and {again}\n"
        assert not (tmp_path / "rep").exists()

    def test_run_without_epochs_rejected_naming_the_manifest(self, data_dir, tmp_path):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run", epochs=0)
        train(ExperimentConfig.from_file(cfg))
        path = tmp_path / "run" / "manifest.json"
        for verb in (run_attacks, lambda p: audit_manifest_context(p, "my code is 31", 4, 1.0)):
            with pytest.raises(ExperimentError, match=re.escape(f"{path}: run has no completed")):
                verb(path)


class TestBlasThreads:
    """The verbs run BLAS on one thread and restore the caller's count, errors included."""

    @pytest.fixture
    def two_threads(self):
        calls = experiment._openblas_threads()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS thread calls are not found")
        get, set_ = calls
        set_(2)
        try:
            yield get
        finally:
            set_(1)

    def recording(self, monkeypatch, module, name, get, fail=False):
        seen, original = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append(get())
            if fail:
                raise RuntimeError("step failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return seen

    def test_train_pins_one_thread(self, data_dir, tmp_path, monkeypatch, two_threads):
        seen = self.recording(monkeypatch, privacy, "plain_sgd_step", two_threads)
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run", epochs=1)
        train(ExperimentConfig.from_file(cfg))
        assert seen and set(seen) == {1}
        assert two_threads() == 2
        assert "blas_threads=1\n" in (tmp_path / "run" / "timing.txt").read_text()

    def test_train_restores_the_count_on_error(self, data_dir, tmp_path, monkeypatch,
                                               two_threads):
        seen = self.recording(monkeypatch, privacy, "plain_sgd_step", two_threads, fail=True)
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run", epochs=1)
        with pytest.raises(RuntimeError, match="step failed"):
            train(ExperimentConfig.from_file(cfg))
        assert seen == [1]
        assert two_threads() == 2

    def test_attack_verbs_pin_one_thread(self, nodp_run, tmp_path, monkeypatch, two_threads):
        run_dir = Path(shutil.copytree(nodp_run[0], tmp_path / "run"))
        scored = self.recording(monkeypatch, attacks, "candidate_perplexities", two_threads)
        audited = self.recording(monkeypatch, detector, "audit_context", two_threads)
        run_attacks(run_dir / "manifest.json")
        audit_manifest_context(run_dir / "manifest.json", "my bank security code is 31", 5, 0.5)
        assert scored == [1] and audited == [1]
        assert two_threads() == 2

    def test_detector_verb_pins_one_thread(self, data_dir, tmp_path, monkeypatch, two_threads):
        trained = self.recording(monkeypatch, detector, "train_detector", two_threads)
        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            f"seeds = {data_dir['seeds']}\nnegatives = {data_dir['negatives']}\n"
            f"variants_per_seed = 2\nepochs = 5\nchar_dim = 64\nword_dim = 32\n"
            f"out = {tmp_path / 'det.bin'}\n",
            encoding="utf-8",
        )
        train_detector_from_config(cfg)
        assert trained == [1]
        assert two_threads() == 2

    def test_missing_library_pins_nothing(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "_openblas_threads", lambda: None)
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run", epochs=1)
        train(ExperimentConfig.from_file(cfg))
        assert "blas_threads=unknown\n" in (tmp_path / "run" / "timing.txt").read_text()


class TestRegimeDispatch:
    def test_dpsgd_marks_everything_sensitive(self, data_dir, tmp_path):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run",
                                 regime="dpsgd", epochs=1)
        manifest = train(ExperimentConfig.from_file(cfg))
        assert manifest["sensitive_count"] == manifest["n_train"]
        assert manifest["private_step_count"] > 0
        assert manifest["audit"]["eps_total"] > 0
        assert manifest["audit"]["gamma"] == 1.0

    def test_manifest_audit_records_accountant_inputs(self, data_dir, tmp_path):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run",
                                 regime="dpsgd", epochs=1, sigma=1.5, delta=2e-5)
        train(ExperimentConfig.from_file(cfg))
        manifest = load_manifest(tmp_path / "run" / "manifest.json")
        audit = manifest["audit"]
        claim = {k: audit[k] for k in ("epochs", "sensitive_count", "batch_size",
                                       "per_step_epsilon", "alpha", "gamma")}
        assert set(audit) == {*claim, "sigma", "clip_bound", "delta", "eps_total"}
        assert [claim[k] for k in ("epochs", "batch_size", "alpha", "gamma")] == [1, 16, 2.0, 1.0]
        assert claim["sensitive_count"] == manifest["sensitive_count"] == manifest["n_train"]
        assert claim["per_step_epsilon"] == privacy.gaussian_rdp_epsilon(1.5, 2.0)
        assert audit["delta"] == 2e-5
        assert audit["eps_total"] == privacy.selective_dp_budget(**claim, delta=audit["delta"])

    def test_cadp_audit_rests_on_the_detector_gamma(self, data_dir, tmp_path):
        det = tmp_path / "det.bin"
        dataclasses.replace(constant_detector(True), measured_gamma=0.95).save(det)
        runs = {}
        for delta in (0.1, 1e-5):
            cfg = write_train_config(tmp_path / f"{delta}.cfg", data_dir, tmp_path / f"run{delta}",
                                     regime="cadp", epochs=1, detector=det, delta=delta)
            runs[delta] = train(ExperimentConfig.from_file(cfg))
        held = runs[0.1]["audit"]
        assert held["gamma"] == 0.95 and held["delta"] == 0.1
        # T * N_S * eps_step / |B| + ln(1/delta) / (alpha - 1) at T 1, sigma 1, alpha 2, |B| 16.
        n_s = runs[0.1]["sensitive_count"]
        assert held["eps_total"] == 1 * n_s * 1.0 / 16 + math.log(1 / 0.1) / 1.0
        below_floor = runs[1e-5]
        assert list(below_floor["audit"]) == ["error"]
        assert "gamma=0.95" in below_floor["audit"]["error"]
        assert below_floor["status"] == "completed"

    def test_sdpsgd_partitions_by_regex(self, data_dir, tmp_path):
        cfg = write_train_config(
            tmp_path / "c.cfg", data_dir, tmp_path / "run", regime="sdpsgd", epochs=1,
            secret_pattern=[r"(combination|pin|password|code) is [0-9]+"],
        )
        manifest = train(ExperimentConfig.from_file(cfg))
        assert 0 < manifest["sensitive_count"] < manifest["n_train"]

    def test_cadp_equivalences_with_stub_detectors(self, data_dir, tmp_path):
        results = {}
        for name, regime, extra in (
            ("nodp", "nodp", {}),
            ("cadp_never", "cadp", {"detector": data_dir["detector_never"]}),
            ("dpsgd", "dpsgd", {}),
            ("cadp_always", "cadp", {"detector": data_dir["detector_always"]}),
        ):
            out = tmp_path / name
            cfg = write_train_config(tmp_path / f"{name}.cfg", data_dir, out,
                                     regime=regime, epochs=2, **extra)
            train(ExperimentConfig.from_file(cfg))
            results[name] = out

        def checkpoint_bytes(run_dir):
            manifest = load_manifest(run_dir / "manifest.json")
            return [
                (run_dir / e["checkpoint"]).read_bytes() for e in manifest["epochs"]
            ]

        assert checkpoint_bytes(results["nodp"]) == checkpoint_bytes(results["cadp_never"])
        assert checkpoint_bytes(results["dpsgd"]) == checkpoint_bytes(results["cadp_always"])
        # and the two families genuinely differ from each other
        assert checkpoint_bytes(results["nodp"]) != checkpoint_bytes(results["dpsgd"])

    def test_zero_epochs_completes_without_epochs(self, data_dir, tmp_path):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run", epochs=0)
        manifest = train(ExperimentConfig.from_file(cfg))
        assert manifest["status"] == "completed" and manifest["epochs"] == []

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"measured_gamma": 1.5}, "gamma"),
            ({"weights": np.r_[np.nan, np.zeros(31)]}, "weights and bias must be finite"),
            ({"bias": math.inf}, "weights and bias must be finite"),
        ],
        ids=["gamma", "nan_weight", "inf_bias"],
    )
    def test_cadp_with_bad_detector_file_writes_nothing(self, data_dir, tmp_path, fields,
                                                         message):
        det = tmp_path / "det.bin"
        dataclasses.replace(constant_detector(True), **fields).save(det)
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run",
                                 regime="cadp", epochs=1, detector=det)
        with pytest.raises(DetectorError, match=message):
            train(ExperimentConfig.from_file(cfg))
        assert not (tmp_path / "run").exists()

    def test_divergence_aborts_with_manifest(self, data_dir, tmp_path):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run",
                                 eta=1e9, epochs=3)
        with pytest.raises(TrainingDiverged):
            with np.errstate(all="ignore"):
                train(ExperimentConfig.from_file(cfg))
        manifest = load_manifest(tmp_path / "run" / "manifest.json")
        assert manifest["status"] == "diverged"

    def test_private_divergence_aborts_with_manifest(self, data_dir, tmp_path, capsys):
        """Overflowed weights stop a private run like a plain one: manifest, exit 2."""
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run",
                                 regime="dpsgd", eta=1e300, clip_bound=1.0, epochs=2)
        with np.errstate(all="ignore"):
            assert cli_main(["train", "--config", str(cfg)]) == 2
        assert "non-finite in epoch 1" in capsys.readouterr().err
        manifest = load_manifest(tmp_path / "run" / "manifest.json")
        assert manifest["status"] == "diverged"
        assert manifest["epochs"] == [] and manifest["audit"] is None


class TestNoiseStream:
    """Private steps get the seeded stream's draws in order, and no noise thread outlives train."""

    def stream_config(self, tmp_path, data_dir, regime, **overrides):
        if regime == "cadp":
            # Random hashed-feature weights at their median score flag about half
            # the lines, so private and plain steps alternate.
            det = detector.DetectorModel(16, 16, np.random.default_rng(0).standard_normal(32),
                                         0.0, 0.5, 1.0)
            lines = Path(data_dir["corpus"]).read_text(encoding="utf-8").splitlines()
            det.threshold = float(np.median(det.score_texts(lines)))
            det.save(tmp_path / "det.bin")
            overrides["detector"] = tmp_path / "det.bin"
        return ExperimentConfig.from_file(
            write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run", regime=regime,
                               **overrides))

    def spy(self, monkeypatch, log, fail_at=None):
        """Wrap both steps: log each call and the live thread count, copy each draw."""
        draws, private, plain = [], privacy.dp_sgd_step, privacy.plain_sgd_step

        def private_step(params, batch, spec, noise, workspace=None):
            log.append(("private", threading.active_count()))
            draws.append(np.array(noise, copy=True))
            if len(draws) == fail_at:
                raise RuntimeError("step failed")
            return private(params, batch, spec, noise, workspace)

        def plain_step(params, batch, eta, workspace=None):
            log.append(("plain", threading.active_count()))
            return plain(params, batch, eta, workspace)

        monkeypatch.setattr(privacy, "dp_sgd_step", private_step)
        monkeypatch.setattr(privacy, "plain_sgd_step", plain_step)
        return draws

    @pytest.mark.parametrize("regime", ["dpsgd", "cadp"])
    def test_kth_private_step_gets_the_kth_draw(self, data_dir, tmp_path, monkeypatch, regime):
        log = []
        draws = self.spy(monkeypatch, log)
        config = self.stream_config(tmp_path, data_dir, regime, seed_noise=11)
        manifest = train(config)
        assert len(manifest["epochs"]) == 2
        kinds = "".join("s" if kind == "private" else "n" for kind, _ in log)
        if regime == "cadp":
            assert "sns" in kinds  # private and plain steps alternate
        assert kinds.count("s") == manifest["private_step_count"] == len(draws) > 1
        stream = np.random.default_rng(np.random.SeedSequence([11]))
        for draw in draws:
            assert draw.dtype == np.float64
            assert draw.tobytes() == stream.standard_normal(draw.size).tobytes()

    @pytest.mark.parametrize("regime, overrides, fail_at, raises", [
        ("dpsgd", {}, None, None),
        ("dpsgd", {"eta": 1e300, "clip_bound": 1.0}, None, TrainingDiverged),
        ("dpsgd", {}, 3, RuntimeError),
        ("nodp", {}, None, None),
    ], ids=["completes", "diverges", "step raises", "nodp"])
    def test_no_thread_outlives_train(self, data_dir, tmp_path, monkeypatch,
                                      regime, overrides, fail_at, raises):
        config = self.stream_config(tmp_path, data_dir, regime, **overrides)
        log = []
        self.spy(monkeypatch, log, fail_at)
        before = threading.active_count()
        with np.errstate(all="ignore"), pytest.raises(raises) if raises else nullcontext():
            train(config)
        assert threading.active_count() == before
        # One noise worker runs during a private run's steps, none during a plain run's.
        assert {count for _, count in log} == {before + (regime != "nodp")}

    @pytest.mark.parametrize("regime", ["dpsgd", "cadp"])
    def test_draws_fill_two_buffers_in_turn(self, data_dir, tmp_path, monkeypatch, regime):
        config = self.stream_config(tmp_path, data_dir, regime)
        fills, real_rng = [], np.random.default_rng

        class Recording:
            """A generator that records the ``out`` of every standard-normal draw."""

            def __init__(self, *args, **kwargs):
                self.rng = real_rng(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, *args, **kwargs):
                fills.append(kwargs.get("out"))
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        draws, private = [], privacy.dp_sgd_step

        def private_step(params, batch, spec, noise, workspace=None):
            draws.append(noise)
            return private(params, batch, spec, noise, workspace)

        monkeypatch.setattr(privacy, "dp_sgd_step", private_step)
        manifest = train(config)
        P = lm.init_params(manifest["vocab_size"], 16, 16, 0).num_params
        # One draw per private step and one made ahead, each into a (P,) buffer.
        assert len(fills) == manifest["private_step_count"] + 1 == len(draws) + 1 > 2
        assert all(isinstance(out, np.ndarray) and out.shape == (P,) for out in fills)
        assert len({out.ctypes.data for out in fills}) == 2
        assert [d.ctypes.data for d in draws] == [out.ctypes.data for out in fills[:-1]]
        assert all(a is not b for a, b in zip(draws, draws[1:]))

    @pytest.mark.parametrize("regime", ["dpsgd", "cadp"])
    def test_each_epoch_workspace_sized_before_its_first_step(self, data_dir, tmp_path,
                                                              monkeypatch, regime):
        config = self.stream_config(tmp_path, data_dir, regime)
        seen = []  # (workspace, {name: buffer}) at every step
        private, plain = privacy.dp_sgd_step, privacy.plain_sgd_step

        def private_step(params, batch, spec, noise, workspace=None):
            seen.append((workspace, dict(workspace.buffers)))
            return private(params, batch, spec, noise, workspace)

        def plain_step(params, batch, eta, workspace=None):
            seen.append((workspace, dict(workspace.buffers)))
            return plain(params, batch, eta, workspace)

        monkeypatch.setattr(privacy, "dp_sgd_step", private_step)
        monkeypatch.setattr(privacy, "plain_sgd_step", plain_step)
        train(config)
        first = {}
        for workspace, buffers in seen:
            assert buffers.keys() == {"z", "h", "delta", "da", "e", "exp"}
            first.setdefault(id(workspace), buffers)
            assert all(buffers[name] is buf for name, buf in first[id(workspace)].items())
        assert len(first) == config["epochs"]

    def test_draw_of_the_wrong_shape_or_dtype_rejected(self):
        params = lm.init_params(5, 2, 2, seed=0)
        batch = [TokenSequence((1, 2, 3), "t")]
        spec = privacy.PrivacySpec(sigma=1.0, clip_bound=0.5, eta=0.1)
        P = params.num_params
        for bad in (np.zeros(P - 1), np.zeros(P + 1), np.zeros((1, P)), np.zeros(P, np.float32),
                    0, np.random.default_rng(0)):
            with pytest.raises(privacy.PrivacyError, match="noise draw must be"):
                privacy.dp_sgd_step(params, batch, spec, bad)


class TestPairedCanaryExposure:
    def test_planted_run_more_exposed_than_control(self, data_dir, tmp_path):
        """Same training with and without the canary: planting raises exposure."""
        reports = {}
        for name, count in (("with", 8), ("without", 0)):
            out = tmp_path / name
            cfg = write_train_config(
                tmp_path / f"{name}.cfg", data_dir, out,
                regime="nodp", epochs=4, eta=0.5,
                canary_slot_alphabet="123456789", canary_slot_count="3",
                canary_fill="452", canary_count=count,
            )
            train(ExperimentConfig.from_file(cfg))
            reports[name] = run_attacks(out / "manifest.json")
        assert reports["with"].exposure > reports["without"].exposure
        assert reports["with"].canary_rank < reports["without"].canary_rank


class TestDetectorTraining:
    def test_train_from_config(self, data_dir, tmp_path):
        out = tmp_path / "det.bin"
        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"seeds = {data_dir['seeds']}",
                    f"negatives = {data_dir['negatives']}",
                    "variants_per_seed = 8",
                    "epochs = 150",
                    "char_dim = 1024",
                    "word_dim = 512",
                    f"out = {out}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        model, info = train_detector_from_config(cfg)
        assert out.exists()
        assert info["measured_gamma"] >= 0.9
        assert info["n_positive"] > 0 and info["n_negative"] > 0

    def test_cadp_pipeline_loads_no_scipy(self, data_dir, tmp_path):
        # Importing scipy.sparse alone adds about 18 MB of resident memory to every run.
        det_cfg = tmp_path / "det.cfg"
        det_cfg.write_text(
            f"seeds = {data_dir['seeds']}\nnegatives = {data_dir['negatives']}\n"
            f"char_dim = 64\nword_dim = 32\nout = {tmp_path / 'det.bin'}\n",
            encoding="utf-8",
        )
        train_cfg = write_train_config(tmp_path / "train.cfg", data_dir, tmp_path / "run",
                                       regime="cadp", detector=tmp_path / "det.bin", delta=0.5,
                                       epochs=1)
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from privlm import experiment, report\n"
            "experiment.train_detector_from_config(sys.argv[1])\n"
            "manifest = experiment.train(experiment.ExperimentConfig.from_file(sys.argv[2]))\n"
            "path = Path(sys.argv[3]) / 'manifest.json'\n"
            "experiment.run_attacks(path)\n"
            "experiment.audit_manifest_context(path, 'my bank security code is 31', 6, 1.0)\n"
            "report.write_report([path], Path(sys.argv[3]) / 'report')\n"
            "import privlm.cli\n"
            "print(manifest['status'], sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(privlm.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, str(det_cfg), str(train_cfg),
                               str(tmp_path / "run")], env=env, capture_output=True, text=True, check=True)
        assert (tmp_path / "det.bin").exists()
        assert (tmp_path / "run" / "report").is_dir()
        assert proc.stdout.strip() == "completed []"

    @pytest.mark.parametrize(
        "char_dim, word_dim, field",
        [(0, 512, "char_dim"), (-3, 512, "char_dim"), (1024, 0, "word_dim"), (1024, -3, "word_dim")],
    )
    def test_dimension_below_one_rejected(self, data_dir, tmp_path, char_dim, word_dim, field):
        out = tmp_path / "det.bin"
        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            f"seeds = {data_dir['seeds']}\nnegatives = {data_dir['negatives']}\n"
            f"epochs = 5\nchar_dim = {char_dim}\nword_dim = {word_dim}\nout = {out}\n",
            encoding="utf-8",
        )
        with pytest.raises(ExperimentError, match=f"{field} must be >= 1"):
            train_detector_from_config(cfg)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("epochs", -5), ("epochs", 0), ("eta", 0), ("eta", -1), ("eta", "nan"),
        ("val_fraction", 0), ("val_fraction", 1), ("seed", -1),
        ("variants_per_seed", -1), ("fpr_cap", -0.1), ("fpr_cap", 1.5), ("fpr_cap", "nan"),
        ("substitution_rate", 1.5),
    ])
    def test_out_of_range_training_value_rejected(self, data_dir, tmp_path, key, value):
        out = tmp_path / "det" / "det.bin"
        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            f"seeds = {data_dir['seeds']}\nnegatives = {data_dir['negatives']}\n"
            f"char_dim = 64\nword_dim = 32\n{key} = {value}\nout = {out}\n",
            encoding="utf-8",
        )
        with pytest.raises(ExperimentError, match="^" + re.escape(f"{cfg}: {key} must be")):
            train_detector_from_config(cfg)
        assert not out.parent.exists()


class TestReport:
    def test_report_outputs_and_determinism(self, data_dir, tmp_path):
        manifests = []
        for regime, extra in (("nodp", {}), ("dpsgd", {})):
            out = tmp_path / regime
            cfg = write_train_config(tmp_path / f"{regime}.cfg", data_dir, out,
                                     regime=regime, epochs=2, **extra)
            train(ExperimentConfig.from_file(cfg))
            run_attacks(out / "manifest.json")
            manifests.append(out / "manifest.json")

        report_dir = tmp_path / "report"
        written = write_report(manifests, report_dir)
        names = {p.name for p in written}
        assert names == {
            "learning_curves.csv", "attack_tradeoff.csv", "learning_curves.svg",
            "exposure_vs_perplexity.svg", "mi_vs_perplexity.svg",
        }
        curves = (report_dir / "learning_curves.csv").read_text().splitlines()
        assert curves[0] == "run_id,regime,epoch,valid_perplexity"
        assert len(curves) == 1 + 2 * 2  # two runs, two epochs each
        tradeoff = (report_dir / "attack_tradeoff.csv").read_text().splitlines()
        assert len(tradeoff) == 3

        first = {p.name: p.read_bytes() for p in written}
        write_report(manifests, report_dir)
        for p in written:
            assert p.read_bytes() == first[p.name]

    def test_single_manifest_single_series(self, data_dir, tmp_path):
        out = tmp_path / "solo"
        cfg = write_train_config(tmp_path / "solo.cfg", data_dir, out, epochs=2)
        train(ExperimentConfig.from_file(cfg))
        report_dir = tmp_path / "solo_report"
        write_report([out / "manifest.json"], report_dir)
        curves = (report_dir / "learning_curves.csv").read_text().splitlines()
        assert len(curves) == 3  # header + two epochs of the single run
        assert len({line.split(",")[0] for line in curves[1:]}) == 1


class TestCli:
    def test_full_cli_flow(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, out, regime="nodp", epochs=1)
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert "completed" in capsys.readouterr().out

        assert cli_main(["attack", "--manifest", str(out / "manifest.json")]) == 0
        assert "exposure" in capsys.readouterr().out

        det_out = tmp_path / "det.bin"
        det_cfg = tmp_path / "det.cfg"
        det_cfg.write_text(
            f"seeds = {data_dir['seeds']}\nnegatives = {data_dir['negatives']}\n"
            f"epochs = 60\nchar_dim = 512\nword_dim = 256\nout = {det_out}\n",
            encoding="utf-8",
        )
        assert cli_main(["detector-train", "--config", str(det_cfg)]) == 0
        assert "gamma" in capsys.readouterr().out

        assert (
            cli_main(
                [
                    "audit-context", "--manifest", str(out / "manifest.json"),
                    "--sentence", "my bank security code is 31",
                    "--index", "6", "--alpha", "1.0",
                ]
            )
            == 0
        )
        assert "minimal context" in capsys.readouterr().out

        report_dir = tmp_path / "rep"
        assert cli_main(["report", "--out", str(report_dir),
                         str(out / "manifest.json")]) == 0
        assert (report_dir / "learning_curves.csv").exists()

    @pytest.mark.parametrize("alpha, code", [("nan", 1), ("-0.5", 1), ("inf", 0)])
    def test_audit_context_alpha_must_not_be_nan_or_negative(self, nodp_run, capsys, alpha,
                                                            code):
        argv = ["audit-context", "--manifest", str(nodp_run[0] / "manifest.json"),
                "--sentence", "my bank security code is 31", "--index", "6", "--alpha", alpha]
        assert cli_main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == "error: alpha must be >= 0\n"
        else:
            assert "minimal context (length 0)" in captured.out

    def test_cli_errors_return_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert cli_main(["train", "--config", str(missing)]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_train_with_bad_secret_pattern_returns_one(self, data_dir, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "c.cfg", data_dir, tmp_path / "run", regime="sdpsgd",
                                 secret_pattern=["(combination|pin"])
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert "secret_pattern" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_cli_train_with_empty_test_split_returns_one(self, tmp_path, capsys):
        corpus = tmp_path / "ten.txt"
        corpus.write_text("".join(f"line {i} of ten\n" for i in range(10)), encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"regime = nodp\ncorpus = {corpus}\ntrain_fraction = 0.99\nepochs = 1\n"
            f"d_emb = 4\nd_hid = 4\nout_dir = {tmp_path / 'run'}\n",
            encoding="utf-8",
        )
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert "empty train or test split" in capsys.readouterr().err
