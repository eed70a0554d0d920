"""Demos 01-05 run to completion against the package in src/ and leave no
temporary directory behind; the README's library imports resolve, its
config tables match the schemas and its run directory layout matches a run.

06_full_pipeline.py trains four desk-scale models and takes minutes, so it
is left out.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from privlm import synth
from privlm.attacks import AttackReport
from privlm.experiment import (
    DETECTOR_SCHEMA,
    TRAIN_SCHEMA,
    ExperimentConfig,
    run_attacks,
    train,
)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_corpus_and_canaries.py",
    "02_language_model.py",
    "03_private_updates.py",
    "04_sensitivity_detector.py",
    "05_attacks.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("demo0*")), "demo left its temporary directory behind"


def test_readme_library_imports_resolve():
    """The README's ``from privlm import (...)`` block names only public names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^from privlm import \(.*?^\)", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})


def _readme_table(readme: str, heading: str) -> list[tuple[str, str]]:
    """(key, default cell) pairs of the table under the line that starts with ``heading``."""
    lines = readme.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    table = []
    for row in rows[2:]:  # past the header and the |---| rule
        keys, default = row.split("|")[1:3]
        default = default.strip()
        quoted = re.fullmatch(r"`(.*)`", default)
        for key in re.findall(r"`([^`]+)`", keys):
            table.append((key, quoted.group(1) if quoted else default))
    return table


@pytest.mark.parametrize("heading, schema", [
    ("### Train config keys", TRAIN_SCHEMA),
    ("### Detector config keys", DETECTOR_SCHEMA),
])
def test_readme_config_tables_match_the_schemas(heading, schema):
    """Each table lists every key once with its default: ``required`` when it
    has none, ``none`` for a repeatable key."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    expected = {
        key: "required" if spec.default is None else "none" if spec.repeatable else spec.default
        for key, spec in schema.items()
    }
    assert sorted(_readme_table(readme, heading)) == sorted(expected.items())


def _readme_run_layout(readme: str) -> dict[str, str]:
    """{entry: its description} of the block under "## Run directory layout"."""
    block = readme.split("## Run directory layout", 1)[1].split("```")[1]
    entries: dict[str, str] = {}
    for line in block.splitlines():
        entry = re.match(r"  (\S+) +(.*)", line)  # continuation lines are indented further
        if entry:
            name = entry.group(1)
            entries[name] = entry.group(2)
        elif line.startswith("   "):
            entries[name] += " " + line.strip()
    return entries


def test_readme_run_directory_layout_matches_a_run(tmp_path):
    """A trained and attacked canary run holds exactly the README's listed files, and
    the listed ``attacks.csv`` columns are ``AttackReport.CSV_HEADER``'s."""
    data = synth.generate_desk_corpus(n_lines=120, sensitive_fraction=0.1, seed=3,
                                      n_neutral_sample=10)
    paths = synth.write_desk_dataset(data, tmp_path / "data")
    run_dir = tmp_path / "run"
    train(ExperimentConfig({
        "regime": "nodp", "corpus": str(paths["corpus"]), "labels": str(paths["labels"]),
        "canary_prefix": "my code is", "canary_slot_alphabet": "12", "canary_slot_count": 1,
        "canary_fill": "1", "canary_count": 2, "d_emb": 4, "d_hid": 4, "epochs": 1,
        "mi_n": 2, "out_dir": str(run_dir),
    }))
    run_attacks(run_dir / "manifest.json")

    layout = _readme_run_layout((ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(layout) == sorted(p.name + "/" * p.is_dir() for p in run_dir.iterdir())
    assert [p.name for p in (run_dir / "checkpoints").iterdir()] == ["epoch_001.ckpt"]
    assert "epoch_NNN.ckpt" in layout["checkpoints/"]
    columns = layout["attacks.csv"].split("columns:")[1].split(",")
    assert [c.strip() for c in columns] == AttackReport.CSV_HEADER.split(",")
