"""Demos 01-05 run to completion against the package in src/ and leave no
temporary directory behind; the README's library imports resolve and its
config tables match the schemas.

06_full_pipeline.py trains four desk-scale models and takes minutes, so it
is left out.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from privlm.experiment import DETECTOR_SCHEMA, TRAIN_SCHEMA

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
