"""Demos 01-05 run to completion against the package in src/ and leave no
temporary directory behind; the README's library imports resolve.

06_full_pipeline.py trains four desk-scale models and takes minutes, so it
is left out.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
