"""Every narrative demo runs to completion and writes nothing into the
source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tweetcorpus

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# caches that importing and running Python may create; not source files
_CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree() -> dict:
    return {path: path.stat().st_mtime_ns for path in ROOT.rglob("*")
            if path.is_file() and not _CACHES & set(path.relative_to(ROOT).parts)}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(tweetcorpus.__file__).resolve().parent.parent)
    before = _tree()
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert _tree() == before
