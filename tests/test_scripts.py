"""The script the README documents, run as a user runs it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=False, env=env, cwd=ROOT
    )


def test_crosscheck_corpus_finds_no_disagreement():
    proc = _run("scripts/crosscheck_corpus.py", "--seed", "1", "--count", "60")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^60 pairs generated .*: 60 agree, 0 disagree, 0 skipped$",
                     proc.stdout, re.M), proc.stdout
