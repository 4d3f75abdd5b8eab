"""Smoke test: the quick demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The branch-and-bound demo (04) takes about 10 s and is left out.
QUICK_DEMOS = sorted(ROOT.glob("demos/0[1-3]_*.py"))


@pytest.mark.parametrize("script", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 3
