"""Smoke tests: the fast demos run to completion against the public API."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoeffect

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["03_dimension_tradeoff.py", "04_text_featurization.py"])
def test_demo_runs(demo):
    src = str(Path(isoeffect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
