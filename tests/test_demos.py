"""Smoke test: the demos the README points to run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# presheaves.py is left out: its exhaustive presheaf and full-fidelity checks
# take about 55 s on a 2-core machine, near this test's 60 s timeout; the
# same code paths run in test_dpsh and the criterion-7 acceptance test.
DEMOS = ["chain_rule_families.py", "derivatives.py", "kleisli.py",
         "law_checking.py", "modality.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
