"""Smoke test: the demos run against the current public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 06 runs the whole benchmark pipeline (~18 s) and is left out
DEMOS = ["01_instances_and_datasets.py", "02_coverage_and_evaluation.py",
         "03_exact_oracle_and_heuristics.py", "04_milp_formulations.py",
         "05_growth_function_baseline.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
