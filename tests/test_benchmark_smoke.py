"""Smoke run of the benchmark harness: each workload's short traced run
checks every op against its stored reference, so a change that moves a
stored force or a ``validate`` status fails here first.  The runs write
to the git-ignored ``.perfbench_out/`` and ``.perfbench_work/``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["screened-drude", "screened-tabulated",
                                      "overlap-light", "cli"])
def test_traced_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
