"""Smoke run of the benchmark harness: each workload's short traced run
checks every op against its stored reference, so a change that moves a
stored force or a ``validate`` status fails here first.  The runs write
to the git-ignored ``.perfbench_out/`` and ``.perfbench_work/``.  The
traced runs hold only the trace lists, so every stored reference of the
force workloads is also replayed in process, by the benchmark's own
checks."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    # run.py pins thread counts in the environment on import
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["screened-drude", "screened-tabulated",
                                      "overlap-light", "cli"])
def test_traced_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload", ["screened-drude", "screened-tabulated",
                                      "overlap-light"])
def test_every_stored_reference_replays(workload, tmp_path):
    # Each seed-1 op with a stored force, once, through the benchmark's
    # Runner: converged, finite and within REFERENCE_RTOL of its force.
    run, workloads = _load("run"), _load("workloads")
    stored = json.loads((PERFBENCH / "references.json").read_text(
        encoding="utf-8"))[workload]["1"]
    wl = workloads.make(workload, 1, tmp_path)
    runner, seen = run.Runner(stored), set()
    with warnings.catch_warnings():
        # closed-form ops outside their regime warn, as the benchmark's do
        warnings.simplefilter("ignore", UserWarning)
        for op in chain(wl.trace_ops, chain.from_iterable(wl.rounds)):
            if op.key in stored and op.key not in seen:
                seen.add(op.key)
                runner.run(op)
                if len(seen) == len(stored):
                    break
    assert seen == set(stored)
    assert runner.failures == []
