"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints exactly the
   metric names and units ``BENCHMARK.json`` lists, passes every op, and
   its table names all six end-to-end metrics.
2. The traced counts repeat exactly: the gold ``keep`` op makes 331
   inner integrals; ``friction.kernel_repeat_share`` is 0 on
   screened-drude and above 0 on cli.
3. One stored reference perturbed by 1e-3 makes the run report
   ``failed_frac`` above 0 and exit nonzero.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark exits nonzero without printing a result.
Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

ROOT = run.ROOT
TABLE_NAMES = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "failed_frac", "peak_rss_mb")


def bench(*args, cwd=ROOT, script=None):
    script = script or (run.HERE / "run.py")
    proc = subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    seed = run.DEFAULT_SEED

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, e2e), (1, layers)):
            proc = bench("--workload", wl, "--seed", seed, "--seconds", 0.1, "--trace", trace)
            result = last_json(proc)
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{wl} trace {trace}: exit {proc.returncode}, {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != names:
                problems.append(f"{wl} trace {trace}: metric names or units differ from "
                                f"BENCHMARK.json: {sorted(set(units.items()) ^ set(names.items()))}")
            if trace == 0 and not all(f"  {n} " in proc.stdout for n in TABLE_NAMES):
                problems.append(f"{wl}: table lacks one of {TABLE_NAMES}")
            if trace == 1:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                share = m["friction.kernel_repeat_share"]
                if wl == "screened-drude" and share != 0.0:
                    problems.append(f"kernel_repeat_share {share} on screened-drude, expected 0")
                if wl == "cli" and not share > 0.0:
                    problems.append(f"kernel_repeat_share {share} on cli, expected > 0")
        print(f"smoke {wl}: done", file=sys.stderr)

    summary = json.loads((ROOT / ".perfbench_out" / f"trace-screened-drude-seed{seed}.json")
                         .read_text(encoding="utf-8"))
    gold = summary["per_op"]["0"]["friction.h0_dense_at_u.calls"]
    if summary["ops"][0] != "gold" or gold != 331:
        problems.append(f"gold keep op made {gold} inner integrals, expected 331")

    scratch = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        refs = json.loads((run.HERE / "references.json").read_text(encoding="utf-8"))
        stored = refs["screened-drude"][str(seed)]
        stored["s0"] *= 1.0 + 1e-3
        perturbed = scratch / "references.json"
        perturbed.write_text(json.dumps(refs), encoding="utf-8")
        proc = bench("--workload", "screened-drude", "--seed", seed, "--seconds", 0.1,
                     "--trace", 0, "--references", perturbed)
        result = last_json(proc)
        if proc.returncode == 0 or result["correct"] or not result["failed"] \
                or "failed_frac  0 " in proc.stdout:
            problems.append(f"perturbed reference not caught: exit {proc.returncode}, {result}")
        print("perturbed reference: done", file=sys.stderr)

        bare = scratch / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "cli", "--seed", seed, "--seconds", 1, "--trace", 0,
                     cwd=bare, script=bare / run.HERE.name / "run.py")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print("bare directory: done", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
