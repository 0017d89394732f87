"""Regenerate ``references.json``: the checked output of the first ops of
every workload for the default seed.

    python3 perfbench/make_references.py

Run it only at a commit whose forces are trusted; the benchmark fails
any op whose force moves more than 1e-6 relative from its reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# Rounds stored per workload: more than a 20 s run reached at the commit
# that stored them, except overlap-light, whose first 5000 ops are about
# half of such a run.
ROUNDS = {"screened-drude": 8, "screened-tabulated": 12, "overlap-light": 250, "cli": 16}


def main() -> int:
    run.load_package()
    import workloads

    refs = {}
    for name in workloads.WORKLOADS:
        work = run.workdir(f"refs-{name}")
        try:
            wl = workloads.make(name, run.DEFAULT_SEED, work)
            ops = list(wl.trace_ops)
            for _, round_ops in zip(range(ROUNDS[name]), wl.rounds):
                ops += round_ops
            values = {}
            for op in ops:
                if op.key in values:
                    continue
                value, error = op.check(op.call())
                if error is not None:
                    print(f"{name} {op.key}: {error}", file=sys.stderr)
                    return 1
                if value is not None:
                    values[op.key] = value
        finally:
            shutil.rmtree(work, ignore_errors=True)
        refs[name] = {str(run.DEFAULT_SEED): values}
        print(f"{name}: {len(values)} references", file=sys.stderr)
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=0) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
