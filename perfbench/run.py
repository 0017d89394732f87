"""casfric benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One single-threaded process runs ops back to back (a closed
loop with one client) for S seconds of op time, in whole rounds of the
workload's op mix, checks every op's output, and prints a table for
people followed by one JSON object as the last line of standard output.

Times are CPU time of the one benchmark process (user + system, from
``time.process_time``).  The ops are single-threaded and compute-bound,
so on an idle machine this equals wall-clock time; on a shared host it
leaves out the time the process waits for a CPU, which measures the
host's other tenants, not the program.  Throughput is passed ops per
second of op time over the whole run; latency the median over ops.

The reported times are also scaled to the machine the benchmark was
defined on.  Between ops the run spends about 8 % of its op time on a
fixed calibration slice (see ``calibration_slice``); every time is
multiplied by CALIBRATION_REF_S over the mean time of the slices run
within CALIBRATION_WINDOW_S of the op (the mean, not the median: an op's
time sums the host's slow and fast moments alike).  A host whose shared caches and memory are
busier slows the slice and the ops alike, so the scaled times of two
runs of the same code agree far better than their raw CPU times.  The
table prints the raw CPU times and the factor beside them.

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload's
fixed trace list once untraced and once under the span tracer and
reports the per-layer metrics, writing the spans to
``.perfbench_out/``.  The exit code is 0 only when every op passed its
check; 2 when the package cannot be loaded.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread, default quadrature tolerance.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CASFRIC_QUAD_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
SETUP_SLICES = 10
# A run stops after this many wall-clock seconds per second of op time
# even if its op time has not reached --seconds: on a host so loaded that
# the process gets a small share of a CPU, the run still ends in time.
WALL_PER_OP_SECOND = 4.0
# CPU seconds of one calibration slice on the machine the benchmark was
# defined on (a shared 2-core x86-64 VM, Python 3.11, numpy 2.4), and the
# share of op time spent on slices.
CALIBRATION_REF_S = 0.006
CALIBRATION_SHARE = 0.08
CALIBRATION_ITERS = 300
CALIBRATION_WINDOW_S = 0.5
# At least one slice follows an op that starts this long after the last
# slice, so that every op has a slice within CALIBRATION_WINDOW_S.
CALIBRATION_GAP_S = 0.05
REFERENCE_RTOL = 1e-6
TAIL_MIN_OPS = 20
TAIL_BEYOND = 10


def load_package():
    """Import ``casfric`` from this checkout's ``src``; exit 2 otherwise."""
    if not (SRC / "casfric" / "__init__.py").is_file():
        print(f"error: no casfric package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    try:
        import casfric.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import casfric: {exc}", file=sys.stderr)
        sys.exit(2)
    import casfric
    if Path(casfric.__file__).resolve().parent != (SRC / "casfric").resolve():
        print(f"error: casfric loaded from {casfric.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def workdir(tag: str) -> Path:
    path = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def measure_setup(workload: str, seed: int) -> tuple:
    """CPU time of a fresh interpreter from its start until it has
    imported ``casfric.cli`` and generated, written and loaded the
    workload's seeded inputs, median over SETUP_REPEATS children.  Each
    child prints its own process_time when done, so its exit is not
    timed, and then the mean of SETUP_SLICES calibration slices, by which
    its time is scaled.  Returns the scaled and the raw median."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        cpu, slice_s = map(float, proc.stdout.split()[-2:])
        raw.append(cpu)
        scaled.append(cpu * CALIBRATION_REF_S / slice_s)
    return statistics.median(scaled), statistics.median(raw)


def calibration_slice() -> float:
    """CPU seconds of a fixed slice of the kinds of work the ops do: a
    Python loop over numpy expressions on a 15-point array (a quadrature
    panel), plain float arithmetic and dict stores in Python, and numpy
    over arrays of 50 000 points.  The three parts react differently to
    a busy host; their sum follows the ops better than any one alone.
    The large arrays are allocated before the clock starts, so the slice
    does not time the allocator, whose cost depends on what the process
    did before."""
    import numpy as np

    panel = np.linspace(0.1, 3.0, 15)
    grid = np.linspace(0.1, 3.0, 50_000)
    buf = np.empty_like(grid)
    acc = 0.0
    t0 = process_time()
    for i in range(CALIBRATION_ITERS):
        y = np.exp(-panel * (1.0 + 1e-4 * i)) / (1.0 + panel * panel)
        acc += float(y.sum())
    table = {}
    for i in range(20 * CALIBRATION_ITERS):
        acc += math.exp(-i * 1e-5) / (1.0 + i * i * 1e-8) + (i % 7) * 0.5
        table[i % 1000] = acc
    for i in range(CALIBRATION_ITERS // 12):
        np.multiply(grid, -(1.0 + 1e-3 * i), out=buf)
        np.exp(buf, out=buf)
        np.multiply(buf, grid, out=buf)
        acc += float(buf.sum())
    elapsed = process_time() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration slice gave a non-finite sum")
    return elapsed


class Runner:
    """Runs ops, times them, checks them against stored references.

    With ``calibrate``, calibration slices follow the ops, so that they
    take CALIBRATION_SHARE of the op time or more, and ``scaled()`` gives
    each op's time in reference seconds."""

    def __init__(self, refs: dict, tracer=None, calibrate: bool = False):
        self.refs = refs
        self.tracer = tracer
        self.calibrate = calibrate
        self.slices: list[tuple] = []  # (wall-clock start, CPU seconds)
        self._slice_debt = 0.0
        self.latencies: list[float] = []
        self.spans: list[tuple] = []  # wall-clock start and end of each op
        self.attempted = 0
        self.failures: list[str] = []
        self.keep = 0
        self.tabulated = 0

    def run(self, op) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.attempted
            tracer.active = True
        error = None
        out = None
        w0 = perf_counter()
        t0 = process_time()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = process_time()
        self.spans.append((w0, perf_counter()))
        if tracer is not None:
            tracer.active = False
        self.attempted += 1
        self.keep += op.keep
        self.tabulated += op.tabulated
        self.latencies.append(t1 - t0)
        if self.calibrate:
            # Right after the op, before its check: the slices then see
            # the host as the op saw it.
            self._slice_debt += CALIBRATION_SHARE * (t1 - t0)
            if self.slices and self.slices[-1][0] < w0 - CALIBRATION_GAP_S:
                self._slice_debt = max(self._slice_debt, 1e-9)
            while self._slice_debt > 0.0:
                start = perf_counter()
                self.slices.append((start, calibration_slice()))
                self._slice_debt -= self.slices[-1][1]
        if error is None:
            value, error = op.check(out)
            ref = self.refs.get(op.key)
            if error is None and ref is not None and value is not None:
                error = compare(value, ref)
        if error is not None:
            self.failures.append(f"{op.key} ({op.kind}): {error}")

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)

    def scaled(self) -> list[float]:
        """Each op's CPU time scaled by CALIBRATION_REF_S over the mean
        time of the slices that started within CALIBRATION_WINDOW_S of the
        op (the nearest slice if none did)."""
        starts = [start for start, _ in self.slices]
        out = []
        for latency, (w0, w1) in zip(self.latencies, self.spans):
            lo = bisect_left(starts, w0 - CALIBRATION_WINDOW_S)
            hi = bisect_right(starts, w1 + CALIBRATION_WINDOW_S)
            if lo == hi:
                lo = min(lo, len(starts) - 1)
                hi = lo + 1
            mean = statistics.fmean(t for _, t in self.slices[lo:hi])
            out.append(latency * CALIBRATION_REF_S / mean)
        return out


def compare(value, ref) -> str | None:
    values = value if isinstance(value, list) else [value]
    refs = ref if isinstance(ref, list) else [ref]
    if len(values) != len(refs):
        return f"{len(values)} values, reference has {len(refs)}"
    for v, r in zip(values, refs):
        if not abs(v - r) <= REFERENCE_RTOL * abs(r):
            return f"value {v!r} differs from reference {r!r} by more than {REFERENCE_RTOL:g}"
    return None


def tail(latencies: list[float]) -> tuple | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def timed(wl, seconds: float, refs: dict) -> Runner:
    """Whole rounds until the summed op time reaches ``seconds``."""
    runner = Runner(refs, calibrate=True)
    deadline = perf_counter() + WALL_PER_OP_SECOND * seconds
    for ops in wl.rounds:
        if runner.busy >= seconds or perf_counter() > deadline:
            break
        for op in ops:
            runner.run(op)
    return runner


def traced(wl, refs: dict, out_dir: Path, name: str, seed: int) -> tuple:
    from spans import Tracer

    plain = Runner(refs)
    for op in wl.trace_ops:
        plain.run(op)
    tracer = Tracer()
    tracer.install()
    try:
        runner = Runner(refs, tracer)
        for op in wl.trace_ops:
            runner.run(op)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (runner.busy - plain.busy) / plain.busy
    metrics["workload.keep_share"] = runner.keep / runner.attempted
    metrics["workload.tabulated_share"] = runner.tabulated / runner.attempted
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"trace-{name}-seed{seed}", {
        "workload": name, "seed": seed,
        "ops": [op.key for op in wl.trace_ops],
        "untraced_s": plain.busy, "traced_s": runner.busy,
        "metrics": metrics, "per_op": tracer.per_op()})
    plain.failures += runner.failures
    plain.attempted += runner.attempted
    return plain, metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=HERE / "references.json",
                        help="stored reference forces (default: the checked-in file)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    work = workdir(args.workload)
    try:
        if args.setup_only:
            workloads.make(args.workload, args.seed, work)
            cpu = process_time()
            slices = [calibration_slice() for _ in range(SETUP_SLICES)]
            print(repr(cpu), repr(statistics.fmean(slices)))
            return 0
        refs = {}
        if args.references.is_file():
            stored = json.loads(args.references.read_text(encoding="utf-8"))
            refs = stored.get(args.workload, {}).get(str(args.seed), {})
        if args.trace:
            wl = workloads.make(args.workload, args.seed, work)
            runner, metrics = traced(wl, refs, ROOT / ".perfbench_out",
                                     args.workload, args.seed)
            units = {k: unit_of(k) for k in metrics}
        else:
            setup_s, setup_raw = measure_setup(args.workload, args.seed)
            wl = workloads.make(args.workload, args.seed, work)
            runner = timed(wl, args.seconds, refs)
            scaled = runner.scaled()
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": (runner.attempted - len(runner.failures)) / math.fsum(scaled),
                "op_p50_s": statistics.median(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                     "peak_rss_mb": "MB"}
            report(args, runner, scaled, metrics, units, setup_raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    correct = not runner.failures
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


def report(args, runner: Runner, scaled: list, metrics: dict, units: dict,
           setup_raw: float) -> None:
    """The table for people: all six end-to-end metrics with their units,
    the raw CPU times beside the scaled ones, and the input-property
    shares of the ops run."""
    n = runner.attempted
    speed = runner.busy / math.fsum(scaled)
    print(f"workload {args.workload}  seed {args.seed}  ops {n}  "
          f"op time {runner.busy:.3f} s  speed factor {speed:.4f} "
          f"({len(runner.slices)} calibration slices)")
    for key in ("setup_s", "ops_per_s", "op_p50_s"):
        raw = {"setup_s": setup_raw,
               "ops_per_s": (n - len(runner.failures)) / runner.busy,
               "op_p50_s": statistics.median(runner.latencies)}[key]
        print(f"  {key:<12} {metrics[key]:.6g} {units[key]}  (raw CPU {raw:.6g})")
    t, t_raw = tail(scaled), tail(runner.latencies)
    if t is None:
        print(f"  {'op_tail_s':<12} not reported: {n} ops < {TAIL_MIN_OPS}")
    else:
        print(f"  {'op_tail_s':<12} {t[0]:.6g} s  (p{t[1]:.1f} of {t[2]} ops; "
              f"raw CPU {t_raw[0]:.6g})")
    print(f"  {'failed_frac':<12} {len(runner.failures) / n:.6g} frac "
          f"({len(runner.failures)} of {n})")
    print(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.6g} MB")
    print(f"  shares: keep {runner.keep / n:.3f}  tabulated {runner.tabulated / n:.3f}")


def unit_of(metric: str) -> str:
    if metric.endswith(("self_s", "busy_s")):
        return "s"
    if metric.endswith(("_share", "_frac")):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
