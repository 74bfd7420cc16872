"""chevkit benchmark: one closed-loop caller driving chevkit.cli.main.

    python3 bench/run.py --workload table --seed 1 --seconds 30 --trace 0

An op is one CLI verb on one scenario that bench/workloads.py generates from
the seed; a pass runs every op of the workload once, in order.  Passes
repeat until the next one would overrun --seconds, and at least until the
latency sample has MIN_SAMPLES ops (so p90 has ten samples above it).  The
last line of stdout is the JSON result; the lines before it report the
environment, the input size of every op and every metric with its unit.

--trace 0 reports the end-to-end metrics with no instrumentation.
--trace 1 alternates untraced and traced passes (bench/tracer.py) and
reports the per-layer metrics as means per traced pass.

Every op's stdout and --out JSON must be byte-identical on every pass,
traced or not; at the default seed they must match bench/golden.json.  The
table workload also replays chevalley and fit on the four shipped scenarios
against their pinned digests.  A failed op counts toward fail_frac, which
the result carries as "failed"/"attempted" and as ok_frac = 1 - fail_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")

DEFAULT_SEED = 0
MIN_SAMPLES = 100
MIN_PASSES = 3
SETUP_RUNS = 15
WORK_UNIT = {
    "table": "threshold rows (tuple, k)",
    "verify": "checked cells (threshold route + membership route)",
    "probe": "residual orders (3 per product trial, 1 per nu polynomial)",
}

# runs in a fresh interpreter: import chevkit, load every scenario, then
# time the host-speed kernel
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chevkit
from chevkit.scenario import load_scenario
for path in sys.argv[3:]:
    load_scenario(path)
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import hostspeed
print(repr(setup), repr(sum(hostspeed.kernel_s() for _ in range(3)) / 3))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def digest(stdout, out_bytes):
    return [hashlib.sha256(stdout.encode()).hexdigest(),
            hashlib.sha256(out_bytes).hexdigest()]


class Runner:
    """Runs ops in-process and judges each execution."""

    def __init__(self, main, work, golden):
        self.main = main
        self.work = work
        self.golden = golden
        self.first = {}       # op id -> digest of its first execution
        self.verdicts = {}    # (op id, digest) -> problems
        self.failures = []    # (op id, first problem)
        self.attempted = 0

    def run(self, op):
        """Execute op once; return (latency in s, succeeded)."""
        out_path = os.path.join(self.work, op.id + ".out.json")
        if os.path.exists(out_path):
            os.remove(out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.main(op.argv + ["--out", out_path])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            code = None
            error = traceback.format_exc().strip().splitlines()[-1]
        latency = time.perf_counter() - start
        self.attempted += 1
        problems = self._judge(op, code, stdout.getvalue(),
                               stderr.getvalue(), out_path, error)
        if problems:
            self.failures.append((op.id, problems[0]))
        return latency, not problems

    def _judge(self, op, code, stdout, stderr, out_path, error):
        if error is not None:
            return [f"raised {error}"]
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[:200]}"]
        try:
            with open(out_path, "rb") as fh:
                out_bytes = fh.read()
        except OSError:
            return ["wrote no --out file"]
        seen = digest(stdout, out_bytes)
        if self.first.setdefault(op.id, seen) != seen:
            return ["output bytes differ from the op's first execution"]
        pinned = self.golden.get(op.id)
        if pinned is not None and pinned != seen:
            return ["output digest differs from bench/golden.json"]
        key = (op.id, seen[0], seen[1])
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(stdout, json.loads(out_bytes))
            except (KeyError, TypeError, ValueError) as exc:
                self.verdicts[key] = [f"malformed output: {exc!r}"]
        return self.verdicts[key]


def load_golden(workload, seed):
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            pinned = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read the pinned digests: {exc}") from None
    golden = dict(pinned["shipped"])
    if seed == pinned["default_seed"]:
        golden.update(pinned[workload])
    return golden


def measure_setup(paths):
    """Median time of import + load_scenario in fresh interpreters, each
    scaled by the host-speed kernel timed in the same interpreter."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, SRC, BENCH, *paths],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError("set-up interpreter failed: "
                             + proc.stderr.strip()[-300:])
        if i:  # the first run writes the bytecode caches
            setup, kernel = map(float, proc.stdout.split()[-2:])
            samples.append(setup * hostspeed.NOMINAL_S / kernel)
    return statistics.median(samples)


def run_passes(runner, ops, seconds, traced=None):
    """Closed loop over whole passes.  With a tracer, passes alternate
    untraced / traced and stop after a pair.  The host-speed kernel runs
    before every op and after the last; a pass's times are scaled by the
    mean of its kernel times.  Returns per-pass records (units, scaled wall
    seconds, traced) and every op's scaled latency."""
    passes, latencies = [], []
    start = time.perf_counter()
    while True:
        on = traced is not None and len(passes) % 2 == 1
        units, raw, kernel = 0, [], []
        with traced if on else contextlib.nullcontext():
            for op in ops:
                kernel.append(hostspeed.kernel_s())
                latency, ok = runner.run(op)
                raw.append(latency)
                units += op.units if ok else 0
        kernel.append(hostspeed.kernel_s())
        scale = hostspeed.NOMINAL_S / statistics.fmean(kernel)
        if on:
            traced.close_pass(scale)
        latencies += [latency * scale for latency in raw]
        passes.append((units, sum(raw) * scale, on))
        elapsed = time.perf_counter() - start
        done = (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds)
        if traced is None:
            done = done and len(latencies) >= MIN_SAMPLES
        else:
            done = done and len(passes) % 2 == 0
        if done:
            return passes, latencies


def nearest_rank(sorted_values, q):
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_ops(ops, latencies):
    per_op = {}
    for i, lat in enumerate(latencies):
        per_op.setdefault(ops[i % len(ops)].id, []).append(lat)
    print("op                         units  est_cells  height  median_s")
    for op in ops:
        print(f"{op.id:26s} {op.units:6d} {op.cells:10d} {op.height:7d}"
              f"  {statistics.median(per_op[op.id]):.4f}")


def end_to_end(args, runner, ops):
    paths = sorted({op.scenario for op in ops})
    setup_s = measure_setup(paths)
    passes, latencies = run_passes(runner, ops, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print_ops(ops, latencies)
    ordered = sorted(latencies)
    p50, _ = nearest_rank(ordered, 0.5)
    p90, above = nearest_rank(ordered, 0.9)
    print(f"passes {len(passes)}, {len(ops)} ops per pass,"
          f" {len(latencies)} latency samples, {above} above p90;"
          f" work unit: {WORK_UNIT[args.workload]},"
          f" {passes[0][0]} per pass")
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (statistics.median(u / w for u, w, _ in passes),
                       "1/s"),
        "op_p50_s": (p50, "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(args, runner, ops):
    from tracer import Tracer

    tracer = Tracer()
    passes, latencies = run_passes(runner, ops, args.seconds, tracer)
    traced = [w for _, w, on in passes if on]
    untraced = [w for _, w, on in passes if not on]
    print_ops(ops, latencies)
    print(f"passes {len(passes)} ({len(traced)} traced), {len(ops)} ops"
          " per pass; per-layer metrics are means per traced pass")
    return tracer.metrics(len(traced), statistics.fmean(traced),
                          statistics.fmean(untraced))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "chevkit", "__init__.py")):
        raise BenchError(f"no chevkit sources under {SRC}")
    sys.path.insert(0, SRC)
    from chevkit.cli import main
    return main


def main(argv=None):
    args = parse_args(argv)
    try:
        cli_main = import_cli()
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    work = os.path.join(BENCH, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops = workloads.build(args.workload, args.seed, ROOT, work)
        runner = Runner(cli_main, work, load_golden(args.workload, args.seed))
        print(f"chevkit benchmark: workload {args.workload}, seed"
              f" {args.seed}, {args.seconds:g} s, trace {args.trace}")
        print(f"python {platform.python_version()},"
              f" nproc {len(os.sched_getaffinity(0))}, cpu {cpu_model()}")
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args, runner, ops)
        if args.workload == "table":
            for op in workloads.shipped_ops(ROOT):
                runner.run(op)
        failed = len(runner.failures)
        if not args.trace:
            metrics["ok_frac"] = (1.0 - failed / runner.attempted, "frac")
        for op_id, problem in runner.failures[:10]:
            print(f"FAILED {op_id}: {problem}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
