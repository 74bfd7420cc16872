"""Pin the output digests that bench/run.py checks into bench/golden.json.

    python3 bench/pin_golden.py

Runs every op of every workload once at the default seed, plus chevalley
and fit on the four shipped scenarios, and records the sha256 of each op's
stdout and --out JSON.  Refuses to pin when any op fails its checks.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main():
    cli_main = run.import_cli()
    work = os.path.join(run.BENCH, ".work", f"pin-{os.getpid()}")
    os.makedirs(work)
    pinned = {"default_seed": run.DEFAULT_SEED}
    try:
        groups = {name: workloads.build(name, run.DEFAULT_SEED, run.ROOT,
                                        work)
                  for name in workloads.WORKLOADS}
        groups["shipped"] = workloads.shipped_ops(run.ROOT)
        for name, ops in groups.items():
            runner = run.Runner(cli_main, work, {})
            for op in ops:
                runner.run(op)
            if runner.failures:
                for op_id, problem in runner.failures:
                    print(f"FAILED {op_id}: {problem}", file=sys.stderr)
                return 1
            pinned[name] = runner.first
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
