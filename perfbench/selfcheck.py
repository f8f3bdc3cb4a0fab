"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload, in fresh processes with short runs on seeds 1 and 2:

  - `failed` is 0 and `correct` holds on both seeds, untraced and
    traced (a traced run also checks that every job's stdout is
    byte-identical with tracing on and off, and that counts repeat between
    its own traced passes);
  - every per-layer count is identical between the traced runs of two
    processes given the same seed.

Exits 1 and names the check when one fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
COUNTS = tracer.COUNT_METRICS + ("exactlinalg.density",)
SEEDS = (1, 2)


def bench(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    failures = []
    for workload in workloads.WORKLOADS:
        counts = []
        for seed in SEEDS:
            for trace in (0, 1):
                result = bench(workload, seed, trace)
                label = f"{workload} seed {seed} trace {trace}"
                print(f"{label}: correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}", flush=True)
                if not result["correct"] or result["failed"]:
                    failures.append(f"{label} is not correct")
                if trace:
                    counts.append({k: result["metrics"][k]["value"] for k in COUNTS})
        again = bench(workload, SEEDS[0], 1)
        if {k: again["metrics"][k]["value"] for k in COUNTS} != counts[0]:
            failures.append(f"{workload}: counts differ between two runs of seed {SEEDS[0]}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("all self-checks pass" if not failures else f"{len(failures)} self-checks fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
