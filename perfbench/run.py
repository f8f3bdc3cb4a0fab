"""Benchmark of the `algebroid` command line, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One client drives `algebroid.cli.run` in this process in a closed
loop: each command starts after the previous one returns.  A pass is one
run of the workload's job list.  Every job's exit code and stable payload
fields (Betti vectors, Euler characteristics, per-N Betti vectors, Kunneth
`ok`, Hopf flags, symbol `exact`) are checked against `goldens.json`; a job
that differs, or raises, is failed.  Inputs are generated from the seed by
`workloads.py` into `.perfbench/` at the checkout root.

Workloads, each chosen to load a different layer (see BENCHMARK.json):

    ce-adjoint       adjoint CE complexes; liealg assembly dominates
    window-sweep     circle sweeps; window assembly and the sweep's pool
    kunneth-product  an algebroid x algebra product; elimination dominates
    catalog-mix      many small commands; per-command overhead, small dense ops

`--trace 0` prints the end-to-end metrics, measured with tracing off.
Their times are wall times scaled to a reference host speed by
`speed.py`: a shared host's speed swings by up to two times within seconds,
and unscaled times of the same code spread by a quarter from one run to the
next.  The unscaled times are printed on the human-readable lines.

    wall_s          median time of one timed pass
    job_ms.p50      median latency of one command over all timed passes
    cochains_per_s  sum of dim C^p over the complexes of one pass / wall_s
    setup_s         median cold start of `python -m algebroid.cli catalog`
                    in a subprocess (interpreter, import, argparse)
    peak_rss_mb     peak RSS of this process after its first pass, which is
                    untimed: a fresh interpreter that has imported the
                    package, written the inputs and run one pass

The human-readable lines before the result also give `job_ms.p90` where at
least ten samples lie beyond it, and `failed_frac`, which the result line
carries as `failed` / `attempted`.

`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of `tracer.py` for one traced pass (times are medians over the
traced passes), plus `trace.overhead_frac`, the traced over the untraced
median pass time minus one.  It also checks that every job's stdout is
byte-identical with tracing on and off and that every count repeats
between traced passes.  The spans of the first traced pass are written
as JSON lines to `.perfbench/trace-<workload>-seed<seed>.jsonl`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `ALGEBROID_THREADS` is removed from the
environment, so the sweep pool runs at its default size.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import speed
import tracer as tracing
import workloads

JSON_MARKER = "== json ==\n"
SETUP_RUNS = 25
HOPF_FLAGS = ("counit", "coassociative", "algebra_morphism", "antipode", "ok")
STABLE_FIELDS = ("betti", "euler", "per_N", "betti_product", "ok", "h_structure_ok", "exact")


def stable_fields(payload: dict) -> dict:
    """The payload fields that the goldens pin."""
    out = {k: payload[k] for k in STABLE_FIELDS if k in payload}
    if "hopf" in payload:
        hopf = payload["hopf"]
        out["hopf"] = None if hopf is None else {k: hopf[k] for k in HOPF_FLAGS}
    return out


def parse_output(stdout: str):
    """(payload dict, or None when stdout is not a report)."""
    _, marker, tail = stdout.partition(JSON_MARKER)
    if not marker:
        return None
    try:
        return json.loads(tail)
    except json.JSONDecodeError:
        return None


def run_job(cli, job):
    """Run one command in-process: (exit code or None, stdout, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(job["argv"]))
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code = None
        print(f"job {job['name']} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), (t0, time.perf_counter())


def job_ok(code, stdout, golden) -> bool:
    if golden is None or code != golden["exit"]:
        return False
    payload = parse_output(stdout)
    return payload is not None and stable_fields(payload) == golden["fields"]


class Runner:
    """One workload's jobs, run pass by pass and checked against the goldens."""

    def __init__(self, cli, jobs, goldens):
        self.cli = cli
        self.jobs = jobs
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.cochains = sum(j["cochains"] for j in jobs)

    def run_pass(self, trace=None, label=""):
        """((start, end) of the pass, (start, end) per job, stdout per job)."""
        gc.collect()
        spans, outputs = [], []
        t0 = time.perf_counter()
        for job in self.jobs:
            if trace is not None:
                trace.job = f"{label}:{job['name']}"
            code, stdout, span = run_job(self.cli, job)
            self.attempted += 1
            if not job_ok(code, stdout, self.goldens.get(job["name"])):
                self.failed += 1
                print(f"job {job['name']}: exit {code}, output differs from the golden",
                      file=sys.stderr)
            spans.append(span)
            outputs.append(stdout)
        return (t0, time.perf_counter()), spans, outputs


class ColdStarts:
    """Starts of `python -m algebroid.cli catalog` in fresh interpreters."""

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "ALGEBROID_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.times = []
        self.attempted = self.failed = 0

    def start(self, speedometer=None):
        """One start; recorded, in seconds at the reference speed, only when
        a speedometer is given."""
        cmd = [sys.executable, "-m", "algebroid.cli", "catalog"]

        def cold_start():
            return subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True)

        if speedometer is None:
            proc = cold_start()
        else:
            proc, seconds = speedometer.bracket(cold_start)
            self.times.append(seconds)
        self.attempted += 1
        if proc.returncode != 0 or parse_output(proc.stdout) is None:
            self.failed += 1


def percentile_line(name, samples_ms, q):
    """The q-th percentile, reported only with at least ten samples beyond it."""
    n = len(samples_ms)
    value = statistics.quantiles(samples_ms, n=100)[q - 1] if n >= 2 else None
    beyond = sum(s > value for s in samples_ms) if n >= 2 else 0
    if beyond < 10:
        return f"  {name:<16} n/a  ({n} samples, {beyond} beyond the {q}th percentile; needs 10)"
    return f"  {name:<16} {value:.6g} ms  ({n} samples, {beyond} beyond)"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, workload, seed, seconds):
    runner.run_pass()  # warm-up, checked but not timed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    starts = ColdStarts()
    starts.start()  # warm-up; bytecode caches exist after it
    passes, jobs = [], []
    start = time.perf_counter()
    with speed.Speedometer() as speedometer:
        # stop before a pass that would end past the measuring time
        while not passes or time.perf_counter() - start + passes[-1][1] - passes[-1][0] <= seconds:
            pass_span, job_spans, _ = runner.run_pass()
            passes.append(pass_span)
            jobs.extend(job_spans)
            # spread the cold starts over the run
            while len(starts.times) < SETUP_RUNS * min(1, (time.perf_counter() - start) / seconds):
                starts.start(speedometer)
        while len(starts.times) < SETUP_RUNS:
            starts.start(speedometer)
    walls = [speedometer.scaled(*span) for span in passes]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(starts.times)
    attempted = runner.attempted + starts.attempted
    failed = runner.failed + starts.failed
    lat_ms = [speedometer.scaled(*span) * 1000 for span in jobs]
    raw_wall_s = statistics.median(t1 - t0 for t0, t1 in passes)
    raw_job_ms = statistics.median((t1 - t0) * 1000 for t0, t1 in jobs)
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "job_ms.p50": metric(statistics.median(lat_ms), "ms"),
        "cochains_per_s": metric(runner.cochains / wall_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    print(f"workload {workload}  seed {seed}  timed passes {len(walls)}  "
          f"jobs per pass {len(runner.jobs)}  cochains per pass {runner.cochains}")
    print(f"  times at the reference speed; host speed {speedometer.mean_speed():.3g} of it")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    print(f"  unscaled: wall_s {raw_wall_s:.6g} s, job_ms.p50 {raw_job_ms:.6g} ms")
    print(percentile_line("job_ms.p90", lat_ms, 90))
    print(f"  {'failed_frac':<16} {failed / attempted:.6g}  ({failed} of {attempted} "
          "jobs, setup starts included)")
    return attempted, failed, metrics, True


def per_layer(runner, workload, seed, seconds):
    runner.run_pass()  # warm-up, checked but not timed
    plain, traced, analyses = [], [], []
    first = None
    same_stdout = True
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        (t0, t1), _, reference = runner.run_pass()
        plain.append(t1 - t0)
        trace = tracing.Tracer()
        with trace:
            (t0, t1), _, outputs = runner.run_pass(trace, label=f"pass{len(traced)}")
        traced.append(t1 - t0)
        same_stdout &= outputs == reference
        analyses.append(trace.analyse())
        if first is None:
            first = trace
    OUT.mkdir(exist_ok=True)
    first.write_jsonl(OUT / f"trace-{workload}-seed{seed}.jsonl")
    same_counts = all(a[2] == analyses[0][2] for a in analyses)
    counts = analyses[0][2]
    metrics = {}
    for name in tracing.TIME_METRICS:
        metrics[name] = metric(statistics.median(a[1][name] for a in analyses), "s")
    for name in tracing.COUNT_METRICS:
        unit = "bits" if name.endswith("bits") else "count"
        metrics[name] = metric(counts[name], unit)
    for name in tracing.RATIO_METRICS:
        metrics[name] = metric(statistics.median(a[3][name] for a in analyses), "ratio")
    metrics["trace.overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    print(f"workload {workload}  seed {seed}  traced passes {len(traced)}  "
          f"stdout identical with tracing on and off: {same_stdout}  "
          f"counts repeat: {same_counts}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    if not same_stdout:
        print("stdout differs between traced and untraced passes", file=sys.stderr)
    if not same_counts:
        print("per-layer counts differ between traced passes", file=sys.stderr)
    return runner.attempted, runner.failed, metrics, same_stdout and same_counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "algebroid" / "cli.py").is_file():
        print(f"no package source at {SRC / 'algebroid'}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ.pop("ALGEBROID_THREADS", None)
    sys.path.insert(0, str(SRC))
    from algebroid import cli

    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))[args.workload]
    inputs = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    runner = Runner(cli, workloads.generate(args.workload, args.seed, inputs), goldens)

    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics, checks_ok = measure(runner, args.workload, args.seed,
                                                    args.seconds)
    print(json.dumps({"correct": failed == 0 and checks_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
