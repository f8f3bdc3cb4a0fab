"""The benchmark's workloads against its goldens, once each, in-process.

`perfbench/run.py` fails a job whose exit code or stable payload fields
differ from `perfbench/goldens.json`.  This runs every job of the four
workloads once, on inputs generated from seed 1 by `perfbench/workloads.py`,
so such a difference shows here first.  It only reads `perfbench/`.
"""

import json
import sys
from pathlib import Path

import pytest

from algebroid import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
# no bytecode cache is written next to the benchmark's files
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import run as bench
    import workloads
finally:
    sys.dont_write_bytecode = dont_write_bytecode

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_matches_its_golden(workload, tmp_path):
    jobs = workloads.generate(workload, 1, tmp_path)
    assert jobs
    for job in jobs:
        golden = GOLDENS[workload][job["name"]]
        code, stdout, _ = bench.run_job(cli, job)
        payload = bench.parse_output(stdout)
        assert code == golden["exit"], job["name"]
        assert payload is not None, job["name"]
        assert bench.stable_fields(payload) == golden["fields"], job["name"]
