"""The benchmark harness reads library results by field name.  Each warm-up
job of the in-process workloads runs here through the harness's own runner,
digest and oracle check, so a library change that renames a field the
harness reads fails this suite, not only a benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import jobs as J  # noqa: E402
from checks import Checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["orbit-names", "occurrence-scan", "decide"])
def test_warmup_jobs_pass_the_benchmark_oracle(name):
    workload = WORKLOADS[name](7)
    ctx = J.Context(workload, str(PERFBENCH.parent))
    checker = Checker(workload)
    kinds = set()
    for job in workload.warmup():
        run, digest = J.RUNNERS[job["kind"]]
        why = checker.check(job, digest(job, run(ctx, job)))
        assert why is None, f"{job['kind']}: {why}"
        kinds.add(job["kind"])
    assert kinds
