"""One measuring process: set-up, a closed loop of jobs, then the checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--mode setup|timed|traced] [--count K] [--inprocess]
        [--memory-seconds M] [--probes P] [--refs R] [--exact]

Run from the root of a checkout; rankone is imported from ./src.  Prints
one JSON object.  The job loop stops once the jobs' own time reaches S
seconds, or after K jobs.  With ``--exact`` it runs exactly K jobs,
unless they take longer than 3 S + 30 seconds.  Each job runs under a
per-job alarm, and its wall time is kept.  With ``--probes P`` the loop
pauses P times, evenly over the run, to time the set-up of a fresh
``--mode setup`` process, so that set-up is sampled across the run and
not only before it; each probe comes with the mean of two samples of the
start reference (``hostref.py``), one on either side of it.  With
``--refs R`` the loop also pauses R times to time a reference task: the
start reference for a workload of CLI processes, the compute reference
otherwise.  Results are checked against the oracle only after the loop,
and the peak resident memory is read before the checks start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
from workloads import WORKLOADS, CliSession  # noqa: E402

JOB_TIMEOUT_S = 10.0


def _alarm(signum, frame):
    raise JOBS.JobTimeout("no result within the per-job time limit")


def _public(job: dict) -> dict:
    return {k: v for k, v in job.items() if not k.startswith("_")}


class Loop:
    def __init__(self, workload, ctx, inprocess, tracer=None):
        self.workload = workload
        self.ctx = ctx
        self.inprocess = inprocess
        self.tracer = tracer
        self.results = []  # (index, job, digest, seconds, error)
        self.written: set = set()
        self.child_rss_kb = 0  # peak of the CLI processes

    def run(self, job, index):
        """Time one job; returns (digest, seconds, error)."""
        if isinstance(self.workload, CliSession):
            self._write_files()
            if self.inprocess:
                emit = None
                if self.tracer:
                    def emit(n):
                        self.tracer.counters["cli.emit_bytes"] += n
                call = lambda: JOBS.run_cli_inprocess(self.ctx, job, emit)  # noqa: E731
            else:
                call = lambda: JOBS.run_cli(self.ctx, job, CliSession.TIMEOUT_S)  # noqa: E731
            digest = JOBS.digest_cli
            # replayed in process (and slowed by tracing), a call gets the
            # in-process jobs' limit
            timeout = JOB_TIMEOUT_S if self.inprocess else CliSession.TIMEOUT_S
        else:
            runner, digest = JOBS.RUNNERS[job["kind"]]
            call = lambda: runner(self.ctx, job)  # noqa: E731
            timeout = JOB_TIMEOUT_S
        if self.tracer:
            self.tracer.job = index
        out, error = None, None
        alarm = self.inprocess or not isinstance(self.workload, CliSession)
        self.ctx.child_usage = None
        start = perf_counter()
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            out = call()
        except JOBS.JobTimeout as exc:
            error = f"timed out: {exc}"
        except Exception as exc:  # a job that raises is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            if alarm:
                signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
        if self.ctx.child_usage is not None:  # a CLI process: its peak memory
            self.child_rss_kb = max(self.child_rss_kb, self.ctx.child_usage)
        return (None if error else digest(job, out)), seconds, error

    def loop(self, jobs, budget, count=None, exact=False, probe=None,
             probes=0, ref=None, refs=0):
        """Run jobs until their time reaches ``budget`` (or ``count`` jobs
        have run; with ``exact``, until exactly ``count`` have run).  Call
        ``probe`` each time another 1/(probes + 1) of the run is done, and
        ``ref`` each time another 1/(refs + 1)."""
        spent, wall = 0.0, perf_counter()
        first = len(self.results)
        if exact:
            progress = lambda: (len(self.results) - first) / count  # noqa: E731
        else:
            progress = lambda: spent / budget if budget else 1.0  # noqa: E731
        calls = [[probe, probes, 0], [ref, refs, 0]]
        while (count is None or len(self.results) - first < count) and \
                (exact or spent < budget):
            if perf_counter() - wall > 3 * budget + 30:
                break
            for call in calls:
                if call[2] < call[1] and progress() >= (call[2] + 1) / (call[1] + 1):
                    call[0]()
                    call[2] += 1
            index = len(self.results)
            job = next(jobs)
            digest, seconds, error = self.run(job, index)
            spent += seconds
            self.results.append((index, job, digest, seconds, error))
        for call in calls:  # a short run still takes every sample
            while call[2] < call[1]:
                call[0]()
                call[2] += 1

    def _write_files(self):
        for path, spec in self.workload.files.items():
            if path not in self.written:
                target = ROOT / path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(ORACLE.spec_text(spec))
                self.written.add(path)


def main(argv=None) -> int:
    global JOBS, ORACLE
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), default="timed")
    ap.add_argument("--count", type=int)
    ap.add_argument("--inprocess", action="store_true")
    ap.add_argument("--memory-seconds", type=float, default=0.0)
    ap.add_argument("--probes", type=int, default=0)
    ap.add_argument("--refs", type=int, default=0)
    ap.add_argument("--exact", action="store_true")
    args = ap.parse_args(argv)

    import oracle as ORACLE
    workload = WORKLOADS[args.workload](args.seed)
    warmup = workload.warmup()
    stream = workload.jobs()
    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, str(ROOT / "src"))

    # set-up: import, resolve every registry spec, one warm-up pass
    start = perf_counter()
    import jobs as JOBS
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(JOBS)
    ctx = JOBS.Context(workload, str(ROOT))
    loop = Loop(workload, ctx, args.inprocess, tracer)
    for index, job in enumerate(warmup):
        error = loop.run(job, -1 - index)[2]
        if error:
            print(f"warm-up job {_public(job)}: {error}", file=sys.stderr)
    setup_s = perf_counter() - start
    if not str(Path(JOBS.rankone.__file__).resolve()).startswith(str(ROOT / "src")):
        print("rankone was not imported from ./src", file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # each set-up time with the start reference taken around it, and each
    # reference sample of the loop with the number of jobs before it
    probes = [(setup_s, hostref.start_ref())]
    refs = []

    def probe():
        before = hostref.start_ref()
        argv = [sys.executable, str(HERE / "worker.py"), "--workload",
                args.workload, "--seed", str(args.seed), "--mode", "setup"]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120).stdout
        probes.append((json.loads(out.strip().splitlines()[-1])["setup_s"],
                       (before + hostref.start_ref()) / 2))

    cli = isinstance(workload, CliSession) and not args.inprocess
    reference = hostref.start_ref if cli else hostref.compute_ref

    def ref():
        refs.append((len(loop.results), reference()))

    loop.loop(stream, args.seconds, args.count, args.exact, probe,
              args.probes, ref, args.refs)
    timed = len(loop.results)
    if cli:
        rss_mb = loop.child_rss_kb / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers, memory_mb = None, None
    if tracer:
        tracer.uninstall()
        tracemalloc.start()
        loop.loop(stream, args.memory_seconds, max(1, timed // 4),
                  args.exact)
        memory_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        layers = tracer.metrics()
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")

    from checks import Checker
    checker = Checker(workload)
    failures = []
    for index, job, digest, _, error in loop.results:
        why = error
        if why is None:
            try:
                why = checker.check(job, digest)
            except Exception:  # an unreadable answer is a wrong answer
                why = "check raised: " + traceback.format_exc(limit=3)
        if why is not None:
            failures.append({"index": index, "job": _public(job), "why": why,
                             "known_defect": job["kind"] == "defect"})
    durations = [r[3] for r in loop.results]
    print(json.dumps({
        "setup": probes,
        "refs": refs,
        "durations": durations[:timed],
        "memory_durations": durations[timed:],
        "incomplete": [r[0] for r in loop.results[:timed] if r[4] is not None],
        "attempted": len(loop.results),
        "failures": failures,
        "rss_mb": rss_mb,
        "layers": layers,
        "tracemalloc_mb": memory_mb,
    }))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
