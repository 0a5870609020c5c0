"""The rankone benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; rankone is imported from ./src, and
scratch files go to ./.perfbench.  With ``--trace 0`` it prints the
end-to-end metrics: set-up time (median of eleven fresh processes, ten of
them spread over the timed loop), job latency, throughput, the share of
jobs answered correctly within the workload's latency limit, the share
that failed, and peak memory.  Times are scaled by the host's speed during
the run, as the reference tasks of hostref.py measure it; standard error
gives them as measured too.  With
``--trace 1`` it prints the per-layer metrics of a traced replay of the
same jobs.  The last line of standard output is the result object; a
readable summary and every failed job go to standard error.

Workloads (see workloads.py for why each was chosen): orbit-names,
occurrence-scan, decide, cli-session.  Every run is a closed loop with one
client: the next job starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
from tracing import METRICS  # noqa: E402
from workloads import WORKLOADS, CliSession  # noqa: E402

SETUP_PROBES = 10  # fresh set-up processes besides the measuring one
REFS_PER_S = 2  # compute-reference samples per second of the run
FAIL_FLOOR = 0.001  # added to the failed share, so fail_ratio is never 0
WORKER_TIMEOUT_S = 160


def worker(root: Path, *args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(durations: list[float]) -> tuple[float, str, int]:
    """The highest of p90, p99 and p99.9 with at least ten jobs beyond it
    (nearest rank); with fewer than 100 jobs, the rank that leaves ten."""
    ordered = sorted(durations)
    n = len(ordered)
    for q in (0.999, 0.99, 0.9):
        rank = math.ceil(q * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{100 * q:g}", n - rank
    rank = max(1, n - 10)
    return ordered[rank - 1], f"p{100 * rank / n:.1f}", n - rank


def import_ms(root: Path, repeats: int = 5) -> float:
    """Importing the package in a fresh interpreter, minus bare start-up."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def median_run(code):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                           check=True)
            times.append(perf_counter() - start)
        return statistics.median(times)

    return 1000 * (median_run("import rankone.cli") - median_run("pass"))


def end_to_end(root, workload, seed, seconds) -> dict:
    count = workload.whole_run(seconds)
    exact = ["--count", count, "--exact"] if count else []
    cli = isinstance(workload, CliSession)
    refs = count // 2 if cli else REFS_PER_S * seconds
    run = worker(root, "--workload", workload.name, "--seed", seed,
                 "--seconds", seconds, "--probes", SETUP_PROBES,
                 "--refs", refs, *exact)
    # each job's time over how much slower than nominal the host ran
    # around it, each set-up time over its own start reference; a job cut
    # off by its timeout took the timeout, whatever the host's speed
    nominal = hostref.START_NOMINAL_S if cli else hostref.COMPUTE_NOMINAL_S
    raw = run["durations"]
    factors = hostref.local_factors(run["refs"], len(raw), nominal)
    cut = {f["index"] for f in run["failures"]
           if f["why"].startswith("timed out")}
    durations = [d if i in cut else d / f
                 for i, (d, f) in enumerate(zip(raw, factors))]
    setup = statistics.median(s / (ref / hostref.START_NOMINAL_S)
                              for s, ref in run["setup"])
    attempted = run["attempted"]
    failed = {f["index"] for f in run["failures"]}
    within = sum(1 for i, d in enumerate(durations)
                 if i not in failed and 1000 * d <= workload.limit_ms)
    value, label, beyond = tail(durations)
    completed = len(durations) - len(run["incomplete"])
    metrics = {
        "setup_s": (setup, "s"),
        "job_p50_ms": (1000 * statistics.median(durations), "ms"),
        "job_tail_ms": (1000 * value, "ms"),
        "jobs_per_s": (completed / sum(durations), "1/s"),
        "within_limit_ratio": (within / attempted, "ratio"),
        "fail_ratio": (len(failed) / attempted + FAIL_FLOOR, "ratio"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    notes = {"setup_s": "{:.4g} s as measured".format(
                 statistics.median(s for s, _ in run["setup"])),
             "job_p50_ms": "{:.4g} ms as measured, host x{:.3f}".format(
                 1000 * statistics.median(raw), statistics.median(factors)),
             "job_tail_ms": f"{label} of {len(durations)} jobs, {beyond} beyond",
             "fail_ratio": f"{len(failed)} of {attempted} failed"}
    return {"metrics": metrics, "notes": notes, "attempted": attempted,
            "failures": run["failures"]}


def per_layer(root, workload, seed, seconds) -> dict:
    """A short untraced pass (one whole cycle for cli-session), then the
    same jobs traced, then a quarter as many more under tracemalloc; the
    ratio of the two passes is the tracing cost."""
    common = ["--workload", workload.name, "--seed", seed, "--inprocess"]
    whole = workload.whole_run(0.3 * seconds)
    exact = ["--count", whole, "--exact"] if whole else []
    base = worker(root, *common, "--seconds", 0.3 * seconds, *exact)
    count = len(base["durations"])
    traced = worker(root, *common, "--mode", "traced", "--seconds",
                    0.5 * seconds, "--count", count,
                    "--memory-seconds", 0.15 * seconds, *exact[2:])
    # jobs that ran to the end in both passes; a timeout cuts both short
    shared = [i for i in range(min(count, len(traced["durations"])))
              if i not in base["incomplete"] and i not in traced["incomplete"]]
    overhead = (sum(traced["durations"][i] for i in shared)
                / sum(base["durations"][i] for i in shared))
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = overhead
    layers["mem.tracemalloc_peak_mb"] = traced["tracemalloc_mb"]
    layers["cli.import_ms"] = import_ms(root)
    metrics = {name: (layers[name], unit) for name, unit in METRICS.items()}
    return {"metrics": metrics, "notes": {"trace.overhead_ratio":
                                          f"over {len(shared)} jobs"},
            "attempted": traced["attempted"], "failures": traced["failures"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rankone" / "__init__.py").is_file():
        print("perfbench: no src/rankone here; run from the root of a rankone "
              "checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    (root / ".perfbench").mkdir(exist_ok=True)
    compileall.compile_dir(str(root / "src"), quiet=1)

    measure = per_layer if args.trace else end_to_end
    report = measure(root, workload, args.seed, args.seconds)
    known = [f for f in report["failures"] if f["known_defect"]]
    wrong = [f for f in report["failures"] if not f["known_defect"]]

    for name, (value, unit) in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"{workload.name} {name} = {value:.6g} {unit}  {note}".rstrip(),
              file=sys.stderr)
    for f in report["failures"]:
        tag = "known defect" if f["known_defect"] else "WRONG"
        print(f"{tag}: job {f['index']} {json.dumps(f['job'])}: {f['why']}",
              file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": report["attempted"],
        "failed": len(known) + len(wrong),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **result,
              "notes": report["notes"], "failures": report["failures"]}
    with open(root / ".perfbench" / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
