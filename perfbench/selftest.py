"""Self-test of the harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that the same seed generates the
same inputs (and another seed other ones), that the oracle accepts the
library's real answers, and that it rejects a planted wrong answer in
every workload.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from checks import Checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def public(jobs):
    return json.dumps([{k: v for k, v in job.items() if not k.startswith("_")}
                       for job in jobs], sort_keys=True)


def first(workload, count):
    return list(itertools.islice(workload.jobs(), count))


def flip(letters: bytes, i: int = 0) -> bytes:
    return letters[:i] + (b"1" if letters[i:i + 1] == b"0" else b"0") + letters[i + 1:]


def plant(job, out):
    """The library's answer with one detail made wrong."""
    kind = job["kind"]
    if kind == "name":
        return dataclasses.replace(out, letters=flip(out.letters, len(out) // 2))
    if kind in ("shift", "corrupt"):
        cls, *rest = out
        records = list(cls.records)
        k = next(i for i, r in enumerate(records) if r.verdict == "good")
        records[k] = dataclasses.replace(records[k], verdict="bad", rho=None)
        return (dataclasses.replace(cls, records=tuple(records)), *rest)
    if kind in ("growth", "certified", "palindromic", "general", "registry"):
        spec, criterion, symbolic, numeric, inverse, reports = out
        numeric = dataclasses.replace(numeric, status="refuted", certificate=None)
        return spec, criterion, symbolic, numeric, inverse, reports
    if kind == "cli":
        code, stdout, stderr = out
        return code, stdout.replace("0", "1", 1), stderr
    raise ValueError(kind)


def main() -> int:
    import jobs as J

    problems = []
    for name, W in WORKLOADS.items():
        same = public(first(W(7), 40)) == public(first(W(7), 40))
        other = public(first(W(7), 40)) != public(first(W(8), 40))
        print(f"{name}: same seed, same inputs: {same}; "
              f"another seed, other inputs: {other}")
        if not (same and other):
            problems.append(f"{name}: inputs are not a function of the seed")

        workload = W(7)
        ctx = J.Context(workload, str(Path.cwd()))
        checker = Checker(workload)
        wanted = {"orbit-names": "name", "occurrence-scan": "shift",
                  "decide": "certified", "cli-session": "cli"}[name]
        candidates = first(workload, 40)
        if name == "cli-session":  # the README's first example
            candidates = [{"kind": "cli",
                           "argv": ["word", "--spec", "chacon", "--n", "2"]}]
        for job in candidates:
            if job["kind"] != wanted:
                continue
            if name == "cli-session":
                out = J.run_cli(ctx, job, 10)
                digest = J.digest_cli
            else:
                run, digest = J.RUNNERS[job["kind"]]
                out = run(ctx, job)
            right = checker.check(job, digest(job, out))
            wrong = checker.check(job, digest(job, plant(job, out)))
            print(f"{name}: real answer accepted: {right is None}; "
                  f"planted wrong answer rejected: {wrong is not None} ({wrong})")
            if right is not None or wrong is None:
                problems.append(f"{name}: oracle verdicts {right!r}, {wrong!r}")
            break
        else:
            problems.append(f"{name}: no {wanted} job among the first 40")
    for p in problems:
        print("FAILED:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
