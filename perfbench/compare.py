"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds run records as ``run.py`` appends them to
``.perfbench/runs.jsonl``; make the runs of the two sides alternately
(before, after, before, ...) with the same seeds and ``--seconds``.  For
every workload and metric the tool prints each side's median and
quartiles, and how many of the paired runs (i-th before against i-th
after) the after side wins.  A metric is "unresolved" when either side's
quartile spread, as a share of its median, exceeds the metric's bound
from BENCHMARK.json, unless every after run beats every before run.
Otherwise it is "better" when the after side wins at least nine tenths of
the pairs and the medians differ by more than the before side's quartile
distance, "worse" when the after median is worse by more than the bound,
and "same" otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path) -> dict:
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, better, bound):
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(before, after))
    wins = sum(1 for b, a in pairs if sign * (a - b) > 0)
    if bound is None:
        return wins, len(pairs), ""
    spread = max((b3 - b1) / bm if bm else 0, (a3 - a1) / am if am else 0)
    all_better = min(sign * a for a in after) > max(sign * b for b in before)
    if all_better and wins >= 0.9 * len(pairs):
        return wins, len(pairs), "better"
    if spread > bound:
        return wins, len(pairs), "unresolved"
    if wins >= 0.9 * len(pairs) and abs(am - bm) > b3 - b1:
        return wins, len(pairs), "better"
    if sign * (am - bm) < -bound * abs(bm):
        return wins, len(pairs), "worse"
    return wins, len(pairs), "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())
    specs = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(before[key])} vs {len(after[key])} runs)")
        names = before[key][0]["metrics"]
        for name in names:
            better, bound = specs.get(name, ("lower", None))
            b = [r["metrics"][name]["value"] for r in before[key]]
            a = [r["metrics"][name]["value"] for r in after[key]]
            unit = names[name]["unit"]
            b1, bm, b3 = quartiles(b)
            a1, am, a3 = quartiles(a)
            wins, pairs, word = verdict(b, a, better, bound)
            print(f"  {name:44s} {bm:11.5g} [{b1:.5g}, {b3:.5g}] -> "
                  f"{am:11.5g} [{a1:.5g}, {a3:.5g}] {unit:9s} "
                  f"wins {wins}/{pairs} {word}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
