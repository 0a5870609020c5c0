"""A committed corpus of inverse verdicts: the differential for every
change to the deciders of ``rankone.inverseiso``.

    PYTHONPATH=src python3 tests/verdicts.py --record   # write the golden file
    PYTHONPATH=src python3 tests/verdicts.py --moves    # print the moves, never fail

The corpus holds 400 specs from each of the five generators of
``tests/helpers.py`` (seeds 1000-1004, one seed per generator, raw specs
normalized where the rule class allows it), the registry specs, and the
examples F, P and C3 of ROADMAP.md.  Each spec gets five calls:
``decide_inverse_isomorphic(spec)``, and ``check_non_isomorphism`` at
horizon 8 against its reversal, itself, its permuted twin (one cycle
rule's spacer slots shuffled) and the next spec of the corpus.

Each call is one compact row, and a spec's five rows are one line of
``verdict_corpus.json``, keyed by the spec's label:
  - a decision reads ``True 0`` (the verdict and N, ``-`` when None);
  - a check reads ``c4 - 3`` (the status, the witness stage and
    ``cross_bound``), with the statuses shortened as in ``STATUS``;
  - a call that raises reads the exception's type name.
``test_verdict_corpus.py`` recomputes every row and fails on any that
moved, printing the table of moves that ``--moves`` prints.  A move is
flagged unless it starts at ``not_established``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from random import Random

from rankone.errors import NormalizationError, RankOneError
from rankone.inverseiso import check_non_isomorphism, decide_inverse_isomorphic
from rankone.params import StageRule, normalize, parse_spec, reversed_parameters
from rankone.registry import get_spec, names

from helpers import (
    random_certified_spec,
    random_full_grammar_spec,
    random_growth_spec,
    random_normalized_spec,
    random_palindromic_certified_spec,
)

GOLDEN = Path(__file__).with_name("verdict_corpus.json")
GENERATORS = [
    ("growth", random_growth_spec),
    ("certified", random_certified_spec),
    ("normalized", random_normalized_spec),
    ("palindromic", random_palindromic_certified_spec),
    ("full", random_full_grammar_spec),
]
SEED, PER_GENERATOR, HORIZON = 1000, 400, 8
EXAMPLES = {
    "F": "cycle: [r=3, s=(1h, 2h+1)]",
    "P": "preperiod: [r=2, s=(0), acc=2]; cycle: [r=3, s=(1h, 1A), acc=4h]",
    "C3": "cycle: [r=2, s=(1A+3), acc=1h+1A+6]",
}
STATUS = {"criteria_met": "met", "condition1_fails": "c1",
          "condition4_fails": "c4", "not_established": "ne"}
CALLS = ["decide", "reversal", "self", "twin", "next"]


def _normalized(spec):
    try:
        return normalize(spec)
    except NormalizationError:
        return spec


def corpus() -> list[tuple[str, object]]:
    """(label, spec) in corpus order."""
    out = []
    for k, (name, generate) in enumerate(GENERATORS):
        rng = Random(SEED + k)
        out += [(f"{name}/{SEED + k}/{i}", _normalized(generate(rng)))
                for i in range(PER_GENERATOR)]
    out += [(f"registry/{name}", _normalized(get_spec(name))) for name in names()]
    out += [(label, parse_spec(text)) for label, text in EXAMPLES.items()]
    return out


def permuted_twin(label: str, spec):
    """The spec with the spacer slots of one cycle rule with two distinct
    slots shuffled; the spec itself when it has no such rule."""
    rng = Random(label)
    slots = [i for i, rule in enumerate(spec.cycle) if len(set(rule.spacers)) > 1]
    if not slots:
        return spec
    pos = rng.choice(slots)
    rule = spec.cycle[pos]
    perm = list(rule.spacers)
    while tuple(perm) == rule.spacers:
        rng.shuffle(perm)
    cycle = list(spec.cycle)
    cycle[pos] = StageRule(rule.r, tuple(perm), rule.last, rule.acc)
    return spec.replace(cycle=tuple(cycle))


def _dash(x) -> str:
    return "-" if x is None else str(x)


def _decide(spec) -> str:
    try:
        verdict = decide_inverse_isomorphic(spec)
    except RankOneError as exc:
        return type(exc).__name__
    return f"{verdict.isomorphic_to_inverse} {_dash(verdict.N)}"


def _check(a, b) -> str:
    try:
        report = check_non_isomorphism(a, b, HORIZON)
    except RankOneError as exc:
        return type(exc).__name__
    stage = report.witness.stage if report.witness else None
    return f"{STATUS[report.status]} {_dash(stage)} {_dash(report.cross_bound)}"


def rows() -> dict[str, str]:
    """Each spec's five rows, joined by " | ", keyed by its label."""
    specs = corpus()
    out = {}
    for k, (label, spec) in enumerate(specs):
        following = specs[(k + 1) % len(specs)][1]
        out[label] = " | ".join([
            _decide(spec),
            _check(spec, reversed_parameters(spec)),
            _check(spec, spec),
            _check(spec, permuted_twin(label, spec)),
            _check(spec, following),
        ])
    return out


def moves(old: dict[str, str], new: dict[str, str]):
    """Counter of (call, old row's verdict, new row's verdict) over the rows
    that changed, and one example label for each."""
    table, example = Counter(), {}
    for label in old.keys() | new.keys():
        before = old.get(label, "").split(" | ")
        after = new.get(label, "").split(" | ")
        for call, a, b in zip_longest(CALLS, before, after, fillvalue=""):
            if a != b:
                key = (call, a or "(absent)", b or "(absent)")
                table[key] += 1
                example.setdefault(key, label)
    return table, example


def move_table(old: dict[str, str], new: dict[str, str]) -> str:
    table, example = moves(old, new)
    lines = []
    for key, count in sorted(table.items()):
        call, a, b = key
        flag = "" if a.startswith("ne ") else "  FLAGGED"
        lines.append(f"{count:6}  {call:8} {a} -> {b}  (e.g. {example[key]}){flag}")
    return "\n".join(lines) or "no row moved"


def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def write(entries: dict[str, str]) -> None:
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        write(rows())
    elif sys.argv[1:] == ["--moves"]:
        print(move_table(golden(), rows()))
    else:
        sys.exit(__doc__)
