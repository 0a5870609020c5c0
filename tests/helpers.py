"""Shared test scaffolding: randomized spec generators and independent
brute-force oracles.

The oracles deliberately avoid the library's scan/bookkeeping code paths:
occurrence scans use per-index prefix comparison, or the plain ``find``
loop that the library's anchored scan replaced; gap reads walk the letters
run by run; a stable rewrite overwrites each copy in turn and tests its
edges one shift at a time; the compatibility oracle rebuilds the padded
tuple for every offset; and names are walked one image at a time over
stage words built here.
"""

from __future__ import annotations

import itertools
from random import Random

from rankone.analysis import BAD, GOOD, INDETERMINATE, CandidatePair
from rankone.errors import UndefinedOrbitError
from rankone.params import (
    ParameterSpec,
    SpacerExpr,
    StageRule,
    heights,
    normalize,
    stage_views,
)
from rankone.tower import DEFAULT_STAGE_BUDGET
from rankone.words import NameWindow, build_word


# ---------------------------------------------------------------------------
# spec generators


def random_growth_spec(rng: Random, max_r: int = 5) -> ParameterSpec:
    """A raw spec satisfying the rewriting criterion by construction:
    bounded constant non-final spacers and a last column of a*h + b with
    a >= r and b at least the sum of the other spacers."""
    def rule():
        r = rng.randint(2, max_r)
        spacers = tuple(SpacerExpr(0, 0, rng.randint(0, 6)) for _ in range(r - 1))
        total = sum(e.b for e in spacers)
        last = SpacerExpr(r + rng.randint(0, 2), 0, total + rng.randint(0, 3))
        return StageRule(r=r, spacers=spacers, last=last)

    preperiod = tuple(rule() for _ in range(rng.randint(0, 2)))
    cycle = tuple(rule() for _ in range(rng.randint(1, 3)))
    return ParameterSpec(cycle=cycle, preperiod=preperiod)


def random_certified_spec(rng: Random, max_r: int = 5) -> ParameterSpec:
    return normalize(random_growth_spec(rng, max_r=max_r))


def random_normalized_spec(rng: Random) -> ParameterSpec:
    """Any normalized affine spec (not necessarily partially bounded)."""
    if rng.random() < 0.5:
        return random_certified_spec(rng)

    def rule():
        r = rng.randint(2, 4)
        spacers = tuple(
            SpacerExpr(rng.randint(0, 2), 0, rng.randint(0, 5))
            for _ in range(r - 1)
        )
        acc = SpacerExpr(rng.randint(0, 1), 0, rng.randint(0, 2))
        return StageRule(
            r=r, spacers=spacers, last=None, acc=None if acc.is_zero else acc
        )

    return ParameterSpec(
        cycle=tuple(rule() for _ in range(rng.randint(1, 2))),
        preperiod=tuple(rule() for _ in range(rng.randint(0, 1))),
    )


def random_palindromic_certified_spec(rng: Random) -> ParameterSpec:
    """Certified with every cycle tuple palindromic: entries share one
    growth coefficient (so differences stay bounded) and the constant terms
    are mirror-symmetric."""
    def rule():
        r = rng.randint(2, 4)
        a = rng.randint(1, 2)
        half = [rng.randint(0, 4) for _ in range((r - 1 + 1) // 2)]
        bs = half + list(reversed(half[: (r - 1) // 2]))
        return StageRule(r=r, spacers=tuple(SpacerExpr(a, 0, b) for b in bs))

    return ParameterSpec(cycle=tuple(rule() for _ in range(rng.randint(1, 2))))


def random_full_grammar_spec(rng: Random) -> ParameterSpec:
    """Any spec the grammar writes: half raw, each rule with a last column,
    half normalized, 60% of their rules with an accumulator increment.  A
    coefficient is drawn from 0-3 for h and 0-2 for A, a constant from 0-6,
    or one time in three from 0-100; r runs from 2 to 5, a preperiod has
    0-2 rules and a cycle 1-3."""
    raw = rng.random() < 0.5

    def expr():
        b = rng.randint(0, 100 if rng.random() < 1 / 3 else 6)
        return SpacerExpr(rng.randint(0, 3), rng.randint(0, 2), b)

    def rule():
        r = rng.randint(2, 5)
        spacers = tuple(expr() for _ in range(r - 1))
        if raw:
            return StageRule(r, spacers, last=expr())
        return StageRule(r, spacers, acc=expr() if rng.random() < 0.6 else None)

    preperiod = tuple(rule() for _ in range(rng.randint(0, 2)))
    return ParameterSpec(cycle=tuple(rule() for _ in range(rng.randint(1, 3))),
                         preperiod=preperiod)


# ---------------------------------------------------------------------------
# register oracle


def oracle_registers(spec: ParameterSpec, stop: int) -> list[tuple[int, int]]:
    """(h_n, A_n) for the stages n < stop, read straight off the spec's own
    rules: each stage stacks r copies and places every spacer, the last
    column's included, and A grows by acc, or else by last, or else by 0."""
    def value(e):
        return 0 if e is None else e.a * h + e.c * acc + e.b

    h, acc, out = 1, 0, []
    for n in range(stop):
        out.append((h, acc))
        rule = spec.rule_schedule(n)
        h, acc = (rule.r * h + sum(map(value, rule.spacers)) + value(rule.last),
                  acc + value(rule.acc if rule.acc is not None else rule.last))
    return out


# ---------------------------------------------------------------------------
# word-level oracles


def oracle_occurrences(pattern: bytes, text: bytes) -> list[int]:
    return [
        i for i in range(len(text) - len(pattern) + 1)
        if text.startswith(pattern, i)
    ]


def find_occurrences(pattern: bytes, text: bytes) -> list[int]:
    """Every start of pattern in text by repeated ``bytes.find``: the scan
    ``words.occurrences`` made before it searched for an anchor."""
    out = []
    i = text.find(pattern)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def oracle_rewrite(letters: bytes, v: bytes, v_prime: bytes) -> bytes:
    """letters with v_prime written over each copy of v from left to right,
    so that where copies overlap the later one wins."""
    out = bytearray(letters)
    for p in oracle_occurrences(v, letters):
        out[p:p + len(v)] = v_prime
    return bytes(out)


def oracle_partial_edges(v: bytes, letters: bytes) -> tuple[bool, bool]:
    """Whether a partial copy of v is cut by each edge of the window: a
    proper suffix of v, ending no later than the first copy starts, that
    begins the window, and the mirror case on the right, tested one shift
    at a time (the loops ``stable_rewrite`` ran before its linear search)."""
    positions = oracle_occurrences(v, letters)
    first = positions[0] if positions else len(letters)
    last_end = positions[-1] + len(v) if positions else 0
    left = any(
        letters[:len(v) - d] == v[d:]
        for d in range(1, len(v))
        if len(v) - d <= first
    )
    right = any(
        letters[len(letters) - d:] == v[:d]
        for d in range(1, len(v))
        if len(letters) - d >= last_end
    )
    return left, right


def oracle_builds(u: bytes, w: bytes):
    """Every decomposition w = u 1^a1 u ... u, found by exhaustive
    backtracking over candidate gap lengths."""
    results = []

    def go(pos, gaps):
        if pos == len(w):
            results.append(tuple(gaps))
            return
        run = 0
        while pos + run < len(w) and w[pos + run] == 0x31:
            run += 1
        for g in range(run + 1):
            if w.startswith(u, pos + g):
                go(pos + g + len(u), gaps + [g])

    if w.startswith(u):
        go(len(u), [])
    return results


def oracle_word(spec: ParameterSpec, n: int) -> bytes:
    """w_n by the literal recursion w_{k+1} = w_k 1^{s_k(0)} w_k ... w_k,
    read off the raw stage views."""
    w = b"0"
    for view in itertools.islice(stage_views(spec), n):
        w = w + b"".join(b"1" * gap + w for gap in view.spacers)
    return w


def oracle_gap_instances(spec: ParameterSpec, n: int, m: int):
    """(position, length, stage, slot) of every 1-run between consecutive
    copies of w_n inside w_m, merged bottom up: w_{k+1} lays r_k copies of
    w_k's runs side by side, joined by stage k's own spacers."""
    views = list(itertools.islice(stage_views(spec), m))
    runs: list[tuple[int, int, int, int]] = []
    for k in range(n, m):
        view = views[k]
        merged = []
        off = 0
        for slot in range(view.r):
            merged.extend((p + off, length, st, sl) for p, length, st, sl in runs)
            if slot < view.r - 1:
                merged.append((off + view.h, view.spacers[slot], k, slot))
                off += view.h + view.spacers[slot]
        runs = merged
    return runs


# ---------------------------------------------------------------------------
# orbit oracle


class _StepWalker:
    """A point stepped one image at a time through the tower, the way the
    orbit is defined: climb one level, and at a column edge refine into the
    next stage first.  Stage data comes from its own copy of the stage
    views, letters from its own stage words (by descent in the tall
    columns that edge orbits reach)."""

    WORD_LIMIT = 1 << 20

    def __init__(self, spec, point, budget):
        self.source = stage_views(spec)
        self.views = [next(self.source) for _ in range(point.stage + 1)]
        if not 0 <= point.level < self.views[point.stage].h:
            raise ValueError(f"level {point.level} outside C_{point.stage}")
        self.spec = spec
        self.budget = budget
        self.words: dict[int, bytes] = {}
        self.stage, self.level, self.offset = point.stage, point.level, point.offset

    def _refine(self):
        view = self.views[self.stage]
        k = int(self.offset * view.r)
        self.level += k * view.h + sum(view.spacers[:k])
        self.offset = self.offset * view.r - k
        self.stage += 1
        if self.stage == len(self.views):
            self.views.append(next(self.source))

    def step(self, up: bool):
        for _ in range(self.budget):
            if up and self.level + 1 < self.views[self.stage].h:
                self.level += 1
                return
            if not up and self.level > 0:
                self.level -= 1
                return
            self._refine()
        raise UndefinedOrbitError(f"walk left no column within {self.budget} "
                                  "refinements")

    def read(self) -> int:
        if self.views[self.stage].h > self.WORD_LIMIT:
            return self._descend(self.stage, self.level)
        if self.stage not in self.words:
            self.words[self.stage] = oracle_word(self.spec, self.stage)
        return self.words[self.stage][self.level] - 0x30

    def _descend(self, m, j):
        # letter j of w_m: find the copy of w_{m-1} or the 1-run holding it
        while m > 0:
            view = self.views[m - 1]
            for k in range(view.r):
                if j < view.h:
                    break
                j -= view.h
                if j < view.spacers[k]:
                    return 1
                j -= view.spacers[k]
            m -= 1
        return 0


def walk_name(spec, point, a, b, budget=DEFAULT_STAGE_BUDGET) -> bytes:
    """The itinerary letters on [a, b): walk to T^a p one image at a time,
    then read each letter and step once more."""
    walker = _StepWalker(spec, point, budget)
    for _ in range(-a if a < 0 else 0):
        walker.step(up=False)
    for _ in range(a if a > 0 else 0):
        walker.step(up=True)
    out = bytearray()
    for i in range(a, b):
        out.append(0x30 + walker.read())
        if i + 1 < b:
            walker.step(up=True)
    return bytes(out)


# ---------------------------------------------------------------------------
# classification oracles


def oracle_verdicts(pair: CandidatePair) -> dict[int, tuple[str, int | None]]:
    """Verdict and alignment for every occurrence of w_n in x, recomputed
    with per-index prefix scans."""
    spec = pair.spec
    wn = build_word(spec, pair.n).letters
    wk = heights(spec, pair.kappa)[pair.kappa]
    reach = len(wn) - wk
    x, y = pair.x, pair.y
    out = {}
    for rel in range(len(x.letters) - len(wn) + 1):
        if not x.letters.startswith(wn, rel):
            continue
        i = rel + x.anchor
        if i - reach < x.anchor:
            out[i] = (INDETERMINATE, None)
            continue
        hits = [
            p for p in range(rel - reach, rel + 1)
            if y.letters.startswith(wn, p)
        ]
        if len(hits) == 1:
            out[i] = (GOOD, rel - hits[0])
        elif not hits:
            out[i] = (BAD, None)
        else:
            out[i] = ("ambiguous", None)
    return out


def oracle_gap_after(letters: bytes, end: int, wn: bytes) -> int | None:
    """Length of the pure 1-run from `end` to the next copy of wn, walking
    letter by letter; None when the run is broken or no copy follows."""
    run = 0
    while end + run < len(letters) and letters[end + run] == 0x31:
        run += 1
    start = end + run
    if start >= len(letters) or not letters.startswith(wn, start):
        return None
    return run


def oracle_compatible(s, sp):
    """Compatibility by materializing s' c s' with a wildcard middle slot
    and sliding s across every alignment."""
    L = len(s)
    padded = list(sp) + [None] + list(sp)
    for offset in range(len(padded) - L + 1):
        window = padded[offset:offset + L]
        forced = None
        ok = True
        for have, want in zip(window, s):
            if have is None:
                forced = want
            elif have != want:
                ok = False
                break
        if ok:
            return True, offset, forced
    return False, None, None


# ---------------------------------------------------------------------------
# candidate pair builders beyond shifts


def spliced_pair(spec, n: int, kappa: int, window: NameWindow, rel_pos: int,
                 old_len: int, new_len: int) -> CandidatePair:
    """Pair whose image is the window with one 1-run length changed; both
    sides are cut to the shared index range."""
    letters = window.letters
    assert letters[rel_pos:rel_pos + old_len] == b"1" * old_len
    spliced = letters[:rel_pos] + b"1" * new_len + letters[rel_pos + old_len:]
    shared = min(len(letters), len(spliced))
    return CandidatePair(
        spec=spec,
        x=NameWindow(window.anchor, letters[:shared]),
        y=NameWindow(window.anchor, spliced[:shared]),
        kappa=kappa, n=n,
    )


def padded_block_window(spec, n, m, outer, kappa) -> NameWindow:
    """One expected w_m block inside w_outer, cut with enough left margin
    that every constituent w_n occurrence is determinate.  The block starts
    at window index 0."""
    from rankone.words import expected_occurrences

    wn_len = heights(spec, n)[n]
    wk_len = heights(spec, kappa)[kappa]
    reach = wn_len - wk_len
    block = expected_occurrences(spec, m, outer)[1]
    wm_len = heights(spec, m)[m]
    big = build_word(spec, outer).letters
    return NameWindow(-reach, big[block - reach:block + wm_len])
