"""Reference answers recomputed from the definitions, without rankone.

Nothing here imports the library: specs are plain tuples, registers are
evaluated by their recurrence, words come from a recursive builder and a
range decoder over the copy/spacer structure, names come from refining a
point until its window fits inside one column (or from a literal
step-by-step walk for short windows), occurrences come from comparing the
pattern's prefix at every index, and tuple compatibility rebuilds the
padded tuple ``s' * s'`` for every offset.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from typing import NamedTuple, Optional

Expr = tuple[int, int, int]  # a*h + c*A + b
ZERO: Expr = (0, 0, 0)
LEAF = 1 << 16  # words up to this length are materialized and sliced
STEP_WALK_MAX = 4096  # windows up to this length are also walked step by step


class Rule(NamedTuple):
    r: int
    s: tuple[Expr, ...]
    last: Optional[Expr] = None
    acc: Optional[Expr] = None


class Spec(NamedTuple):
    cycle: tuple[Rule, ...]
    pre: tuple[Rule, ...] = ()
    name: Optional[str] = None


class Stage(NamedTuple):
    r: int
    s: tuple[int, ...]
    h: int


# ---------------------------------------------------------------------------
# specs: the registry constructions, normalization, reversal, config text

CHACON_RAW = Spec(cycle=(Rule(3, ((0, 0, 0), (0, 0, 1)), last=(3, 0, 1)),),
                  name="chacon-raw")
HK_RAW = Spec(cycle=(Rule(2, ((0, 0, 0),), last=(2, 0, 1)),), name="hk-raw")
FINITE_ODOMETER = Spec(cycle=(Rule(2, ((0, 0, 0),)),), name="finite-odometer")


def rule_at(spec: Spec, n: int) -> Rule:
    if n < len(spec.pre):
        return spec.pre[n]
    return spec.cycle[(n - len(spec.pre)) % len(spec.cycle)]


def is_normalized(spec: Spec) -> bool:
    return all(rule.last is None or rule.last == ZERO
               for rule in spec.pre + spec.cycle)


def normalize(spec: Spec) -> Spec:
    """Delay every last-column spacer to the later stages.  With the old
    registers written in the new ones (h = h' + A', A = A'), a spacer
    a*h + c*A + b becomes a*h' + (a + c + 1)*A' + b and the accumulator
    grows by the old last column, a*h' + (a + c)*A' + b."""
    if is_normalized(spec):
        return spec

    def convert(rule: Rule) -> Rule:
        if rule.acc is not None:
            raise ValueError("a custom accumulator cannot be normalized")
        a, c, b = rule.last or ZERO
        acc = (a, a + c, b)
        return Rule(rule.r, tuple((x, x + y + 1, z) for x, y, z in rule.s),
                    None, None if acc == ZERO else acc)

    return Spec(tuple(convert(r) for r in spec.cycle),
                tuple(convert(r) for r in spec.pre), spec.name)


def reversed_spec(spec: Spec) -> Spec:
    def rev(rule: Rule) -> Rule:
        return rule._replace(s=tuple(reversed(rule.s)))

    name = f"{spec.name}-reversed" if spec.name else None
    return Spec(tuple(rev(r) for r in spec.cycle),
                tuple(rev(r) for r in spec.pre), name)


def registry(name: str) -> Spec:
    """The built-in constructions, rebuilt from their published rules."""
    raw = {"chacon-raw": CHACON_RAW, "hk-raw": HK_RAW,
           "finite-odometer": FINITE_ODOMETER}
    if name in raw:
        return raw[name]
    if name in ("chacon", "hk"):
        return normalize(raw[f"{name}-raw"])._replace(name=name)
    if name == "chacon-reversed":
        return reversed_spec(registry("chacon"))._replace(name=name)
    raise KeyError(name)


def expr_text(e: Expr) -> str:
    a, c, b = e
    parts = [f"{a}h"] if a else []
    if c:
        parts.append(f"{c}A")
    if b or not parts:
        parts.append(str(b))
    return "+".join(parts)


def rule_text(rule: Rule) -> str:
    parts = [f"r={rule.r}", "s=(" + ", ".join(map(expr_text, rule.s)) + ")"]
    if rule.last is not None:
        parts.append(f"last={expr_text(rule.last)}")
    if rule.acc is not None:
        parts.append(f"acc={expr_text(rule.acc)}")
    return ", ".join(parts)


def spec_text(spec: Spec) -> str:
    """Config text in the canonical layout the CLI prints."""
    lines = [f"name: {spec.name}"] if spec.name else []
    lines.append("preperiod: [" + "; ".join(map(rule_text, spec.pre)) + "]")
    lines.append("cycle: [" + "; ".join(map(rule_text, spec.cycle)) + "]")
    return "\n".join(lines) + "\n"


def value(e: Expr, h: int, acc: int) -> int:
    return e[0] * h + e[1] * acc + e[2]


# ---------------------------------------------------------------------------
# a tower: registers, words, and exact point arithmetic


def parse_point(text: str) -> tuple[int, int, Fraction]:
    stage, level, frac = text.split(":")
    num, den = frac.split("/")
    return int(stage), int(level), Fraction(int(num), int(den))


def point_text(p) -> str:
    return f"{p[0]}:{p[1]}:{p[2].numerator}/{p[2].denominator}"


class Tower:
    """Concrete stage data of one spec, extended on demand."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self._stages: list[Stage] = []
        self._h, self._acc = 1, 0
        self._words: dict[int, bytes] = {0: b"0"}
        self._offsets: dict[int, list[int]] = {}

    def stage(self, n: int) -> Stage:
        while len(self._stages) <= n:
            rule = rule_at(self.spec, len(self._stages))
            h, acc = self._h, self._acc
            s = tuple(value(e, h, acc) for e in rule.s)
            last = value(rule.last, h, acc) if rule.last else 0
            inc = rule.acc or rule.last or ZERO
            self._stages.append(Stage(rule.r, s, h))
            self._h = rule.r * h + sum(s) + last
            self._acc = acc + value(inc, h, acc)
        return self._stages[n]

    def h(self, n: int) -> int:
        return self.stage(n).h

    def offsets(self, n: int) -> list[int]:
        """Starts of the r copies of w_n inside w_{n+1}."""
        offs = self._offsets.get(n)
        if offs is None:
            st = self.stage(n)
            offs = [0]
            for gap in st.s:
                offs.append(offs[-1] + st.h + gap)
            self._offsets[n] = offs
        return offs

    def word(self, n: int) -> bytes:
        w = self._words.get(n)
        if w is None:
            below = self.word(n - 1)
            st = self.stage(n - 1)
            parts = [below]
            for gap in st.s:
                parts += [b"1" * gap, below]
            w = b"".join(parts)
            if len(w) <= 1 << 23:
                self._words[n] = w
        return w

    def decode(self, n: int, a: int, b: int) -> bytes:
        """w_n[a:b] by recursion over the copies and 1-runs of w_n."""
        out: list[bytes] = []
        self._decode(n, a, b, out)
        return b"".join(out)

    def _decode(self, n, a, b, out):
        if a >= b:
            return
        if self.h(n) <= LEAF:
            out.append(self.word(n)[a:b])
            return
        st = self.stage(n - 1)
        pos = 0
        for k in range(st.r):
            if pos < b and a < pos + st.h:
                self._decode(n - 1, max(a, pos) - pos, min(b, pos + st.h) - pos,
                             out)
            pos += st.h
            if k < st.r - 1:
                lo, hi = max(a, pos), min(b, pos + st.s[k])
                if lo < hi:
                    out.append(b"1" * (hi - lo))
                pos += st.s[k]
            if pos >= b:
                return

    def letter(self, n: int, j: int) -> int:
        return self.decode(n, j, j + 1)[0] - 0x30

    # points are (stage, level, offset) with offset a Fraction in [0, 1)

    def refine(self, p):
        stage, level, u = p
        st = self.stage(stage)
        k = int(u * st.r)
        return stage + 1, level + self.offsets(stage)[k], u * st.r - k

    def canonicalize(self, p):
        stage, level, u = p
        while stage > 0:
            below = self.stage(stage - 1)
            offs = self.offsets(stage - 1)
            hit = next((k for k in range(below.r)
                        if offs[k] <= level < offs[k] + below.h), None)
            if hit is None:
                break
            level -= offs[hit]
            u = (hit + u) / below.r
            stage -= 1
        return stage, level, u

    def embed(self, p, a: int, b: int, budget: int = 400):
        """The point at the first stage whose column holds its whole orbit
        segment [a, b)."""
        q = self.canonicalize(p)
        for _ in range(budget):
            if q[1] + a >= 0 and q[1] + b <= self.h(q[0]):
                return q
            q = self.refine(q)
        raise ValueError("orbit segment never fits in a column")

    def name(self, p, a: int, b: int) -> bytes:
        stage, level, _ = self.embed(p, a, b)
        return self.decode(stage, level + a, level + b)

    def walk_name(self, p, a: int, b: int) -> bytes:
        """The same letters, walked one step at a time."""
        q = self.canonicalize(p)
        for _ in range(-a):
            q = self._step(q, -1)
        for _ in range(a):
            q = self._step(q, 1)
        out = bytearray()
        for i in range(a, b):
            out.append(0x30 + self.letter(q[0], q[1]))
            if i + 1 < b:
                q = self._step(q, 1)
        return bytes(out)

    def _step(self, q, direction):
        while not 0 <= q[1] + direction < self.h(q[0]):
            q = self.refine(q)
        return q[0], q[1] + direction, q[2]

    def orbit(self, p, steps: int) -> list:
        """Canonical T^i p for i = 0 .. steps (or down to steps when
        negative), read off one embedding of the whole segment."""
        lo, hi = (0, steps + 1) if steps >= 0 else (steps, 1)
        stage, level, u = self.embed(p, lo, hi)
        sign = 1 if steps >= 0 else -1
        return [self.canonicalize((stage, level + sign * i, u))
                for i in range(abs(steps) + 1)]

    def gaps(self, n: int, m: int) -> list[tuple[int, int, int]]:
        """(position, length, stage) of the 1-runs between consecutive
        copies of w_n inside w_m."""
        current: list[tuple[int, int, int]] = []
        for k in range(n, m):
            st = self.stage(k)
            offs = self.offsets(k)
            merged = []
            for idx, off in enumerate(offs):
                merged += [(pos + off, length, stage)
                           for pos, length, stage in current]
                if idx < st.r - 1:
                    merged.append((off + st.h, st.s[idx], k))
            current = merged
        return sorted(current)


# ---------------------------------------------------------------------------
# boundedness, palindromes and grouped tuples, numerically


def numeric_boundedness(tower: Tower, up_to: int):
    """The numeric check's answer over stages 0..up_to: ("refuted", stage)
    when condition (3) fails at up_to, else ("certified", R, S, N)."""
    stages = [tower.stage(n) for n in range(up_to + 1)]
    bad = -1
    for n, st in enumerate(stages):
        if any(s < st.h for s in st.s):
            bad = n
    if bad == up_to:
        return ("refuted", up_to)
    tail = stages[bad + 1:]
    r_max = max(st.r for st in tail)
    diff = max((max(st.s) - min(st.s) for st in tail if st.s), default=0)
    return ("certified", r_max + 1, diff + 1, bad + 1)


def certificate_holds(tower: Tower, R: int, S: int, N: int, count: int) -> bool:
    """Stages N .. N+count-1 obey r < R, spacer spread < S, spacers >= h."""
    for n in range(N, N + count):
        st = tower.stage(n)
        if st.r >= R or any(s < st.h for s in st.s):
            return False
        if st.s and max(st.s) - min(st.s) >= S:
            return False
    return True


def palindromic(t) -> bool:
    return tuple(t) == tuple(reversed(t))


def star(s2, s1) -> tuple[int, ...]:
    out = list(s1)
    for entry in s2:
        out += [entry, *s1]
    return tuple(out)


def grouped(tower: Tower, n: int, count: int = 3):
    """Cut product and star-folded spacer tuple of stages n .. n+count-1."""
    q = 1
    t = None
    for k in range(n, n + count):
        st = tower.stage(k)
        q *= st.r
        t = st.s if t is None else star(st.s, t)
    return q, t


def compatible(s, sp) -> bool:
    """Whether some c makes s a substring of s' c s': the padded tuple
    with a wildcard middle slot is rebuilt and slid across s."""
    padded = list(sp) + [None] + list(sp)
    for offset in range(len(padded) - len(s) + 1):
        window = padded[offset:offset + len(s)]
        if all(have is None or have == want for have, want in zip(window, s)):
            return True
    return False


# ---------------------------------------------------------------------------
# scans over letters


def sha(data) -> str:
    """Digest of letters, or of the repr of plain data."""
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha1(data).hexdigest()


def occurrences(pattern: bytes, text: bytes) -> list[int]:
    """Every index whose suffix starts with the pattern: the first letters
    are compared at all indices at once, the survivors letter by letter."""
    import numpy as np  # loaded here: only the checks, never a timed job, scan

    count = len(text) - len(pattern) + 1
    if count <= 0:
        return []
    letters = np.frombuffer(text, dtype=np.uint8)
    hits = letters[:count] == pattern[0]
    for j in range(1, min(len(pattern), 8)):
        hits &= letters[j:j + count] == pattern[j]
    index = np.flatnonzero(hits)
    for j in range(8, min(len(pattern), 64)):
        index = index[letters[index + j] == pattern[j]]
    return [i for i in index.tolist() if text.startswith(pattern, i)]


_ONES = re.compile(b"1*")


def gap_after(letters: bytes, end: int, wn: bytes) -> Optional[int]:
    """Length of the 1-run at ``end`` when a copy of wn follows it."""
    start = _ONES.match(letters, end).end()
    if start >= len(letters) or not letters.startswith(wn, start):
        return None
    return start - end


def verdicts(x: bytes, y: bytes, anchor: int, wn: bytes, wk_len: int,
             xs: Optional[list[int]] = None) -> dict:
    """index -> (verdict, rho) for every occurrence of wn in x: good when
    exactly one copy in y starts within |wn| - |wk| to the left."""
    reach = len(wn) - wk_len
    xs = occurrences(wn, x) if xs is None else xs
    ys = occurrences(wn, y)
    out = {}
    lo = 0
    for rel in xs:
        if rel - reach < 0:
            out[rel + anchor] = ("indeterminate", None)
            continue
        while lo < len(ys) and ys[lo] < rel - reach:
            lo += 1
        hi = lo
        while hi < len(ys) and ys[hi] <= rel:
            hi += 1
        if hi - lo == 1:
            out[rel + anchor] = ("good", rel - ys[lo])
        elif hi == lo:
            out[rel + anchor] = ("bad", None)
        else:
            out[rel + anchor] = ("ambiguous", None)
    return out


def blocks(x: bytes, anchor: int, wm: bytes, wn_len: int, verdict_of: dict,
           ms: Optional[list[int]] = None) -> list[tuple[int, str]]:
    """Block verdict of every occurrence of wm over the w_n occurrences
    lying inside it."""
    index = sorted(verdict_of)
    out = []
    k = 0
    for rel in (occurrences(wm, x) if ms is None else ms):
        j = rel + anchor
        while k < len(index) and index[k] < j:
            k += 1
        inside = []
        e = k
        while e < len(index) and index[e] + wn_len <= j + len(wm):
            inside.append(verdict_of[index[e]][0])
            e += 1
        if not inside or "indeterminate" in inside:
            verdict = "indeterminate"
        elif all(v == "good" for v in inside):
            verdict = "totally_good"
        elif all(v == "bad" for v in inside):
            verdict = "totally_bad"
        else:
            verdict = "mixed"
        out.append((j, verdict))
    return out
