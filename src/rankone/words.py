"""Rank-one words: construction, lazy letter access, and occurrence
combinatorics.

Words live over the alphabet {0, 1} and are stored as ASCII ``b"0"``/``b"1"``
bytes, so that substring scans run in C.  The words of infinite-measure
transformations are mostly 1s: h_n/A_n grows without bound, so the share of
0s goes to zero.  So when a pattern holds a run of at least _RUN_MIN 1s
between two 0s, ``occurrences`` jumps from one long 1-run of the text to the
next and confirms only the runs of exactly that length; once the runs come
more often than one per _RUN_STEP letters, it hands the text over to a
compiled literal search for the pattern's first letters, which confirms the
rest by comparison, within a budget linear in the text.  Overlapping hits
follow from the pattern's period.  Stage words obey

    w_0 = "0",   w_{n+1} = w_n 1^{s_n(0)} w_n 1^{s_n(1)} ... 1^{s_n(r_n-2)} w_n

with 0-based gap indices (the tuple has r_n - 1 entries; a published display
that starts the indices at 1 is read as this 0-based form).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Optional

from .errors import CapExceededError, SpecError
from .params import ParameterSpec, StageView, Value, stage_table

DEFAULT_CAP = 1 << 26
_ANCHOR = 256  # letters of a pattern that occurrences() searches for
_RUN_MIN = 64  # shortest pattern 1-run that occurrences() jumps between
_RUN_STEP = 512  # letters of progress the run tier may spend per run it looks at
_RUN_SLACK = 8  # runs the run tier looks at before its rate is checked


class NameWindow(Value):
    """A finite stretch of a 0/1 itinerary: letters[i - anchor] tells whether
    the i-th image of the point lies in B_0.  ``provenance`` names the
    source: ``word:n`` for the stage word w_n, the name of column n's base
    point over [0, h_n); the point ``n:j:p/q`` for a window of its
    itinerary; ``rewritten`` for a stable rewrite; None for letters given
    from outside."""

    anchor: int
    letters: bytes
    provenance: Optional[str] = None

    @property
    def end(self) -> int:
        return self.anchor + len(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def letter(self, i: int) -> int:
        if not self.anchor <= i < self.end:
            raise SpecError(f"index {i} outside window [{self.anchor}, {self.end})")
        return self.letters[i - self.anchor] - 0x30

    def to_text(self) -> str:
        return self.letters.decode("ascii")


class WordAddress(Value):
    """Positional decomposition of an index: the chain of copies descended
    through, ending either at the single letter of w_0 or inside a 1-run."""

    stage: int
    index: int
    path: tuple[tuple[int, int], ...]  # (stage, copy index) from the top down
    spacer: Optional[tuple[int, int, int]]  # (stage, gap slot, offset in run)

    @property
    def is_spacer(self) -> bool:
        return self.spacer is not None


def _views(spec: ParameterSpec, n: int) -> list[StageView]:
    """The stage views 0 .. n of a normalized spec."""
    if not spec.normalized:
        raise SpecError("rank-one words are defined for normalized specs")
    if n < 0:
        raise SpecError(f"stage index must be >= 0, got {n}")
    return stage_table(spec).views(0, n + 1)


def decode(spec: ParameterSpec, n: int, a: int, b: int) -> bytes:
    """The letters w_n[a:b].

    Descends only into the copies of w_{n-1} and the 1-runs that meet
    [a, b); copies lying wholly inside the range are built bottom up by
    concatenation, each stage's word at most once per call.  Costs
    O(n * r + b - a) time and O(b - a) memory.  More than DEFAULT_CAP
    letters raise CapExceededError before any is built.
    """
    views = _views(spec, n)
    if a > b:
        raise SpecError(f"need a <= b, got [{a}, {b})")
    if a < 0 or b > views[n].h:
        raise SpecError(f"[{a}, {b}) leaves [0, {views[n].h}), the indices of w_{n}")
    if b - a > DEFAULT_CAP:
        raise CapExceededError(
            f"{b - a} letters of w_{n} exceed the cap {DEFAULT_CAP}; "
            "decode a shorter range"
        )
    parts: list[bytes] = []
    built = {0: b"0"}
    pending: list = [(n, a, b)] if a < b else []
    while pending:
        item = pending.pop()
        if isinstance(item, bytes):
            parts.append(item)
            continue
        m, lo, hi = item
        if lo == 0 and hi == views[m].h:
            parts.append(_stage_word(views, m, built))
            continue
        view = views[m - 1]
        offs = view.offsets
        pieces = []
        for k in range(bisect_right(offs, lo) - 1, view.r):
            start = offs[k]
            if start >= hi:
                break
            end = start + view.h
            if lo < end:
                pieces.append((m - 1, max(lo, start) - start, min(hi, end) - start))
            if k + 1 < view.r:
                run = min(hi, offs[k + 1]) - max(lo, end)
                if run > 0:
                    pieces.append(b"1" * run)
        pending.extend(reversed(pieces))
    return b"".join(parts)


def _stage_word(views: list[StageView], m: int, built: dict[int, bytes]) -> bytes:
    """w_m by the literal recursive concatenation, starting from the highest
    stage word already built; the result joins ``built``."""
    k = max(s for s in built if s <= m)
    w = built[k]
    for view in views[k:m]:
        parts = [w]
        for gap in view.spacers:
            parts.append(b"1" * gap)
            parts.append(w)
        w = b"".join(parts)
    built[m] = w
    return w


def build_word(spec: ParameterSpec, n: int) -> NameWindow:
    """Materialize w_n by the literal recursive concatenation, as the name
    window of column n's base point over [0, h_n)."""
    h = stage_table(spec).view(n).h
    return NameWindow(0, decode(spec, n, 0, h), provenance=f"word:{n}")


def letter_at(spec: ParameterSpec, n: int, j: int) -> tuple[int, WordAddress]:
    """The letter w_n[j] plus the address that produced it, in O(n) arithmetic:
    the descent of ``StageTable.locate`` through the copies of w_{m-1} and
    the 1-runs between them, which ends in a 1-run or at the 0 of w_0."""
    _views(spec, n)  # refuses raw specs
    path, spacer = stage_table(spec).locate(n, j)
    return int(spacer is not None), WordAddress(n, j, path, spacer)


def _period_bound(pattern: bytes) -> tuple[int, bool]:
    """(p, True) when the pattern's smallest period p is at most half its
    length m, else (m // 2 + 1, False), a lower bound on the period.

    A period p <= m/2 is the first return of the pattern's first m - m//2
    letters: an earlier return would be a second period, and two periods
    that fit in the pattern this way give a smaller common one (Fine and
    Wilf).  So one ``find`` and one comparison decide it in linear time."""
    m = len(pattern)
    p = pattern.find(pattern[:m - m // 2], 1)
    if p != -1 and pattern.startswith(memoryview(pattern)[p:]):
        return p, True
    return m // 2 + 1, False


def _period_end(text: bytes, i: int, p: int, known: int) -> int:
    """The largest e such that text[i:e] has period p, given that
    text[i : i + p + known] has it.  Galloping comparisons find it in
    O(log) steps and in time linear in e - i."""
    view = memoryview(text)
    lo, step, limit = known, known, len(text) - i - p
    while lo < limit:
        step = min(step, limit - lo)
        if text.startswith(view[i + lo:i + lo + step], i + p + lo):
            lo += step
            step *= 2
        elif step > 1:
            step //= 2
        else:
            break
    return i + p + lo


def _longest_run(pattern: bytes) -> tuple[int, int]:
    """(o, L): the offset and length of the pattern's first longest run of
    1s with a 0 on both sides, or (0, 0) when it has no such run."""
    first, last = pattern.find(b"0"), pattern.rfind(b"0")
    if first == last:
        return 0, 0
    lengths = list(map(len, pattern[first + 1:last].split(b"0")))
    run = max(lengths)
    k = lengths.index(run)
    return first + 1 + sum(lengths[:k]) + k, run


def occurrences(pattern: bytes, text: bytes) -> list[int]:
    """All i with text[i : i+|pattern|] == pattern, overlapping included.

    When the pattern holds a run of L >= _RUN_MIN 1s between two 0s, at
    offset o, every hit i has a maximal run of exactly L 1s at i + o.  The
    run tier jumps from one run of at least min(L, _ANCHOR) 1s to the next
    with ``bytes.find`` and finds each run's end by memchr, so it crosses
    the long 1-runs of sparse-0 words in C without a step per letter.  A
    run of exactly L gives one candidate, confirmed from its first letter.
    When the runs it looks at come more often than one per _RUN_STEP
    letters (after _RUN_SLACK runs), the rest of the text goes to the
    anchor search, which finds the starts of the pattern's first _ANCHOR
    letters by a compiled literal search (``re`` caches the compiled
    anchor).  Each candidate is confirmed by comparing the pattern in
    doubling chunks, so a miss costs about its common prefix with the
    pattern.  The anchor and every chunk compared are charged to a budget
    of twice the text's length; once it is spent, as on periodic inputs,
    the scan goes on with ``bytes.find``.  No hit lies within the
    pattern's smallest period p of another, and once a hit at i is
    confirmed, i + p is a hit exactly when the p letters after it repeat
    the pattern's last p.  So when p is at most half the pattern, the hits
    i, i + p, ... are read off the stretch of text from i on that keeps
    period p, and the whole scan stays linear in the text.
    """
    if not pattern:
        raise SpecError("pattern must be nonempty")
    m = len(pattern)
    anchor = pattern[:_ANCHOR]
    a = len(anchor)
    search = None
    top = len(text) - m  # the last start a hit may have
    endpos = top + a  # an anchor ending later leaves no room for the rest
    pattern_view = memoryview(pattern)
    budget = 2 * len(text) if m > 1 else 0  # find scans one letter by memchr
    o, run = _longest_run(pattern)
    runs = run >= _RUN_MIN
    ones = b"1" * min(run, _ANCHOR)
    seen = 0  # runs the run tier has looked at
    period = None
    out = []
    pos = 0
    while True:
        if runs and (budget <= 0 or seen > _RUN_SLACK + pos // _RUN_STEP):
            runs = False
        if runs:
            if pos > top:
                return out
            start = pos + o  # the first letter a candidate's run may start at
            if text[start - 1] == 0x31:  # inside a run: skip to its end
                seen += 1
                start = text.find(b"0", start)
                if start == -1:
                    return out
            # start is or follows a 0, so the first len(ones) 1s found from
            # it open a maximal run
            seen += 1
            s = text.find(ones, start)
            e = -1 if s == -1 else text.find(b"0", s + len(ones))
            if e == -1 or s - o > top:
                return out
            i = s - o
            if e - s != run:
                pos = e + 1 - o
                continue
            off, size = 0, a
        elif budget > 0:
            if search is None:
                search = re.compile(re.escape(anchor)).search
            hit = search(text, pos, endpos)
            if hit is None:
                return out
            i = hit.start()
            budget -= a
            off = size = a
        else:
            i = text.find(pattern, pos)
            if i == -1:
                return out
            off = m
        while off < m:
            chunk = pattern_view[off:off + size]
            budget -= len(chunk)
            if not text.startswith(chunk, i + off):
                break
            off += size
            size *= 2
        if off < m:
            # a tier candidate misses, and so does every i up to its run's end
            pos = e + 1 - o if runs else i + 1
            continue
        if period is None:
            period = _period_bound(pattern)
        p, exact = period
        if not exact:
            out.append(i)
            pos = i + p
            continue
        end = _period_end(text, i, p, m - p)
        last = end - m - (end - m - i) % p
        out.extend(range(i, last + 1, p))
        # last + p spans the break of the period, so no hit follows within
        # m - p of last, where every hit would be a multiple of p away
        pos = last + m - p + 1


class BuildsResult(Value):
    builds: bool
    gaps: Optional[tuple[int, ...]]


def builds(u: bytes, w: bytes) -> BuildsResult:
    """Whether w = u 1^{a_1} u ... 1^{a_r} u for nonnegative a_i.

    Both words must begin and end with 0.  The decomposition, when it
    exists, is unique: copies contain 0s only trough u itself, and the
    stretches between copies are all 1s, so every copy start is forced to be
    the next 0 after the previous copy ends.
    """
    for name, word in (("u", u), ("w", w)):
        if not word or word[:1] != b"0" or word[-1:] != b"0":
            raise SpecError(f"{name} must begin and end with 0")
    if not w.startswith(u):
        return BuildsResult(False, None)
    gaps = []
    pos = len(u)
    # w ends in 0, so nxt >= pos; copies of u lie inside w, so pos <= len(w)
    while pos < len(w):
        nxt = w.find(b"0", pos)
        if w.count(b"1", pos, nxt) != nxt - pos:
            return BuildsResult(False, None)
        if w[nxt:nxt + len(u)] != u:
            return BuildsResult(False, None)
        gaps.append(nxt - pos)
        pos = nxt + len(u)
    return BuildsResult(True, tuple(gaps))


def expected_occurrences(spec: ParameterSpec, n: int, m: int) -> list[int]:
    """Indices of the copies of w_n inside w_m produced by unrolling the
    recursion from stage m down to stage n (the sublevels of the stage-n
    base inside column m), in increasing order.  More than DEFAULT_CAP
    copies raise CapExceededError before any is placed."""
    if not spec.normalized:
        raise SpecError("expected occurrences are defined for normalized specs")
    if not 0 <= n <= m:
        raise SpecError(f"need 0 <= n <= m, got n={n}, m={m}")
    views = stage_table(spec).views(0, m)
    copies = 1
    for view in views[n:m]:
        copies *= view.r
        if copies > DEFAULT_CAP:
            raise CapExceededError(
                f"w_{m} holds more than {DEFAULT_CAP} copies of w_{n}; "
                "unroll from a higher n or to a lower m"
            )
    positions = [0]
    for k in range(m - 1, n - 1, -1):
        offs = views[k].offsets
        positions = [p + o for p in positions for o in offs]
    return positions


class GapInstance(Value):
    """A 1-run separating consecutive expected copies of w_n inside w_m."""

    position: int  # index of the first 1
    length: int
    stage: int  # the stage whose spacer produced this run
    slot: int  # index within that stage's tuple


def gap_instances(spec: ParameterSpec, n: int, m: int) -> list[GapInstance]:
    """All 1-runs between consecutive expected copies of w_n inside w_m,
    tagged with the stage and tuple slot that produced them.

    The run after copy i comes from the lowest stage whose mixed-radix
    digit d of i + 1 is nonzero; it is that stage's spacer d - 1."""
    starts = expected_occurrences(spec, n, m)
    table = stage_table(spec)
    h = table.view(n).h
    radices = [v.r for v in table.views(n, m)]
    gaps = []
    for j, (a, b) in enumerate(zip(starts, starts[1:]), 1):
        q, stage = j, n
        for r in radices:
            q, digit = divmod(q, r)
            if digit:
                break
            stage += 1
        gaps.append(GapInstance(a + h, b - a - h, stage, digit - 1))
    return gaps
