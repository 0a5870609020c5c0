"""Rank-one words: construction, lazy letter access, and occurrence
combinatorics.

Words live over the alphabet {0, 1} and are stored as ASCII ``b"0"``/``b"1"``
bytes so that substring scans run at C speed.  Stage words obey

    w_0 = "0",   w_{n+1} = w_n 1^{s_n(0)} w_n 1^{s_n(1)} ... 1^{s_n(r_n-2)} w_n

with 0-based gap indices (the tuple has r_n - 1 entries; a published display
that starts the indices at 1 is read as this 0-based form).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Union

from .errors import CapExceededError, SpecError
from .params import ParameterSpec, StageView, stage_table

DEFAULT_CAP = 1 << 26

WordLike = Union[bytes, str, "RankOneWord"]


def as_bytes(word: WordLike) -> bytes:
    if isinstance(word, RankOneWord):
        return word.letters
    if isinstance(word, str):
        return word.encode("ascii")
    return word


@dataclass(frozen=True)
class RankOneWord:
    """A materialized stage word with its stage index."""

    stage: int
    letters: bytes

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, j: int) -> int:
        return self.letters[j] - 0x30

    def to_text(self) -> str:
        return self.letters.decode("ascii")


@dataclass(frozen=True)
class WordAddress:
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


def decode(spec: ParameterSpec, n: int, a: int, b: int,
           cap: int = DEFAULT_CAP) -> bytes:
    """The letters w_n[a:b].

    Descends only into the copies of w_{n-1} and the 1-runs that meet
    [a, b); copies lying wholly inside the range are built bottom up by
    concatenation, each stage's word at most once per call.  Costs
    O(n * r + b - a) time and O(b - a) memory.
    """
    views = _views(spec, n)
    if a > b:
        raise SpecError(f"need a <= b, got [{a}, {b})")
    if a < 0 or b > views[n].h:
        raise SpecError(f"[{a}, {b}) leaves [0, {views[n].h}), the indices of w_{n}")
    if b - a > cap:
        raise CapExceededError(
            f"{b - a} letters of w_{n} exceed the cap {cap}; decode a shorter range"
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


def build_word(spec: ParameterSpec, n: int, cap: int = DEFAULT_CAP) -> RankOneWord:
    """Materialize w_n by the literal recursive concatenation."""
    h = stage_table(spec).view(n).h
    return RankOneWord(stage=n, letters=decode(spec, n, 0, h, cap=cap))


def letter_at(spec: ParameterSpec, n: int, j: int) -> tuple[int, WordAddress]:
    """The letter w_n[j] plus the address that produced it, in O(n) arithmetic.

    Descends the recursion: locate j among the r_{m-1} copies of w_{m-1} and
    the 1-runs between them, then recurse into the copy hit.
    """
    views = _views(spec, n)
    if not 0 <= j < views[n].h:
        raise SpecError(f"index {j} out of range for |w_{n}| = {views[n].h}")
    path = []
    pos = j
    for m in range(n, 0, -1):
        view = views[m - 1]
        k = bisect_right(view.offsets, pos) - 1
        pos -= view.offsets[k]
        if pos >= view.h:
            addr = WordAddress(
                stage=n, index=j, path=tuple(path), spacer=(m - 1, k, pos - view.h)
            )
            return 1, addr
        path.append((m - 1, k))
    return 0, WordAddress(stage=n, index=j, path=tuple(path), spacer=None)


def occurrences(pattern: WordLike, text: WordLike) -> list[int]:
    """All i with text[i : i+|pattern|] == pattern, overlapping included."""
    p, t = as_bytes(pattern), as_bytes(text)
    if not p:
        raise SpecError("pattern must be nonempty")
    out = []
    i = t.find(p)
    while i != -1:
        out.append(i)
        i = t.find(p, i + 1)
    return out


@dataclass(frozen=True)
class BuildsResult:
    builds: bool
    gaps: Optional[tuple[int, ...]]

    def __bool__(self) -> bool:
        return self.builds


def builds(u: WordLike, w: WordLike) -> BuildsResult:
    """Whether w = u 1^{a_1} u ... 1^{a_r} u for nonnegative a_i.

    Both words must begin and end with 0.  The decomposition, when it
    exists, is unique: copies contain 0s only trough u itself, and the
    stretches between copies are all 1s, so every copy start is forced to be
    the next 0 after the previous copy ends.
    """
    ub, wb = as_bytes(u), as_bytes(w)
    for name, word in (("u", ub), ("w", wb)):
        if not word or word[:1] != b"0" or word[-1:] != b"0":
            raise SpecError(f"{name} must begin and end with 0")
    if not wb.startswith(ub):
        return BuildsResult(False, None)
    gaps = []
    pos = len(ub)
    while pos < len(wb):
        nxt = wb.find(b"0", pos)
        if nxt == -1:
            return BuildsResult(False, None)
        if wb.count(b"1", pos, nxt) != nxt - pos:
            return BuildsResult(False, None)
        if wb[nxt:nxt + len(ub)] != ub:
            return BuildsResult(False, None)
        gaps.append(nxt - pos)
        pos = nxt + len(ub)
    if pos != len(wb):
        return BuildsResult(False, None)
    return BuildsResult(True, tuple(gaps))


def expected_occurrences(spec: ParameterSpec, n: int, m: int) -> list[int]:
    """Indices of the copies of w_n inside w_m produced by unrolling the
    recursion from stage m down to stage n (the sublevels of the stage-n
    base inside column m), in increasing order."""
    if not spec.normalized:
        raise SpecError("expected occurrences are defined for normalized specs")
    if not 0 <= n <= m:
        raise SpecError(f"need 0 <= n <= m, got n={n}, m={m}")
    views = stage_table(spec).views(0, m)
    positions = [0]
    for k in range(m - 1, n - 1, -1):
        offs = views[k].offsets
        positions = [p + o for p in positions for o in offs]
    return positions


@dataclass(frozen=True)
class GapInstance:
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
