"""Occurrence classification against a candidate image name.

A candidate pair holds two name windows over the same index range: the
source itinerary x and a window y that purports to be the itinerary of the
image of the point under some commuting map.  Fix a probe stage kappa whose
word is longer than the spacer-variation bound.  An occurrence of w_n at i
in x is *good* when y carries a full copy of w_n whose start lies within
|w_n| - |w_kappa| positions left of i, so that the copy covers the probe
window [i, i + |w_kappa|); the copy's start is i - rho.  Occurrences whose
probe span leaves the window are *indeterminate* and never guessed.

For a genuine image itinerary the classification obeys the gap law: after a
good occurrence followed by gap a in x and gap b in y, the next occurrence
is good exactly when a = b, and entire blocks of w_m inherit the dichotomy
(never mixed after a fully good block).
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import AmbiguousContainmentError, NotCertifiedError, SpecError
from .params import (
    ParameterSpec,
    PartialBoundednessCertificate,
    certified,
    stage_table,
)
from .tower import NameWindow
from .words import build_word, expected_occurrences, gap_instances, occurrences

GOOD = "good"
BAD = "bad"
INDETERMINATE = "indeterminate"


def select_kappa(
    spec: ParameterSpec, certificate: Optional[PartialBoundednessCertificate] = None
) -> int:
    """Smallest stage whose word is longer than the certificate's spacer
    variation bound."""
    if certificate is None:
        certificate = certified(spec)
    table = stage_table(spec)
    kappa = 0
    while table.view(kappa).h <= certificate.S_frak:
        kappa += 1
    return kappa


@dataclass(frozen=True)
class CandidatePair:
    spec: ParameterSpec
    x: NameWindow
    y: NameWindow
    kappa: int
    n: int

    def __post_init__(self):
        if (self.x.anchor, len(self.x)) != (self.y.anchor, len(self.y)):
            raise SpecError("x and y windows must cover the same index range")
        if not 0 <= self.kappa < self.n:
            raise SpecError(f"need 0 <= kappa < n, got kappa={self.kappa}, n={self.n}")


@dataclass(frozen=True)
class OccurrenceRecord:
    index: int
    verdict: str
    rho: Optional[int] = None
    next_gap: Optional[int] = None  # 1-run length after this occurrence in x
    image_gap: Optional[int] = None  # 1-run after the containing copy in y


@dataclass(frozen=True)
class Classification:
    pair: CandidatePair
    records: tuple[OccurrenceRecord, ...]
    x_occurrences: tuple[int, ...]
    y_occurrences: tuple[int, ...]
    word_len: int
    probe_len: int

    def record_at(self, i: int) -> OccurrenceRecord:
        lo = bisect_left(self.x_occurrences, i)
        if lo == len(self.x_occurrences) or self.x_occurrences[lo] != i:
            raise SpecError(f"no occurrence of w_n at index {i}")
        return self.records[lo]

    def counts(self) -> tuple[int, int, int]:
        good = sum(1 for r in self.records if r.verdict == GOOD)
        bad = sum(1 for r in self.records if r.verdict == BAD)
        ind = len(self.records) - good - bad
        return good, bad, ind


def _run_is_ones(letters: bytes, start: int, stop: int) -> bool:
    return b"0" not in letters[start:stop]


def _gap_after(occs, k, letters, anchor, word_len) -> Optional[int]:
    """1-run length between occurrence k and k+1, None when unreadable."""
    if k + 1 >= len(occs):
        return None
    gap = occs[k + 1] - occs[k] - word_len
    if gap < 0:
        return None
    lo = occs[k] + word_len - anchor
    if not _run_is_ones(letters, lo, lo + gap):
        return None
    return gap


def classify(pair: CandidatePair) -> Classification:
    """Classify every occurrence of w_n in the x window."""
    spec = pair.spec
    wn = build_word(spec, pair.n).letters
    wk_len = stage_table(spec).view(pair.kappa).h
    reach = len(wn) - wk_len
    x, y = pair.x, pair.y

    occs_x = [i + x.anchor for i in occurrences(wn, x.letters)]
    occs_y = [i + y.anchor for i in occurrences(wn, y.letters)]
    _warn_on_unexpected(pair, occs_x)

    records = []
    for k, i in enumerate(occs_x):
        if i - reach < x.anchor:
            records.append(OccurrenceRecord(i, INDETERMINATE))
            continue
        next_gap = _gap_after(occs_x, k, x.letters, x.anchor, len(wn))
        lo = bisect_left(occs_y, i - reach)
        hi = bisect_right(occs_y, i)
        if hi - lo > 1:
            raise AmbiguousContainmentError(
                f"{hi - lo} image copies contain the probe at {i}; "
                "the image window is not a valid itinerary",
                index=i,
            )
        if hi == lo:
            records.append(OccurrenceRecord(i, BAD, next_gap=next_gap))
            continue
        p = occs_y[lo]
        image_gap = _gap_after(occs_y, lo, y.letters, y.anchor, len(wn))
        records.append(
            OccurrenceRecord(i, GOOD, rho=i - p, next_gap=next_gap,
                             image_gap=image_gap)
        )
    return Classification(
        pair=pair,
        records=tuple(records),
        x_occurrences=tuple(occs_x),
        y_occurrences=tuple(occs_y),
        word_len=len(wn),
        probe_len=wk_len,
    )


def _warn_on_unexpected(pair: CandidatePair, occs_x) -> None:
    """Cross-check scanned occurrences against the recursion's copies when
    the source window is a whole stage word of a certified construction; a
    stray occurrence there would mean the certificate is wrong."""
    prov = pair.x.provenance
    if not prov or not prov.startswith("word:"):
        return
    try:
        cert = certified(pair.spec)
    except NotCertifiedError:
        return
    if pair.n < cert.N:
        return
    m = int(prov.split(":", 1)[1])
    expected = {
        o + pair.x.anchor for o in expected_occurrences(pair.spec, pair.n, m)
    }
    stray = [i for i in occs_x if i not in expected]
    if stray:
        warnings.warn(
            f"unexpected occurrence(s) of w_{pair.n} at {stray[:5]} in a "
            "certified run; this indicates a certificate bug",
            stacklevel=3,
        )


@dataclass(frozen=True)
class ABLawRecord:
    index: int
    direction: str
    a: Optional[int]
    b: Optional[int]
    neighbor_index: Optional[int]
    neighbor_verdict: Optional[str]
    predicted_good: Optional[bool]
    consistent: Optional[bool]


def check_ab_law(
    pair: CandidatePair, i: int, direction: str = "right",
    classification: Optional[Classification] = None,
) -> ABLawRecord:
    """Read the gap a after (or before) the good occurrence at i in x and the
    matching gap b in y, predict the neighbor's verdict by a = b, and compare
    with the classifier's verdict.  Unreadable gaps or out-of-window
    neighbors yield an indeterminate comparison (consistent=None)."""
    cls = classification or classify(pair)
    rec = cls.record_at(i)
    if rec.verdict != GOOD:
        raise SpecError(f"occurrence at {i} is {rec.verdict}, need a good seed")
    occs_x, occs_y = cls.x_occurrences, cls.y_occurrences
    k = bisect_left(occs_x, i)
    p = i - rec.rho
    kp = bisect_left(occs_y, p)

    if direction == "right":
        a = rec.next_gap
        b = rec.image_gap
        neighbor = occs_x[k + 1] if k + 1 < len(occs_x) else None
    elif direction == "left":
        a = _gap_after(occs_x, k - 1, pair.x.letters, pair.x.anchor, cls.word_len) \
            if k > 0 else None
        b = _gap_after(occs_y, kp - 1, pair.y.letters, pair.y.anchor, cls.word_len) \
            if kp > 0 else None
        neighbor = occs_x[k - 1] if k > 0 else None
    else:
        raise SpecError(f"direction must be 'right' or 'left', got {direction!r}")

    verdict = None
    if neighbor is not None:
        v = cls.record_at(neighbor).verdict
        verdict = None if v == INDETERMINATE else v
    predicted = None if (a is None or b is None) else (a == b)
    consistent = None
    if predicted is not None and verdict is not None:
        consistent = predicted == (verdict == GOOD)
    return ABLawRecord(
        index=i, direction=direction, a=a, b=b,
        neighbor_index=neighbor, neighbor_verdict=verdict,
        predicted_good=predicted, consistent=consistent,
    )


@dataclass(frozen=True)
class PropagationResult:
    status: str  # "ok" | "contradiction"
    ell: Optional[int] = None
    contradiction_index: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status == "ok"


def propagate_goodness(
    pair: CandidatePair, seed: int,
    classification: Optional[Classification] = None,
) -> PropagationResult:
    """Walk outward from a good seed occurrence.  When every determinate
    occurrence in the window is good with a common alignment, the image
    window must be the source window shifted by that alignment; verify the
    content too and return the shift.  The first bad occurrence (or an
    alignment drift, or a content mismatch) is a contradiction."""
    cls = classification or classify(pair)
    seed_rec = cls.record_at(seed)
    if seed_rec.verdict != GOOD:
        raise SpecError(f"seed occurrence at {seed} is {seed_rec.verdict}")
    ell = seed_rec.rho
    for rec in cls.records:
        if rec.verdict == INDETERMINATE:
            continue
        if rec.verdict == BAD:
            return PropagationResult(
                "contradiction", contradiction_index=rec.index,
                reason="bad occurrence",
            )
        if rec.rho != ell:
            return PropagationResult(
                "contradiction", contradiction_index=rec.index,
                reason=f"alignment drift: rho={rec.rho} != {ell}",
            )
    x, y = pair.x.letters, pair.y.letters
    overlap = len(x) - ell
    if y[:overlap] != x[ell:]:
        for j in range(overlap):
            if y[j] != x[ell + j]:
                return PropagationResult(
                    "contradiction",
                    contradiction_index=pair.x.anchor + j,
                    reason="image window is not the source shifted by ell",
                )
    return PropagationResult("ok", ell=ell)


@dataclass(frozen=True)
class DensityReport:
    good: int
    bad: int
    indeterminate: int
    density: Optional[Fraction]
    threshold: Fraction
    meets_threshold: Optional[bool]


def good_density(
    pair: CandidatePair,
    classification: Optional[Classification] = None,
) -> DensityReport:
    """Exact fraction of good occurrences among the determinate ones,
    against the threshold 1 - 1/(2R + 1) from the certificate."""
    cls = classification or classify(pair)
    good, bad, ind = cls.counts()
    threshold = 1 - Fraction(1, 2 * certified(pair.spec).R_frak + 1)
    if good + bad == 0:
        return DensityReport(good, bad, ind, None, threshold, None)
    density = Fraction(good, good + bad)
    return DensityReport(good, bad, ind, density, threshold, density >= threshold)


TOTALLY_GOOD = "totally_good"
TOTALLY_BAD = "totally_bad"
MIXED = "mixed"


@dataclass(frozen=True)
class BlockRecord:
    index: int
    verdict: str
    good: int
    bad: int
    indeterminate: int


@dataclass(frozen=True)
class TotallyReport:
    blocks: tuple[BlockRecord, ...]
    dichotomy_violations: tuple[int, ...]


def classify_totally(
    pair: CandidatePair, m: int,
    classification: Optional[Classification] = None,
) -> TotallyReport:
    """Verdicts for each occurrence of w_m in x over its constituent w_n
    occurrences, plus any violation of the dichotomy: the block following a
    totally good block must be totally good or totally bad, never mixed.
    With m = n each block is its own single constituent."""
    if m < pair.n:
        raise SpecError(f"need m >= n, got m={m}, n={pair.n}")
    cls = classification or classify(pair)
    wm = build_word(pair.spec, m).letters
    block_starts = [i + pair.x.anchor for i in occurrences(wm, pair.x.letters)]
    blocks = []
    for j in block_starts:
        lo = bisect_left(cls.x_occurrences, j)
        hi = bisect_right(cls.x_occurrences, j + len(wm) - cls.word_len)
        inside = cls.records[lo:hi]
        good = sum(1 for r in inside if r.verdict == GOOD)
        bad = sum(1 for r in inside if r.verdict == BAD)
        ind = len(inside) - good - bad
        if not inside or ind:
            verdict = INDETERMINATE
        elif bad == 0:
            verdict = TOTALLY_GOOD
        elif good == 0:
            verdict = TOTALLY_BAD
        else:
            verdict = MIXED
        blocks.append(BlockRecord(j, verdict, good, bad, ind))
    violations = tuple(
        nxt.index
        for prev, nxt in zip(blocks, blocks[1:])
        if prev.verdict == TOTALLY_GOOD and nxt.verdict == MIXED
    )
    return TotallyReport(blocks=tuple(blocks), dichotomy_violations=violations)


# ---------------------------------------------------------------------------
# pair construction


def word_window(spec: ParameterSpec, m: int) -> NameWindow:
    """The stage-m word as a name window (every itinerary is tiled by it)."""
    return NameWindow(0, build_word(spec, m).letters, provenance=f"word:{m}")


def cut_pair(
    spec: ParameterSpec, n: int, x: NameWindow, image: bytes,
    kappa: Optional[int] = None,
) -> CandidatePair:
    """The pair of x, a word_window, and the image letters, both cut to
    their shared length.  The cut x keeps its provenance, so classify still
    cross-checks it; kappa defaults to select_kappa."""
    if kappa is None:
        kappa = select_kappa(spec)
    shared = min(len(x), len(image))
    return CandidatePair(
        spec=spec,
        x=NameWindow(x.anchor, x.letters[:shared], provenance=x.provenance),
        y=NameWindow(x.anchor, image[:shared]),
        kappa=kappa, n=n,
    )


def shift_pair(
    spec: ParameterSpec, n: int, ell: int, m: int,
    kappa: Optional[int] = None,
) -> CandidatePair:
    """The pair (x, y) with y the source itinerary shifted by ell, i.e. the
    image window of the ell-th power of the transformation."""
    x = word_window(spec, m)
    if not 0 <= ell < len(x):
        raise SpecError(f"shift {ell} out of range for |w_{m}| = {len(x)}")
    return cut_pair(spec, n, x, x.letters[ell:], kappa)


def corrupt_gap_pair(
    spec: ParameterSpec, n: int, m: int,
    gap_ordinal: int, new_length: int,
    kappa: Optional[int] = None,
):
    """A pair whose image window is the source with one inter-copy 1-run
    length altered (the tail shifts accordingly, and both windows are cut to
    the shared length).  Returns the pair and the corrupted gap instance."""
    gaps = gap_instances(spec, n, m)
    if not 0 <= gap_ordinal < len(gaps):
        raise SpecError(f"gap ordinal {gap_ordinal} out of range ({len(gaps)} gaps)")
    if new_length < 0:
        raise SpecError(f"gap length must be >= 0, got {new_length}")
    g = gaps[gap_ordinal]
    x = word_window(spec, m)
    corrupted = (
        x.letters[:g.position] + b"1" * new_length + x.letters[g.position + g.length:]
    )
    return cut_pair(spec, n, x, corrupted, kappa), g
