"""Inverse-isomorphism calculus on spacer tuples.

A transformation built from parameters (r_n), (s_n) is isomorphic to its
inverse exactly when the spacer tuples are eventually palindromic; the
refuting machinery groups consecutive stages with the ``*`` operation and
detects incompatible grouped tuples, which obstruct any isomorphism with the
reversed-parameter system.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from .errors import NotCertifiedError, SpecError
from .params import ParameterSpec, Value, certified, stage_table
from .words import _ANCHOR, NameWindow, build_word, occurrences

SpacerTuple = tuple[int, ...]

GROUPING_HORIZON_PERIODS = 32


def reverse(s: SpacerTuple) -> SpacerTuple:
    return tuple(reversed(s))


def star(s2: SpacerTuple, s1: SpacerTuple) -> SpacerTuple:
    """The spacer tuple of two consecutive stages collapsed into one:
    s1, s2(0), s1, s2(1), ..., s2(r2-2), s1 with length r1*r2 - 1."""
    out = list(s1)
    for entry in s2:
        out.append(entry)
        out.extend(s1)
    return tuple(out)


class CompatibilityResult(Value):
    incompatible: bool
    offset: Optional[int] = None  # witness when compatible
    c: Optional[int] = None  # the forced middle entry; None means any works


def incompatible(s: SpacerTuple, s_prime: SpacerTuple) -> CompatibilityResult:
    """Whether no integer c makes s a substring of s' c s'.

    Equal lengths required.  The scan is alignment-driven: at offset o the
    entries of s before the middle slot s[mid], mid = len(s) - o, must end
    s' and those after it must begin s'; the slot either lies outside s
    (c free) or forces c = s[mid], so no unbounded integer search is needed.
    """
    s, s_prime = tuple(s), tuple(s_prime)
    length = len(s)
    if len(s_prime) != length:
        raise SpecError(
            f"tuples must have equal length, got {length} and {len(s_prime)}"
        )
    for offset in range(length + 2):
        mid = length - offset
        if (offset > 1 and s[mid + 1] != s_prime[0]
                or mid > 0 and s[0] != s_prime[offset]):
            continue  # most offsets fail on the first entry of one side
        if (s[:max(mid, 0)] == s_prime[offset:]
                and s[mid + 1:] == s_prime[:max(offset - 1, 0)]):
            c = s[mid] if 0 <= mid < length else None
            return CompatibilityResult(False, offset=offset, c=c)
    return CompatibilityResult(True)


def group_stages(
    spec: ParameterSpec, from_stage: int, count: int
) -> tuple[int, SpacerTuple]:
    """Collapse ``count`` consecutive stages starting at ``from_stage`` into
    one: the cut count is the product of the r's and the spacer tuple is the
    star-fold of the concrete tuples, outermost stage first.  Raw specs
    are refused: the fold has no place for last-column spacers."""
    if not spec.normalized:
        raise SpecError("stage grouping is defined for normalized specs")
    if count < 1:
        raise SpecError(f"count must be >= 1, got {count}")
    views = stage_table(spec).views(from_stage, from_stage + count)
    q = 1
    for v in views:
        q *= v.r
    t = views[0].spacers
    for v in views[1:]:
        t = star(v.spacers, t)
    return q, t


# ---------------------------------------------------------------------------
# inverse isomorphism decision


class InverseVerdict(Value):
    isomorphic_to_inverse: bool
    N: Optional[int]
    refuting_positions: tuple[int, ...] = ()
    detail: str = ""


def _palindromic_window(spec: ParameterSpec) -> tuple[tuple[int, ...], int]:
    """Read stages [0, t0 + 6P) of the stage table, t0 the preperiod length
    and P the cycle length, and return the cycle positions whose spacer
    tuple is not palindromic at some stage from t0 + 3P on, and N, one past
    the last stage whose tuple is not palindromic.

    The window is exact.  At one cycle position each difference
    s(i) - s(r - 2 - i) is a linear function of (h, A, 1), which one period
    advances by a fixed 3x3 matrix, so along the periods the difference
    follows a linear recurrence of order 3 (Cayley-Hamilton).  Zero at
    periods 3, 4 and 5, it is zero at every later period; zero from some
    period on, it is zero from period 3 on.  So a listed position is not
    palindromic at infinitely many stages, and when none is listed every
    stage from N on is palindromic."""
    t0, period = len(spec.preperiod), len(spec.cycle)
    odd = [v.n for v in stage_table(spec).views(0, t0 + 6 * period)
           if v.spacers != v.spacers[::-1]]
    positions = {spec.cycle_position(n) for n in odd if n >= t0 + 3 * period}
    return tuple(sorted(positions)), odd[-1] + 1 if odd else 0


def decide_inverse_isomorphic(spec: ParameterSpec) -> InverseVerdict:
    """Eventual palindromicity of the spacer tuples, decided exactly from
    the stage table over a window of six cycle periods past the preperiod.
    The reversal criterion presupposes a certified partially bounded
    presentation, so anything else is refused."""
    if not spec.normalized:
        raise SpecError("decide on the normalized presentation")
    certified(spec)  # raises NotCertifiedError when the hypothesis fails
    refuting, N = _palindromic_window(spec)
    if refuting:
        return InverseVerdict(
            False, None, refuting_positions=refuting,
            detail=f"cycle position(s) {list(refuting)} are never palindromic",
        )
    return InverseVerdict(True, N)


# ---------------------------------------------------------------------------
# non-isomorphism criteria


class GroupingWitness(Value):
    stage: int
    q: int
    t: SpacerTuple
    t_prime: SpacerTuple
    cycle_positions: tuple[int, ...]
    note: str = ""


class NonIsoReport(Value):
    criteria_met: bool
    status: str
    commensurable: Optional[bool] = None
    cross_bound: Optional[int] = None
    condition3_threshold: Optional[int] = None
    witness: Optional[GroupingWitness] = None
    detail: str = ""

    @property
    def holds(self) -> Optional[bool]:
        """True when the criteria are met, False when condition (1) fails,
        None when undecided."""
        return {"criteria_met": True, "condition1_fails": False}.get(self.status)


def _cross_spread(s, t) -> int:
    return max(max(s) - min(t), max(t) - min(s))


def check_non_isomorphism(
    specA: ParameterSpec, specB: ParameterSpec,
    horizon_periods: int = GROUPING_HORIZON_PERIODS,
) -> NonIsoReport:
    """Check the four sufficient conditions for non-isomorphism of two
    systems: commensurable parameters, a cross bound on spacer differences,
    spacers at least the word length on both sides, and a bounded grouping
    of consecutive stages with infinitely many incompatible grouped tuples.

    Condition (1) and the reversal are read from the stage tables over
    stages [0, pre + 5L), pre the longer preperiod and L the lcm of the
    cycle lengths.  That window is exact: along the joint periods the
    registers (h_A, A_A, h_B, A_B, 1) advance by one fixed 5x5 matrix, so
    each difference of cuts, spacer sums or reversed entries follows a
    linear recurrence of order 5 (Cayley-Hamilton), and zero at joint
    periods 0-4 past pre it is zero at every stage.  A pair whose window
    passes MAX_STAGE is left undecided.  The grouping search follows the
    reversal strategy: triples of consecutive stages anchored at cycle
    positions of the first spec that are not eventually palindromic.  The
    infinitude claim is established only when the second spec reverses
    the first at every stage; otherwise a negative result means "criteria
    not established", never an isomorphism claim.
    """
    if horizon_periods < 1:
        raise SpecError(f"horizon_periods must be >= 1, got {horizon_periods}")
    if not (specA.normalized and specB.normalized):
        raise SpecError("both specs must be normalized")
    try:
        certA, certB = certified(specA), certified(specB)
    except NotCertifiedError as exc:
        return NonIsoReport(
            False, status="not_established",
            detail=f"partial boundedness hypothesis unavailable: {exc}",
        )
    threshold = max(certA.N, certB.N)
    pre = max(len(specA.preperiod), len(specB.preperiod))
    joint = lcm(len(specA.cycle), len(specB.cycle))
    tableA, tableB = stage_table(specA), stage_table(specB)
    stop = pre + 5 * joint
    try:
        pairs = list(zip(tableA.views(0, stop), tableB.views(0, stop)))
        positions, _ = _palindromic_window(specA)
    except SpecError as exc:
        return NonIsoReport(
            False, status="not_established", commensurable=None,
            detail=f"commensurability undecided: {exc}",
        )

    # condition (1): equal cuts and equal spacer sums at every stage
    for va, vb in pairs:
        if va.r != vb.r or sum(va.spacers) != sum(vb.spacers):
            return NonIsoReport(
                False, status="condition1_fails", commensurable=False,
                detail=f"stage {va.n}: cuts or spacer sums differ",
            )

    # condition (2): |s_n(i) - s'_n(j)| bounded, from the threshold stage on,
    # read over the stages before pre and one joint period.  The read is
    # exact only while each certified rule gives every spacer one (h, A)
    # coefficient pair: equal cuts and spacer sums then fix the cross
    # spreads at each cycle position.
    cross_bound = 1 + max(_cross_spread(va.spacers, vb.spacers)
                          for va, vb in pairs[:pre + joint])

    # condition (3) holds from the certificates' threshold on both sides.

    # condition (4): grouped-tuple incompatibility, anchored at the first
    # spec's positions that are not eventually palindromic
    is_reversal_twin = all(vb.spacers == va.spacers[::-1] for va, vb in pairs)

    start = max(threshold, pre)
    period = len(specA.cycle)
    limit = start + horizon_periods * period
    for n in range(start, limit):
        if positions and specA.cycle_position(n) not in positions:
            continue
        q, t = group_stages(specA, n, 3)
        _, t2 = group_stages(specB, n, 3)
        res = incompatible(t, t2)
        if not res.incompatible:
            continue
        witness = GroupingWitness(
            stage=n, q=q, t=t, t_prime=t2,
            cycle_positions=positions,
            note="t' is the reversal of t" if t2 == reverse(t) else "",
        )
        if is_reversal_twin and positions:
            view = tableA.view(n)
            hypothesis = view.spacers != view.spacers[::-1]
            if hypothesis and t2 == reverse(t):
                return NonIsoReport(
                    True, status="criteria_met", commensurable=True,
                    cross_bound=cross_bound, condition3_threshold=threshold,
                    witness=witness,
                    detail="second system reverses the first; grouped tuples "
                    "at every later non-palindromic stage are incompatible "
                    "with their reversals",
                )
        return NonIsoReport(
            False, status="not_established", commensurable=True,
            cross_bound=cross_bound, condition3_threshold=threshold,
            witness=witness,
            detail="incompatible grouping found but no symbolic argument "
            "that infinitely many stages repeat it",
        )
    return NonIsoReport(
        False, status="condition4_fails", commensurable=True,
        cross_bound=cross_bound, condition3_threshold=threshold,
        detail=f"no incompatible grouping among stages [{start}, {limit})",
    )


# ---------------------------------------------------------------------------
# stable rewriting


def _border(s: bytes, text: bytes) -> int:
    """The length of the longest prefix of s that ends text, by the prefix
    function (Knuth, Morris and Pratt) in time linear in both."""
    fail = [0] * len(s)
    k = 0
    for i in range(1, len(s)):
        while k and s[i] != s[k]:
            k = fail[k - 1]
        if s[i] == s[k]:
            k += 1
        fail[i] = k
    k = 0
    for c in text:
        while k and (k == len(s) or c != s[k]):
            k = fail[k - 1]
        if k < len(s) and c == s[k]:
            k += 1
    return k


def _overlaps(v: bytes, s: bytes) -> bool:
    """Whether a nonempty suffix of v is a prefix of s, for len(s) < len(v).

    Suffixes shorter than the occurrence scan's anchor are compared one by
    one.  A longer one ends with v's last _ANCHOR letters, so its possible
    lengths come from a scan of s for them, shortest first, and each is
    confirmed by comparison.  The comparisons are charged to a budget of
    twice len(s); once it is spent, as on periodic inputs, the prefix
    function answers instead."""
    a = min(len(s), _ANCHOR)
    if any(v.endswith(s[:k]) for k in range(1, a)):
        return True
    if not s:
        return False
    prefix, budget = memoryview(s), 2 * len(s)
    for e in occurrences(v[len(v) - a:], s):
        budget -= e + a
        if budget < 0:
            return _border(s, v[len(v) - len(s):]) > 0
        if v.endswith(prefix[:e + a]):
            return True
    return False


class RewriteResult(Value):
    window: NameWindow
    replacements: int
    partial_left: bool
    partial_right: bool


def stable_rewrite(spec: ParameterSpec, window: NameWindow, N: int) -> RewriteResult:
    """Replace every complete occurrence of the stage-N word by its mirror
    image, the stage-N word of the reversed-parameter system (reversing the
    spacer tuples keeps every h_n and A_n, so it reverses every w_n).
    Partial occurrences cut by the window edges are left untouched and
    flagged: a proper suffix of the word no longer than the first copy's
    start that begins the window, or the mirror case at the right edge,
    each found in time linear in the word."""
    v = build_word(spec, N).letters
    v_prime = v[::-1]
    letters = window.letters
    positions = occurrences(v, letters)
    text, vp = memoryview(letters), memoryview(v_prime)
    parts: list = []
    end = 0
    for p in positions:
        if p < end:  # overlaps the previous copy: cut that one where this starts
            parts[-1] = vp[:len(v) - (end - p)]
        else:
            parts.append(text[end:p])
        parts.append(vp)
        end = p + len(v)
    parts.append(text[end:])
    first = positions[0] if positions else len(letters)
    right = min(len(v) - 1, len(letters) - end)  # end: where the last copy ends
    partial_left = _overlaps(v, letters[:min(first, len(v) - 1)])
    partial_right = _overlaps(v_prime, letters[len(letters) - right:][::-1])
    return RewriteResult(
        window=NameWindow(window.anchor, b"".join(parts), provenance="rewritten"),
        replacements=len(positions),
        partial_left=partial_left,
        partial_right=partial_right,
    )
