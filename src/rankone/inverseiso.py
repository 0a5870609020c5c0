"""Inverse-isomorphism calculus on spacer tuples.

A transformation built from parameters (r_n), (s_n) is isomorphic to its
inverse exactly when the spacer tuples are eventually palindromic; the
refuting machinery groups consecutive stages with the ``*`` operation and
detects incompatible grouped tuples, which obstruct any isomorphism with the
reversed-parameter system.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .errors import NotCertifiedError, SpecError
from .params import (
    ParameterSpec,
    SpacerExpr,
    StageRule,
    certified,
    eventual_cycle,
    reversed_parameters,
    stage_table,
)
from .tower import NameWindow
from .words import build_word, occurrences

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


@dataclass(frozen=True)
class CompatibilityResult:
    incompatible: bool
    offset: Optional[int] = None  # witness when compatible
    c: Optional[int] = None  # the forced middle entry; None means any works

    def __bool__(self) -> bool:
        return self.incompatible


def incompatible(s: SpacerTuple, s_prime: SpacerTuple) -> CompatibilityResult:
    """Whether no integer c makes s a substring of s' c s'.

    Equal lengths required.  The scan is alignment-driven: at each offset the
    middle slot either lies outside the match (c free) or is forced to one
    value, so no unbounded integer search is needed.
    """
    length = len(s)
    if len(s_prime) != length:
        raise SpecError(
            f"tuples must have equal length, got {length} and {len(s_prime)}"
        )
    for offset in range(0, length + 2):
        c = None
        ok = True
        for p in range(length):
            g = offset + p
            if g < length:
                if s[p] != s_prime[g]:
                    ok = False
                    break
            elif g == length:
                c = s[p]
            else:
                if s[p] != s_prime[g - length - 1]:
                    ok = False
                    break
        if ok:
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


@dataclass(frozen=True)
class InverseVerdict:
    isomorphic_to_inverse: bool
    N: Optional[int]
    refuting_positions: tuple[int, ...] = ()
    detail: str = ""

    def __bool__(self) -> bool:
        return self.isomorphic_to_inverse


def decide_inverse_isomorphic(spec: ParameterSpec) -> InverseVerdict:
    """Eventual palindromicity of the spacer tuples, decided symbolically
    over the eventual cycle rules: a rule is palindromic when its affine
    expressions match their reversal coefficientwise.  The reversal criterion
    presupposes a certified partially bounded presentation, so anything
    else is refused."""
    if not spec.normalized:
        raise SpecError("decide on the normalized presentation")
    certified(spec)  # raises NotCertifiedError when the hypothesis fails
    refuting = tuple(
        pos for pos, rule in enumerate(eventual_cycle(spec))
        if rule.spacers != rule.spacers[::-1]
    )
    if refuting:
        return InverseVerdict(
            False, None, refuting_positions=refuting,
            detail=f"cycle position(s) {list(refuting)} are never palindromic",
        )
    threshold = 0
    for view in stage_table(spec).views(0, len(spec.preperiod)):
        if view.spacers != tuple(reversed(view.spacers)):
            threshold = view.n + 1
    return InverseVerdict(True, threshold)


# ---------------------------------------------------------------------------
# non-isomorphism criteria


@dataclass(frozen=True)
class GroupingWitness:
    stage: int
    q: int
    t: SpacerTuple
    t_prime: SpacerTuple
    cycle_positions: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class NonIsoReport:
    criteria_met: bool
    status: str
    commensurable: Optional[bool] = None
    cross_bound: Optional[int] = None
    condition3_threshold: Optional[int] = None
    witness: Optional[GroupingWitness] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.criteria_met


def _sum_expr(rule: StageRule) -> SpacerExpr:
    return SpacerExpr(
        sum(e.a for e in rule.spacers),
        sum(e.c for e in rule.spacers),
        sum(e.b for e in rule.spacers),
    )


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

    The stages before both cycles have started are compared on their
    concrete values, every later stage through one common period of the
    eventual cycle rules.  The grouping search follows the reversal
    strategy: triples of consecutive stages anchored at non-palindromic
    cycle positions.  The infinitude claim is established symbolically only
    when the second spec is the coefficientwise reversal of the first;
    otherwise a negative result means "criteria not established", never an
    isomorphism claim.
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
    tableA, tableB = stage_table(specA), stage_table(specB)
    early = list(zip(tableA.views(0, pre), tableB.views(0, pre)))
    cycleA, cycleB = eventual_cycle(specA), eventual_cycle(specB)
    aligned = [
        (cycleA[specA.cycle_position(n)], cycleB[specB.cycle_position(n)])
        for n in range(pre, pre + lcm(len(cycleA), len(cycleB)))
    ]
    acc_aligned = tableA.view(pre).acc == tableB.view(pre).acc and all(
        ra.effective_acc == rb.effective_acc for ra, rb in aligned
    )

    # condition (1): equal cuts and equal spacer sums at every stage
    c_used = any(e.c for ra, rb in aligned for e in ra.spacers + rb.spacers)
    symbolic_ok = all(
        ra.r == rb.r and _sum_expr(ra) == _sum_expr(rb) for ra, rb in aligned
    ) and (not c_used or acc_aligned)
    stop = pre if symbolic_ok else pre + 5 * len(aligned)
    for va, vb in zip(tableA.views(0, stop), tableB.views(0, stop)):
        if va.r != vb.r or sum(va.spacers) != sum(vb.spacers):
            return NonIsoReport(
                False, status="condition1_fails", commensurable=False,
                detail=f"stage {va.n}: cuts or spacer sums differ",
            )
    if not symbolic_ok:
        return NonIsoReport(
            False, status="not_established", commensurable=None,
            detail="commensurability not symbolically decidable for these rules",
        )

    # condition (2): |s_n(i) - s'_n(j)| bounded, from the threshold stage on
    if any(len({(e.a, e.c) for e in ra.spacers + rb.spacers}) > 1
           for ra, rb in aligned):
        return NonIsoReport(
            False, status="not_established", commensurable=True,
            detail="cross spacer differences not symbolically bounded",
        )
    cross_bound = 1 + max(
        [_cross_spread(va.spacers, vb.spacers) for va, vb in early]
        + [_cross_spread([e.b for e in ra.spacers], [e.b for e in rb.spacers])
           for ra, rb in aligned]
    )

    # condition (3) holds from the certificates' threshold on both sides.

    # condition (4): grouped-tuple incompatibility, anchored at
    # non-palindromic positions of the first spec
    positions = tuple(
        pos for pos, rule in enumerate(cycleA)
        if rule.spacers != rule.spacers[::-1]
    )
    is_reversal_twin = acc_aligned and all(
        va.spacers == vb.spacers[::-1] for va, vb in early
    ) and all(ra.spacers == rb.spacers[::-1] for ra, rb in aligned)

    start = max(threshold, pre)
    period = len(specA.cycle)
    limit = start + horizon_periods * period
    for n in range(start, limit):
        if positions and specA.cycle_position(n) not in positions:
            continue
        q, t = group_stages(specA, n, 3)
        q2, t2 = group_stages(specB, n, 3)
        if q != q2 or len(t) != len(t2):
            continue
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


@dataclass(frozen=True)
class RewriteResult:
    window: NameWindow
    replacements: int
    partial_left: bool
    partial_right: bool


def stable_rewrite(spec: ParameterSpec, window: NameWindow, N: int) -> RewriteResult:
    """Replace every complete occurrence of the stage-N word by the stage-N
    word of the reversed-parameter system (its mirror image; lengths agree
    since reversal preserves spacer sums).  Partial occurrences cut by the
    window edges are left untouched and flagged."""
    v = build_word(spec, N).letters
    v_prime = build_word(reversed_parameters(spec), N).letters
    if len(v) != len(v_prime):
        raise SpecError("reversal changed the word length; spec is inconsistent")
    letters = window.letters
    out = bytearray(letters)
    positions = occurrences(v, letters)
    for p in positions:
        out[p:p + len(v)] = v_prime
    first = positions[0] if positions else len(letters)
    last_end = positions[-1] + len(v) if positions else 0
    partial_left = any(
        letters[:len(v) - d] == v[d:]
        for d in range(1, len(v))
        if len(v) - d <= first
    )
    partial_right = any(
        letters[len(letters) - d:] == v[:d]
        for d in range(1, len(v))
        if len(letters) - d >= last_end
    )
    return RewriteResult(
        window=NameWindow(window.anchor, bytes(out), provenance="rewritten"),
        replacements=len(positions),
        partial_left=partial_left,
        partial_right=partial_right,
    )
