"""Geometric cutting-and-stacking simulator with exact rational coordinates.

A point is a (stage, level, offset) triple: level ``j`` of column ``C_n``,
at horizontal fraction ``offset`` of the level's width.  Spacer intervals are
never embedded into the real line; the tower combinatorics alone determines
the map and the names.  The canonical form of a point uses the smallest stage
whose column contains it, so spacer points first appear at the stage that
introduced them.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import words
from .errors import CapExceededError, SpecError, UndefinedOrbitError
from .params import ParameterSpec, Value, stage_table
from .words import NameWindow, decode

DEFAULT_STAGE_BUDGET = 64
OFFSET_DENOMINATOR_BITS = 53
SAME_LEVEL_RETRIES = 100  # consecutive same-level draws before a probe gives up


class TowerPoint(Value):
    stage: int
    level: int
    offset: Fraction

    def __post_init__(self):
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (self.stage, self.level)):
            raise SpecError(f"stage and level must be integers, got "
                            f"{self.stage!r} and {self.level!r}")
        if not isinstance(self.offset, (int, Fraction)):
            raise SpecError(f"offset must be an int or a Fraction, got {self.offset!r}")
        if not 0 <= self.offset < 1:
            raise SpecError(f"offset must lie in [0, 1), got {self.offset}")

    def __str__(self) -> str:
        u = self.offset
        return f"{self.stage}:{self.level}:{u.numerator}/{u.denominator}"


def parse_point(text: str) -> TowerPoint:
    try:
        stage_s, level_s, frac = text.split(":")
        num, den = frac.split("/")
        return TowerPoint(int(stage_s), int(level_s), Fraction(int(num), int(den)))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad point {text!r}; expected n:j:p/q") from exc


def canonicalize(spec: ParameterSpec, p: TowerPoint) -> TowerPoint:
    """Rewrite p at the smallest stage whose column contains it: the copies
    its level descends through, down to a spacer level or the base."""
    table = stage_table(spec)
    path, _ = table.locate(p.stage, p.level)
    level, u = p.level, p.offset
    for stage, k in path:
        below = table.view(stage)
        level -= below.offsets[k]
        u = Fraction(k + u, below.r)
    return TowerPoint(p.stage - len(path), level, u)


def refine(spec: ParameterSpec, p: TowerPoint) -> TowerPoint:
    """The same point in stage n+1 coordinates: pick the subcolumn the offset
    falls into and shift the level past the earlier subcolumns and their
    spacers."""
    view = stage_table(spec).view(p.stage)
    if not 0 <= p.level < view.h:
        raise SpecError(f"level {p.level} out of range for C_{p.stage} "
                        f"(height {view.h})")
    k = int(p.offset * view.r)
    new_level = p.level + view.offsets[k]
    return TowerPoint(p.stage + 1, new_level, p.offset * view.r - k)


def _fit(spec: ParameterSpec, p: TowerPoint, a: int, b: int, what: str) -> TowerPoint:
    """The canonical point, refined until [level + a, level + b) lies inside
    its column, where the images T^a p .. T^(b-1) p climb that column's
    levels.  Raises UndefinedOrbitError, whose message calls the stretch
    ``what``, when that takes more than DEFAULT_STAGE_BUDGET refinements."""
    budget = DEFAULT_STAGE_BUDGET
    table = stage_table(spec)
    q = canonicalize(spec, p)
    for _ in range(budget + 1):
        if q.level + a >= 0 and q.level + b <= table.view(q.stage).h:
            return q
        q = refine(spec, q)
    raise UndefinedOrbitError(f"{what} undefined within {budget} refinements")


def apply_T(spec: ParameterSpec, p: TowerPoint) -> TowerPoint:
    """One step up the tower; refines past column tops.  Raises
    UndefinedOrbitError when the point sits on the forward orbit of the top
    edge (refinement never leaves the top level within the budget)."""
    q = _fit(spec, p, 1, 2, "forward orbit")
    return canonicalize(spec, TowerPoint(q.stage, q.level + 1, q.offset))


def apply_T_inverse(spec: ParameterSpec, p: TowerPoint) -> TowerPoint:
    """Exact inverse of apply_T; the symmetric failure is the backward orbit
    of the base's bottom edge."""
    q = _fit(spec, p, -1, 0, "backward orbit")
    return canonicalize(spec, TowerPoint(q.stage, q.level - 1, q.offset))


def in_base0(spec: ParameterSpec, p: TowerPoint) -> bool:
    """Whether the point lies in B_0, equivalently whether its level reads
    letter 0 (canonical points at stage > 0 sit in spacer levels)."""
    return canonicalize(spec, p).stage == 0


def level_width(spec: ParameterSpec, n: int) -> Fraction:
    """Width of a stage-n level as a fraction of the base interval: each cut
    divides the levels by that stage's r.  The r's are read from the stage
    table, which raises SpecError past MAX_STAGE."""
    width = Fraction(1)
    for view in stage_table(spec).views(0, n):
        width /= view.r
    return width


def name_window(spec: ParameterSpec, p: TowerPoint, a: int, b: int) -> NameWindow:
    """Letters of the point's itinerary on indices [a, b): refine the point
    until [level + a, level + b) fits inside one column, where the images
    T^i p climb that column's levels, then decode that stretch of the
    column's word."""
    if not spec.normalized:
        raise SpecError("names are read against normalized presentations")
    if a > b:
        raise SpecError(f"need a <= b, got [{a}, {b})")
    q = _fit(spec, p, a, b, f"window [{a}, {b}) of the orbit")
    letters = decode(spec, q.stage, q.level + a, q.level + b)
    return NameWindow(a, letters, provenance=str(p))


def sample_point(spec: ParameterSpec, m: int, rng: Random) -> TowerPoint:
    """A random canonical point in column C_m: uniform level, dyadic offset.
    Dyadic offsets avoid the measure-zero edge orbits almost surely."""
    level = rng.randrange(stage_table(spec).view(m).h)
    denominator = 1 << OFFSET_DENOMINATOR_BITS
    offset = Fraction(rng.randrange(denominator), denominator)
    return canonicalize(spec, TowerPoint(m, level, offset))


class InjectivityReport(Value):
    """``trials`` counts the trials done.  It falls short of the number
    asked for only when SAME_LEVEL_RETRIES draws in a row put both points
    in one level, as in a column whose points all canonicalize to the base."""

    trials: int
    separated: int
    same_level_skips: int
    failures: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_injectivity(
    spec: ParameterSpec,
    trials: int,
    m: int = 3,
    seed: int = 0,
) -> InjectivityReport:
    """Sample pairs of points in distinct levels of C_m and check their name
    windows differ.  Any non-separated pair is a bug (the names of points in
    distinct levels must split once the lower one exits the column top into
    spacers), so the failure list should always be empty.  The window of
    4*h_{m+1} letters must fit the decode cap."""
    if trials < 0:
        raise SpecError(f"trials must be >= 0, got {trials}")
    window = 4 * stage_table(spec).view(m + 1).h
    if window > words.DEFAULT_CAP:
        raise CapExceededError(
            f"the name window for m={m} has {window} letters, more than the "
            f"decode cap {words.DEFAULT_CAP}; use a smaller m"
        )
    half = window // 2
    rng = Random(seed)
    separated = 0
    skips = 0
    failures = []
    done = 0
    retries = 0
    while done < trials and retries < SAME_LEVEL_RETRIES:
        p1 = sample_point(spec, m, rng)
        p2 = sample_point(spec, m, rng)
        # same level: the names cannot differ at this resolution
        if (p1.stage, p1.level) == (p2.stage, p2.level):
            skips += 1
            retries += 1
            continue
        done += 1
        retries = 0
        w1 = name_window(spec, p1, -half, window - half)
        w2 = name_window(spec, p2, -half, window - half)
        if w1.letters != w2.letters:
            separated += 1
        else:
            failures.append((str(p1), str(p2)))
    return InjectivityReport(
        trials=done, separated=separated, same_level_skips=skips,
        failures=tuple(failures),
    )
