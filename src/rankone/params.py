"""Cutting/spacer parameter sequences: representation, parsing, normalization,
and the symbolic boundedness analysis.

A transformation is described by a finite preperiod of stage rules followed by
a cycle that repeats forever.  Spacer counts are height-affine expressions
``a*h + c*A + b`` where ``h`` is the current column height and ``A`` is an
accumulator register (sum of the delayed last-column spacers, maintained by a
per-rule increment expression).  The accumulator is what keeps the rule class
closed under moving last-column spacers to later stages.
"""

from __future__ import annotations

import itertools
import re
import threading
from bisect import bisect_right
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Iterator, Optional

from .errors import NormalizationError, NotCertifiedError, ParseError, SpecError

SYMBOLIC_HORIZON = 64  # periods to iterate row certificates before giving up
SPEC_CACHE_SIZE = 128  # specs whose stage table and certificate stay cached
MAX_STAGE = 4096  # highest stage a table holds: its memory grows as stage^2


# ---------------------------------------------------------------------------
# domain types


_MISSING = object()  # a field without a default
_FIELDS_LOCK = threading.RLock()


class _OnFirstUse:
    """A class attribute made on its first access, for the class it is read
    from: ``make(cls)`` builds it once, under a reentrant lock (making one
    may read another, as a subclass registers its bases first), and the
    result replaces the descriptor in that class's own ``__dict__``, so
    later reads find it there and never come back here."""

    def __init__(self, name, make):
        self.name, self.make = name, make

    def __get__(self, instance, owner):
        with _FIELDS_LOCK:
            value = owner.__dict__.get(self.name, self)
            if value is self:
                value = self.make(owner)
                setattr(owner, self.name, value)
        bind = getattr(type(value), "__get__", None)
        return value if bind is None else bind(value, instance, owner)


class Value:
    """Base of the frozen value types: a subclass declares its fields as
    class annotations, with optional defaults, as for ``@dataclass(frozen=
    True)``, and behaves as one does: ``fields``, ``replace`` and ``asdict``
    work, instances compare and hash by their field values within one
    class, and assigning or deleting an attribute raises
    ``FrozenInstanceError``.  Unlike the stdlib decorator, which compiles
    about six methods per class with ``exec`` at import time, each subclass
    compiles only its ``__init__``, on its first construction (or when
    ``inspect`` reads it); the other methods are shared, and the class
    registers its fields with ``dataclasses`` on first use."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = _fields(cls)
        cls.__match_args__ = tuple(fields)
        signature = _signature(cls, fields)
        cls.__doc__ = cls.__doc__ or cls.__name__ + signature
        # each class its own, made for it: a subclass made after its base
        # was built must find neither the base's __init__ nor its fields
        cls.__init__ = _OnFirstUse("__init__", _compile_init)
        cls.__dataclass_fields__ = _OnFirstUse("__dataclass_fields__",
                                               _dataclass_fields)
        names = cls.__match_args__
        cls._field_values = staticmethod(
            attrgetter(*names) if len(names) > 1
            else lambda self: tuple(getattr(self, n) for n in names))

    def replace(self, **changes):
        """A copy with the given fields changed, as ``dataclasses.replace``
        makes it."""
        return self.__class__(**dict(zip(self.__match_args__,
                                         self._field_values(self)), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == other._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        values = self._field_values(self)
        inner = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self.__match_args__, values))
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _fields(cls):
    """The fields of a value type in dataclass order, a base's before the
    class's own: name -> (annotation, default or _MISSING), the default as
    ``getattr`` finds it."""
    fields = {}
    for base in reversed(cls.__mro__):
        if issubclass(base, Value):
            annotations = base.__dict__.get("__annotations__", {})
            for name, annotation in annotations.items():
                fields[name] = annotation, getattr(base, name, _MISSING)
    return fields


def _signature(cls, fields):
    """The text of ``__init__``'s signature, read off the field table, for
    the docstring of a type that has none, as dataclass gives one; an
    annotation is text (the modules postpone their evaluation), so its
    repr is what the signature shows.  Refuses, when the class is made, a
    default that dataclass would refuse or copy."""
    shown = []
    for name, (annotation, default) in fields.items():
        shown.append(f"{name}: {annotation!r}")
        if default is _MISSING:
            continue
        if (type(default).__module__ == "dataclasses"
                or type(default).__hash__ is None):
            raise TypeError(f"{cls.__name__}.{name}: value types take plain, "
                            "hashable defaults only")
        shown[-1] += f" = {default!r}"
    return f"({', '.join(shown)})"


def _compile_init(cls):
    """The one function a value type compiles, on its first construction:
    ``__init__`` with the fields as parameters, in order and with their
    defaults, that sets each field and then calls ``__post_init__`` when
    the class has one."""
    fields = _fields(cls)
    params, body = [], []
    namespace = {"_object": object}
    for name, (annotation, default) in fields.items():
        if default is _MISSING:
            params.append(name)
        else:
            namespace[f"_d_{name}"] = default
            params.append(f"{name}=_d_{name}")
        # the statement dataclass generates, so that an instance costs what
        # it cost as a dataclass
        body.append(f" _object.__setattr__(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body or [" pass"]),
         namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {name: annotation
                            for name, (annotation, _) in fields.items()}
    init.__annotations__["return"] = None
    return init


def _dataclass_fields(cls):
    """The class's field table, made by registering the class with
    ``dataclasses``.  Any caller of ``fields``, ``replace``, ``asdict`` or
    ``is_dataclass`` has imported ``dataclasses`` already, so a process
    that never calls them never loads it."""
    import dataclasses
    dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    return cls.__dict__["__dataclass_fields__"]


class SpacerExpr(Value):
    """Spacer count ``a*h_n + c*A_n + b`` with nonnegative integer coefficients."""

    a: int = 0
    c: int = 0
    b: int = 0

    def __post_init__(self):
        for name in ("a", "c", "b"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise SpecError(f"negative or non-integer coefficient {name}={v!r}")

    def value(self, h: int, acc: int) -> int:
        return self.a * h + self.c * acc + self.b

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.c == 0 and self.b == 0

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append(f"{self.a}h")
        if self.c:
            parts.append(f"{self.c}A")
        if self.b or not parts:
            parts.append(str(self.b))
        return "+".join(parts)


ZERO = SpacerExpr(0, 0, 0)


class StageRule(Value):
    """One stage of the construction: ``r`` cuts, ``r - 1`` spacer expressions,
    an optional last-column spacer, and an optional accumulator increment.

    When ``acc`` is absent the accumulator increment defaults to the
    last-column expression (zero if that is absent too), so for raw
    presentations ``A_n`` is exactly the sum of the last-column spacers
    placed so far.
    """

    r: int
    spacers: tuple[SpacerExpr, ...]
    last: Optional[SpacerExpr] = None
    acc: Optional[SpacerExpr] = None

    def __post_init__(self):
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 2:
            raise SpecError(f"r must be an integer >= 2, got {self.r!r}")
        if len(self.spacers) != self.r - 1:
            raise SpecError(
                f"rule with r={self.r} needs {self.r - 1} spacer expressions, "
                f"got {len(self.spacers)}"
            )

    @property
    def effective_acc(self) -> SpacerExpr:
        if self.acc is not None:
            return self.acc
        if self.last is not None:
            return self.last
        return ZERO

    @property
    def last_is_zero(self) -> bool:
        return self.last is None or self.last.is_zero


class ParameterSpec(Value):
    """A finitely described parameter sequence: preperiod then repeating cycle."""

    cycle: tuple[StageRule, ...]
    preperiod: tuple[StageRule, ...] = ()
    name: Optional[str] = None

    def __post_init__(self):
        if not self.cycle:
            raise SpecError("cycle must be nonempty")

    def __hash__(self) -> int:
        # the hash of the fields walks every rule and expression, and the
        # lru_caches keyed on specs ask for it on each lookup; kept once per
        # instance, and out of pickles and copies, since str hashes differ
        # between processes
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.cycle, self.preperiod, self.name))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def normalized(self) -> bool:
        """True when no stage places spacers on the last subcolumn."""
        return all(r.last_is_zero for r in self.preperiod + self.cycle)

    def rule_schedule(self, n: int) -> StageRule:
        """The symbolic rule applied at stage ``n``."""
        if n < 0:
            raise SpecError(f"stage index must be >= 0, got {n}")
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.cycle[(n - len(self.preperiod)) % len(self.cycle)]

    def cycle_position(self, n: int) -> int:
        if n < len(self.preperiod):
            raise SpecError(f"stage {n} is in the preperiod")
        return (n - len(self.preperiod)) % len(self.cycle)


class StageView(Value):
    """A stage rule with its registers evaluated to concrete integers."""

    n: int
    rule: StageRule
    h: int
    acc: int
    spacers: tuple[int, ...]
    last: Optional[int]

    @property
    def r(self) -> int:
        return self.rule.r

    @property
    def all_spacers(self) -> tuple[int, ...]:
        return self.spacers if self.last is None else self.spacers + (self.last,)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start offsets of the r copies of w_n inside w_{n+1}."""
        offs = [0]
        for gap in self.spacers:
            offs.append(offs[-1] + self.h + gap)
        return tuple(offs)


def stage_views(spec: ParameterSpec) -> Iterator[StageView]:
    """Yield concrete per-stage data (r_n, s_n, h_n, A_n) for n = 0, 1, 2, ..."""
    h, acc = 1, 0
    for n in itertools.count():
        rule = spec.rule_schedule(n)
        spacers = tuple(e.value(h, acc) for e in rule.spacers)
        last = None if rule.last is None else rule.last.value(h, acc)
        yield StageView(n, rule, h, acc, spacers, last)
        h, acc, _ = [x * h + y * acc + z for x, y, z in _stage_matrix(rule)]


class StageTable:
    """The stage views of one spec, computed once each and kept in stage
    order, up to MAX_STAGE.  Every concrete stage read in the package goes
    through a table; the lazy fill is locked so that a cached table stays
    shareable across threads."""

    def __init__(self, spec: ParameterSpec):
        self._views: list[StageView] = []
        self._source = stage_views(spec)
        self._lock = threading.Lock()

    def _fill(self, stop: int) -> None:
        if stop > MAX_STAGE + 1:
            raise SpecError(f"stage {stop - 1} exceeds MAX_STAGE = {MAX_STAGE}")
        with self._lock:
            while len(self._views) < stop:
                self._views.append(next(self._source))

    def view(self, n: int) -> StageView:
        if n < 0:
            raise SpecError(f"stage index must be >= 0, got {n}")
        if len(self._views) <= n:
            self._fill(n + 1)
        return self._views[n]

    def views(self, start: int, stop: int) -> list[StageView]:
        """The views of stages start .. stop - 1."""
        if start < 0:
            raise SpecError(f"stage index must be >= 0, got {start}")
        if len(self._views) < stop:
            self._fill(stop)
        return self._views[start:stop]

    def locate(self, n: int, j: int):
        """Where index j of w_n, level j of column n, sits in the recursion:
        the (stage, copy) chain it descends through from the top down, and
        the (stage, slot, offset) of the 1-run it ends in, None when it ends
        at the letter of w_0.  O(n) arithmetic."""
        h = self.view(n).h
        if not 0 <= j < h:
            raise SpecError(f"level {j} out of range for C_{n} (height {h})")
        path = []
        for m in range(n - 1, -1, -1):
            view = self._views[m]
            k = bisect_right(view.offsets, j) - 1
            j -= view.offsets[k]
            if j >= view.h:
                return tuple(path), (view.n, k, j - view.h)
            path.append((view.n, k))
        return tuple(path), None


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def stage_table(spec: ParameterSpec) -> StageTable:
    """The spec's stage table, shared by every caller while cached."""
    return StageTable(spec)


def rule_at(spec: ParameterSpec, n: int) -> StageView:
    """Concrete rule at stage ``n``: r_n, the evaluated spacer tuple, and the
    evaluated last-column spacer (None when absent)."""
    return stage_table(spec).view(n)


def heights(spec: ParameterSpec, up_to: int) -> list[int]:
    """Column heights h_0 .. h_up_to; h_0 = 1 and
    h_{n+1} = r_n*h_n + sum of all stage-n spacers."""
    if up_to < 0:
        raise SpecError(f"up_to must be >= 0, got {up_to}")
    return [v.h for v in stage_table(spec).views(0, up_to + 1)]


# ---------------------------------------------------------------------------
# normalization


def _rebased(e: SpacerExpr) -> SpacerExpr:
    # Old registers in terms of the normalized spec's: h_old = h' + A', A_old = A'.
    return SpacerExpr(e.a, e.a + e.c, e.b)


def normalize(spec: ParameterSpec) -> ParameterSpec:
    """Delay all last-column spacers: each non-final spacer gains the sum of
    the last-column spacers of all earlier stages, and the last column
    becomes empty.  The result presents an isomorphic transformation.

    The input must use default accumulator increments (acc unset); a custom
    increment would need a second register after rewriting, which the rule
    class does not have.
    """
    if spec.normalized:
        return spec

    def convert(rule: StageRule, where: str, idx: int) -> StageRule:
        if rule.acc is not None:
            raise NormalizationError(
                "rule class not closed under normalization: "
                f"{where} rule {idx} carries a custom accumulator increment",
                stage=idx if where == "preperiod" else len(spec.preperiod) + idx,
            )
        last = rule.last if rule.last is not None else ZERO
        new_spacers = tuple(
            SpacerExpr(e.a, e.a + e.c + 1, e.b) for e in rule.spacers
        )
        new_acc = _rebased(last)
        return StageRule(
            r=rule.r,
            spacers=new_spacers,
            last=None,
            acc=None if new_acc.is_zero else new_acc,
        )

    return ParameterSpec(
        cycle=tuple(convert(r, "cycle", i) for i, r in enumerate(spec.cycle)),
        preperiod=tuple(convert(r, "preperiod", i) for i, r in enumerate(spec.preperiod)),
        name=spec.name,
    )


def reversed_parameters(spec: ParameterSpec) -> ParameterSpec:
    """The spec with every spacer tuple reversed (heights are unchanged)."""
    def rev(rule: StageRule) -> StageRule:
        return rule.replace(spacers=tuple(reversed(rule.spacers)))

    name = f"{spec.name}-reversed" if spec.name else None
    return ParameterSpec(
        cycle=tuple(rev(r) for r in spec.cycle),
        preperiod=tuple(rev(r) for r in spec.preperiod),
        name=name,
    )


# ---------------------------------------------------------------------------
# symbolic machinery: the (h, A, 1) register vector evolves by one nonnegative
# integer matrix per stage; cycle analysis composes one full period.


def _stage_matrix(rule: StageRule) -> list[list[int]]:
    """M with (h, A, 1)_{n+1} = M (h, A, 1)_n at a stage of this rule: the
    one register recurrence, which stage_views evaluates and the symbolic
    checks compose."""
    exprs = rule.spacers + ((rule.last,) if rule.last is not None else ())
    h_row = [
        rule.r + sum(e.a for e in exprs),
        sum(e.c for e in exprs),
        sum(e.b for e in exprs),
    ]
    inc = rule.effective_acc
    a_row = [inc.a, 1 + inc.c, inc.b]
    return [h_row, a_row, [0, 0, 1]]


def _mat_mul(x, y):
    return [_row_mul(row, y) for row in x]


def _row_mul(row, m):
    return [sum(row[k] * m[k][j] for k in range(3)) for j in range(3)]


def _period_matrix(spec: ParameterSpec, position: int) -> list[list[int]]:
    """Matrix advancing (h, A, 1) by one full cycle period, starting at the
    given cycle position."""
    period = len(spec.cycle)
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for k in range(period):
        m = _mat_mul(_stage_matrix(spec.cycle[(position + k) % period]), m)
    return m


def _eventual_sign(row, period_matrix):
    """("holds", W) for the smallest W <= SYMBOLIC_HORIZON with row * M^W
    componentwise >= 0, ("fails", W) when the same holds for the refutation
    row (-row, constant term -1), else ("unknown", None).

    Since the register vector is componentwise nonnegative at every stage,
    "holds" certifies row * v_n >= 0 and "fails" row * v_n <= -1 for all
    stages n at this cycle position at least W periods past the preperiod;
    both cannot hold, so at most one of the two rows ever qualifies.
    """
    refute = [-row[0], -row[1], -row[2] - 1]
    for w in range(SYMBOLIC_HORIZON + 1):
        if all(x >= 0 for x in row):
            return "holds", w
        if all(x >= 0 for x in refute):
            return "fails", w
        row = _row_mul(row, period_matrix)
        refute = _row_mul(refute, period_matrix)
    return "unknown", None


def eventual_cycle(spec: ParameterSpec) -> tuple[StageRule, ...]:
    """The cycle rules as they act once the preperiod has ended.  When no
    cycle rule changes A_n, A_n keeps its value at the end of the preperiod
    forever, and that value is substituted into every spacer and increment
    expression, so the rules read in h alone.  Otherwise the cycle is
    returned unchanged.  Either way each rule gives the same concrete stage
    as spec.cycle at every stage past the preperiod."""
    acc = rule_at(spec, len(spec.preperiod)).acc
    increments = [rule.effective_acc for rule in spec.cycle]
    if any(e.a or e.b or (e.c and acc) for e in increments):
        return spec.cycle

    def fold(e):
        return None if e is None else SpacerExpr(e.a, 0, e.b + e.c * acc)

    return tuple(
        StageRule(rule.r, tuple(fold(e) for e in rule.spacers), fold(rule.last),
                  fold(rule.effective_acc))
        for rule in spec.cycle
    )


# ---------------------------------------------------------------------------
# partial boundedness


class PartialBoundednessCertificate(Value):
    """Witnesses for partial boundedness from stage N on: r_n < R_frak,
    non-final spacer differences < S_frak, and every non-final spacer at
    least the current word length."""

    R_frak: int
    S_frak: int
    N: int
    verified_mode: str


class BoundednessRefutation(Value):
    condition: int
    stage: int
    i: Optional[int] = None
    j: Optional[int] = None
    detail: str = ""


class BoundednessResult(Value):
    status: str  # "certified" | "refuted" | "unknown"
    certificate: Optional[PartialBoundednessCertificate] = None
    refutation: Optional[BoundednessRefutation] = None
    detail: str = ""

    @property
    def holds(self) -> Optional[bool]:
        """True when certified, False when refuted, None when unknown."""
        return {"certified": True, "refuted": False}.get(self.status)


def _scan_smallest_n(spec, t_sym, cycle_r_max, cycle_diff_max):
    """Find the smallest N <= t_sym such that the concrete stages in
    [N, t_sym) satisfy condition (3); R and S bound the r's and spacer
    spreads there and the cycle's contributions passed in (zero when every
    stage is scanned)."""
    views = stage_table(spec).views(0, t_sym)
    n_min = t_sym
    for v in reversed(views):
        if min(v.spacers) < v.h:
            break
        n_min = v.n
    kept = views[n_min:]
    r_max = max([cycle_r_max] + [v.r for v in kept])
    diff_max = max([cycle_diff_max] + [max(v.spacers) - min(v.spacers) for v in kept])
    return n_min, r_max + 1, diff_max + 1


def check_partially_bounded(
    spec: ParameterSpec, mode: str = "symbolic", up_to: Optional[int] = None
) -> BoundednessResult:
    """Decide the three boundedness conditions for all n >= N.

    Symbolic mode reasons over the cycle rules (exact; reports "unknown"
    rather than guessing when the rule class defeats it).  Numeric mode
    verifies stages N <= n <= up_to only.
    """
    if not spec.normalized:
        raise SpecError("partial boundedness applies to normalized specs only")
    if mode == "numeric":
        if up_to is None:
            raise SpecError("numeric mode needs up_to")
        if up_to < 0:
            raise SpecError(f"up_to must be >= 0, got {up_to}")
        return _check_pb_numeric(spec, up_to)
    if mode != "symbolic":
        raise SpecError(f"unknown mode {mode!r}")
    return _check_pb_symbolic(spec)


def _check_pb_numeric(spec, up_to):
    n0, R, S = _scan_smallest_n(spec, up_to + 1, 0, 0)
    if n0 > up_to:
        v = rule_at(spec, up_to)
        i = max(i for i, s in enumerate(v.spacers) if s < v.h)
        witness = BoundednessRefutation(
            3, v.n, i=i, detail=f"s_{v.n}({i})={v.spacers[i]} < h_{v.n}={v.h}"
        )
        return BoundednessResult(
            "refuted", refutation=witness,
            detail=f"condition (3) fails at the last checked stage {up_to}",
        )
    cert = PartialBoundednessCertificate(
        R_frak=R, S_frak=S, N=n0, verified_mode=f"numeric-up-to({up_to})",
    )
    return BoundednessResult("certified", certificate=cert)


def _check_pb_symbolic(spec):
    t0 = len(spec.preperiod)
    period = len(spec.cycle)
    cycle = eventual_cycle(spec)

    # condition (2): within each cycle rule the spacer expressions must agree
    # on the h and A coefficients, otherwise the difference grows (or is
    # beyond this analyzer; either way numeric verification is the fallback).
    diff_max = 0
    for rule in cycle:
        if len({(e.a, e.c) for e in rule.spacers}) > 1:
            return BoundednessResult(
                "unknown",
                detail="condition (2) undecided: spacer expressions with "
                "unequal coefficients; fall back to numeric mode",
            )
        bs = [e.b for e in rule.spacers]
        diff_max = max(diff_max, max(bs) - min(bs))

    # condition (3) per cycle position and slot; the refutation rows stay on
    # the raw rules, which act on the raw (h, A, 1) vector.
    worst_period = 0
    for pos, rule in enumerate(cycle):
        m = _period_matrix(spec, pos)
        for i, (e, raw) in enumerate(zip(rule.spacers, spec.cycle[pos].spacers)):
            if e.a >= 1:
                continue
            if e.a == 0 and e.c == 0:
                # constant spacer against strictly growing heights; the first
                # violating stage at this position exists since h at least
                # doubles per stage
                for n in itertools.count(t0 + pos, period):
                    v = rule_at(spec, n)
                    if e.b < v.h:
                        return BoundednessResult(
                            "refuted",
                            refutation=BoundednessRefutation(
                                3, v.n, i=i,
                                detail=f"constant spacer {e.b} < h_{v.n}={v.h} "
                                "and heights grow without bound",
                            ),
                        )
            else:
                sign, w = _eventual_sign([raw.a - 1, raw.c, raw.b], m)
                if sign == "holds":
                    worst_period = max(worst_period, w)
                    continue
                if sign == "fails":
                    stage = t0 + pos + w * period
                    view = rule_at(spec, stage)
                    return BoundednessResult(
                        "refuted",
                        refutation=BoundednessRefutation(
                            3, stage, i=i,
                            detail=f"s_{stage}({i})={view.spacers[i]} < "
                            f"h_{stage}={view.h} at every later period",
                        ),
                    )
                return BoundednessResult(
                    "unknown",
                    detail=f"condition (3) undecided for cycle rule {pos} slot {i} "
                    f"within {SYMBOLIC_HORIZON} periods; fall back to numeric mode",
                )

    t_sym = t0 + worst_period * period
    cycle_r_max = max(r.r for r in spec.cycle)
    n0, R, S = _scan_smallest_n(spec, t_sym, cycle_r_max, diff_max)
    cert = PartialBoundednessCertificate(
        R_frak=R, S_frak=S, N=n0, verified_mode="symbolic"
    )
    return BoundednessResult("certified", certificate=cert)


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def certified(spec: ParameterSpec) -> PartialBoundednessCertificate:
    """The symbolic certificate, cached; raises when the spec has none."""
    result = check_partially_bounded(spec, mode="symbolic")
    if not result.holds:
        raise NotCertifiedError(
            f"spec is not certified partially bounded: {result.status}"
            + (f" ({result.detail})" if result.detail else "")
        )
    return result.certificate


# ---------------------------------------------------------------------------
# the bounded-cuts / huge-last-column rewriting criterion


class RewritingCriterionResult(Value):
    status: str  # "holds" | "fails" | "unknown"
    R_frak: Optional[int] = None
    S_frak: Optional[int] = None
    threshold: Optional[int] = None
    detail: str = ""

    @property
    def holds(self) -> Optional[bool]:
        """True when the criterion holds, False when it fails, None when
        unknown."""
        return {"holds": True, "fails": False}.get(self.status)


def check_rewriting_criterion(spec: ParameterSpec) -> RewritingCriterionResult:
    """For specs with explicit last-column spacers: bounded cuts, bounded
    non-final spacers, and a last column carrying at least half the next
    height.  Specs passing this normalize to partially bounded ones."""
    rules = spec.preperiod + spec.cycle
    if any(r.last is None for r in rules):
        raise SpecError("this check needs explicit last-column spacers")
    t0 = len(spec.preperiod)
    period = len(spec.cycle)

    s_max = 0
    for pos, rule in enumerate(eventual_cycle(spec)):
        for i, e in enumerate(rule.spacers):
            if e.a >= 1 or e.c >= 1:
                return RewritingCriterionResult(
                    "fails",
                    detail=f"non-final spacer {i} of cycle rule {pos} grows "
                    "without bound",
                )
            s_max = max(s_max, e.b)

    worst_period = 0
    for pos, rule in enumerate(eventual_cycle(spec)):
        m = _period_matrix(spec, pos)
        h_row = _stage_matrix(rule)[0]
        last = rule.last
        row = [2 * last.a - h_row[0], 2 * last.c - h_row[1], 2 * last.b - h_row[2]]
        sign, w = _eventual_sign(row, m)
        if sign == "fails":
            return RewritingCriterionResult(
                "fails",
                detail=f"last-column spacer of cycle rule {pos} stays below "
                "half the next height",
            )
        if sign == "unknown":
            return RewritingCriterionResult(
                "unknown",
                detail=f"last-column condition undecided for cycle rule {pos} "
                f"within {SYMBOLIC_HORIZON} periods",
            )
        worst_period = max(worst_period, w)

    return RewritingCriterionResult(
        "holds",
        R_frak=max(r.r for r in spec.cycle),
        S_frak=s_max + 1,
        threshold=t0 + worst_period * period,
    )


# ---------------------------------------------------------------------------
# config text: parse and serialize


_BLANKS = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")
# a word keeps its leading digits (``2h``); any other character is a token
_TOKEN = re.compile(r"[0-9]*[A-Za-z]+|[0-9]+|.|\Z", re.DOTALL)
_TERM = re.compile(r"([0-9]*)([hA]?)")
_NAME_TEXT = re.compile(r"[^\r\n;#]*")


class _Tokens:
    """A cursor over the tokens of config text: ``pos`` is where the last
    token taken ends, and the token after it is matched once per position."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._peeked = (-1, 0, "")  # (pos, token start, token)

    def peek(self) -> str:
        """The next token, "" at the end of the text."""
        if self._peeked[0] != self.pos:
            start = _BLANKS.match(self.text, self.pos).end()
            self._peeked = (self.pos, start, _TOKEN.match(self.text, start)[0])
        return self._peeked[2]

    def take(self) -> None:
        token = self.peek()
        self.pos = self._peeked[1] + len(token)

    def accept(self, token: str) -> bool:
        if self.peek() != token:
            return False
        self.take()
        return True

    def skip(self, token: str) -> bool:
        """Take every repeat of ``token``; whether there was one."""
        found = False
        while self.accept(token):
            found = True
        return found

    def expect(self, token: str) -> None:
        if not self.accept(token):
            self.error(f"expected {token!r}, found {self.peek()!r}")

    def rest_of_line(self) -> Optional[str]:
        """The free text up to the end of the line, a ``;`` or a ``#``."""
        text = _NAME_TEXT.match(self.text, self.pos)[0]
        self.pos += len(text)
        return text.strip() or None

    def error(self, message: str):
        """Raise a ParseError at the start of the next token."""
        self.peek()
        at = self._peeked[1]
        col = at - self.text.rfind("\n", 0, at)
        raise ParseError(message, self.text.count("\n", 0, at) + 1, col)


def _read_term(tk: _Tokens, what: str, symbols: str) -> tuple[int, str]:
    """A coefficient and its symbol, one of ``symbols`` or "" for a constant."""
    token = tk.peek()
    m = _TERM.fullmatch(token)
    if token == "-":
        tk.error("negative coefficients are not allowed")
    if not token or not m or m[2] not in symbols:
        tk.error(f"expected {what}, found {token!r}")
    try:
        n = int(m[1]) if m[1] else 1
    except ValueError:  # more digits than int() converts
        tk.error(f"integer of {len(m[1])} digits is too long")
    tk.take()
    return n, m[2]


def _read_expr(tk: _Tokens) -> SpacerExpr:
    coefficients = {}
    while True:
        n, sym = _read_term(tk, "a spacer term", "hA")
        if sym in coefficients:
            tk.error(f"duplicate {sym or 'constant'} term in expression")
        coefficients[sym] = n
        if not tk.accept("+"):
            return SpacerExpr(coefficients.get("h", 0), coefficients.get("A", 0),
                              coefficients.get("", 0))


def _parse_rule(tk: _Tokens) -> StageRule:
    fields = {}
    while True:
        key = tk.peek()
        if key not in ("r", "s", "last", "acc"):
            tk.error(f"unknown rule field {key!r}")
        if key in fields:
            tk.error(f"duplicate rule field {key!r}")
        tk.take()
        tk.expect("=")
        if key == "r":
            fields["r"] = _read_term(tk, "an integer", "")[0]
        elif key == "s":
            tk.expect("(")
            exprs = [] if tk.peek() == ")" else [_read_expr(tk)]
            while exprs and tk.accept(","):
                exprs.append(_read_expr(tk))
            tk.expect(")")
            fields["s"] = tuple(exprs)
        else:
            fields[key] = _read_expr(tk)
        if not tk.accept(","):
            break
    if "r" not in fields or "s" not in fields:
        tk.error("rule needs both r=<int> and s=(...)")
    try:
        return StageRule(
            r=fields["r"], spacers=fields["s"],
            last=fields.get("last"), acc=fields.get("acc"),
        )
    except SpecError as exc:
        tk.error(str(exc))


def _parse_rule_list(tk: _Tokens) -> tuple[StageRule, ...]:
    tk.expect("[")
    tk.skip(";")
    rules = [] if tk.peek() == "]" else [_parse_rule(tk)]
    while rules and tk.skip(";") and tk.peek() != "]":
        rules.append(_parse_rule(tk))
    tk.expect("]")
    return tuple(rules)


def parse_spec(text: str) -> ParameterSpec:
    """Parse the config grammar:

        name: <free text>                  # optional
        preperiod: [<rule>; <rule>; ...]   # optional, may be []
        cycle: [<rule>; ...]               # required, nonempty

    where each rule is ``r=<int>, s=(<expr>, ...)[, last=<expr>][, acc=<expr>]``
    and an expression is a ``+``-joined sum of ``<int>``, ``<int>h``, and
    ``<int>A`` terms.  Integers are ASCII digits.  Blanks, newlines and
    ``#`` comments may separate any two tokens; the name runs to the end of
    its line.  Each field appears at most once, and fields may also be
    separated by semicolons.
    """
    tk = _Tokens(text)
    fields = {}
    while True:
        tk.skip(";")
        key = tk.peek()
        if not key:
            break
        if key not in ("name", "preperiod", "cycle"):
            tk.error(f"unknown field {key!r}" if key[-1].isalpha()
                     else f"expected a field name, found {key!r}")
        if key in fields:
            tk.error(f"duplicate field {key!r}")
        tk.take()
        tk.expect(":")
        fields[key] = tk.rest_of_line() if key == "name" else _parse_rule_list(tk)
    if "cycle" not in fields:
        tk.error("missing required field 'cycle'")
    if not fields["cycle"]:
        tk.error("cycle must be nonempty")
    return ParameterSpec(cycle=fields["cycle"], preperiod=fields.get("preperiod", ()),
                         name=fields.get("name"))


def _format_rule(rule: StageRule) -> str:
    parts = [f"r={rule.r}", "s=(" + ", ".join(str(e) for e in rule.spacers) + ")"]
    if rule.last is not None:
        parts.append(f"last={rule.last}")
    if rule.acc is not None:
        parts.append(f"acc={rule.acc}")
    return ", ".join(parts)


def serialize_spec(spec: ParameterSpec) -> str:
    """Canonical config text; parse(serialize(spec)) == spec."""
    lines = []
    if spec.name:
        lines.append(f"name: {spec.name}")
    lines.append(
        "preperiod: [" + "; ".join(_format_rule(r) for r in spec.preperiod) + "]"
    )
    lines.append("cycle: [" + "; ".join(_format_rule(r) for r in spec.cycle) + "]")
    return "\n".join(lines) + "\n"
