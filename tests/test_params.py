import copy
import dataclasses
import itertools
import pickle
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone.analysis import (
    check_ab_law,
    classify,
    classify_totally,
    corrupt_gap_pair,
)
from rankone.errors import (
    NormalizationError,
    NotCertifiedError,
    ParseError,
    SpecError,
)
from rankone.params import (
    SPEC_CACHE_SIZE,
    SYMBOLIC_HORIZON,
    BoundednessRefutation,
    ParameterSpec,
    RewritingCriterionResult,
    SpacerExpr,
    StageRule,
    Value,
    _eventual_sign,
    _period_matrix,
    certified,
    check_rewriting_criterion,
    check_partially_bounded,
    eventual_cycle,
    heights,
    normalize,
    parse_spec,
    reversed_parameters,
    rule_at,
    serialize_spec,
    stage_table,
    stage_views,
)
from rankone.inverseiso import (
    check_non_isomorphism,
    decide_inverse_isomorphic,
    group_stages,
)
from rankone.registry import get_spec, names
from rankone.tower import TowerPoint, name_window, refine
from rankone.words import build_word, expected_occurrences

from helpers import (
    oracle_registers,
    random_certified_spec,
    random_full_grammar_spec,
    random_growth_spec,
    random_normalized_spec,
    random_palindromic_certified_spec,
)

CHACON_TEXT = "preperiod:[]; cycle:[r=3, s=(0, 1), last=3h+1]"
HK_TEXT = "cycle:[r=2, s=(0), last=2h+1]"


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_chacon_raw():
    spec = parse_spec(CHACON_TEXT)
    assert spec.preperiod == ()
    assert len(spec.cycle) == 1
    rule = spec.cycle[0]
    assert rule.r == 3
    assert rule.spacers == (SpacerExpr(0, 0, 0), SpacerExpr(0, 0, 1))
    assert rule.last == SpacerExpr(3, 0, 1)
    assert not spec.normalized


def test_parse_hk_raw():
    spec = parse_spec(HK_TEXT)
    assert spec.cycle[0].r == 2
    assert spec.cycle[0].spacers == (SpacerExpr(0, 0, 0),)
    assert spec.cycle[0].last == SpacerExpr(2, 0, 1)


def test_parse_rejects_empty_cycle():
    with pytest.raises(ParseError):
        parse_spec("cycle:[]")


def test_parse_rejects_small_r():
    with pytest.raises(ParseError):
        parse_spec("cycle:[r=1, s=()]")


def test_parse_rejects_wrong_arity():
    with pytest.raises(ParseError):
        parse_spec("cycle:[r=3, s=(1)]")


def test_parse_rejects_negative():
    with pytest.raises(ParseError) as info:
        parse_spec("cycle:[r=2, s=(-1)]")
    assert info.value.line == 1


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_spec("name: x\ncycle:[r=2, q=(0)]")
    assert info.value.line == 2
    assert info.value.col > 1


@pytest.mark.parametrize("text, line, col, message", [
    ("cycle: [r=2,\n s=(\u00b2)]", 2, 5, "expected a spacer term, found '\u00b2'"),
    ("cycle: [r=2, s=(\u0663)]", 1, 17, "expected a spacer term, found '\u0663'"),
    ("cycle: [r=\u0663, s=(0, 1)]", 1, 11, "expected an integer, found '\u0663'"),
    ("cycle: [r=2, s=(0)]\ncycle: [r=3, s=(0, 1)]", 2, 1, "duplicate field 'cycle'"),
    ("name: a\n\nname: b\ncycle: [r=2, s=(0)]", 3, 1, "duplicate field 'name'"),
    ("cycle: [r=2,;s=(0)]", 1, 13, "unknown rule field ';'"),
    ("cycle: [r=2, s=(0)\n  }", 2, 3, "expected ']', found '}'"),
    ("cycle: [r=2, s=(1h+ # no newline ends this", 1, 43,
     "expected a spacer term, found ''"),
    ("cycle: [r=2, s=(" + "9" * 5000 + ")]", 1, 17, "5000 digits is too long"),
])
def test_parse_error_positions(text, line, col, message):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value).endswith(message)


def test_blanks_may_separate_any_tokens():
    spec = parse_spec("cycle: [r=2, s=(0)]")
    assert parse_spec("cycle\n:\n[ r\n=\n2 ,\ns\r\n= ( # c\n0\n)\n]") == spec
    assert parse_spec("name:\ncycle: [r=2, s=(0)]") == spec


@given(st.text())
@example("cycle: [r=2, s=(\u00b2)]")
@example("cycle: [r=2, s=(1h+#")
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_a_parse_error(text):
    try:
        parse_spec(text)
    except SpecError:  # ParseError, or a spec the parsed rules cannot form
        pass


def test_registry_round_trips():
    for name in names():
        spec = get_spec(name)
        assert parse_spec(serialize_spec(spec)) == spec


@st.composite
def specs(draw):
    def expr():
        return SpacerExpr(
            draw(st.integers(0, 3)), draw(st.integers(0, 2)),
            draw(st.integers(0, 9)),
        )

    def rule():
        r = draw(st.integers(2, 4))
        spacers = tuple(expr() for _ in range(r - 1))
        last = expr() if draw(st.booleans()) else None
        acc = expr() if draw(st.booleans()) else None
        return StageRule(r=r, spacers=spacers, last=last, acc=acc)

    cycle = tuple(rule() for _ in range(draw(st.integers(1, 3))))
    pre = tuple(rule() for _ in range(draw(st.integers(0, 2))))
    name = draw(st.sampled_from([None, "spec-under-test"]))
    return ParameterSpec(cycle=cycle, preperiod=pre, name=name)


@given(specs())
@settings(max_examples=200, deadline=None)
def test_serialize_parse_identity(spec):
    assert parse_spec(serialize_spec(spec)) == spec


# the tokens of the config grammar: a word keeps its leading digits
TOKENS = re.compile(r"[0-9]*[A-Za-z]+|[0-9]+|\S")
BLANKS = ["", " ", "\t", "\n", "\r\n", " # note\n", "\n\t# note\n\n"]


@given(specs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_blanks_and_comments_between_tokens_parse_alike(spec, rng):
    text = serialize_spec(spec)
    pieces = []
    if spec.name:  # the name runs to the end of its line
        name_line, text = text.split("\n", 1)
        pieces = ["name", name_line[len("name"):] + "\n"]
    pieces += TOKENS.findall(text)
    spread = "".join(p + rng.choice(BLANKS) for p in pieces)
    assert parse_spec(spread) == spec


@given(specs())
@example(parse_spec(  # A doubles from 2 on: not folded
    "preperiod: [r=2, s=(0), acc=2]; cycle: [r=2, s=(1h+1A), acc=1A]"))
@example(parse_spec(  # A stays 0: folded although the increment reads A
    "cycle: [r=2, s=(1h+1A), acc=1A]"))
@settings(max_examples=100, deadline=None)
def test_eventual_cycle_agrees_with_the_stages(spec):
    # past the preperiod each eventual rule evaluates to the concrete stage
    cycle = eventual_cycle(spec)
    t0 = len(spec.preperiod)
    for view in stage_table(spec).views(t0, t0 + 2 * len(cycle) + 2):
        rule = cycle[spec.cycle_position(view.n)]
        assert rule.r == view.r
        assert tuple(e.value(view.h, view.acc) for e in rule.spacers) == view.spacers
        last = None if rule.last is None else rule.last.value(view.h, view.acc)
        assert last == view.last
        next_acc = stage_table(spec).view(view.n + 1).acc
        assert view.acc + rule.effective_acc.value(view.h, view.acc) == next_acc
    # the cycle is folded exactly when A stays put through one period
    accs = {v.acc for v in stage_table(spec).views(t0, t0 + len(cycle) + 1)}
    folded = all(
        rule.effective_acc.is_zero and all(e.c == 0 for e in rule.spacers)
        for rule in cycle
    )
    assert folded == (len(accs) == 1)


# ---------------------------------------------------------------------------
# rule evaluation and heights


def test_rule_at_chacon_raw():
    spec = get_spec("chacon-raw")
    v0 = rule_at(spec, 0)
    assert (v0.r, v0.spacers, v0.last) == (3, (0, 1), 4)
    v1 = rule_at(spec, 1)
    assert v1.last == 25  # 3*h_1 + 1 with h_1 = 8


def test_rule_at_constant_rules_ignore_height():
    spec = parse_spec("cycle:[r=2, s=(7)]")
    assert rule_at(spec, 0).spacers == (7,)
    assert rule_at(spec, 9).spacers == (7,)


def test_rule_at_matches_unrolled_schedule():
    rng = Random(5)
    for _ in range(10):
        spec = random_normalized_spec(rng)
        unrolled = list(spec.preperiod) + [
            spec.cycle[k % len(spec.cycle)] for k in range(51)
        ]
        for n in range(51):
            assert spec.rule_schedule(n) == unrolled[n]
            assert rule_at(spec, n).rule == unrolled[n]


def test_heights_chacon_raw():
    # h_2 = 24 + 0 + 1 + 25 = 50 by the recurrence
    assert heights(get_spec("chacon-raw"), 3) == [1, 8, 50, 302]


def test_heights_chacon_normalized():
    assert heights(get_spec("chacon"), 3) == [1, 4, 21, 122]


def test_heights_doubling():
    spec = parse_spec("cycle:[r=2, s=(0)]")
    assert heights(spec, 10) == [2 ** n for n in range(11)]


def test_height_recurrence_exact():
    rng = Random(6)
    for _ in range(20):
        spec = random_normalized_spec(rng)
        views = list(itertools.islice(stage_views(spec), 13))
        for a, b in zip(views, views[1:]):
            assert b.h == a.r * a.h + sum(a.all_spacers)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_chacon_values():
    norm = normalize(get_spec("chacon-raw"))
    assert rule_at(norm, 0).spacers == (0, 1)
    assert rule_at(norm, 1).spacers == (4, 5)
    assert rule_at(norm, 2).spacers == (29, 30)
    assert norm.normalized


def test_normalize_hk_values():
    norm = normalize(get_spec("hk-raw"))
    assert rule_at(norm, 1).spacers == (3,)
    assert rule_at(norm, 2).spacers == (14,)


def test_normalize_idempotent():
    rng = Random(7)
    for _ in range(15):
        spec = random_growth_spec(rng)
        once = normalize(spec)
        assert normalize(once) == once


def test_normalize_identity_on_normalized():
    spec = get_spec("chacon")
    assert normalize(spec) is spec


def test_normalize_rejects_custom_acc():
    spec = ParameterSpec(cycle=(
        StageRule(r=2, spacers=(SpacerExpr(0, 0, 1),),
                  last=SpacerExpr(1, 0, 0), acc=SpacerExpr(0, 0, 5)),
    ))
    with pytest.raises(NormalizationError):
        normalize(spec)


def test_normalization_error_names_the_stage_of_a_cycle_rule():
    # cycle rule 0 first acts at stage 2, after the two preperiod rules
    raw = StageRule(r=2, spacers=(SpacerExpr(0, 0, 1),), last=SpacerExpr(1, 0, 0))
    custom = StageRule(r=3, spacers=(SpacerExpr(0, 0, 0),) * 2,
                       last=SpacerExpr(1, 0, 0), acc=SpacerExpr(0, 0, 5))
    spec = ParameterSpec(cycle=(custom, raw), preperiod=(raw, raw))
    with pytest.raises(NormalizationError, match="cycle rule 0") as info:
        normalize(spec)
    assert info.value.stage == 2
    spec = ParameterSpec(cycle=(raw,), preperiod=(raw, custom))
    with pytest.raises(NormalizationError, match="preperiod rule 1") as info:
        normalize(spec)
    assert info.value.stage == 1


def test_normalized_heights_track_raw_heights():
    # raw height = normalized height + accumulated delays
    rng = Random(8)
    for _ in range(10):
        raw = random_growth_spec(rng)
        norm = normalize(raw)
        for n in range(8):
            h_norm, acc = rule_at(norm, n).h, rule_at(norm, n).acc
            assert rule_at(raw, n).h == h_norm + acc


# ---------------------------------------------------------------------------
# partial boundedness


def test_chacon_certificate():
    result = check_partially_bounded(get_spec("chacon"))
    assert result.status == "certified"
    c = result.certificate
    assert (c.R_frak, c.S_frak, c.N) == (4, 2, 1)
    assert c.verified_mode == "symbolic"


def test_hk_certificate():
    result = check_partially_bounded(get_spec("hk"))
    assert result.status == "certified"
    assert result.certificate.N == 1
    assert result.certificate.R_frak == 3


def test_certificate_conditions_hold_concretely():
    for name in ("chacon", "hk"):
        spec = get_spec(name)
        c = check_partially_bounded(spec).certificate
        for view in itertools.islice(stage_views(spec), c.N, 14):
            assert view.r < c.R_frak
            for i, si in enumerate(view.spacers):
                assert si >= view.h
                for sj in view.spacers[i + 1:]:
                    assert abs(si - sj) < c.S_frak


def test_symbolic_certificates_hold_concretely_on_random_specs():
    # the row-iteration certificates promise the three conditions from
    # stage N on; spot-check them far past the analysis horizon
    rng = Random(12)
    for _ in range(20):
        spec = normalize(random_growth_spec(rng))
        result = check_partially_bounded(spec)
        assert result.status == "certified"
        c = result.certificate
        for view in itertools.islice(stage_views(spec), c.N, 16):
            assert view.r < c.R_frak
            for i, si in enumerate(view.spacers):
                assert si >= view.h
                for sj in view.spacers[i + 1:]:
                    assert abs(si - sj) < c.S_frak
        if c.N > 0:
            below = rule_at(spec, c.N - 1)
            assert any(s < below.h for s in below.spacers)


def test_all_zero_spacers_refuted():
    spec = parse_spec("cycle:[r=2, s=(0)]")
    result = check_partially_bounded(spec)
    assert result.status == "refuted"
    assert result.refutation.condition == 3


def test_linear_accumulator_refuted():
    # A grows linearly while heights double, so condition (3) fails forever
    spec = ParameterSpec(cycle=(
        StageRule(r=2, spacers=(SpacerExpr(0, 1, 0),), acc=SpacerExpr(0, 0, 1)),
    ))
    result = check_partially_bounded(spec)
    assert result.status == "refuted"


def test_unequal_coefficients_fall_back():
    spec = ParameterSpec(cycle=(
        StageRule(r=3, spacers=(SpacerExpr(1, 0, 0), SpacerExpr(2, 0, 0))),
    ))
    result = check_partially_bounded(spec)
    assert result.status == "unknown"
    assert "numeric" in result.detail


def test_numeric_mode_matches_symbolic():
    rng = Random(9)
    specs = [get_spec("chacon"), get_spec("hk")] + [
        normalize(random_growth_spec(rng)) for _ in range(10)
    ]
    for spec in specs:
        sym = check_partially_bounded(spec)
        num = check_partially_bounded(spec, mode="numeric", up_to=12)
        assert sym.status == "certified" and num.status == "certified"
        assert sym.certificate.N == num.certificate.N
        assert num.certificate.verified_mode == "numeric-up-to(12)"


def test_static_accumulator_folds_into_constants():
    # the last-column spacer sits only in the preperiod, so after normalizing
    # A stays 5 and the cycle's A terms are constants
    spec = normalize(parse_spec(
        "preperiod: [r=3, s=(0, 1), last=5]; cycle: [r=3, s=(1h, 1h+1)]"
    ))
    assert rule_at(spec, 1).acc == rule_at(spec, 30).acc == 5
    sym = check_partially_bounded(spec).certificate
    num = check_partially_bounded(spec, mode="numeric", up_to=30).certificate
    assert (sym.R_frak, sym.S_frak, sym.N) == (num.R_frak, num.S_frak, num.N) \
        == (4, 2, 1)


def test_numeric_mode_refutes_at_horizon():
    spec = parse_spec("cycle:[r=2, s=(0)]")
    result = check_partially_bounded(spec, mode="numeric", up_to=6)
    assert result.status == "refuted"
    assert result.refutation.stage == 6


def test_numeric_refutation_names_the_last_failing_slot():
    spec = parse_spec("cycle:[r=4, s=(0, 1h, 2)]")
    result = check_partially_bounded(spec, mode="numeric", up_to=3)
    assert result.refutation == BoundednessRefutation(
        3, 3, i=2, detail="s_3(2)=2 < h_3=187"
    )
    assert result.detail == "condition (3) fails at the last checked stage 3"


def test_symbolic_verdicts_hold_numerically():
    # a symbolic refutation at stage s is a numeric refutation at up_to=s,
    # and a symbolic certificate (R, S, N) bounds the numeric certificates
    # of the stages N .. N+5
    rng = Random(71)
    counts = {"certified": 0, "refuted": 0, "unknown": 0}
    for _ in range(3000):
        spec = random_normalized_spec(rng)
        sym = check_partially_bounded(spec)
        counts[sym.status] += 1
        if sym.status == "refuted":
            s = sym.refutation.stage
            num = check_partially_bounded(spec, mode="numeric", up_to=s)
            assert num.status == "refuted" and num.refutation.stage == s
            view = rule_at(spec, s)
            assert any(x < view.h for x in view.spacers)
        elif sym.status == "certified":
            c = sym.certificate
            for up_to in range(c.N, c.N + 6):
                num = check_partially_bounded(spec, mode="numeric", up_to=up_to)
                assert num.status == "certified"
                n = num.certificate
                assert n.N <= c.N and n.R_frak <= c.R_frak and n.S_frak <= c.S_frak
    assert counts["certified"] > 1500 and counts["refuted"] > 150


def test_period_matrix_advances_the_registers_by_one_period():
    # property (a): at each cycle position, the period matrix takes
    # (h, A, 1) at stage t0 + pos + kP to the registers one period later
    rng = Random(13)
    makers = (random_normalized_spec, random_certified_spec, random_growth_spec)
    checks = 0
    for i in range(600):
        spec = makers[i % 3](rng)
        t0, period = len(spec.preperiod), len(spec.cycle)
        registers = oracle_registers(spec, t0 + 8 * period)
        for pos in range(period):
            m = _period_matrix(spec, pos)
            for k in range(6):
                n = t0 + pos + k * period
                h, acc = registers[n]
                moved = [x * h + y * acc + z for x, y, z in m]
                assert moved == [*registers[n + period], 1], (spec, pos, k)
                checks += 1
    assert checks > 6000


def _claimed_rows(rule):
    """(row, value) for each row the deciders hand to _eventual_sign at a
    stage of this rule: s(i) - h for each spacer (condition (3)), and
    2 * last - h_next for the last column when there is one.  value(h, A,
    h_next) is the row's quantity, computed in integers."""
    rows = [([e.a - 1, e.c, e.b], lambda h, acc, _, e=e: e.value(h, acc) - h)
            for e in rule.spacers]
    if rule.last is not None:
        exprs = rule.spacers + (rule.last,)
        last = rule.last
        rows.append(([2 * last.a - rule.r - sum(e.a for e in exprs),
                      2 * last.c - sum(e.c for e in exprs),
                      2 * last.b - sum(e.b for e in exprs)],
                     lambda h, acc, h_next: 2 * last.value(h, acc) - h_next))
    return rows


def test_eventual_sign_claims_hold_at_every_period_they_cover():
    # property (b): "holds" at W claims the row's quantity is >= 0, and
    # "fails" that it is <= -1, at stage t0 + pos + kP for every k >= W;
    # each claim is checked for k from W to W + 40 against the registers
    # of oracle_registers, without the deciders
    rng = Random(29)
    specs = [random_full_grammar_spec(rng) for _ in range(600)]
    # A pinned at 0 and a last column of exactly half the next height: the
    # row (0, -1, 0) reads 0 at every stage, the edge between the two claims
    specs += [ParameterSpec((StageRule(2, (SpacerExpr(0, c, b),),
                                       last=SpacerExpr(la, lc, lb),
                                       acc=SpacerExpr()),))
              for la, lc, lb, c, b in itertools.product(
                  range(4), range(3), range(3), range(3), range(3))]
    claims = {"holds": 0, "fails": 0}
    for spec in specs:
        t0, period = len(spec.preperiod), len(spec.cycle)
        registers = None
        for pos, rule in enumerate(spec.cycle):
            m = _period_matrix(spec, pos)
            for row, value in _claimed_rows(rule):
                sign, w = _eventual_sign(row, m)
                if sign == "unknown":
                    continue
                claims[sign] += 1
                stop = t0 + pos + (w + 40) * period + 2
                if registers is None or len(registers) < stop:
                    registers = oracle_registers(spec, stop)
                for k in range(w, w + 41):
                    n = t0 + pos + k * period
                    x = value(*registers[n], registers[n + 1][0])
                    assert (x >= 0 if sign == "holds" else x <= -1), \
                        (spec, pos, row, sign, w, k)
    assert claims["holds"] > 1000 and claims["fails"] > 200, claims


def test_symbolic_claims_hold_at_the_stages_they_cover():
    # property (c): a certificate (R, S, N) claims r_n < R, a spread of the
    # non-final spacers below S and every one of them >= h_n at each stage
    # n >= N; a refutation claims s_n(i) < h_n at its witness stage and at
    # each later period (the spacer stays below the growing height); a
    # rewriting criterion that holds claims r_n <= R, non-final spacers
    # below S and 2 * last_n >= h_{n+1} from its threshold on.  Each claim
    # is checked at 41 stages against oracle_registers, without a decider
    rng = Random(31)
    makers = (random_normalized_spec, random_certified_spec, random_growth_spec,
              random_full_grammar_spec)
    seen = dict.fromkeys(["certified", "refuted", "unknown", "holds"], 0)
    for i in range(2400):
        spec = makers[i % 4](rng)
        if spec.normalized:
            normal = spec
        else:
            criterion = check_rewriting_criterion(spec)
            if criterion.status == "holds":
                seen["holds"] += 1
                start = criterion.threshold
                registers = oracle_registers(spec, start + 42)
                for n in range(start, start + 41):
                    rule, (h, acc) = spec.rule_schedule(n), registers[n]
                    assert rule.r <= criterion.R_frak, (spec, n)
                    assert max(e.value(h, acc) for e in rule.spacers) < criterion.S_frak
                    assert 2 * rule.last.value(h, acc) >= registers[n + 1][0]
            normal = normalize(spec)
        result = check_partially_bounded(normal)
        seen[result.status] += 1
        if result.status == "certified":
            c = result.certificate
            registers = oracle_registers(normal, c.N + 41)
            for n in range(c.N, c.N + 41):
                rule, (h, acc) = normal.rule_schedule(n), registers[n]
                spacers = [e.value(h, acc) for e in rule.spacers]
                assert rule.r < c.R_frak, (normal, n)
                assert max(spacers) - min(spacers) < c.S_frak, (normal, n)
                assert min(spacers) >= h, (normal, n)
        elif result.status == "refuted":
            w, period = result.refutation, len(normal.cycle)
            assert w.condition == 3
            registers = oracle_registers(normal, w.stage + 40 * period + 1)
            for n in range(w.stage, w.stage + 40 * period + 1, period):
                h, acc = registers[n]
                spacer = normal.rule_schedule(n).spacers[w.i].value(h, acc)
                assert spacer < h, (normal, w, n)
    assert seen["certified"] > 1000 and seen["refuted"] > 40, seen
    assert seen["holds"] > 500, seen


def test_rewriting_criterion_folds_a_constant_accumulator_into_the_last_column():
    # A_n stays 0, so the last column 2h + 3 is exactly half of
    # h_{n+1} = 2h + (0 + 3) + (2h + 3) at every stage; the criterion holds
    # with equality, which the row on the unfolded cycle never shows
    spec = parse_spec("cycle: [r=2, s=(1A+3), last=2h+3, acc=0]")
    assert check_rewriting_criterion(spec) == RewritingCriterionResult(
        "holds", R_frak=2, S_frak=4, threshold=0)
    registers = oracle_registers(spec, 42)
    last = spec.cycle[0].last
    for n in range(41):
        (h, acc), (h_next, _) = registers[n], registers[n + 1]
        assert acc == 0 and 2 * last.value(h, acc) - h_next == 0


def test_undecided_condition_3_is_reported_unknown():
    # the row of s - h is (-1, 1, 3); the period matrix fixes (-1, 1), so
    # the h term stays negative and the componentwise test never settles
    spec = parse_spec("cycle: [r=2, s=(1A+3), acc=1h+1A+6]")
    result = check_partially_bounded(spec)
    assert result.status == "unknown"
    assert result.certificate is None and result.refutation is None
    assert result.detail == (
        "condition (3) undecided for cycle rule 0 slot 0 within "
        f"{SYMBOLIC_HORIZON} periods; fall back to numeric mode")


def test_numeric_mode_rejects_negative_horizon():
    with pytest.raises(SpecError):
        check_partially_bounded(get_spec("chacon"), mode="numeric", up_to=-1)


def test_spec_caches_are_bounded():
    for k in range(SPEC_CACHE_SIZE + 5):
        spec = parse_spec(f"cycle:[r=2, s=(h+{k})]")
        certified(spec)
        heights(spec, 3)
    assert certified.cache_info().currsize == SPEC_CACHE_SIZE
    assert stage_table.cache_info().currsize == SPEC_CACHE_SIZE


def test_spec_hash_is_kept_once_per_instance(monkeypatch):
    spec, equal = (normalize(parse_spec(CHACON_TEXT)) for _ in range(2))
    assert spec == equal and spec is not equal
    assert hash(spec) == hash(equal)
    assert stage_table(spec) is stage_table(equal)
    calls = []
    rule_hash = StageRule.__hash__
    monkeypatch.setattr(StageRule, "__hash__",
                        lambda rule: calls.append(rule) or rule_hash(rule))
    fresh = parse_spec(HK_TEXT)
    first = hash(fresh)
    assert calls
    calls.clear()
    assert hash(fresh) == first and not calls
    assert certified(spec) is certified(equal) and not calls


@pytest.mark.parametrize("clone", [
    lambda s: pickle.loads(pickle.dumps(s)),
    copy.copy,
    copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "copy", "deepcopy", "replace"])
def test_spec_hash_is_not_carried_to_clones(clone):
    # str hashes differ between processes, so a hash kept in one must not
    # travel with the spec; a planted wrong value shows whether it does
    spec = parse_spec(CHACON_TEXT)
    hash(spec)
    object.__setattr__(spec, "_hash", 12345)
    other = clone(spec)
    assert other == spec
    assert hash(other) == hash(parse_spec(CHACON_TEXT)) != 12345


def test_certified_raises_when_refuted():
    with pytest.raises(NotCertifiedError):
        certified(parse_spec("cycle:[r=2, s=(0)]"))


def test_raw_spec_rejected():
    with pytest.raises(SpecError):
        check_partially_bounded(get_spec("chacon-raw"))


# ---------------------------------------------------------------------------
# the rewriting criterion


def test_rewriting_criterion_chacon():
    # equality case: 2(3h + 1) = 6h + 2 = h_{n+1}
    result = check_rewriting_criterion(get_spec("chacon-raw"))
    assert result.status == "holds"
    assert result.R_frak == 3 and result.S_frak == 2


def test_rewriting_criterion_hk():
    # 2(2h + 1) = 4h + 2 >= 4h + 1 = h_{n+1}
    assert check_rewriting_criterion(get_spec("hk-raw")).status == "holds"


def test_rewriting_zero_last_fails():
    spec = parse_spec("cycle:[r=2, s=(1), last=0]")
    assert check_rewriting_criterion(spec).status == "fails"


def test_rewriting_growing_nonfinal_fails():
    spec = parse_spec("cycle:[r=2, s=(1h), last=9h]")
    assert check_rewriting_criterion(spec).status == "fails"


def test_rewriting_requires_last():
    with pytest.raises(SpecError):
        check_rewriting_criterion(get_spec("chacon"))


def test_rewriting_criterion_leaves_a_last_column_of_one_A_unknown():
    # last_n = A_n, and A stays 0 here, so the criterion in truth fails; the
    # sign search reports the undecided row instead of guessing
    result = check_rewriting_criterion(parse_spec("cycle: [r=2, s=(0), last=1A]"))
    assert result.status == "unknown" and result.holds is None
    assert (result.R_frak, result.S_frak, result.threshold) == (None, None, None)
    assert result.detail == ("last-column condition undecided for cycle rule 0 "
                             f"within {SYMBOLIC_HORIZON} periods")


def test_rewriting_criterion_implies_partially_bounded():
    # randomized instances of the rewriting criterion, verified numerically
    rng = Random(10)
    for _ in range(25):
        raw = random_growth_spec(rng)
        assert check_rewriting_criterion(raw).status == "holds"
        result = check_partially_bounded(normalize(raw), mode="numeric", up_to=12)
        assert result.status == "certified"


# ---------------------------------------------------------------------------
# reversal of parameters


def test_reversed_parameters_round_trip():
    spec = get_spec("chacon")
    assert reversed_parameters(reversed_parameters(spec)).cycle == spec.cycle


def test_reversed_parameters_preserves_heights():
    spec = get_spec("chacon")
    rev = get_spec("chacon-reversed")
    assert heights(spec, 8) == heights(rev, 8)
    # and mirrors every stage word, which stable_rewrite relies on when it
    # writes v[::-1] for the reversed system's w_N
    rng = Random(53)
    makers = (random_growth_spec, random_certified_spec, random_normalized_spec,
              random_palindromic_certified_spec)
    for make in makers:
        for _ in range(12):
            spec = normalize(make(rng))
            rev = reversed_parameters(spec)
            assert heights(rev, 5) == heights(spec, 5)
            for n in range(6):
                mirror = build_word(spec, n).letters[::-1]
                assert build_word(rev, n).letters == mirror


# ---------------------------------------------------------------------------
# input guards that no other test reaches


def _corrupt_pair():
    # chacon's w_2 in w_4 with gap 4 made 31 long: 50 is good, 403 bad
    return corrupt_gap_pair(get_spec("chacon"), 2, 4, 4, 31)[0]


PRE = "preperiod: [r=2, s=(1)]\ncycle: [r=3, s=(0, 1)]\n"


@pytest.mark.parametrize("call, error, message", [
    (lambda: classify(_corrupt_pair()).record_at(1),
     SpecError, "no occurrence of w_n at index 1"),
    (lambda: check_ab_law(_corrupt_pair(), 403),
     SpecError, "occurrence at 403 is bad, need a good seed"),
    (lambda: check_ab_law(_corrupt_pair(), 50, direction="up"),
     SpecError, "direction must be 'right' or 'left', got 'up'"),
    (lambda: classify_totally(_corrupt_pair(), 1),
     SpecError, "need m >= n, got m=1, n=2"),
    (lambda: corrupt_gap_pair(get_spec("chacon"), 2, 4, 999, 3),
     SpecError, "gap ordinal 999 out of range (8 gaps)"),
    (lambda: group_stages(get_spec("chacon"), 0, count=0),
     SpecError, "count must be >= 1, got 0"),
    (lambda: decide_inverse_isomorphic(get_spec("chacon-raw")),
     SpecError, "decide on the normalized presentation"),
    (lambda: check_non_isomorphism(get_spec("chacon-raw"), get_spec("chacon")),
     SpecError, "both specs must be normalized"),
    (lambda: get_spec("chacon").rule_schedule(-1),
     SpecError, "stage index must be >= 0, got -1"),
    (lambda: parse_spec(PRE).cycle_position(0),
     SpecError, "stage 0 is in the preperiod"),
    (lambda: stage_table(get_spec("chacon")).view(-1),
     SpecError, "stage index must be >= 0, got -1"),
    (lambda: stage_table(get_spec("chacon")).views(-1, 2),
     SpecError, "stage index must be >= 0, got -1"),
    (lambda: heights(get_spec("chacon"), -1),
     SpecError, "up_to must be >= 0, got -1"),
    (lambda: check_partially_bounded(get_spec("chacon"), mode="numeric"),
     SpecError, "numeric mode needs up_to"),
    (lambda: check_partially_bounded(get_spec("chacon"), mode="exact"),
     SpecError, "unknown mode 'exact'"),
    (lambda: refine(get_spec("chacon"), TowerPoint(1, 99, Fraction(0))),
     SpecError, "level 99 out of range for C_1 (height 4)"),
    (lambda: name_window(get_spec("chacon-raw"), TowerPoint(1, 0, Fraction(1, 2)),
                         0, 3),
     SpecError, "names are read against normalized presentations"),
    (lambda: parse_spec("cycle: [r=2, s=(1h+2h)]"),
     ParseError, "1:22: duplicate h term in expression"),
    (lambda: parse_spec("cycle: [r=2, r=2, s=(0)]"),
     ParseError, "1:14: duplicate rule field 'r'"),
    (lambda: parse_spec("cycle: [r=2]"),
     ParseError, "1:12: rule needs both r=<int> and s=(...)"),
    (lambda: name_window(get_spec("chacon"), TowerPoint(1, 0, Fraction(1, 2)),
                         3, 2),
     SpecError, "need a <= b, got [3, 2)"),
    (lambda: expected_occurrences(get_spec("chacon"), 3, 2),
     SpecError, "need 0 <= n <= m, got n=3, m=2"),
    (lambda: type("Listed", (Value,), {"__annotations__": {"a": "list"}, "a": []}),
     TypeError, "Listed.a: value types take plain, hashable defaults only"),
], ids=["record-at", "ab-law-bad-seed", "ab-law-direction", "totally-m-below-n",
        "corrupt-ordinal", "group-count", "decide-raw", "non-iso-raw",
        "rule-schedule", "cycle-position", "view", "views", "heights",
        "numeric-without-up-to", "unknown-mode", "refine-level", "name-raw",
        "duplicate-term", "duplicate-field", "rule-without-s", "window-a-above-b",
        "occurrences-n-above-m", "value-mutable-default"])
def test_input_guards_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
