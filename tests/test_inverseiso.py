import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.errors import NotCertifiedError, SpecError
from rankone import inverseiso
from rankone.inverseiso import (
    _border,
    _overlaps,
    check_non_isomorphism,
    decide_inverse_isomorphic,
    group_stages,
    incompatible,
    reverse,
    stable_rewrite,
    star,
)
from rankone.params import (
    ParameterSpec,
    SpacerExpr,
    StageRule,
    heights,
    normalize,
    parse_spec,
    reversed_parameters,
    rule_at,
)
from rankone.registry import get_spec
from rankone.words import NameWindow, build_word, occurrences

from helpers import (
    oracle_compatible,
    oracle_occurrences,
    oracle_partial_edges,
    oracle_rewrite,
    random_certified_spec,
    random_growth_spec,
    random_palindromic_certified_spec,
)

tuples = st.lists(st.integers(0, 10), min_size=1, max_size=8).map(tuple)


# ---------------------------------------------------------------------------
# tuple calculus


def test_reverse_examples():
    assert reverse((0, 1)) == (1, 0)
    assert reverse((3,)) == (3,)


@given(tuples)
def test_reverse_involution(s):
    assert reverse(reverse(s)) == s


def test_star_examples():
    assert star((4, 5), (0, 1)) == (0, 1, 4, 0, 1, 5, 0, 1)
    assert star((7,), (9,)) == (9, 7, 9)


@given(tuples, tuples)
def test_star_length(s2, s1):
    r1, r2 = len(s1) + 1, len(s2) + 1
    assert len(star(s2, s1)) == r1 * r2 - 1


@given(tuples, tuples, tuples)
@settings(max_examples=300, deadline=None)
def test_star_associative(s3, s2, s1):
    assert star(star(s3, s2), s1) == star(s3, star(s2, s1))


def test_incompatible_examples():
    self_pair = incompatible((3, 7), (3, 7))
    assert not self_pair.incompatible and self_pair.offset == 0

    swapped = incompatible((1, 2), (2, 1))
    assert not swapped.incompatible
    assert (swapped.offset, swapped.c) == (1, 2)

    grouped = incompatible((0, 1, 4, 0, 1, 5, 0, 1), (1, 0, 5, 1, 0, 4, 1, 0))
    assert grouped.incompatible


def test_incompatible_length_mismatch():
    with pytest.raises(SpecError):
        incompatible((1,), (1, 2))


@given(tuples, tuples)
@settings(max_examples=500, deadline=None)
def test_incompatible_symmetric_and_matches_oracle(s, s2):
    if len(s) != len(s2):
        s2 = (s2 * len(s))[:len(s)]
    forward = incompatible(s, s2)
    backward = incompatible(s2, s)
    assert forward.incompatible == backward.incompatible
    for result, (a, b) in ((forward, (s, s2)), (backward, (s2, s))):
        compatible, offset, forced = oracle_compatible(a, b)
        assert (result.incompatible, result.offset, result.c) == \
            (not compatible, offset, forced)


def test_compatibility_witness_is_genuine():
    rng = Random(50)
    for _ in range(300):
        length = rng.randint(1, 6)
        s = tuple(rng.randint(0, 5) for _ in range(length))
        s2 = tuple(rng.randint(0, 5) for _ in range(length))
        result = incompatible(s, s2)
        if not result.incompatible:
            c = result.c if result.c is not None else 99
            padded = s2 + (c,) + s2
            assert padded[result.offset:result.offset + length] == s


def test_grouped_reversal_incompatible():
    # random instances of the grouped-tuple reversal obstruction
    rng = Random(51)
    checked = 0
    while checked < 200:
        len1 = rng.randint(1, 5)
        len2 = rng.randint(1, 5)
        s1 = tuple(rng.randint(0, 20) for _ in range(len1))
        s2 = tuple(rng.randint(0, 20) for _ in range(len2))
        if s1 == reverse(s1) or len(set(s2)) <= 1:
            continue
        t = star(s2, s1)
        assert incompatible(t, reverse(t)).incompatible
        checked += 1


# ---------------------------------------------------------------------------
# stage grouping


def test_group_stages_chacon():
    chacon = get_spec("chacon")
    q, t = group_stages(chacon, 1, 2)
    assert q == 9
    assert t == star((29, 30), (4, 5))
    assert t == (4, 5, 29, 4, 5, 30, 4, 5)


def test_group_single_stage():
    chacon = get_spec("chacon")
    q, t = group_stages(chacon, 2, 1)
    view = rule_at(chacon, 2)
    assert (q, t) == (view.r, view.spacers)


def test_group_stages_refuses_raw_specs():
    # the fold has no place for the last-column spacers of a raw spec
    with pytest.raises(SpecError, match="normalized"):
        group_stages(get_spec("chacon-raw"), 0, 2)


def test_grouped_word_matches_outer_stage():
    rng = Random(52)
    for spec in (get_spec("chacon"), get_spec("hk"), random_certified_spec(rng)):
        for start, count in ((0, 2), (1, 2), (0, 3)):
            q, t = group_stages(spec, start, count)
            inner = build_word(spec, start).letters
            grouped = inner + b"".join(b"1" * gap + inner for gap in t)
            assert grouped == build_word(spec, start + count).letters
            assert len(t) == q - 1


# ---------------------------------------------------------------------------
# inverse isomorphism decision


def test_hk_is_inverse_isomorphic():
    verdict = decide_inverse_isomorphic(get_spec("hk"))
    assert verdict.isomorphic_to_inverse and verdict.N == 0


def test_chacon_is_not_inverse_isomorphic():
    verdict = decide_inverse_isomorphic(get_spec("chacon"))
    assert not verdict.isomorphic_to_inverse
    assert verdict.refuting_positions == (0,)


def test_constant_palindromic_cycle_true():
    # the second spec's accumulator is the constant 4 after normalizing
    for spec in (parse_spec("cycle:[r=3, s=(2h, 2h)]"), normalize(parse_spec(
        "preperiod: [r=2, s=(0), last=4]; cycle: [r=3, s=(1h, 1h)]"
    ))):
        verdict = decide_inverse_isomorphic(spec)
        assert verdict.isomorphic_to_inverse and verdict.N == 0


def test_static_accumulator_verdicts():
    spec = normalize(parse_spec(
        "preperiod: [r=3, s=(0, 1), last=5]; cycle: [r=3, s=(1h, 1h+1)]"
    ))
    verdict = decide_inverse_isomorphic(spec)
    assert not verdict.isomorphic_to_inverse
    assert verdict.refuting_positions == (0,)
    report = check_non_isomorphism(spec, reversed_parameters(spec))
    assert report.criteria_met and report.status == "criteria_met"


def test_random_palindromic_specs_true():
    rng = Random(53)
    for _ in range(10):
        spec = random_palindromic_certified_spec(rng)
        assert decide_inverse_isomorphic(spec).isomorphic_to_inverse


def test_nonpalindromic_preperiod_moves_threshold():
    spec = ParameterSpec(
        preperiod=(StageRule(r=3, spacers=(SpacerExpr(1, 0, 0),
                                           SpacerExpr(1, 0, 3))),),
        cycle=(StageRule(r=2, spacers=(SpacerExpr(1, 0, 0),)),),
    )
    verdict = decide_inverse_isomorphic(spec)
    assert verdict.isomorphic_to_inverse and verdict.N == 1


def test_uncertified_spec_refused():
    with pytest.raises(NotCertifiedError):
        decide_inverse_isomorphic(parse_spec("cycle:[r=2, s=(0)]"))


def test_decide_agrees_with_raw_cycle_palindromicity():
    # the rewriting adds one common quantity per stage, so the verdict on
    # the normalized presentation matches the raw tuples' palindromicity
    rng = Random(57)
    import rankone.params as P
    seen = {True: 0, False: 0}
    while min(seen.values()) < 3:
        raw = random_growth_spec(rng)
        raw_palindromic = all(
            rule.spacers == tuple(reversed(rule.spacers)) for rule in raw.cycle
        )
        verdict = decide_inverse_isomorphic(P.normalize(raw))
        assert verdict.isomorphic_to_inverse == raw_palindromic
        seen[raw_palindromic] += 1


def test_raw_vs_normalized_palindromicity_agrees():
    # normalization adds one common quantity to every entry of a stage
    # tuple, which preserves palindromicity stage by stage
    rng = Random(54)
    import rankone.params as P
    import itertools
    for _ in range(10):
        raw = random_growth_spec(rng)
        norm = P.normalize(raw)
        for va, vb in zip(itertools.islice(P.stage_views(raw), 8),
                          itertools.islice(P.stage_views(norm), 8)):
            raw_pal = va.spacers == tuple(reversed(va.spacers))
            norm_pal = vb.spacers == tuple(reversed(vb.spacers))
            assert raw_pal == norm_pal


# ---------------------------------------------------------------------------
# non-isomorphism criteria


def test_chacon_vs_reversed_criteria_met():
    report = check_non_isomorphism(get_spec("chacon"), get_spec("chacon-reversed"))
    assert report.criteria_met
    assert report.commensurable
    w = report.witness
    assert w.t_prime == reverse(w.t)
    assert incompatible(w.t, w.t_prime).incompatible
    assert not oracle_compatible(w.t, w.t_prime)[0]
    assert w.q == 27


def test_non_isomorphism_self_fails_condition4():
    chacon = get_spec("chacon")
    report = check_non_isomorphism(chacon, chacon)
    assert not report.criteria_met
    assert report.status == "condition4_fails"


def test_non_isomorphism_different_cuts_fails_condition1():
    report = check_non_isomorphism(get_spec("chacon"), get_spec("hk"))
    assert not report.criteria_met
    assert report.status == "condition1_fails"


def test_cycle_spacer_sums_that_differ_fail_condition1():
    # equal cuts and spacers that grow alike, but at every stage the second
    # spec places one spacer more
    spec_a = parse_spec("cycle: [r=3, s=(1h, 1h)]")
    spec_b = parse_spec("cycle: [r=3, s=(1h, 1h+1)]")
    report = check_non_isomorphism(spec_a, spec_b)
    assert report.status == "condition1_fails"
    assert report.commensurable is False
    assert report.detail == "stage 0: cuts or spacer sums differ"


def test_preperiod_stages_compared_concretely():
    # A's preperiod reads A_0 = 0, not the eventual A = 1, so the stage-0
    # spacer sums are 2 and 3 and the systems are never commensurable
    spec_a = parse_spec("preperiod: [r=3, s=(1A, 2), acc=1]\n"
                        "cycle: [r=3, s=(1h, 1h+1)]")
    spec_b = parse_spec("preperiod: [r=3, s=(2, 1), acc=1]\n"
                        "cycle: [r=3, s=(1h+1, 1h)]")
    assert rule_at(spec_a, 0).spacers == (0, 2)
    assert rule_at(spec_b, 0).spacers == (2, 1)
    report = check_non_isomorphism(spec_a, spec_b)
    assert report.status == "condition1_fails"
    assert report.commensurable is False
    assert report.detail == "stage 0: cuts or spacer sums differ"


def test_preperiod_with_unequal_growth_is_decided():
    # the preperiod's spacers grow at different rates, which only matters
    # at its one concrete stage; the cycle decides the reversal pair
    spec = parse_spec("preperiod: [r=3, s=(1h, 2h)]\ncycle: [r=3, s=(1h, 1h+1)]")
    report = check_non_isomorphism(spec, reversed_parameters(spec))
    assert report.status == "criteria_met"
    assert report.cross_bound == 2 and report.witness.stage == 1


def test_commensurability_not_symbolically_decidable():
    # the second spec's spacer reads 1h+1A against the first's 2h: A tracks
    # h, so the spacers agree at every stage, but not as expressions
    spec_a = parse_spec("preperiod: [r=2, s=(0)]; cycle: [r=2, s=(2h)]")
    spec_b = parse_spec("preperiod: [r=2, s=(0), acc=2]; "
                        "cycle: [r=2, s=(1h+1A), acc=3h]")
    report = check_non_isomorphism(spec_a, spec_b)
    assert not report.criteria_met and report.status == "not_established"
    assert report.commensurable is None
    assert report.detail == \
        "commensurability not symbolically decidable for these rules"


def test_incompatible_grouping_without_symbolic_argument():
    # the second spec swaps two constant spacers: an incompatible grouping
    # exists, but it is not the reversal of the first spec
    spec_a = normalize(parse_spec("cycle: [r=4, s=(0, 1, 2), last=4h+3]"))
    spec_b = normalize(parse_spec("cycle: [r=4, s=(1, 0, 2), last=4h+3]"))
    report = check_non_isomorphism(spec_a, spec_b)
    assert not report.criteria_met and report.status == "not_established"
    assert report.commensurable is True and report.witness.stage == 1
    assert report.detail.startswith("incompatible grouping found but no "
                                    "symbolic argument")


def test_non_isomorphism_rejects_empty_horizon():
    chacon = get_spec("chacon")
    for horizon in (0, -1):
        with pytest.raises(SpecError):
            check_non_isomorphism(chacon, get_spec("chacon-reversed"), horizon)


def test_non_isomorphism_requires_certificates():
    spec = parse_spec("cycle:[r=2, s=(0)]")
    report = check_non_isomorphism(spec, spec)
    assert not report.criteria_met and report.status == "not_established"


def test_reversed_twin_criteria_met_on_random_specs():
    rng = Random(55)
    found = 0
    while found < 5:
        spec = random_certified_spec(rng)
        rev = reversed_parameters(spec)
        nonpal = any(
            rule.spacers != tuple(reversed(rule.spacers)) for rule in spec.cycle
        )
        report = check_non_isomorphism(spec, rev)
        if nonpal:
            assert report.criteria_met
            assert incompatible(report.witness.t,
                                report.witness.t_prime).incompatible
            found += 1
        else:
            assert report.status == "condition4_fails"


# ---------------------------------------------------------------------------
# the occurrence obstruction


def _permuted_incompatible_pair(rng):
    """Two certified specs equal everywhere except one cycle tuple, whose
    values are an incompatible permutation; sums are preserved so the
    heights and all later stages coincide."""
    while True:
        spec = random_certified_spec(rng, max_r=5)
        pos = rng.randrange(len(spec.cycle))
        rule = spec.cycle[pos]
        if rule.r < 4:
            continue
        entries = list(rule.spacers)
        for _ in range(20):
            perm = entries[:]
            rng.shuffle(perm)
            values_a = tuple(e.b for e in entries)
            values_b = tuple(e.b for e in perm)
            if incompatible(values_a, values_b).incompatible:
                cycle = list(spec.cycle)
                cycle[pos] = StageRule(r=rule.r, spacers=tuple(perm),
                                       last=rule.last, acc=rule.acc)
                other = ParameterSpec(cycle=tuple(cycle),
                                      preperiod=spec.preperiod)
                return spec, other, pos


def test_incompatible_stage_blocks_occurrences(monkeypatch):
    # whenever the stage-n tuples are incompatible, the full stage-(n+1)
    # string of the first system never occurs in the second system's words
    monkeypatch.setattr("rankone.words.DEFAULT_CAP", 1 << 22)
    rng = Random(56)
    for _ in range(3):
        specA, specB, pos = _permuted_incompatible_pair(rng)
        n = len(specA.preperiod) + pos
        va = rule_at(specA, n)
        vb = rule_at(specB, n)
        assert incompatible(va.spacers, vb.spacers).incompatible
        sigma = build_word(specA, n + 1).letters
        m = n + 1
        while True:
            wm = build_word(specB, m).letters
            assert occurrences(sigma, wm) == []
            if len(wm) > 50_000:
                break
            m += 1
        # positive control: the string occurs in its own system
        own = build_word(specA, m).letters
        assert occurrences(sigma, own)


# ---------------------------------------------------------------------------
# stable rewriting


def test_stable_rewrite_identity_at_zero():
    chacon = get_spec("chacon")
    window = NameWindow(0, build_word(chacon, 2).letters)
    result = stable_rewrite(chacon, window, 0)
    assert result.window.letters == window.letters
    assert result.replacements == len(occurrences(b"0", window.letters))


def test_stable_rewrite_w2_window():
    # one complete stage-2 copy: rewriting swaps in the reversed-parameter
    # word, which is the mirror image
    chacon = get_spec("chacon")
    w2 = build_word(chacon, 2).letters
    result = stable_rewrite(chacon, NameWindow(0, w2), 2)
    assert result.replacements == 1
    assert result.window.letters == w2[::-1]
    assert result.window.letters == \
        build_word(get_spec("chacon-reversed"), 2).letters


def test_stable_rewrite_replaces_each_stage1_copy():
    chacon = get_spec("chacon")
    w2 = build_word(chacon, 2).letters
    result = stable_rewrite(chacon, NameWindow(0, w2), 1)
    v1p = build_word(get_spec("chacon-reversed"), 1).letters
    expected = v1p + b"1" * 4 + v1p + b"1" * 5 + v1p
    assert result.replacements == 3
    assert result.window.letters == expected


def test_stable_rewrite_flags_partial_edges():
    chacon = get_spec("chacon")
    w2 = build_word(chacon, 2).letters
    window = NameWindow(0, w2[2:-2])  # cut into the copies at both ends
    result = stable_rewrite(chacon, window, 2)
    assert result.replacements == 0
    assert result.window.letters == window.letters
    assert result.partial_left and result.partial_right


def test_stable_rewrite_preserves_window_range():
    chacon = get_spec("chacon")
    window = NameWindow(-5, build_word(chacon, 3).letters)
    result = stable_rewrite(chacon, window, 1)
    assert result.window.anchor == -5
    assert len(result.window) == len(window)


def test_stable_rewrite_matches_the_overwrite_oracle():
    # windows of v, v[:-1] and random letters: v ends and starts with 0, so
    # v[:-1] followed by v holds two copies sharing a letter, and the later
    # copy must win there
    rng = Random(41)
    specs = [get_spec("chacon"), get_spec("hk")]
    specs += [random_certified_spec(rng) for _ in range(4)]
    specs += [random_palindromic_certified_spec(rng) for _ in range(4)]
    overlapping = 0
    for spec in specs:
        for N in range(3):
            v = build_word(spec, N).letters
            v_prime = build_word(reversed_parameters(spec), N).letters
            for _ in range(20):
                pieces = [rng.choice([v, v[:-1], bytes(
                    rng.choice(b"01") for _ in range(rng.randint(0, 5)))])
                    for _ in range(rng.randint(1, 8))]
                letters = b"".join(pieces)
                result = stable_rewrite(spec, NameWindow(3, letters), N)
                assert result.window.letters == oracle_rewrite(letters, v, v_prime)
                assert result.window.anchor == 3
                hits = oracle_occurrences(v, letters)
                assert result.replacements == len(hits)
                overlapping += any(b - a < len(v) for a, b in zip(hits, hits[1:]))
    assert overlapping > 100


def _letters(raw: bytes) -> bytes:
    return bytes(0x30 + (x & 1) for x in raw)


@st.composite
def _rewrite_case(draw):
    """A stage word v of up to 2048 letters, from the registry (the finite
    odometer's words are periodic) or a random certified spec, and a window
    of its copies, its cut copies, runs of one letter and random letters."""
    name = draw(st.sampled_from(["chacon", "hk", "finite-odometer", "random"]))
    if name == "random":
        spec = random_certified_spec(Random(draw(st.integers(0, 2 ** 32))), max_r=3)
    else:
        spec = get_spec(name)
    top = max(k for k in range(12) if heights(spec, k)[k] <= 2048)
    N = draw(st.integers(0, top))
    v = build_word(spec, N).letters
    size = len(v)
    pieces = draw(st.lists(st.one_of(
        st.just(v),
        st.integers(0, size).map(lambda k: v[k:]),
        st.integers(0, size).map(lambda k: v[:k]),
        st.tuples(st.sampled_from(b"01"), st.integers(0, 2 * size)).map(
            lambda t: bytes([t[0]]) * t[1]),
        st.binary(max_size=40).map(_letters),
    ), min_size=1, max_size=6))
    return spec, N, v, b"".join(pieces)


@given(_rewrite_case())
@settings(max_examples=300, deadline=None)
def test_stable_rewrite_edges_match_the_oracle(case):
    spec, N, v, letters = case
    result = stable_rewrite(spec, NameWindow(-4, letters), N)
    edges = (result.partial_left, result.partial_right)
    assert edges == oracle_partial_edges(v, letters)
    assert result.window.letters == oracle_rewrite(letters, v, v[::-1])


@st.composite
def _overlap_case(draw):
    """v and s with len(s) < len(v), both often periodic and longer than
    the anchor, s often starting with a suffix of v."""
    unit = _letters(draw(st.binary(min_size=1, max_size=6)))
    size = draw(st.one_of(st.integers(2, 12), st.integers(250, 1100)))
    v = bytearray((unit * (size // len(unit) + 1))[:size])
    for flip in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        v[flip] ^= 1
    v = bytes(v)
    head = draw(st.one_of(st.just(b""), st.integers(1, size - 1).map(lambda k: v[k:])))
    tail = draw(st.one_of(
        st.binary(max_size=30).map(_letters),
        st.integers(0, size).map(lambda k: (unit * (k // len(unit) + 1))[:k]),
    ))
    return v, (head + tail)[:draw(st.integers(0, size - 1))]


@given(_overlap_case())
@settings(max_examples=400, deadline=None)
def test_overlaps_and_border_against_brute_force(case):
    v, s = case
    lengths = [k for k in range(1, len(s) + 1) if v.endswith(s[:k])]
    assert _overlaps(v, s) == bool(lengths)
    assert _border(s, v[len(v) - len(s):]) == max(lengths, default=0)


@pytest.mark.parametrize("s, expected", [
    (b"1" + b"0" * 2000 + b"11", True),  # 1 0^2000 is a suffix of v
    (b"1" + b"0" * 2000, True),  # and all of s
    (b"1" + b"0" * 1500 + b"1", False),
])
def test_overlaps_hands_periodic_inputs_to_the_prefix_function(monkeypatch, s, expected):
    # every start of 0^256 in s is a candidate, so the budget runs out
    v = b"1" * 5 + b"0" * 2000
    calls = []
    monkeypatch.setattr(inverseiso, "_border",
                        lambda *args: calls.append(args) or _border(*args))
    assert _overlaps(v, s) is expected
    assert len(calls) == 1


def test_stable_rewrite_edges_stay_linear():
    # 1^|v| v 1^|v| on chacon: the loop over every shift took 1.7 s at N=7
    # (156,766 letters) and 111 s at N=8 (940,587)
    chacon = get_spec("chacon")
    for N in range(3, 9):
        v = build_word(chacon, N).letters
        for letters, edges in ((b"1" * len(v) + v + b"1" * len(v), (False, False)),
                               (v[7:] + b"1" + v + v[:-7], (True, True))):
            start = time.perf_counter()
            result = stable_rewrite(chacon, NameWindow(0, letters), N)
            elapsed = time.perf_counter() - start
            assert (result.partial_left, result.partial_right) == edges
            assert result.replacements == 1
            assert elapsed < 0.05 + len(letters) * 3e-7, (N, elapsed)
