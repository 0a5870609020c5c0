import time
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import words
from rankone.errors import CapExceededError, SpecError
from rankone.params import certified, heights, normalize, parse_spec
from rankone.registry import get_spec
from rankone.words import (
    build_word,
    builds,
    decode,
    expected_occurrences,
    gap_instances,
    letter_at,
    occurrences,
)

from helpers import (
    find_occurrences,
    oracle_builds,
    oracle_gap_instances,
    oracle_occurrences,
    oracle_word,
    random_certified_spec,
    random_growth_spec,
    random_normalized_spec,
    random_palindromic_certified_spec,
)

W2_CHACON = "001011110010111110010"


def test_chacon_words():
    chacon = get_spec("chacon")
    assert build_word(chacon, 0).to_text() == "0"
    assert build_word(chacon, 1).to_text() == "0010"
    assert build_word(chacon, 2).to_text() == W2_CHACON


def test_hk_words():
    hk = get_spec("hk")
    assert build_word(hk, 1).to_text() == "00"
    assert build_word(hk, 2).to_text() == "0011100"


def test_words_start_and_end_with_zero():
    rng = Random(20)
    for _ in range(10):
        spec = random_certified_spec(rng)
        for n in range(5):
            w = build_word(spec, n).letters
            assert w[:1] == b"0" and w[-1:] == b"0"


def test_word_length_equals_height():
    rng = Random(21)
    for spec in [get_spec("chacon"), get_spec("hk")] + [
        random_certified_spec(rng) for _ in range(8)
    ]:
        hs = heights(spec, 6)
        for n in range(7):
            if hs[n] > 200_000:
                break
            assert len(build_word(spec, n)) == hs[n]


def test_build_word_cap(monkeypatch):
    monkeypatch.setattr(words, "DEFAULT_CAP", 1000)
    with pytest.raises(CapExceededError):
        build_word(get_spec("chacon"), 9)


def test_build_word_is_the_stage_word_window():
    word = build_word(get_spec("chacon"), 2)
    assert (word.anchor, word.provenance) == (0, "word:2")
    assert word.to_text() == W2_CHACON


def test_window_letter_outside_raises_spec_error():
    word = build_word(get_spec("chacon"), 1)
    assert [word.letter(j) for j in range(4)] == [0, 0, 1, 0]
    for j in (-1, 4):
        with pytest.raises(SpecError, match=r"outside window \[0, 4\)"):
            word.letter(j)


# ---------------------------------------------------------------------------
# range decode


@given(st.integers(0, 2 ** 32), st.integers(0, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_decode_matches_oracle_word(seed, n, data):
    spec = random_certified_spec(Random(seed), max_r=4)
    while n and heights(spec, n)[n] > 200_000:
        n -= 1
    word = oracle_word(spec, n)
    a = data.draw(st.integers(0, len(word)))
    b = data.draw(st.integers(a, len(word)))
    assert decode(spec, n, a, b) == word[a:b]


def test_decode_rejects_bad_ranges(monkeypatch):
    chacon = get_spec("chacon")
    h3 = heights(chacon, 3)[3]
    assert decode(chacon, 3, h3, h3) == b""
    for n, a, b in ((3, 5, 2), (3, 0, h3 + 1), (3, -1, 4), (-1, 0, 0)):
        with pytest.raises(SpecError):
            decode(chacon, n, a, b)
    monkeypatch.setattr(words, "DEFAULT_CAP", 1000)
    assert len(decode(chacon, 12, 10 ** 6, 10 ** 6 + 1000)) == 1000
    with pytest.raises(CapExceededError):
        decode(chacon, 12, 10 ** 6, 10 ** 6 + 1001)


def test_build_word_requires_normalized():
    with pytest.raises(SpecError):
        build_word(get_spec("chacon-raw"), 2)


# ---------------------------------------------------------------------------
# lazy letters


def test_letter_at_examples():
    chacon = get_spec("chacon")
    assert letter_at(chacon, 2, 5)[0] == 1  # inside the 1^4 run
    assert letter_at(chacon, 2, 8)[0] == 0  # start of the second copy
    assert letter_at(chacon, 2, 0)[0] == 0


def test_letter_at_matches_build_word():
    rng = Random(22)
    for spec in [get_spec("chacon"), get_spec("hk"),
                 random_certified_spec(rng)]:
        for n in range(4):
            word = build_word(spec, n)
            for j in range(len(word)):
                assert letter_at(spec, n, j)[0] == word.letter(j)


def test_letter_at_deep_stage():
    chacon = get_spec("chacon")
    value, address = letter_at(chacon, 40, 10 ** 9)
    assert value in (0, 1)
    assert address.stage == 40
    # the address either descends to w_0 or stops in a spacer run
    assert address.is_spacer or address.path[-1][0] == 0


def test_letter_at_out_of_range():
    with pytest.raises(SpecError):
        letter_at(get_spec("chacon"), 1, 4)


def test_spacer_addresses():
    chacon = get_spec("chacon")
    _, address = letter_at(chacon, 2, 5)
    stage, slot, offset = address.spacer
    assert (stage, slot) == (1, 0) and 0 <= offset < 4


# ---------------------------------------------------------------------------
# occurrences


def test_occurrences_chacon():
    chacon = get_spec("chacon")
    w1 = build_word(chacon, 1).letters
    w2 = build_word(chacon, 2).letters
    assert occurrences(w1, w2) == [0, 8, 17]


def test_occurrences_identity_and_overlap():
    assert occurrences(b"0010", b"0010") == [0]
    assert occurrences(b"00", b"000") == [0, 1]


def test_occurrences_empty_pattern_rejected():
    with pytest.raises(SpecError):
        occurrences(b"", b"0")


def _letters(raw: bytes) -> bytes:
    return bytes(0x30 + (x & 1) for x in raw)


@st.composite
def _pattern_and_text(draw):
    """A pattern, often periodic and longer than the anchor so that it
    crosses the anchor and the doubling chunks, and a text made of its
    copies, copies with one letter changed (often at a chunk's edge), cut
    copies, periodic stretches and random letters, so that hits overlap and
    near misses fail at every depth."""
    a = words._ANCHOR
    unit = _letters(draw(st.binary(min_size=1, max_size=8)))
    size = draw(st.one_of(st.integers(1, 6), st.integers(a - 3, 4 * a + 3)))
    pattern = bytearray((unit * (size // len(unit) + 1))[:size])
    for flip in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        pattern[flip] ^= 1
    pattern = bytes(pattern)
    edges = [k for k in (a - 1, a, 2 * a - 1, 2 * a, 4 * a - 1, 4 * a, size - 1)
             if k < size]

    def flipped(k):
        near = bytearray(pattern)
        near[k] ^= 1
        return bytes(near)

    pieces = draw(st.lists(st.one_of(
        st.just(pattern),
        st.one_of(st.sampled_from(edges), st.integers(0, size - 1)).map(flipped),
        st.integers(0, size).map(lambda k: pattern[:k]),
        st.integers(0, size).map(lambda k: pattern[k:]),
        st.integers(1, 3 * size).map(
            lambda k: (unit * (k // len(unit) + 1))[:k]),
        st.binary(max_size=60).map(_letters),
    ), max_size=8))
    return pattern, b"".join(pieces)


@given(_pattern_and_text())
@settings(max_examples=300, deadline=None)
def test_occurrences_against_oracle(case):
    pattern, text = case
    assert occurrences(pattern, text) == oracle_occurrences(pattern, text)


def test_occurrences_miss_a_copy_changed_anywhere():
    # one letter changed at any depth of the anchor or of the chunks
    pattern = (b"0010111" * 200)[:4 * words._ANCHOR + 3]
    text = b"1" + pattern + b"1"
    assert occurrences(pattern, text) == [1]
    for k in range(len(pattern)):
        near = bytearray(text)
        near[1 + k] ^= 1
        assert occurrences(pattern, bytes(near)) == []


def test_occurrences_of_pattern_with_regex_syntax():
    # the anchor is searched as a literal, whatever bytes it holds
    pattern = b".*(" * 100 + b"\\"
    text = b"ab" + pattern + b".*(" * 50 + pattern
    assert occurrences(pattern, text) == oracle_occurrences(pattern, text)
    assert len(occurrences(pattern, text)) == 2


def test_occurrences_after_the_budget_is_spent():
    # every start in each 0^599 run is a candidate costing at least the
    # anchor, so the budget runs out in the first block and find finishes
    # the scan: the overlapping hits at the end are all its
    pattern = b"0" * 600
    text = (b"0" * 599 + b"1") * 8 + b"0" * 700
    assert occurrences(pattern, text) == list(range(4800, 4901))


def test_occurrences_of_stage_words_match_the_find_loop():
    # w_n in w_m, in shifted copies and in copies with a letter changed or
    # a 1 inserted, for specs from every generator
    rng = Random(31)
    specs = [get_spec("chacon"), get_spec("hk")]
    for _ in range(6):
        specs += [random_certified_spec(rng), normalize(random_growth_spec(rng)),
                  random_normalized_spec(rng),
                  random_palindromic_certified_spec(rng)]
    long_patterns = 0
    for spec in specs:
        hs = heights(spec, 12)
        top = max(m for m in range(13) if hs[m] <= 200_000)
        wm = build_word(spec, top).letters
        texts = [wm]
        for _ in range(3):
            i = rng.randrange(len(wm))
            texts.append(wm[i:])
            texts.append(wm[:i] + bytes([wm[i] ^ 1]) + wm[i + 1:])
            texts.append(wm[:i] + b"1" + wm[i:])
        for n in range(top + 1):
            wn = build_word(spec, n).letters
            long_patterns += len(wn) > words._ANCHOR
            for text in texts:
                assert occurrences(wn, text) == find_occurrences(wn, text)
    assert long_patterns > 20


@pytest.mark.parametrize("pattern, text", [
    (b"0" * 300 + b"1", b"0" * (1 << 22)),
    (b"0" * (1 << 16), (b"0" * ((1 << 16) - 1) + b"1") * 64),
], ids=["0^300 1 in 0^2^22", "0^2^16 in (0^(2^16-1) 1)^64"])
def test_occurrences_stays_linear_on_periodic_inputs(pattern, text):
    # nearly every start is a candidate here; without the budget on
    # confirmation each is confirmed in turn, and these scans take seconds
    # where the find loop takes milliseconds
    start = time.perf_counter()
    assert occurrences(pattern, text) == []
    assert time.perf_counter() - start < 2.0


@given(st.binary(min_size=1, max_size=8).map(_letters), st.integers(1, 700),
       st.lists(st.integers(0, 699), max_size=2))
@settings(max_examples=300, deadline=None)
def test_period_bound_against_brute_force(unit, size, flips):
    pattern = bytearray((unit * (size // len(unit) + 1))[:size])
    for flip in flips:
        pattern[flip % size] ^= 1
    pattern = bytes(pattern)
    period = next(d for d in range(1, size + 1) if pattern.startswith(pattern[d:]))
    if period <= size // 2:
        assert words._period_bound(pattern) == (period, True)
    else:
        assert words._period_bound(pattern) == (size // 2 + 1, False)


def test_occurrences_of_overlapping_hits_stay_linear():
    # finite-odometer's words are 0^(2^k); confirming each of the 1,047,553
    # hits of w_10 in w_20 from scratch took about 5 s.  Patterns of period
    # 1, of period 4 and growing with the text, in texts of 2^16..2^20 letters
    odometer = get_spec("finite-odometer")
    w10 = build_word(odometer, 10).letters
    for k in range(16, 21):
        zeros = build_word(odometer, k).letters
        cases = [(w10, zeros, 1), (build_word(odometer, k - 6).letters, zeros, 1),
                 (b"0110" * 256 + b"0", b"0110" * (1 << (k - 2)), 4)]
        for pattern, text, period in cases:
            start = time.perf_counter()
            hits = occurrences(pattern, text)
            elapsed = time.perf_counter() - start
            assert hits == list(range(0, len(text) - len(pattern) + 1, period))
            assert elapsed < 0.05 + len(text) * 1e-6, (k, len(pattern), elapsed)


@st.composite
def _run_structured(draw):
    """A pattern with a run of L >= _RUN_MIN 1s between 0s, and a text of
    its copies, copies with a letter changed, runs of L and L +- 1 and
    short runs, often with 1s touching either end.  The pattern may start
    or end with 1s, hold its longest run twice or repeat a unit, so that
    hits overlap and a run is often in progress where the scan resumes."""
    big = draw(st.integers(words._RUN_MIN, 300))
    run = st.one_of(st.sampled_from([big, big - 1, big + 1]), st.integers(0, 8))
    inner = draw(st.lists(run, min_size=1, max_size=4))
    inner.insert(draw(st.integers(0, len(inner))), big)
    edge = st.one_of(st.just(0), st.integers(1, big + 2))
    unit = (b"1" * draw(edge) + b"0" + b"0".join(b"1" * k for k in inner)
            + b"0" + b"1" * draw(edge))
    pattern = unit * draw(st.integers(1, 3))

    def flipped(k):
        near = bytearray(pattern)
        near[k] ^= 1
        return bytes(near)

    pieces = draw(st.lists(st.one_of(
        st.just(pattern),
        st.integers(0, len(pattern) - 1).map(flipped),
        st.integers(0, len(pattern)).map(lambda k: pattern[:k]),
        st.integers(0, len(pattern)).map(lambda k: pattern[k:]),
        st.lists(run, min_size=1, max_size=6).map(
            lambda ks: b"0".join(b"1" * k for k in ks)),
    ), max_size=10))
    ends = st.one_of(st.just(b""), st.integers(1, 2 * big).map(lambda k: b"1" * k))
    return pattern, draw(ends) + b"".join(pieces) + draw(ends)


_LEADING_ONES = b"11" + b"0" + b"1" * 64 + b"0111" + b"0"


@given(_run_structured())
@example((_LEADING_ONES, _LEADING_ONES[:65] + _LEADING_ONES))  # miss, then hit
@settings(max_examples=400, deadline=None)
def test_run_tier_against_oracle(case):
    pattern, text = case
    assert words._longest_run(pattern)[1] >= words._RUN_MIN
    assert occurrences(pattern, text) == oracle_occurrences(pattern, text)


@given(st.binary(max_size=40).map(_letters))
def test_longest_run_against_brute_force(pattern):
    inner = [(len(run), i) for i in range(1, len(pattern))
             for run in [pattern[i:].split(b"0")[0]]
             if pattern[i - 1:i] == b"0" and b"0" in pattern[i:]]
    want = max(inner, key=lambda t: (t[0], -t[1]), default=(0, 0))
    assert words._longest_run(pattern) == (want[1], want[0])


def test_run_tier_scans_stage_words_without_the_anchor_search(monkeypatch):
    # chacon's w_4 holds a run of 181 1s, so its copies in w_9 are found by
    # jumping between runs; the anchor search is never compiled
    def refuse(*args, **kwargs):
        raise AssertionError("the anchor search was compiled")

    chacon = get_spec("chacon")
    w4, w9 = build_word(chacon, 4).letters, build_word(chacon, 9).letters
    monkeypatch.setattr(words.re, "compile", refuse)
    assert occurrences(w4, w9) == expected_occurrences(chacon, 4, 9)


def _handover_cases(size):
    """(name, pattern, text, hits, compiled) of about ``size`` letters each:
    compiled tells whether the anchor search runs, after the run tier hands
    over or when the pattern's runs are too short for the tier."""
    dense = (b"0" + b"1" * 100) * (size // 101) + b"0"
    short = (b"0" + b"1" * 40) * (size // 41) + b"0"
    spread = (b"0" + b"1" * 999) * (size // 1000) + b"0"
    periodic = (b"0" + b"1" * 40) * 20 + b"0"
    return [
        ("(0 1^100)^k, no hit",
         b"0" + b"1" * 100 + b"0" + b"1" * 5 + b"0" + b"1" * 100 + b"0",
         dense, [], True),
        ("(0 1^40)^k, a hit every period", periodic, short,
         list(range(0, len(short) - len(periodic) + 1, 41)), True),
        ("(0 1^999)^k, a run of 1000", b"0" + b"1" * 1000 + b"0", spread, [],
         False),
        ("all 1s", b"0" + b"1" * 100 + b"0", b"1" * size, [], False),
    ]


def test_run_tier_hands_over_and_stays_linear(monkeypatch):
    # every 1-run of (0 1^100)^k is a candidate, so the tier hands the text
    # to the anchor search after about ten; runs that never fit cost a
    # find each, and a text without 0s ends the scan at once
    compiled = []
    compile_ = words.re.compile
    monkeypatch.setattr(words.re, "compile",
                        lambda *args: compiled.append(args) or compile_(*args))
    for k in range(16, 23):
        for name, pattern, text, hits, handed in _handover_cases(1 << k):
            compiled.clear()
            start = time.perf_counter()
            found = occurrences(pattern, text)
            elapsed = time.perf_counter() - start
            assert found == hits, name
            assert bool(compiled) == handed, name
            assert elapsed < 0.05 + len(text) * 1e-6, (name, k, elapsed)


# ---------------------------------------------------------------------------
# builds


def test_builds_examples():
    chacon = get_spec("chacon")
    w2 = build_word(chacon, 2).letters
    result = builds(b"0010", w2)
    assert result.builds and result.gaps == (4, 5)
    assert builds(b"0", b"0010").gaps == (0, 1)
    assert not builds(b"00", b"0010").builds


def test_builds_rejects_bad_alphabet_frame():
    with pytest.raises(SpecError):
        builds(b"01", b"010")
    with pytest.raises(SpecError):
        builds(b"0", b"")


def test_builds_word_equals_itself():
    assert builds(b"0010", b"0010").gaps == ()


def test_builds_stage_words():
    rng = Random(23)
    for spec in [get_spec("chacon"), get_spec("hk"),
                 random_certified_spec(rng)]:
        for n in range(3):
            for m in range(n, 4):
                wn = build_word(spec, n).letters
                wm = build_word(spec, m).letters
                assert builds(wn, wm).builds


@given(st.lists(st.integers(0, 4), min_size=0, max_size=4),
       st.binary(min_size=1, max_size=4).map(
           lambda b: b"0" + bytes(0x30 + (x & 1) for x in b) + b"0"))
@settings(max_examples=300, deadline=None)
def test_builds_recovers_composed_gaps(gaps, u):
    w = u + b"".join(b"1" * g + u for g in gaps)
    result = builds(u, w)
    decompositions = oracle_builds(u, w)
    assert result.builds
    assert result.gaps in decompositions
    # the decomposition is forced: no backtracking alternatives exist
    assert len(decompositions) == 1


def test_builds_negative_against_oracle():
    u = b"00"
    for w in (b"0010", b"000100", b"0100"):
        try:
            result = builds(u, w)
        except SpecError:
            continue
        assert result.builds == bool(oracle_builds(u, w))


# ---------------------------------------------------------------------------
# expected occurrences


def test_expected_chacon():
    chacon = get_spec("chacon")
    assert expected_occurrences(chacon, 1, 2) == [0, 8, 17]
    assert expected_occurrences(chacon, 2, 2) == [0]


def test_expected_count_is_product_of_cuts():
    rng = Random(24)
    for spec in [get_spec("chacon"), get_spec("hk"),
                 random_certified_spec(rng)]:
        for n in range(3):
            for m in range(n, 5):
                count = 1
                for k in range(n, m):
                    count *= spec.rule_schedule(k).r
                assert len(expected_occurrences(spec, n, m)) == count


def test_unroll_refuses_more_copies_than_the_cap(monkeypatch):
    chacon = get_spec("chacon")
    monkeypatch.setattr(words, "DEFAULT_CAP", 9)
    assert len(expected_occurrences(chacon, 1, 3)) == 9
    for unroll in (expected_occurrences, gap_instances):
        with pytest.raises(CapExceededError, match="more than 9 copies of w_0"):
            unroll(chacon, 0, 3)


def test_expected_equals_scanned_for_certified():
    rng = Random(25)
    for spec in [get_spec("chacon"), get_spec("hk"),
                 random_certified_spec(rng), random_certified_spec(rng)]:
        cert = certified(spec)
        hs = heights(spec, 8)
        for m in range(cert.N, 9):
            if hs[m] > 100_000:
                break
            wm = build_word(spec, m).letters
            for n in range(cert.N, m + 1):
                wn = build_word(spec, n).letters
                assert occurrences(wn, wm) == expected_occurrences(spec, n, m)


def test_unexpected_occurrences_without_certificate():
    # zero spacers allow copies to abut, producing occurrences the recursion
    # never placed; the scanned/expected equality needs the certificate
    spec = parse_spec("cycle:[r=2, s=(0)]")
    w1 = build_word(spec, 1).letters
    w2 = build_word(spec, 2).letters
    assert occurrences(w1, w2) == [0, 1, 2]
    assert expected_occurrences(spec, 1, 2) == [0, 2]


# ---------------------------------------------------------------------------
# gap structure


def test_gap_instances_match_occurrence_diffs():
    # each run is all 1s and sits between two copies of w_n in the word
    rng = Random(26)
    for spec in [get_spec("chacon"), get_spec("hk"),
                 random_certified_spec(rng)]:
        for n in range(1, 3):
            wn = build_word(spec, n).letters
            for m in range(n, 5):
                occs = expected_occurrences(spec, n, m)
                gaps = gap_instances(spec, n, m)
                assert len(gaps) == len(occs) - 1
                wm = build_word(spec, m).letters
                for g in gaps:
                    end = g.position + g.length
                    assert wm[g.position - len(wn):g.position] == wn
                    assert wm[g.position:end] == b"1" * g.length
                    assert wm[end:end + len(wn)] == wn


@given(st.integers(0, 2 ** 32), st.integers(0, 4), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_gap_instances_match_bottom_up_oracle(seed, n, depth):
    spec = random_certified_spec(Random(seed), max_r=4)
    got = [(g.position, g.length, g.stage, g.slot)
           for g in gap_instances(spec, n, n + depth)]
    assert got == oracle_gap_instances(spec, n, n + depth)


def test_gap_instances_refuse_raw_specs():
    with pytest.raises(SpecError, match="normalized"):
        gap_instances(get_spec("chacon-raw"), 1, 3)


def test_gap_lengths_come_from_the_spacers():
    chacon = get_spec("chacon")
    gaps = gap_instances(chacon, 1, 3)
    by_stage = {}
    for g in gaps:
        by_stage.setdefault(g.stage, set()).add(g.length)
    assert by_stage == {1: {4, 5}, 2: {29, 30}}


def test_gap_multiset_matches_spacer_multiset():
    spec = get_spec("hk")
    gaps = gap_instances(spec, 1, 4)
    lengths = sorted(g.length for g in gaps)
    # one stage-3 gap, two stage-2 gaps, four stage-1 gaps
    assert lengths == sorted([57] + [14, 14] + [3, 3, 3, 3])
