from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.errors import CapExceededError, SpecError
from rankone.params import certified, heights, parse_spec
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
    oracle_builds,
    oracle_gap_instances,
    oracle_occurrences,
    oracle_word,
    random_certified_spec,
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


def test_build_word_cap():
    with pytest.raises(CapExceededError):
        build_word(get_spec("chacon"), 9, cap=1000)


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


def test_decode_rejects_bad_ranges():
    chacon = get_spec("chacon")
    h3 = heights(chacon, 3)[3]
    assert decode(chacon, 3, h3, h3) == b""
    for n, a, b in ((3, 5, 2), (3, 0, h3 + 1), (3, -1, 4), (-1, 0, 0)):
        with pytest.raises(SpecError):
            decode(chacon, n, a, b)
    assert len(decode(chacon, 12, 10 ** 6, 10 ** 6 + 1000, cap=1000)) == 1000
    with pytest.raises(CapExceededError):
        decode(chacon, 12, 10 ** 6, 10 ** 6 + 1001, cap=1000)


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
                assert letter_at(spec, n, j)[0] == word[j]


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


@given(st.binary(min_size=1, max_size=6).map(
           lambda b: bytes(0x30 + (x & 1) for x in b)),
       st.binary(min_size=0, max_size=60).map(
           lambda b: bytes(0x30 + (x & 1) for x in b)))
@settings(max_examples=300, deadline=None)
def test_occurrences_against_oracle(pattern, text):
    assert occurrences(pattern, text) == oracle_occurrences(pattern, text)


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
