import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import analysis, words

from rankone.analysis import (
    BAD,
    GOOD,
    INDETERMINATE,
    MIXED,
    TOTALLY_BAD,
    TOTALLY_GOOD,
    CandidatePair,
    DensityReport,
    check_ab_law,
    classify,
    classify_totally,
    corrupt_gap_pair,
    cut_pair,
    good_density,
    propagate_goodness,
    select_kappa,
    shift_pair,
)
from rankone.errors import AmbiguousContainmentError, SpecError
from rankone.params import PartialBoundednessCertificate, certified, heights, parse_spec
from rankone.registry import get_spec
from rankone.words import NameWindow, build_word, gap_instances

from helpers import (
    oracle_gap_after,
    oracle_occurrences,
    oracle_verdicts,
    padded_block_window,
    random_certified_spec,
    spliced_pair,
)


def test_select_kappa():
    assert select_kappa(get_spec("chacon")) == 1  # |w_1| = 4 > S = 2
    assert select_kappa(get_spec("hk")) == 1  # |w_1| = 2 > S = 1
    fabricated = PartialBoundednessCertificate(3, 0, 0, "symbolic")
    assert select_kappa(get_spec("chacon"), fabricated) == 0


def test_pair_validation():
    chacon = get_spec("chacon")
    w = build_word(chacon, 3)
    with pytest.raises(SpecError):
        CandidatePair(spec=chacon, x=w, y=NameWindow(1, w.letters), kappa=1, n=2)
    with pytest.raises(SpecError):
        CandidatePair(spec=chacon, x=w, y=w, kappa=2, n=2)


# ---------------------------------------------------------------------------
# classify


def test_identity_all_good_rho_zero():
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 0, 4)
    cls = classify(pair)
    good, bad, ind = cls.counts()
    assert bad == 0
    assert all(r.rho == 0 for r in cls.records if r.verdict == GOOD)
    # only the left-edge occurrence lacks probe room
    assert ind == 1 and cls.records[0].verdict == INDETERMINATE


@pytest.mark.parametrize("ell", [0, 1, 3, 8, 17])
def test_shift_all_good_rho_is_ell(ell):
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, ell, 5)
    cls = classify(pair)
    good, bad, _ = cls.counts()
    assert bad == 0 and good > 0
    assert all(r.rho == ell for r in cls.records if r.verdict == GOOD)


def test_classify_against_oracle_on_shifts():
    rng = Random(40)
    for spec in (get_spec("chacon"), get_spec("hk"), random_certified_spec(rng)):
        kappa = select_kappa(spec)
        n = max(certified(spec).N, kappa) + 1
        reach = heights(spec, n)[n] - heights(spec, kappa)[kappa]
        for ell in (0, 1, reach):
            pair = shift_pair(spec, n, ell, n + 2, kappa=kappa)
            cls = classify(pair)
            expected = oracle_verdicts(pair)
            assert len(cls.records) == len(expected)
            for rec in cls.records:
                verdict, rho = expected[rec.index]
                assert rec.verdict == verdict
                if verdict == GOOD:
                    assert rec.rho == rho


def test_enlarged_gap_breaks_the_following_occurrence():
    chacon = get_spec("chacon")
    target = gap_instances(chacon, 2, 4)[4]
    pair, target = corrupt_gap_pair(chacon, 2, 4, 4, target.length + 1)
    cls = classify(pair)
    after = target.position + target.length
    broken = [r for r in cls.records if r.index >= after]
    assert broken and all(r.verdict == BAD for r in broken)
    before = [r for r in cls.records
              if r.verdict != INDETERMINATE and r.index + cls.word_len <= target.position]
    assert before and all(r.verdict == GOOD for r in before)


def test_shortened_gap_pair_keeps_the_word_provenance():
    # the cut x is still a prefix of w_m, so classify cross-checks it
    chacon = get_spec("chacon")
    target = gap_instances(chacon, 2, 4)[4]
    pair, _ = corrupt_gap_pair(chacon, 2, 4, 4, target.length - 1)
    assert len(pair.x) == len(build_word(chacon, 4)) - 1
    assert pair.x.provenance == "word:4"


def test_corrupt_gap_pair_rejects_negative_length():
    with pytest.raises(SpecError):
        corrupt_gap_pair(get_spec("chacon"), 2, 4, 4, -3)


def test_classify_matches_oracle_on_corruptions():
    rng = Random(41)
    chacon = get_spec("chacon")
    gaps = gap_instances(chacon, 2, 4)
    for ordinal in range(0, len(gaps), 3):
        g = gaps[ordinal]
        for delta in (-1, 1, g.length):
            pair, _ = corrupt_gap_pair(chacon, 2, 4, ordinal,
                                       max(0, g.length + delta))
            cls = classify(pair)
            expected = oracle_verdicts(pair)
            for rec in cls.records:
                assert (rec.verdict, rec.rho if rec.verdict == GOOD else None) \
                    == expected[rec.index]


def test_ambiguous_containment_is_a_data_error():
    # the doubling odometer's words are periodic, so several image copies
    # can contain one probe window; that only happens without a certificate
    spec = parse_spec("cycle:[r=2, s=(0)]")
    w3 = build_word(spec, 3).letters  # 00000000
    pair = CandidatePair(
        spec=spec,
        x=NameWindow(0, w3), y=NameWindow(0, w3),
        kappa=1, n=2,
    )
    with pytest.raises(AmbiguousContainmentError):
        classify(pair)


def test_stray_occurrence_warns_on_certified_full_word():
    # a window claiming to be a whole stage word but carrying occurrences
    # off the recursion's grid signals a certificate bug
    import warnings as w

    chacon = get_spec("chacon")
    w1 = build_word(chacon, 1).letters
    fake = w1 + b"0" + w1 + b"1" * 8 + w1 + b"0" * 4  # extra copy at index 5
    x = NameWindow(0, fake, provenance="word:2")
    pair = CandidatePair(spec=chacon, x=x, y=NameWindow(0, fake), kappa=0, n=1)
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        classify(pair)
    assert any("unexpected occurrence" in str(c.message) for c in caught)


def test_cross_check_waits_for_the_certificate_stage(monkeypatch):
    # the recursion places the copies of w_n only from the certificate's
    # stage N on, so below it there is nothing to check the scan against
    spec = parse_spec("preperiod: [r=2, s=(0); r=2, s=(0)]\ncycle: [r=2, s=(1h)]\n")
    assert certified(spec).N == 2
    checked = []
    real = analysis.expected_occurrences
    monkeypatch.setattr(analysis, "expected_occurrences",
                        lambda spec, n, m: checked.append((n, m)) or real(spec, n, m))
    w3 = build_word(spec, 3)
    ones = NameWindow(0, b"1" * len(w3))
    for n in (1, 2):
        classify(CandidatePair(spec=spec, x=w3, y=ones, kappa=n - 1, n=n))
    assert checked == [(2, 3)]

def test_no_warning_on_genuine_windows():
    import warnings as w

    chacon = get_spec("chacon")
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        classify(shift_pair(chacon, 2, 3, 4))
    assert not caught


def test_translation_equivariance():
    chacon = get_spec("chacon")
    base = shift_pair(chacon, 2, 3, 4)
    shifted = CandidatePair(
        spec=chacon,
        x=NameWindow(base.x.anchor + 100, base.x.letters),
        y=NameWindow(base.y.anchor + 100, base.y.letters),
        kappa=base.kappa, n=base.n,
    )
    recs_a = classify(base).records
    recs_b = classify(shifted).records
    assert [(r.index + 100, r.verdict, r.rho) for r in recs_a] == \
        [(r.index, r.verdict, r.rho) for r in recs_b]


# ---------------------------------------------------------------------------
# the gap law


def _good_indices(cls):
    return [r.index for r in cls.records if r.verdict == GOOD]


def test_ab_law_on_shifts():
    chacon = get_spec("chacon")
    for ell in (0, 2, 5):
        pair = shift_pair(chacon, 2, ell, 5)
        cls = classify(pair)
        for i in _good_indices(cls):
            rec = check_ab_law(pair, i, classification=cls)
            if rec.a is None or rec.b is None:
                continue
            assert rec.a == rec.b
            assert rec.consistent is True


def test_ab_law_left_direction():
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 3, 5)
    cls = classify(pair)
    for i in _good_indices(cls)[1:]:
        rec = check_ab_law(pair, i, direction="left", classification=cls)
        if rec.a is not None and rec.b is not None:
            assert rec.a == rec.b
            assert rec.consistent in (True, None)


def test_ab_law_case1_same_stage():
    # x gap 4 against image gap 5 (both stage-1 values, difference < S):
    # the following occurrence is bad and the law predicts it
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 4, 5, kappa=1)
    gaps = [g for g in gap_instances(chacon, 2, 4) if g.stage == 2]
    g = gaps[0]
    pair = spliced_pair(chacon, 2, 1, window, g.position - window.anchor,
                        g.length, g.length + 1)
    cls = classify(pair)
    seed = max(i for i in _good_indices(cls) if i + cls.word_len <= g.position)
    rec = check_ab_law(pair, seed, classification=cls)
    assert (rec.a, rec.b) == (g.length, g.length + 1)
    assert rec.neighbor_verdict == BAD
    assert rec.consistent is True


def test_ab_law_case2_image_gap_from_higher_stage():
    # image gap replaced by a much larger higher-stage value: the probe
    # index falls inside the 1-run
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 4, 5, kappa=1)
    g = next(gg for gg in gap_instances(chacon, 2, 4) if gg.stage == 2)
    higher = next(gg for gg in gap_instances(chacon, 2, 5) if gg.stage == 4)
    pair = spliced_pair(chacon, 2, 1, window, g.position - window.anchor,
                        g.length, higher.length)
    cls = classify(pair)
    seed = max(i for i in _good_indices(cls) if i + cls.word_len <= g.position)
    rec = check_ab_law(pair, seed, classification=cls)
    assert rec.b is None or rec.b > rec.a  # image copy may leave the window
    assert rec.neighbor_verdict == BAD
    probe = seed + cls.word_len + rec.a
    assert pair.y.letter(probe) == 1


def test_ab_law_case3_image_gap_from_lower_stage():
    # x gap at stage 4, image gap swapped to a stage-2 value; the drift
    # exceeds the probe reach so the following occurrence is bad
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 5, 6, kappa=1)
    g4 = next(g for g in gap_instances(chacon, 2, 5) if g.stage == 4)
    small = next(g for g in gap_instances(chacon, 2, 5) if g.stage == 2)
    pair = spliced_pair(chacon, 2, 1, window, g4.position - window.anchor,
                        g4.length, small.length)
    cls = classify(pair)
    seed = g4.position - cls.word_len
    rec = check_ab_law(pair, seed, classification=cls)
    assert rec.a == g4.length and rec.b == small.length
    assert rec.a > rec.b
    assert rec.neighbor_verdict == BAD
    assert rec.consistent is True


def test_ab_law_shrunken_same_stage_gap_drifts():
    # shrinking a same-stage gap leaves the image tiling intact but shifted
    # by less than the probe reach: the classifier keeps finding containing
    # copies at a drifted alignment, so the a = b prediction is the one
    # that fails here
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 4, 5, kappa=1)
    g = next(gg for gg in gap_instances(chacon, 2, 4) if gg.stage == 2
             and gg.length == 30)
    pair = spliced_pair(chacon, 2, 1, window, g.position - window.anchor,
                        g.length, g.length - 1)
    cls = classify(pair)
    seed = max(i for i in _good_indices(cls) if i + cls.word_len <= g.position)
    rec = check_ab_law(pair, seed, classification=cls)
    assert (rec.a, rec.b) == (30, 29)
    assert rec.neighbor_verdict == GOOD
    assert rec.consistent is False
    drifted = cls.record_at(rec.neighbor_index)
    assert drifted.rho == 1


def test_ab_law_left_direction_across_drift():
    # leftward mirror of the shrunken-gap situation: the first occurrence
    # past the splice is good at a drifted alignment, and reading its left
    # gaps exposes the same divergence from the a = b prediction
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 4, 5, kappa=1)
    g = next(gg for gg in gap_instances(chacon, 2, 4) if gg.stage == 2
             and gg.length == 30)
    pair = spliced_pair(chacon, 2, 1, window, g.position - window.anchor,
                        g.length, g.length - 1)
    cls = classify(pair)
    drifted = next(r for r in cls.records
                   if r.verdict == GOOD and r.rho == 1)
    rec = check_ab_law(pair, drifted.index, direction="left",
                       classification=cls)
    assert (rec.a, rec.b) == (30, 29)
    assert rec.neighbor_verdict == GOOD
    assert rec.consistent is False


def test_ab_law_matches_oracle_gap_reads():
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 5, 5)
    cls = classify(pair)
    wn = build_word(chacon, 2).letters
    for i in _good_indices(cls):
        rec = check_ab_law(pair, i, classification=cls)
        a = oracle_gap_after(pair.x.letters, i + len(wn) - pair.x.anchor, wn)
        if rec.a is not None and a is not None:
            assert rec.a == a


def _oracle_gap_before(letters: bytes, start: int, wn: bytes):
    """oracle_gap_after read right to left: the 1-run that ends at start,
    with a copy of wn before it."""
    return oracle_gap_after(letters[::-1], len(letters) - start, wn[::-1])


def test_ab_law_reads_both_neighbours_against_the_oracle():
    # each direction names the adjacent occurrence in x and its verdict, and
    # reads the gap between the two in x and beside the containing copy in y
    chacon = get_spec("chacon")
    wn = build_word(chacon, 2).letters
    window = padded_block_window(chacon, 2, 4, 5, kappa=1)
    g = next(gg for gg in gap_instances(chacon, 2, 4) if gg.stage == 2
             and gg.length == 30)
    pairs = [shift_pair(chacon, 2, 3, 5),
             spliced_pair(chacon, 2, 1, window, g.position - window.anchor,
                          g.length, g.length - 1)]
    checked = 0
    for pair in pairs:
        cls = classify(pair)
        x, y, anchor = pair.x.letters, pair.y.letters, pair.x.anchor
        occs = [i + anchor for i in oracle_occurrences(wn, x)]
        verdicts = oracle_verdicts(pair)
        for k, i in enumerate(occs):
            if verdicts[i][0] != GOOD:
                continue
            p = i - verdicts[i][1] - anchor
            for direction, j, a, b in (
                ("right", k + 1, oracle_gap_after(x, i - anchor + len(wn), wn),
                 oracle_gap_after(y, p + len(wn), wn)),
                ("left", k - 1, _oracle_gap_before(x, i - anchor, wn),
                 _oracle_gap_before(y, p, wn)),
            ):
                rec = check_ab_law(pair, i, direction, classification=cls)
                neighbor = occs[j] if 0 <= j < len(occs) else None
                assert rec.neighbor_index == neighbor
                if neighbor is not None and verdicts[neighbor][0] != INDETERMINATE:
                    assert rec.neighbor_verdict == verdicts[neighbor][0]
                if rec.a is not None:
                    assert rec.a == a
                if rec.b is not None:
                    assert rec.b == b
                checked += rec.a is not None and rec.b is not None
    assert checked > 20


# ---------------------------------------------------------------------------
# propagation, density, dichotomy


def test_propagation_recovers_shift():
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 3, 5)
    cls = classify(pair)
    result = propagate_goodness(pair, _good_indices(cls)[0], classification=cls)
    assert result.status == "ok" and result.ell == 3


def test_propagation_contradiction_after_corruption():
    chacon = get_spec("chacon")
    gaps = gap_instances(chacon, 2, 4)
    g = gaps[len(gaps) // 2]
    pair, _ = corrupt_gap_pair(chacon, 2, 4, len(gaps) // 2, g.length + 1)
    cls = classify(pair)
    seeds = [i for i in _good_indices(cls)]
    result = propagate_goodness(pair, seeds[0], classification=cls)
    assert result.status == "contradiction"
    assert result.reason == "bad occurrence"


def test_propagation_stops_at_an_alignment_drift():
    # one 1 cut from the middle gap of chacon's w_4, and one put at its end,
    # leaves every determinate occurrence good: at rho 0 before the cut and
    # at rho 1 after it
    chacon = get_spec("chacon")
    x = build_word(chacon, 4)
    occs = classify(shift_pair(chacon, 2, 0, 4)).x_occurrences
    cut = occs[len(occs) // 2] + len(build_word(chacon, 2))
    pair = cut_pair(chacon, 2, x, x.letters[:cut] + x.letters[cut + 1:] + b"1")
    cls = classify(pair)
    assert [r.rho for r in cls.records if r.verdict != INDETERMINATE] == \
        [0, 0, 0, 0, 1, 1, 1, 1]
    result = propagate_goodness(pair, _good_indices(cls)[0], classification=cls)
    assert (result.status, result.contradiction_index, result.reason) == \
        ("contradiction", 403, "alignment drift: rho=1 != 0")

def test_propagation_rejects_bad_seed():
    chacon = get_spec("chacon")
    pair, g = corrupt_gap_pair(chacon, 2, 4, 0, 100)
    cls = classify(pair)
    bad = next(r.index for r in cls.records if r.verdict == BAD)
    with pytest.raises(SpecError):
        propagate_goodness(pair, bad, classification=cls)


def test_propagation_single_occurrence_window():
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 2, 4, kappa=1)
    pair = CandidatePair(spec=chacon, x=window, y=window, kappa=1, n=2)
    cls = classify(pair)
    assert len(_good_indices(cls)) == 1
    result = propagate_goodness(pair, 0, classification=cls)
    assert result.status == "ok" and result.ell == 0


def test_density_on_shift_is_one():
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 7, 5)
    report = good_density(pair)
    assert report.density == 1
    assert report.threshold == Fraction(8, 9)
    assert report.meets_threshold


def test_density_without_a_determinate_occurrence_is_undecided():
    # w_2 alone: its one occurrence starts the window, so its probe span
    # leaves it
    chacon = get_spec("chacon")
    w2 = build_word(chacon, 2)
    report = good_density(CandidatePair(spec=chacon, x=w2, y=w2, kappa=1, n=2))
    assert report == DensityReport(0, 0, 1, None, Fraction(8, 9), None)


def test_density_all_ones_image_is_zero():
    chacon = get_spec("chacon")
    x = build_word(chacon, 4)
    y = NameWindow(0, b"1" * len(x))
    pair = CandidatePair(spec=chacon, x=x, y=y, kappa=1, n=2)
    report = good_density(pair)
    assert report.density == 0


def test_density_single_corruption_26_of_27():
    # one bad occurrence among the 27 copies of w_2 inside a padded w_5
    # block: corrupt the very last inter-copy gap so only one copy breaks
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 5, 6, kappa=1)
    gaps = gap_instances(chacon, 2, 5)
    last = gaps[-1]
    pair = spliced_pair(chacon, 2, 1, window, last.position - window.anchor,
                        last.length, last.length + 1)
    report = good_density(pair)
    assert report.good == 26 and report.bad == 1
    assert report.density == Fraction(26, 27)
    assert report.threshold == Fraction(8, 9)
    assert report.meets_threshold


def test_power_recovery_from_walked_orbits():
    # build both windows by walking the tower: the image point is a power
    # of the map applied to the source point, so its itinerary is the
    # source's shifted, and the classifier recovers the exponent
    from random import Random

    from rankone.tower import apply_T, name_window, sample_point

    chacon = get_spec("chacon")
    rng = Random(42)
    h3 = heights(chacon, 3)[3]
    for ell in (0, 3, 11):
        p = sample_point(chacon, 3, rng)
        q = p
        for _ in range(ell):
            q = apply_T(chacon, q)
        x = name_window(chacon, p, -h3, h3)
        y = name_window(chacon, q, -h3, h3)
        pair = CandidatePair(spec=chacon, x=x, y=y, kappa=1, n=2)
        cls = classify(pair)
        goods = _good_indices(cls)
        assert goods
        assert all(cls.record_at(i).rho == ell for i in goods)
        result = propagate_goodness(pair, goods[0], classification=cls)
        assert result.status == "ok" and result.ell == ell


def test_totally_shift_all_good():
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 3, 5)
    report = classify_totally(pair, 3)
    determinate = [b for b in report.blocks if b.verdict != INDETERMINATE]
    assert determinate and all(b.verdict == TOTALLY_GOOD for b in determinate)
    assert not report.dichotomy_violations


def test_totally_equal_stages_reduce_to_classify():
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 3, 4)
    cls = classify(pair)
    report = classify_totally(pair, 2, classification=cls)
    for block, rec in zip(report.blocks, cls.records):
        assert block.index == rec.index
        expected = {GOOD: TOTALLY_GOOD, BAD: TOTALLY_BAD,
                    INDETERMINATE: INDETERMINATE}[rec.verdict]
        assert block.verdict == expected


def test_dichotomy_after_totally_good():
    # corrupt a stage-3 gap between two w_3 blocks: the first stays totally
    # good and the one after the corruption is totally bad, never mixed
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 4, 5, kappa=1)
    g = next(gg for gg in gap_instances(chacon, 2, 4) if gg.stage == 3)
    pair = spliced_pair(chacon, 2, 1, window, g.position - window.anchor,
                        g.length, g.length + 1)
    report = classify_totally(pair, 3)
    verdicts = [b.verdict for b in report.blocks]
    assert TOTALLY_GOOD in verdicts and TOTALLY_BAD in verdicts
    assert MIXED not in verdicts
    assert not report.dichotomy_violations
    first_bad = next(b.index for b in report.blocks if b.verdict == TOTALLY_BAD)
    assert first_bad > g.position

def test_propagation_names_the_first_mismatch():
    # the shift by 5 holds up to one flipped letter of the image; the
    # contradiction is the index of that letter wherever it lies in the
    # len(word) - 10 letters that the shift compares, and none after them
    chacon = get_spec("chacon")
    word = build_word(chacon, 5)
    last = len(word) - 11
    for flip in (0, 1, 777, 2048, 2049, last - 1, last, last + 1):
        image = bytearray(word.letters[5:])
        image[flip] ^= 1
        pair = cut_pair(chacon, 3, word, bytes(image), kappa=1)
        cls = classify(pair)
        assert cls.counts()[1] == 0
        result = propagate_goodness(pair, _good_indices(cls)[0], classification=cls)
        if flip > last:
            assert result.status == "ok" and result.ell == 5
            continue
        assert result.status == "contradiction"
        assert result.reason == "image window is not the source shifted by ell"
        assert result.contradiction_index == flip


def test_propagation_finds_a_late_mismatch_in_time():
    # a flip 11 letters before the end of w_9 (5,643,512 letters); a loop
    # over the letters took about half a second to reach it
    chacon = get_spec("chacon")
    word = build_word(chacon, 9)
    image = bytearray(word.letters[5:])
    image[5_643_501] ^= 1
    pair = cut_pair(chacon, 3, word, bytes(image), kappa=1)
    cls = classify(pair)
    start = time.perf_counter()
    result = propagate_goodness(pair, _good_indices(cls)[0], classification=cls)
    elapsed = time.perf_counter() - start
    assert result.status == "contradiction"
    assert result.contradiction_index == 5_643_501
    assert elapsed < 0.1


# ---------------------------------------------------------------------------
# blocks read from the classification


@st.composite
def _block_case(draw):
    """A window cut from a stage word, as is, with one letter flipped, or
    with one 1-run made a letter longer or shorter (a spliced gap), at an
    anchor that is often not 0, for registry specs including the periodic
    finite odometer and for random certified specs.  m runs from n to the
    window's stage, and sometimes past it, so that w_m is longer than the
    window."""
    name = draw(st.sampled_from(["chacon", "hk", "finite-odometer", "random"]))
    if name == "random":
        spec = random_certified_spec(Random(draw(st.integers(0, 2 ** 32))), max_r=3)
    else:
        spec = get_spec(name)
    n = draw(st.integers(1, 3))
    top = max(k for k in range(n, n + 4) if heights(spec, k)[k] <= 60_000)
    word = build_word(spec, top).letters
    # most windows keep most of the word, so that w_m for m > n often fits
    a = draw(st.one_of(st.integers(0, 40), st.integers(0, len(word) - 1)))
    a = min(a, len(word) - 1)
    b = draw(st.one_of(st.integers(len(word) - 40, len(word)),
                       st.integers(a + 1, len(word))))
    letters = bytearray(word[a:max(a + 1, b)])
    mode = draw(st.sampled_from(["plain", "flip", "splice"]))
    if mode == "flip":
        letters[draw(st.integers(0, len(letters) - 1))] ^= 1
    elif mode == "splice" and b"1" in letters:
        k = letters.find(b"1", draw(st.integers(0, len(letters) - 1)))
        k = k if k >= 0 else letters.find(b"1")
        letters[k:k + 1] = draw(st.sampled_from([b"", b"11"]))
    x = NameWindow(draw(st.integers(-60, 60)), bytes(letters))
    m = draw(st.one_of(st.integers(n, top), st.integers(n, n + 4)))
    return spec, n, m, x


@given(_block_case())
@settings(max_examples=150, deadline=None)
def test_totally_blocks_are_the_occurrences_of_w_m(case):
    spec, n, m, x = case
    pair = CandidatePair(spec=spec, x=x, y=NameWindow(x.anchor, b"1" * len(x)),
                         kappa=0, n=n)
    report = classify_totally(pair, m)
    wm = build_word(spec, m).letters
    expected = [i + x.anchor for i in oracle_occurrences(wm, x.letters)]
    assert [b.index for b in report.blocks] == expected
    wn = build_word(spec, n).letters
    constituents = [i + x.anchor for i in oracle_occurrences(wn, x.letters)]
    for block in report.blocks:
        inside = [i for i in constituents
                  if block.index <= i <= block.index + len(wm) - len(wn)]
        assert block.good + block.bad + block.indeterminate == len(inside)


def test_totally_blocks_of_spliced_pair_match_the_scan():
    chacon = get_spec("chacon")
    window = padded_block_window(chacon, 2, 4, 5, kappa=1)
    g = next(gg for gg in gap_instances(chacon, 2, 4) if gg.stage == 3)
    pair = spliced_pair(chacon, 2, 1, window, g.position - window.anchor,
                        g.length, g.length + 1)
    for m in range(2, 7):
        report = classify_totally(pair, m)
        wm = build_word(chacon, m).letters
        assert [b.index for b in report.blocks] == \
            [i + window.anchor for i in oracle_occurrences(wm, window.letters)]
    assert len(classify_totally(pair, 4).blocks) == 1
    assert classify_totally(pair, 5).blocks == ()


def test_totally_with_a_classification_scans_nothing(monkeypatch):
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 3, 6)
    cls = classify(pair)

    def refuse(*args, **kwargs):
        raise AssertionError("classify_totally scanned or built a word")

    for module in (analysis, words):
        monkeypatch.setattr(module, "occurrences", refuse)
        monkeypatch.setattr(module, "build_word", refuse)
    report = classify_totally(pair, 4, classification=cls)
    assert len(report.blocks) == 8
    assert classify_totally(pair, 30, classification=cls).blocks == ()


def test_totally_needs_every_run_between_copies_to_be_ones():
    # w_4 with the first or the last letter of one 1-run set to 0: every
    # copy of w_2 still stands, but the blocks around that run are gone
    chacon = get_spec("chacon")
    word = build_word(chacon, 4).letters
    for gap in gap_instances(chacon, 2, 4):
        for k in (gap.position, gap.position + gap.length - 1):
            letters = word[:k] + b"0" + word[k + 1:]
            x = NameWindow(-9, letters)
            pair = CandidatePair(spec=chacon, x=x, kappa=1, n=2,
                                 y=NameWindow(-9, b"1" * len(letters)))
            for m in (3, 4):
                wm = build_word(chacon, m).letters
                expected = [i - 9 for i in oracle_occurrences(wm, letters)]
                assert [b.index for b in classify_totally(pair, m).blocks] == expected
            assert classify_totally(pair, 4).blocks == ()
