from fractions import Fraction
from random import Random

import pytest

from rankone.errors import CapExceededError, SpecError, UndefinedOrbitError
from rankone.params import heights
from rankone.registry import get_spec
from rankone.tower import (
    TowerPoint,
    apply_T,
    apply_T_inverse,
    canonicalize,
    in_base0,
    level_width,
    name_window,
    parse_point,
    refine,
    sample_point,
    verify_injectivity,
)
from rankone.words import build_word, letter_at

from helpers import random_certified_spec, walk_name

F = Fraction


def test_refine_examples():
    chacon = get_spec("chacon")
    assert refine(chacon, TowerPoint(0, 0, F(1, 3))) == TowerPoint(1, 1, F(0))
    assert refine(chacon, TowerPoint(0, 0, F(2, 3))) == TowerPoint(1, 3, F(0))
    # leftmost subcolumn keeps the level index
    assert refine(chacon, TowerPoint(1, 2, F(1, 6))) == TowerPoint(2, 2, F(1, 2))


def test_refine_is_invertible_by_canonicalize():
    rng = Random(30)
    chacon = get_spec("chacon")
    for _ in range(200):
        p = sample_point(chacon, 3, rng)
        assert canonicalize(chacon, refine(chacon, p)) == p


def test_apply_T_examples():
    chacon = get_spec("chacon")
    assert apply_T(chacon, TowerPoint(1, 1, F(0))) == TowerPoint(1, 2, F(0))
    # top of C_1: refine to stage 2 (level 3 + 4 + 4 = 11), then step up
    assert apply_T(chacon, TowerPoint(1, 3, F(1, 3))) == TowerPoint(2, 12, F(0))


def test_apply_T_inverse_examples():
    chacon = get_spec("chacon")
    assert apply_T_inverse(chacon, TowerPoint(1, 2, F(0))) == \
        canonicalize(chacon, TowerPoint(1, 1, F(0)))
    # the preimage of (2, 12, 0) is the point written (1, 3, 1/3), whose
    # canonical form is (0, 0, 7/9)
    back = apply_T_inverse(chacon, TowerPoint(2, 12, F(0)))
    assert back == canonicalize(chacon, TowerPoint(1, 3, F(1, 3)))
    assert back == TowerPoint(0, 0, F(7, 9))


def test_round_trip_identity():
    rng = Random(31)
    for name in ("chacon", "hk"):
        spec = get_spec(name)
        for _ in range(10_000 if name == "chacon" else 2_000):
            p = sample_point(spec, 3, rng)
            q = apply_T(spec, p)
            assert apply_T_inverse(spec, q) == p


@pytest.mark.parametrize("name", ["chacon", "hk"])
def test_forward_orbit_budget(name, monkeypatch):
    spec = get_spec(name)
    r = spec.cycle[0].r
    # offset 1 - r^-k keeps the base point in the rightmost subcolumn, on a
    # column top, for k refinements; stepping up takes one more
    p = TowerPoint(0, 0, 1 - F(1, r ** 63))
    assert in_base0(spec, apply_T(spec, p)) == \
        (name_window(spec, p, 0, 2).letter(1) == 0)
    edge = TowerPoint(0, 0, 1 - F(1, r ** 64))
    with pytest.raises(UndefinedOrbitError,
                       match="^forward orbit undefined within 64 refinements$"):
        apply_T(spec, edge)
    with pytest.raises(UndefinedOrbitError, match=r"^window \[0, 2\) of the orbit "
                       "undefined within 64 refinements$"):
        name_window(spec, edge, 0, 2)
    far = TowerPoint(0, 0, 1 - F(1, r ** 70))
    with pytest.raises(UndefinedOrbitError):
        apply_T(spec, far)
    with pytest.raises(UndefinedOrbitError):
        name_window(spec, far, 0, 5)
    # every refine-until-fits loop reads the budget when it runs
    monkeypatch.setattr("rankone.tower.DEFAULT_STAGE_BUDGET", 80)
    assert apply_T(spec, far).level > 0
    assert name_window(spec, far, 0, 5).letters == \
        walk_name(spec, far, 0, 5, budget=80)
    with pytest.raises(UndefinedOrbitError,
                       match="^backward orbit undefined within 80 refinements$"):
        apply_T_inverse(spec, TowerPoint(0, 0, F(1, r ** 81)))


@pytest.mark.parametrize("name", ["chacon", "hk"])
def test_backward_orbit_budget(name):
    spec = get_spec(name)
    r = spec.cycle[0].r
    # offset r^-k keeps the base point in the leftmost subcolumn, on level 0,
    # for k - 1 refinements; the k-th moves it up
    q = TowerPoint(0, 0, F(1, r ** 64))
    assert in_base0(spec, apply_T_inverse(spec, q)) == \
        (name_window(spec, q, -1, 1).letter(-1) == 0)
    edge = TowerPoint(0, 0, F(1, r ** 65))
    with pytest.raises(UndefinedOrbitError,
                       match="^backward orbit undefined within 64 refinements$"):
        apply_T_inverse(spec, edge)
    with pytest.raises(UndefinedOrbitError, match=r"^window \[-1, 1\) of the orbit "
                       "undefined within 64 refinements$"):
        name_window(spec, edge, -1, 1)
    with pytest.raises(UndefinedOrbitError):
        apply_T_inverse(spec, TowerPoint(0, 0, F(0)))
    # offset 0 keeps the point in the leftmost subcolumn: no window reaching
    # back before it fits in any column
    with pytest.raises(UndefinedOrbitError):
        name_window(spec, TowerPoint(0, 0, F(0)), -1, 5)
    assert name_window(spec, TowerPoint(0, 0, F(0)), 0, 5).letters == \
        build_word(spec, 3).letters[:5]


def test_level_out_of_range():
    with pytest.raises(SpecError):
        canonicalize(get_spec("chacon"), TowerPoint(1, 4, F(0)))


def test_point_round_trip_format():
    p = TowerPoint(2, 12, F(3, 8))
    assert parse_point(str(p)) == p


# ---------------------------------------------------------------------------
# base membership and names


def test_in_base0_examples():
    chacon = get_spec("chacon")
    assert in_base0(chacon, TowerPoint(0, 0, F(1, 2)))
    assert not in_base0(chacon, TowerPoint(1, 2, F(1, 2)))  # w_1[2] = 1
    assert in_base0(chacon, TowerPoint(2, 8, F(1, 2)))  # w_2[8] = 0


def test_in_base0_matches_letters():
    for name in ("chacon", "hk"):
        spec = get_spec(name)
        for j in range(heights(spec, 3)[3]):
            p = TowerPoint(3, j, F(1, 7))
            assert in_base0(spec, p) == (letter_at(spec, 3, j)[0] == 0)


def test_name_at_base_is_the_stage_word():
    chacon = get_spec("chacon")
    h2 = heights(chacon, 2)[2]
    w = name_window(chacon, TowerPoint(2, 0, F(1, 5)), 0, h2)
    assert w.letters == build_word(chacon, 2).letters


def test_name_shifted_window():
    chacon = get_spec("chacon")
    h2 = heights(chacon, 2)[2]
    j = 7
    w = name_window(chacon, TowerPoint(2, j, F(1, 5)), -j, h2 - j)
    assert w.letters == build_word(chacon, 2).letters
    assert w.anchor == -j


def test_name_window_empty():
    chacon = get_spec("chacon")
    assert len(name_window(chacon, TowerPoint(0, 0, F(1, 2)), 5, 5)) == 0


def test_level_width_bookkeeping():
    chacon = get_spec("chacon")
    assert level_width(chacon, 0) == 1
    assert level_width(chacon, 3) == F(1, 27)
    with pytest.raises(SpecError, match="exceeds MAX_STAGE"):
        level_width(chacon, 20_000)
    # stepping up the tower keeps the point in levels of the same stage, so
    # the width accounting is exact by construction; refinement splits a
    # level into r equal parts and the offset arithmetic inverts exactly
    rng = Random(35)
    for _ in range(50):
        p = sample_point(chacon, 2, rng)
        refined = refine(chacon, p)
        assert level_width(chacon, refined.stage) * 3 == level_width(chacon, p.stage)
        assert canonicalize(chacon, refined) == p


def test_name_window_matches_stepwise_membership():
    # the letters are, by definition, the base-membership of the iterated
    # images; replay the window with the public one-step map
    chacon = get_spec("chacon")
    rng = Random(36)
    for _ in range(20):
        p = sample_point(chacon, 2, rng)
        window = name_window(chacon, p, -15, 25)
        q = p
        for _ in range(15):
            q = apply_T_inverse(chacon, q)
        for i in range(-15, 25):
            expected = 0 if in_base0(chacon, q) else 1
            assert window.letter(i) == expected
            if i + 1 < 25:
                q = apply_T(chacon, q)


def test_name_window_refine_invariant():
    rng = Random(32)
    chacon = get_spec("chacon")
    for _ in range(25):
        p = sample_point(chacon, 2, rng)
        w1 = name_window(chacon, p, -10, 30)
        w2 = name_window(chacon, refine(chacon, p), -10, 30)
        assert w1.letters == w2.letters


def test_name_window_matches_step_walker():
    rng = Random(33)
    for name in ("chacon", "hk"):
        spec = get_spec(name)
        h3 = heights(spec, 3)[3]
        for _ in range(60):
            p = sample_point(spec, 3, rng)
            decoded = name_window(spec, p, -h3, h3)
            assert decoded.letters == walk_name(spec, p, -h3, h3)


def test_name_window_on_certified_random_specs():
    rng = Random(34)
    for _ in range(3):
        spec = random_certified_spec(rng, max_r=3)
        h2 = heights(spec, 2)[2]
        for _ in range(10):
            p = sample_point(spec, 2, rng)
            decoded = name_window(spec, p, -h2, h2)
            assert decoded.letters == walk_name(spec, p, -h2, h2)


def test_name_window_near_the_right_edge():
    # 2^-53 from the right edge the point stays on column tops for about 33
    # refinements, within the budget
    chacon = get_spec("chacon")
    p = TowerPoint(1, 3, 1 - F(1, 2 ** 53))
    for a, b in ((0, 50), (-40, 40), (-3, 1)):
        assert name_window(chacon, p, a, b).letters == walk_name(chacon, p, a, b)


# ---------------------------------------------------------------------------
# separation


def test_verify_injectivity_smoke():
    report = verify_injectivity(get_spec("chacon"), trials=100, seed=3)
    assert report.ok and report.separated == 100


def test_verify_injectivity_trial_count():
    chacon = get_spec("chacon")
    assert verify_injectivity(chacon, trials=0).trials == 0
    with pytest.raises(SpecError):
        verify_injectivity(chacon, trials=-5)


def test_verify_injectivity_window_past_the_cap():
    # 4*h_10 letters for m = 9; refused before any point is drawn
    with pytest.raises(CapExceededError, match="m=9 has 135444244 letters"):
        verify_injectivity(get_spec("chacon"), trials=1, m=9)


def test_same_level_not_separable():
    chacon = get_spec("chacon")
    p1 = TowerPoint(3, 10, F(1, 8))
    p2 = TowerPoint(3, 10, F(5, 8))
    q1, q2 = canonicalize(chacon, p1), canonicalize(chacon, p2)
    assert (q1.stage, q1.level) == (q2.stage, q2.level)
    # identical points trivially read identical windows
    w1 = name_window(chacon, p1, -20, 20)
    w2 = name_window(chacon, p1, -20, 20)
    assert w1.letters == w2.letters


def test_distinct_levels_separate_within_column_height():
    # the lower point exits the column top into a spacer run while the
    # higher one is still climbing; one column height of letters suffices
    chacon = get_spec("chacon")
    h3 = heights(chacon, 3)[3]
    p1 = TowerPoint(3, 2, F(1, 9))
    p2 = TowerPoint(3, 57, F(1, 9))
    w1 = name_window(chacon, p1, 0, h3)
    w2 = name_window(chacon, p2, 0, h3)
    assert w1.letters != w2.letters
