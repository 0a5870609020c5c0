"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the lines as they complete."""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from rankone.analysis import (
    BAD,
    GOOD,
    INDETERMINATE,
    MIXED,
    TOTALLY_GOOD,
    check_ab_law,
    classify,
    classify_totally,
    good_density,
    propagate_goodness,
    select_kappa,
    shift_pair,
)
from rankone.inverseiso import (
    check_non_isomorphism,
    decide_inverse_isomorphic,
    incompatible,
    reverse,
    star,
)
from rankone.params import (
    certified,
    check_rewriting_criterion,
    check_partially_bounded,
    heights,
    normalize,
    rule_at,
)
from rankone.registry import get_spec
from rankone.tower import name_window, sample_point, verify_injectivity
from rankone.words import build_word, expected_occurrences, gap_instances, occurrences

from helpers import (
    oracle_compatible,
    oracle_gap_after,
    oracle_verdicts,
    padded_block_window,
    random_certified_spec,
    random_growth_spec,
    random_normalized_spec,
    spliced_pair,
    walk_name,
)


@contextmanager
def criterion(number: int, limit_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] FAIL ({elapsed:.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS ({elapsed:.2f}s / {limit_s}s) {description}")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


# ---------------------------------------------------------------------------


def test_criterion_01_word_reproduction():
    chacon = get_spec("chacon")
    build_word(chacon, 2)  # warm the registry and register caches
    with criterion(1, 0.001, "stage words of the three-cut example"):
        assert build_word(chacon, 1).to_text() == "0010"
        assert build_word(chacon, 2).to_text() == "001011110010111110010"


def test_criterion_02_height_identity(monkeypatch):
    monkeypatch.setattr("rankone.words.DEFAULT_CAP", 10 ** 7)
    rng = Random(102)
    specs = [get_spec("chacon"), get_spec("hk")] + [
        random_normalized_spec(rng) for _ in range(100)
    ]
    with criterion(2, 10.0, "word length equals the height recurrence"):
        for spec in specs:
            hs = heights(spec, 30)
            for n, h in enumerate(hs):
                if h > 10 ** 7:
                    break
                assert len(build_word(spec, n)) == h


def test_criterion_03_normalization():
    rng = Random(103)
    with criterion(3, 30.0, "delayed-spacer rewriting and its boundedness"):
        norm = normalize(get_spec("chacon-raw"))
        assert rule_at(norm, 0).spacers == (0, 1)
        assert rule_at(norm, 1).spacers == (4, 5)
        for _ in range(100):
            raw = random_growth_spec(rng)
            assert check_rewriting_criterion(raw).status == "holds"
            result = check_partially_bounded(normalize(raw), mode="numeric",
                                             up_to=12)
            assert result.status == "certified"


def test_criterion_04_expectedness():
    rng = Random(104)
    specs = [get_spec("chacon"), get_spec("hk")] + [
        random_certified_spec(rng) for _ in range(50)
    ]
    with criterion(4, 60.0, "scanned occurrences equal the recursion's copies"):
        for spec in specs:
            cert = certified(spec)
            hs = heights(spec, 24)
            top = max(m for m in range(25) if hs[m] <= 10 ** 6)
            words = {m: build_word(spec, m).letters
                     for m in range(cert.N, top + 1)}
            for m in range(cert.N, top + 1):
                for n in range(cert.N, m + 1):
                    assert occurrences(words[n], words[m]) == \
                        expected_occurrences(spec, n, m)


def test_criterion_05_geometric_symbolic_agreement():
    with criterion(5, 60.0, "decoded names equal the step-by-step walk"):
        for name in ("chacon", "hk"):
            spec = get_spec(name)
            h3 = heights(spec, 3)[3]
            rng = Random(105)
            for _ in range(1000):
                p = sample_point(spec, 3, rng)
                decoded = name_window(spec, p, -h3, h3)
                assert decoded.letters == walk_name(spec, p, -h3, h3)


def test_criterion_06_injectivity_probe():
    with criterion(6, 60.0, "distinct levels separate within the window"):
        for name in ("chacon", "hk"):
            spec = get_spec(name)
            report = verify_injectivity(spec, trials=1000, m=3, seed=106)
            assert report.separated == 1000
            assert not report.failures


# ---------------------------------------------------------------------------
# criterion 7: the synthetic corpus


def _oracle_ab_record(pair, cls, verdicts, i):
    """Recompute a right-direction gap-law record with letter-level scans."""
    wn = build_word(pair.spec, pair.n).letters
    x, y = pair.x, pair.y
    a = oracle_gap_after(x.letters, i + len(wn) - x.anchor, wn)
    _, rho = verdicts[i]
    p = i - rho
    b = oracle_gap_after(y.letters, p + len(wn) - y.anchor, wn)
    neighbor = None
    if a is not None:
        cand = i + len(wn) + a
        if cand in verdicts and verdicts[cand][0] != INDETERMINATE:
            neighbor = verdicts[cand][0]
    return a, b, neighbor


def _oracle_blocks(pair, verdicts, m):
    wm = build_word(pair.spec, m).letters
    wn_len = len(build_word(pair.spec, pair.n).letters)
    out = []
    for rel in range(len(pair.x.letters) - len(wm) + 1):
        if not pair.x.letters.startswith(wm, rel):
            continue
        j = rel + pair.x.anchor
        inside = [v for i, (v, _) in verdicts.items()
                  if j <= i and i + wn_len <= j + len(wm)]
        if not inside or any(v == INDETERMINATE for v in inside):
            verdict = INDETERMINATE
        elif all(v == GOOD for v in inside):
            verdict = TOTALLY_GOOD
        elif all(v == BAD for v in inside):
            verdict = "totally_bad"
        else:
            verdict = MIXED
        out.append((j, verdict))
    return out


def _corpus(rng):
    """Around a thousand candidate pairs: shifts of every scale plus
    single-gap corruptions drawing replacement lengths from the same stage,
    a higher stage, and a lower stage.

    Each pair carries the block stage usable for the dichotomy check: the
    block dichotomy concerns gaps *between* blocks, so the block stage must
    not exceed the corrupted gap's stage (a corruption inside a block can
    legitimately leave it half good)."""
    specs = [get_spec("chacon"), get_spec("hk")] + [
        random_certified_spec(rng, max_r=3) for _ in range(3)
    ]
    pairs = []
    for spec in specs:
        kappa = select_kappa(spec)
        n = max(certified(spec).N, kappa) + 1
        m = n + 2
        reach = heights(spec, n)[n] - heights(spec, kappa)[kappa]
        for _ in range(70):
            pairs.append((shift_pair(spec, n, rng.randint(0, reach), m,
                                     kappa=kappa), n, n + 1))
        window = padded_block_window(spec, n, m, m + 1, kappa)
        gaps = [g for g in gap_instances(spec, n, m)
                if g.position - window.anchor >= reach + len(window.letters) // 20]
        by_stage: dict = {}
        for g in gap_instances(spec, n, m + 1):
            by_stage.setdefault(g.stage, set()).add(g.length)
        stages = sorted(by_stage)
        for _ in range(130):
            g = rng.choice(gaps)
            mode = rng.choice(("same", "higher", "lower", "nudge"))
            if mode == "same" and len(by_stage[g.stage]) > 1:
                new = rng.choice(sorted(by_stage[g.stage] - {g.length}))
            elif mode == "higher" and any(s > g.stage for s in stages):
                new = min(by_stage[min(s for s in stages if s > g.stage)])
            elif mode == "lower" and any(s < g.stage for s in stages):
                new = max(by_stage[max(s for s in stages if s < g.stage)])
            else:
                new = g.length + rng.choice((-1, 1, 2))
            if new == g.length or new < 0:
                new = g.length + 1
            block_stage = min(n + 1, g.stage)
            pairs.append((
                spliced_pair(spec, n, kappa, window,
                             g.position - window.anchor, g.length, new),
                n, block_stage))
    return pairs


def test_criterion_07_gap_law_and_dichotomy():
    rng = Random(107)
    with criterion(7, 120.0, "classifier, gap law, and block dichotomy "
                   "match letter-level oracles"):
        pairs = _corpus(rng)
        assert len(pairs) >= 1000
        for pair, n, block_stage in pairs:
            cls = classify(pair)
            verdicts = oracle_verdicts(pair)
            assert len(cls.records) == len(verdicts)
            for rec in cls.records:
                v, rho = verdicts[rec.index]
                assert rec.verdict == v
                if v == GOOD:
                    assert rec.rho == rho
            for rec in cls.records:
                if rec.verdict != GOOD:
                    continue
                law = check_ab_law(pair, rec.index, classification=cls)
                a, b, neighbor = _oracle_ab_record(pair, cls, verdicts,
                                                   rec.index)
                assert law.a == a
                assert law.b == b
                assert law.neighbor_verdict == neighbor
                if law.predicted_good is not None and neighbor is not None:
                    assert law.consistent == \
                        (law.predicted_good == (neighbor == GOOD))
            report = classify_totally(pair, block_stage, classification=cls)
            expected_blocks = _oracle_blocks(pair, verdicts, block_stage)
            assert [(blk.index, blk.verdict) for blk in report.blocks] == \
                expected_blocks
            assert not report.dichotomy_violations


def test_criterion_08_power_recovery():
    with criterion(8, 30.0, "shift pairs recover the power exactly"):
        for name, n, m in (("chacon", 2, 5), ("hk", 2, 5)):
            spec = get_spec(name)
            kappa = select_kappa(spec)
            reach = heights(spec, n)[n] - heights(spec, kappa)[kappa]
            for ell in range(reach + 1):
                pair = shift_pair(spec, n, ell, m, kappa=kappa)
                cls = classify(pair)
                seed = next(r.index for r in cls.records if r.verdict == GOOD)
                result = propagate_goodness(pair, seed, classification=cls)
                assert result.status == "ok" and result.ell == ell
                report = good_density(pair, classification=cls)
                assert report.density == Fraction(1)


def test_criterion_09_tuple_calculus_suite(monkeypatch):
    monkeypatch.setattr("rankone.words.DEFAULT_CAP", 1 << 22)
    rng = Random(109)
    with criterion(9, 120.0, "incompatibility, star, and the obstruction"):
        for _ in range(10_000):
            length = rng.randint(1, 8)
            s = tuple(rng.randint(0, 9) for _ in range(length))
            s2 = tuple(rng.randint(0, 9) for _ in range(length))
            forward = incompatible(s, s2).incompatible
            assert forward == incompatible(s2, s).incompatible
            assert forward == (not oracle_compatible(s, s2)[0])
            assert forward == (not oracle_compatible(s2, s)[0])

        for _ in range(1000):
            t1 = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 5)))
            t2 = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 5)))
            t3 = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 5)))
            assert star(star(t3, t2), t1) == star(t3, star(t2, t1))

        done = 0
        while done < 1000:
            s1 = tuple(rng.randint(0, 20) for _ in range(rng.randint(1, 5)))
            s2 = tuple(rng.randint(0, 20) for _ in range(rng.randint(1, 5)))
            if s1 == reverse(s1) or len(set(s2)) <= 1:
                continue
            t = star(s2, s1)
            assert incompatible(t, reverse(t)).incompatible
            done += 1

        _obstruction_suite(rng, pairs=20)


def _obstruction_suite(rng, pairs):
    from rankone.params import ParameterSpec, StageRule

    built = 0
    while built < pairs:
        spec = random_certified_spec(rng, max_r=5)
        pos = rng.randrange(len(spec.cycle))
        rule = spec.cycle[pos]
        if rule.r < 4:
            continue
        entries = list(rule.spacers)
        perm = entries[:]
        rng.shuffle(perm)
        values_a = tuple(e.b for e in entries)
        values_b = tuple(e.b for e in perm)
        if not incompatible(values_a, values_b).incompatible:
            continue
        cycle = list(spec.cycle)
        cycle[pos] = StageRule(r=rule.r, spacers=tuple(perm), last=rule.last,
                               acc=rule.acc)
        other = ParameterSpec(cycle=tuple(cycle), preperiod=spec.preperiod)
        n = len(spec.preperiod) + pos
        assert incompatible(rule_at(spec, n).spacers,
                            rule_at(other, n).spacers).incompatible
        sigma = build_word(spec, n + 1).letters
        m = n + 1
        while True:
            other_word = build_word(other, m).letters
            assert occurrences(sigma, other_word) == []
            if len(other_word) > 50_000:
                break
            m += 1
        assert occurrences(sigma, build_word(spec, m).letters)
        built += 1


def test_criterion_10_decisions():
    with criterion(10, 10.0, "inverse-isomorphism verdicts and the "
                   "non-isomorphism witness"):
        hk = decide_inverse_isomorphic(get_spec("hk"))
        assert hk.isomorphic_to_inverse and hk.N == 0

        chacon = decide_inverse_isomorphic(get_spec("chacon"))
        assert not chacon.isomorphic_to_inverse

        report = check_non_isomorphism(get_spec("chacon"),
                                       get_spec("chacon-reversed"))
        assert report.criteria_met
        w = report.witness
        assert w.q == 27 and len(w.t) == 26
        assert incompatible(w.t, w.t_prime).incompatible
        assert not oracle_compatible(w.t, w.t_prime)[0]
        assert not oracle_compatible(w.t_prime, w.t)[0]
