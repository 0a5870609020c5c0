import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.cli import main
from rankone.registry import names

W2_CHACON = "001011110010111110010"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_chacon(capsys):
    code, out, _ = run(capsys, "word", "--spec", "chacon", "--n", "2")
    assert code == 0
    assert out.strip() == W2_CHACON


def test_word_stage_zero(capsys):
    code, out, _ = run(capsys, "word", "--spec", "chacon", "--n", "0")
    assert code == 0 and out.strip() == "0"


def test_word_lazy_letter(capsys):
    code, out, _ = run(capsys, "word", "--spec", "chacon", "--n", "40",
                       "--at", str(10 ** 9))
    assert code == 0 and out.strip() in ("0", "1")


def test_word_lazy_range_matches_materialized(capsys):
    code, out, _ = run(capsys, "word", "--spec", "chacon", "--n", "2",
                       "--range", "5:12")
    assert code == 0
    assert out.strip() == W2_CHACON[5:12]


def test_word_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "word", "--spec", "chacon",
                       "--n", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["letters"] == "0010"
    assert payload["length"] == 4


def test_check_chacon_raw(capsys):
    code, out, _ = run(capsys, "check", "--spec", "chacon-raw")
    assert code == 0
    assert "rewriting criterion: holds" in out
    assert "certified R=4 S=2 N=1" in out


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "--spec", "hk")
    payload = json.loads(out)
    assert code == 0
    cert = payload["partial_boundedness"]["certificate"]
    assert cert["N"] == 1 and cert["verified_mode"] == "symbolic"


def test_check_refutation_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--spec", "finite-odometer")
    assert code == 1
    assert "refuted" in out


def test_check_refutation_from_file(capsys, tmp_path):
    config = tmp_path / "odometer.cfg"
    config.write_text("name: odometer\ncycle: [r=2, s=(0)]\n")
    code, out, _ = run(capsys, "check", "--spec", str(config))
    assert code == 1
    assert "condition 3" in out


def test_check_numeric_mode(capsys):
    code, out, _ = run(capsys, "check", "--spec", "chacon", "--to", "12")
    assert code == 0 and "numeric-up-to(12)" in out


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--spec", "chacon",
                       "--point", "1:1:0/1", "--steps", "2")
    lines = out.strip().splitlines()
    assert code == 0
    # (1,1,0) climbs to the spacer level, then to level 3 of the column,
    # which is canonically the base point at offset 2/3
    assert lines == ["0:0:1/3", "1:2:0/1", "0:0:2/3"]


def test_orbit_backwards(capsys):
    code, out, _ = run(capsys, "orbit", "--spec", "chacon",
                       "--point", "1:2:0/1", "--steps", "-1")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines == ["1:2:0/1", "0:0:1/3"]


def test_name_window(capsys):
    code, out, _ = run(capsys, "name", "--spec", "chacon",
                       "--point", "2:0:1/5", "--window", "0:21")
    assert code == 0
    assert out.strip() == f"anchor:0 letters:{W2_CHACON}"


def test_analyze_shift(capsys):
    code, out, _ = run(capsys, "analyze", "--spec", "chacon", "--n", "2",
                       "--m", "4", "--y", "shift:3")
    assert code == 0
    assert "verdict=good rho=3" in out
    assert "density=" in out and "threshold=8/9" in out


def test_analyze_corrupt_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "analyze", "--spec", "chacon",
                       "--n", "2", "--m", "4", "--y", "corrupt:4:31",
                       "--totally", "3")
    payload = json.loads(out)
    records = payload["records"]
    assert any(r["verdict"] == "bad" for r in records)
    assert payload["occurrences"] == sorted(r["index"] for r in records)
    assert "totally" in payload
    assert code in (0, 1)


def test_analyze_image_from_file(capsys, tmp_path):
    # a shifted copy of the window written to disk classifies like shift:2
    from rankone.registry import get_spec
    from rankone.words import build_word

    word = build_word(get_spec("chacon"), 4).to_text()
    image = tmp_path / "image.txt"
    image.write_text(word[2:] + "11")
    code, out, _ = run(capsys, "analyze", "--spec", "chacon", "--n", "2",
                       "--m", "4", "--y", f"file:{image}")
    assert code == 0
    assert "verdict=good rho=2" in out


def test_short_image_file_keeps_the_word_provenance(tmp_path):
    # the cut x is still a prefix of w_m, so classify cross-checks it
    import argparse

    from rankone.cli import _build_pair
    from rankone.registry import get_spec
    from rankone.words import build_word

    chacon = get_spec("chacon")
    word = build_word(chacon, 4).to_text()
    image = tmp_path / "image.txt"
    image.write_text(word[3:])
    args = argparse.Namespace(y=f"file:{image}", n=2, m=4, kappa=None)
    pair = _build_pair(args, chacon)
    assert len(pair.x) == len(word) - 3
    assert pair.x.provenance == "word:4"


def test_parse_tolerates_spacing(capsys, tmp_path):
    config = tmp_path / "spaced.cfg"
    config.write_text("name: spaced\ncycle: [ r = 3 , s = ( 0 , 1 ) , last = 3h+1 ]\n")
    code, out, _ = run(capsys, "check", "--spec", str(config))
    assert code == 0
    assert "certified R=4 S=2 N=1" in out


def test_inverse_hk(capsys):
    code, out, _ = run(capsys, "inverse", "--spec", "hk")
    assert code == 0
    assert "inverse_isomorphic=True N=0" in out


def test_inverse_chacon(capsys):
    code, out, _ = run(capsys, "inverse", "--spec", "chacon")
    assert code == 1
    assert "inverse_isomorphic=False" in out


def test_inverse_against_reversed(capsys):
    code, out, _ = run(capsys, "--format", "json", "inverse", "--spec", "chacon",
                       "--against", "chacon-reversed")
    payload = json.loads(out)
    assert code == 0
    assert payload["criteria_met"] is True
    assert payload["witness"]["q"] == 27


def test_inverse_against_self_inconclusive(capsys):
    code, out, _ = run(capsys, "inverse", "--spec", "chacon",
                       "--against", "chacon")
    assert code == 3


def test_inverse_uneven_preperiods_exit_negative(capsys, tmp_path):
    spec_a = tmp_path / "a.cfg"
    spec_a.write_text("preperiod: [r=3, s=(1A, 2), acc=1]\n"
                      "cycle: [r=3, s=(1h, 1h+1)]\n")
    spec_b = tmp_path / "b.cfg"
    spec_b.write_text("preperiod: [r=3, s=(2, 1), acc=1]\n"
                      "cycle: [r=3, s=(1h+1, 1h)]\n")
    code, out, _ = run(capsys, "inverse", "--spec", str(spec_a),
                       "--against", str(spec_b))
    assert code == 1
    assert "status=condition1_fails" in out


def test_inverse_normalizes_a_raw_spec(capsys):
    raw = run(capsys, "inverse", "--spec", "chacon-raw")
    assert raw == run(capsys, "inverse", "--spec", "chacon")
    assert raw[0] == 1


def test_inverse_against_normalizes_a_raw_spec(capsys):
    code, out, _ = run(capsys, "inverse", "--spec", "chacon-raw",
                       "--against", "chacon-reversed")
    assert code == 0
    assert "criteria_met=True status=criteria_met" in out


def test_injectivity_normalizes_a_raw_spec(capsys):
    code, out, _ = run(capsys, "injectivity", "--spec", "hk-raw", "--trials", "3")
    assert code == 0 and out.strip() == "trials=3 separated=3 failures=0"


def test_normalize_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "normalize", "--spec", "chacon-raw")
    assert code == 0
    config = tmp_path / "normalized.cfg"
    config.write_text(out)
    code2, out2, _ = run(capsys, "word", "--spec", str(config), "--n", "2")
    assert code2 == 0 and out2.strip() == W2_CHACON


def test_injectivity_zero_trials(capsys):
    code, out, _ = run(capsys, "injectivity", "--spec", "chacon", "--trials", "0")
    assert code == 0 and out.strip() == "trials=0 separated=0 failures=0"


def test_injectivity_window_past_the_cap_names_m(capsys):
    code, _, err = run(capsys, "injectivity", "--spec", "chacon", "--m", "9",
                       "--trials", "1")
    assert code == 2
    assert "m=9" in err and "135444244 letters" in err


def test_injectivity_seeded_reproducible(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "injectivity",
                         "--spec", "hk", "--trials", "30")
    code2, out2, _ = run(capsys, "--format", "json", "injectivity",
                         "--spec", "hk", "--trials", "30")
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_spec_is_input_error(capsys):
    code, _, err = run(capsys, "word", "--spec", "nope", "--n", "1")
    assert code == 2
    assert "error:" in err


def test_bad_config_reports_position(capsys, tmp_path):
    config = tmp_path / "broken.cfg"
    config.write_text("cycle: [r=2, s=(0,)]\n")
    code, _, err = run(capsys, "check", "--spec", str(config))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, code", [
    (["name", "--spec", "chacon", "--point", "2:0:1/5", "--window", "3"], 2),
    (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
      "corrupt:4"], 2),
    (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
      "file:{missing}"], 2),
    (["word", "--spec", "chacon", "--n", "-1", "--at", "0"], 2),
    (["check", "--spec", "chacon", "--to", "-1"], 2),
    (["word", "--spec", "chacon", "--n", "3", "--range", "5:2"], 2),
    (["injectivity", "--spec", "finite-odometer"], 3),
    (["word", "--spec", "chacon", "--n", "3", "--at", "122"], 2),
    (["word", "--spec", "chacon", "--n", "5000", "--at", "0"], 2),
    (["name", "--spec", "chacon", "--point", "5000:0:1/2", "--window", "0:5"], 2),
    (["injectivity", "--spec", "chacon", "--trials", "-5"], 2),
    (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
      "corrupt:4:-3"], 2),
    (["inverse", "--spec", "chacon", "--against", "chacon-reversed",
      "--horizon", "0"], 2),
    (["inverse", "--spec", "chacon", "--against", "chacon-reversed",
      "--horizon", "-1"], 2),
])
def test_bad_input_exit_codes(capsys, tmp_path, argv, code):
    argv = [v.format(missing=tmp_path / "missing.txt") for v in argv]
    got, _, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzzing: any argv ends in an exit code, never in an escaped exception

SPECS = st.sampled_from(names() + ["nope"])
STAGES = st.integers(-2, 12)
SMALL = st.integers(-3, 20)
MISSING = str(Path(__file__).parent / "no-such-image.txt")


def _pair(ints):
    return st.tuples(ints, ints).map(lambda t: f"{t[0]}:{t[1]}")


POINTS = st.tuples(STAGES, SMALL, st.integers(-1, 4), st.integers(-1, 4)).map(
    lambda t: f"{t[0]}:{t[1]}:{t[2]}/{t[3]}"
)
IMAGES = st.one_of(
    SMALL.map(lambda v: f"shift:{v}"),
    _pair(SMALL).map(lambda v: f"corrupt:{v}"),
    st.just(f"file:{MISSING}"),
    st.sampled_from(["corrupt:1", "shift:", "bogus:1"]),
)


def _command(name, required=None, **optional):
    """``name --spec S`` with every required option and each optional one
    present or absent; values go in ``--flag=value`` form, so that negative
    ones are not read as flags."""
    def flag(key, value):
        return value.map(lambda v: [f"--{key}={v}"])

    parts = [flag("spec", SPECS)]
    parts += [flag(k, v) for k, v in (required or {}).items()]
    parts += [st.one_of(st.just([]), flag(k, v)) for k, v in optional.items()]
    return st.tuples(*parts).map(lambda ps: [name] + [x for p in ps for x in p])


ARGVS = st.tuples(
    st.sampled_from([[], ["--format", "json"]]),
    st.one_of(
        _command("word", {"n": STAGES}, at=SMALL, range=_pair(SMALL)),
        _command("check", to=STAGES),
        _command("orbit", {"point": POINTS, "steps": st.integers(-20, 20)}),
        _command("name", {"point": POINTS, "window": _pair(SMALL)}),
        _command("analyze", {"n": STAGES, "m": STAGES, "y": IMAGES},
                 kappa=STAGES, totally=STAGES),
        _command("inverse", against=SPECS, horizon=STAGES),
        _command("normalize"),
        _command("injectivity", trials=st.integers(-3, 5), m=STAGES),
    ),
).map(lambda t: t[0] + t[1])


@given(ARGVS)
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2, 3)
