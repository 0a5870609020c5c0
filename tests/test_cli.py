import contextlib
import io
import json
import runpy
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import cli
from rankone.cli import build_parser, main
from rankone.errors import RankOneError
from rankone.inverseiso import GROUPING_HORIZON_PERIODS
from rankone.params import serialize_spec
from rankone.registry import get_spec, names
from rankone.words import NameWindow, build_word

W2_CHACON = "001011110010111110010"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
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


def test_check_undecided_spec_exits_inconclusive(capsys, tmp_path):
    config = tmp_path / "undecided.cfg"
    config.write_text("cycle: [r=2, s=(1A+3), acc=1h+1A+6]\n")
    code, out, _ = run(capsys, "check", "--spec", str(config))
    assert code == 3
    assert out.splitlines() == [
        "partially bounded: unknown (condition (3) undecided for cycle rule 0 "
        "slot 0 within 64 periods; fall back to numeric mode)"]


@pytest.mark.parametrize("config, line, code", [
    ("cycle: [r=2, s=(1), last=1]\n", "rewriting criterion: fails", 1),
    ("preperiod: [r=2, s=(0), last=1]\ncycle: [r=2, s=(0), last=1A]\n",
     "rewriting criterion: unknown", 3),
    ("preperiod: [r=2, s=(0)]\ncycle: [r=2, s=(0), last=2h+1]\n",
     "rewriting criterion: not applicable "
     "(this check needs explicit last-column spacers)", 0),
])
def test_check_prints_the_rewriting_criterion_without_a_witness(
        capsys, tmp_path, config, line, code):
    # R, S and the threshold follow the status only when the criterion holds
    path = tmp_path / "raw.cfg"
    path.write_text(config)
    got, out, _ = run(capsys, "check", "--spec", str(path))
    assert got == code
    assert out.splitlines()[0] == line


UNCERTIFIED = "cycle: [r=3, s=(1h, 2h+1)]\n"  # condition (2) is undecided


@pytest.mark.parametrize("argv", [
    ["check", "--spec", "{F}"],
    ["inverse", "--spec", "{F}"],
    ["inverse", "--spec", "{F}", "--against", "{F}"],
    ["analyze", "--spec", "{F}", "--n", "2", "--m", "4", "--y", "shift:3"],
    ["analyze", "--spec", "{F}", "--n", "2", "--m", "4", "--kappa", "1",
     "--y", "shift:3"],
    ["inverse", "--spec", "finite-odometer"],
])
def test_a_missing_certificate_exits_inconclusive(capsys, tmp_path, argv):
    # whether the verdict or the command needs the hypothesis, exit 3
    path = tmp_path / "uncertified.cfg"
    path.write_text(UNCERTIFIED)
    code, _, err = run(capsys, *[v.format(F=path) for v in argv])
    assert code == cli.EXIT_INCONCLUSIVE == 3
    assert err == "" or err.startswith(
        "inconclusive: spec is not certified partially bounded: ")


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


@pytest.mark.parametrize("a", [3, -7])
def test_name_empty_window_inside_the_column(capsys, a):
    code, out, _ = run(capsys, "name", "--spec", "chacon",
                       "--point", "0:0:1/2", f"--window={a}:{a}")
    assert code == 0
    assert out == f"anchor:{a} letters:\n"


def test_name_window_with_negative_start(capsys):
    argv = ["name", "--spec", "chacon", "--point", "0:0:1/2", "--window=-3:2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "anchor:-3 letters:11001\n"
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert json.loads(out) == {"anchor": -3, "letters": "11001"}
    # without "=" argparse takes the value for an option
    code, _, err = run(capsys, "name", "--spec", "chacon", "--point", "0:0:1/2",
                       "--window", "-3:2")
    assert code == 2
    assert "expected one argument" in err


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


def test_analyze_prints_the_dichotomy_violations(capsys):
    code, out, _ = run(capsys, "analyze", "--spec", "chacon", "--n", "2",
                       "--m", "4", "--kappa", "1", "--y", "corrupt:6:30",
                       "--totally", "3")
    assert code == 1
    assert out.splitlines()[-2:] == ["block i=605 verdict=mixed",
                                     "dichotomy violations at [605]"]


def test_analyze_overlapping_copies_ends_in_time(capsys):
    # w_10 = 0^1024 has 1,047,553 overlapping copies in w_20, and as many in
    # the image; confirming each from scratch took over 7 s before the exit
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", "--spec", "finite-odometer", "--n", "10",
                       "--m", "20", "--kappa", "0", "--y", "shift:1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "1024 image copies contain the probe at 1023" in err


def test_analyze_image_from_file(capsys, tmp_path):
    # a shifted copy of the window written to disk classifies like shift:2
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


def test_injectivity_lists_each_pair_it_cannot_separate(capsys, monkeypatch):
    # names that never differ, as a defect in name_window would give,
    # make every trial a failure and the verdict a refutation
    monkeypatch.setattr("rankone.tower.name_window",
                        lambda spec, p, a, b: NameWindow(a, b"0" * (b - a)))
    code, out, _ = run(capsys, "injectivity", "--spec", "chacon", "--trials", "3")
    assert code == 1 and out == "trials=3 separated=0 failures=3\n"


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


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    """Config paths that --spec may name: missing, a directory, a file that is
    not UTF-8, one with a superscript digit, and one the test writes; and
    chacon's w_4 as an image file with one 1 turned into a 2 or a newline."""
    root = tmp_path_factory.mktemp("specs")
    (root / "binary.cfg").write_bytes(b"\xff\xfe\x00cycle")
    (root / "superscript.cfg").write_text("cycle: [r=2, s=(\u00b2)]\n")
    paths = {name: str(root / f"{name}.cfg") for name in
             ("missing", "binary", "superscript", "text")}
    w4 = build_word(get_spec("chacon"), 4).to_text()
    assert w4[52] == "1"  # altering this 1 drops the density below 8/9
    for name, letter in (("two", "2"), ("newline", "\n")):
        paths[name] = str(root / f"{name}.txt")
        Path(paths[name]).write_text(w4[:52] + letter + w4[53:])
    return paths | {"directory": str(root)}


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
    (["inverse", "--spec", "chacon", "--horizon", "3"], 2),
    (["word", "--spec", "chacon", "--n", "3", "--at", "5", "--range", "0:3"], 2),
    (["check", "--spec", "{directory}"], 2),
    (["check", "--spec", "{binary}"], 2),
    (["check", "--spec", "{superscript}"], 2),
    (["analyze", "--spec", "chacon", "--n", "0", "--m", "20", "--y",
      "corrupt:0:1"], 2),
    (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
      "file:{two}"], 2),
    (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
      "file:{newline}"], 2),
    (["orbit", "--spec", "chacon", "--point", "0:0:1/2", "--steps",
      "1000000000"], 2),
    (["name", "--spec", "chacon", "--point", "0:99:1/2", "--window", "0:0"], 2),
    (["name", "--spec", "chacon", "--point", "5000:0:1/2", "--window", "0:0"], 2),
    (["name", "--spec", "chacon", "--point", "2:0:1/5", "--window", "a:b"], 2),
    (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y", "foo:1"], 2),
    (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
      "shift:727"], 2),  # |w_4| = 727
    (["check", "--spec", "x" * 300], 2),
    (["inverse", "--spec", "chacon", "--against", "x" * 300], 2),
])
def test_bad_input_exit_codes(capsys, spec_paths, argv, code):
    argv = [v.format(**spec_paths) for v in argv]
    got, _, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err


@pytest.mark.parametrize("ref, message", [
    ("{missing}", "is neither a registry spec"),
    ("{binary}/x", "is neither a registry spec"),
    ("x" * 300, "cannot read the config file: [Errno 36] File name too long"),
    ("{directory}", "cannot read the config file: [Errno 21] Is a directory"),
    ("{binary}", "cannot read the config file: 'utf-8' codec"),
    ("a\0b", "cannot read the config file: embedded null byte"),
])
def test_unreadable_spec_names_its_cause(capsys, spec_paths, ref, message):
    code, out, err = run(capsys, "check", "--spec", ref.format(**spec_paths))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: ") and message in err


def test_inverse_horizon_defaults_to_the_grouping_horizon(capsys, monkeypatch):
    horizons = []

    def record(spec, other, horizon_periods):
        horizons.append(horizon_periods)
        raise RankOneError("recorded")

    monkeypatch.setattr("rankone.inverseiso.check_non_isomorphism", record)
    argv = ["inverse", "--spec", "chacon", "--against", "chacon-reversed"]
    run(capsys, *argv)
    run(capsys, *argv, "--horizon", "3")
    assert horizons == [GROUPING_HORIZON_PERIODS, 3]


def test_uncaught_exception_exits_internal(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_word", lambda args: 1 // 0)
    code, out, err = run(capsys, "word", "--spec", "chacon", "--n", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: ZeroDivisionError: integer division or modulo by zero\n"


def test_unencodable_payload_exits_internal(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_word", lambda args: (0, {"x": object()}, []))
    code, out, err = run(capsys, "--format", "json", "word", "--spec", "chacon",
                         "--n", "1")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: TypeError: object is not JSON serializable\n"


def test_module_entry_point_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["rankone", "word", "--spec", "chacon",
                                      "--n", "2"])
    # running a module that is already imported warns; the run is the same
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
            pytest.raises(SystemExit) as exit_:
        runpy.run_module("rankone.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == W2_CHACON + "\n"


def test_orbit_steps_bound_reads_the_cap(capsys, monkeypatch):
    monkeypatch.setattr("rankone.words.DEFAULT_CAP", 3 * 256)
    argv = ["orbit", "--spec", "chacon", "--point", "1:1:0/1"]
    code, out, _ = run(capsys, *argv, "--steps=3")
    assert code == 0 and len(out.splitlines()) == 4
    for steps in ("4", "-4"):
        code, out, err = run(capsys, *argv, f"--steps={steps}")
        assert code == 2 and out == ""
        assert err == f"error: |steps| may be at most 3, got {steps}\n"


# ---------------------------------------------------------------------------
# fuzzing: any argv ends in an exit code, never in an escaped exception

SPECS = st.sampled_from(names() + ["nope", "{missing}", "{directory}", "{binary}",
                                   "{text}"])
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


CONFIGS = st.one_of(
    st.text(),
    st.sampled_from([serialize_spec(get_spec(name)) for name in names()]),
)


@given(ARGVS, CONFIGS)
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_ends_in_an_exit_code(spec_paths, argv, config):
    Path(spec_paths["text"]).write_text(config, errors="surrogatepass")
    argv = [v.format(**spec_paths) for v in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# the strict parser against argparse, the reference it must agree with

# token groups that the strict parser refuses wherever they stand, or
# refuses in most places: help, an abbreviation, a separate value that
# starts with "-" but is no integer, "--", a value outside the choices or
# one that is no int, a repeat, a global option after the command, and
# --at with --range
SPLICED = st.sampled_from([
    ["-h"], ["--tri", "5"], ["--window", "-3:2"], ["--spec", "-\u00b2"],
    ["-.5"], ["--"], ["--format", "xml"], ["--n="], ["--n", "3"],
    ["--format", "json"], ["--at", "1", "--range", "0:2"],
])
DASHED = st.sampled_from(["-3:2", "-\u00b2", "-.5", "-1", "-\u0663", "-", "--"])


@st.composite
def respelled_argvs(draw):
    """An argv of ARGVS with each ``--key=value`` kept or written as two
    tokens, then left whole, cut by one token, given one token that starts
    with "-" in place of another, or spliced with a SPLICED group."""
    argv = []
    for token in draw(ARGVS):
        flag, eq, value = token.partition("=")
        argv += [flag, value] if eq and draw(st.booleans()) else [token]
    edit = draw(st.sampled_from(["none", "cut", "dash", "splice"]))
    i = draw(st.integers(0, len(argv) - 1))
    if edit == "cut":
        del argv[i]
    elif edit == "dash":
        argv[i] = draw(DASHED)
    elif edit == "splice":
        argv[i:i] = draw(SPLICED)
    return argv


@given(respelled_argvs())
@example(["name", "--spec", "chacon", "--point", "0:0:1/2", "--window", "-3:2"])
@example(["word", "--spec", "-\u00b2", "--n", "2"])
@example(["word", "--spec", "chacon", "--n", "2", "--at", "1", "--range", "0:2"])
@example(["word", "--spec", "chacon", "--n", "2", "--at", "1", "--at", "2"])
@example(["word", "--spec", "chacon", "--n"])
@example(["word", "--spec", "chacon", "--n="])
@example(["--format", "xml", "word", "--spec", "chacon", "--n", "2"])
@example(["word", "--spec", "chacon"])
@example(["--seed", "-3", "injectivity", "--spec", "chacon", "--trials", "-\u0663"])
@settings(max_examples=300, deadline=None)
def test_strict_parser_reads_argv_as_argparse_or_refuses_it(argv):
    strict = cli._parse(argv)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(build_parser().parse_args(argv))
        except SystemExit:  # help, or an error argparse reports
            assert strict is None
            return
    assert strict is None or vars(strict) == expected
