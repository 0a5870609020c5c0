import json

import pytest

from rankone.cli import main

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


def test_normalize_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "normalize", "--spec", "chacon-raw")
    assert code == 0
    config = tmp_path / "normalized.cfg"
    config.write_text(out)
    code2, out2, _ = run(capsys, "word", "--spec", str(config), "--n", "2")
    assert code2 == 0 and out2.strip() == W2_CHACON


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
])
def test_bad_input_exit_codes(capsys, tmp_path, argv, code):
    argv = [v.format(missing=tmp_path / "missing.txt") for v in argv]
    got, _, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
